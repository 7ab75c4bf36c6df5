"""Shared test helpers."""

import tracemalloc

import pytest


def _peak_bytes(fn):
    """Run ``fn()`` and return ``(result, peak)``, the peak ``tracemalloc`` bytes during the call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes
