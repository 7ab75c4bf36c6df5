"""Shared test helpers."""

import contextlib
import tracemalloc

import pytest

from diagmc import operators


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


@contextlib.contextmanager
def _in_parts(workers=3, cut=1):
    """Run every walk that splits in up to ``workers`` parts, at blocks of ``cut`` entries a part."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_WORKERS", workers)
        mp.setattr(operators, "_SPLIT_ENTRIES", cut)
        yield


@pytest.fixture(scope="session")  # session scope: hypothesis tests may take it
def in_parts():
    return _in_parts
