"""Closed forms the tests check the package against.

The three test families' dense matrices and normwise bound constants, the
linear sensitivity model and the probe laws' fourth moments, written from
their definitions and independent of the code they check.  The family forms
use the arithmetic the operators' own readers use, so ``apply(eye)`` equals
:func:`dense` bit for bit.
"""

import math
from typing import NamedTuple

import numpy as np

from diagmc.estimators import GradientOracle


class FamilyConstants(NamedTuple):
    """Normwise bound ingredients of a test family at s = 1."""

    k1: float
    k2: float
    norm_da: float
    delta1: float
    delta2: float
    d: float


def _decay_x(n: int, theta: float) -> tuple[np.ndarray, float]:
    # x_j = exp(-j (1 - theta)), j = 1..n, and ||x||^2 summed exactly
    x = np.exp(-np.arange(1, n + 1, dtype=np.float64) * (1.0 - theta))
    return x, math.fsum((x * x).tolist())


def dense(kind: str, n: int, theta: float) -> np.ndarray:
    """The n x n matrix of a test family."""
    theta = float(theta)
    if kind == "rank1":  # I + theta ones ones^T
        m = np.full((n, n), theta)
        m[np.diag_indices(n)] += 1.0
        return m
    if kind == "decay":  # x x^T / ||x||^2
        x, xnorm2 = _decay_x(n, theta)
        return np.outer(x, x) / xnorm2
    if kind == "tridiag":  # unit diagonal, off-diagonal theta
        m = np.eye(n)
        idx = np.arange(n - 1)
        m[idx, idx + 1] = theta
        m[idx + 1, idx] = theta
        return m
    raise ValueError(f"unknown family {kind!r}")


def entries(op) -> np.ndarray:
    """A test family's :func:`dense` matrix, or any other operator's ``to_dense``."""
    if hasattr(op, "kind"):
        return dense(op.kind, op.dim, op.theta)
    return op.to_dense()


def family_constants(kind: str, n: int, theta: float) -> FamilyConstants:
    """k1, k2, ||D_A||, delta1, delta2 and d of a test family, from its closed forms."""
    t = float(theta)
    if kind == "rank1":
        k1, k2, norm_da = (n - 1) * t * t, (n - 1) * t, 1.0 + t
        return FamilyConstants(k1, k2, norm_da, k1 / norm_da**2, k2 / norm_da, float(n))
    if kind == "decay":
        x, xnorm2 = _decay_x(n, t)
        u = x * x / xnorm2
        u1 = float(u[0])
        k1 = u1 * (1.0 - u1)
        tail = math.fsum(x[1:].tolist())
        d_num = math.fsum((u * (1.0 - u)).tolist())
        return FamilyConstants(k1, float(x[0]) * tail / xnorm2, u1, 1.0 / u1 - 1.0,
                               tail / float(x[0]), d_num / k1)
    if kind == "tridiag":
        # the interior rows take the maximum, so n >= 3
        if n < 3:
            raise ValueError("closed-form constants require n >= 3")
        return FamilyConstants(2.0 * t * t, 2.0 * t, 1.0, 2.0 * t * t, 2.0 * t, float(n - 1))
    raise ValueError(f"unknown family {kind!r}")


def fourth_moment(spec) -> float:
    """E[w^4] of one probe entry (every family has mean 0 and variance 1): 1, s or 3."""
    return {"rademacher": 1.0, "sparse": spec.s}.get(spec.method, 3.0)


class LinearGradient(GradientOracle):
    """Gradient of f(x) = h^T x: the constant h, so one sample gives diag(C) = h o h exactly."""

    def __init__(self, h):
        self.h = np.asarray(h, dtype=np.float64).ravel()
        super().__init__(self.h.size, beta=float(np.max(np.abs(self.h))))

    def _sample_block(self, state, count):
        # the gradient ignores x; the counter still advances by one per sample
        return np.tile(self.h[:, None], (1, count)), state.advance(count)
