"""Special functions backing the distribution checks.

Implements the regularized incomplete beta function (continued fraction,
modified Lentz recurrence), the Student t cumulative distribution built on
it, and the asymptotic Kolmogorov statistic distribution.  Everything is
vectorized over the evaluation points with scalar shape parameters, which
is all the package needs.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "kolmogorov_critical",
    "kolmogorov_sf",
    "regularized_incomplete_beta",
    "student_t_cdf",
]

_FPMIN = 1e-300
_EPS = 3e-16
_MAX_ITER = 500


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta; needs x < (a+1)/(a+b+2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < _EPS):
            break
    return h


def _beta_direct(a: float, b: float, x: np.ndarray) -> np.ndarray:
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - ln_beta)
    return front * _beta_cf(a, b, x) / a


def regularized_incomplete_beta(a: float, b: float, x) -> np.ndarray:
    """I_x(a, b) for scalar a, b > 0 and x in [0, 1] (scalar or array)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    x = np.asarray(x, dtype=np.float64)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("x must lie in [0, 1]")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    # CF converges fast only below the symmetry point; mirror the rest
    switch = (a + 1.0) / (a + b + 2.0)
    lower = x < switch
    out[lower] = _beta_direct(a, b, x[lower])
    out[~lower] = 1.0 - _beta_direct(b, a, 1.0 - x[~lower])
    out[x == 0.0] = 0.0
    out[x == 1.0] = 1.0
    return out[0] if scalar else out


def student_t_cdf(x, dof: float) -> np.ndarray:
    """CDF of the Student t distribution via the regularized incomplete beta."""
    if dof <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    tail_arg = dof / (dof + x * x)
    half_tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, tail_arg)
    out = np.where(x >= 0.0, 1.0 - half_tail, half_tail)
    return out[0] if scalar else out


def kolmogorov_sf(x: float) -> float:
    """P[K >= x] for the asymptotic Kolmogorov statistic distribution."""
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        # dual (Jacobi theta) series: accurate for small x where the
        # alternating series converges slowly
        total = 0.0
        factor = -(math.pi**2) / (8.0 * x * x)
        for k in range(1, 40):
            term = math.exp(factor * (2 * k - 1) ** 2)
            total += term
            if term < 1e-18 * max(total, 1.0):
                break
        return 1.0 - math.sqrt(2.0 * math.pi) / x * total
    total = 0.0
    for k in range(1, 200):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
        total += term
        if abs(term) < 1e-18:
            break
    return max(0.0, min(1.0, total))


def kolmogorov_critical(alpha: float) -> float:
    """The value c with P[K >= c] = alpha, by bisection, computed once per alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return _kolmogorov_critical(float(alpha))


@lru_cache
def _kolmogorov_critical(alpha: float) -> float:
    lo, hi = 0.1, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
