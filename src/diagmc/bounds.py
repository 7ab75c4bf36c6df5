"""Probabilistic error-bound evaluators and (epsilon, delta) sample planners.

Every function here is a pure evaluation of a closed-form tail bound, bound
constant or sample-size requirement; nothing is estimated.  Bound constants
are reductions of the per-row sums an operator computes from what it knows
(:meth:`SymmetricOperator.row_sums`): its stored entries, or a test family's
closed forms.  So these operations accept dense and sparse operators and the
test families at any n, and raw symmetric arrays, never pure matrix-free ones.
The off-diagonal sums are read as they come, never rebuilt as a difference
such as ||a_i||^2 - a_ii^2, which cancels to nothing as the diagonal dominates.
A normwise constant or a planned sample count that over- or underflows is
refused with a ``ValueError``, never returned.

Conventions:

* Tail bounds are clamped to [0, 1] for reporting; pass ``clamp=False`` to
  obtain the raw value (useful for plotting bound curves).
* Planners return ``ceil`` of the formula, clamped to at least 1 sample.
* Component indices are 0-based.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import QuadraticGradientOracle
from .operators import DenseSymmetric, SymmetricOperator, _check_index
from .probes import validate_sparsity

__all__ = [
    "ComponentConstants",
    "DgsmConstants",
    "GaussianNormwisePlan",
    "NormwiseConstants",
    "component_constants",
    "component_tail_bound",
    "dgsm_constants",
    "dgsm_tail_bound",
    "epsilon_for_samples_dgsm",
    "epsilon_for_samples_normwise",
    "gaussian_normwise_window",
    "normwise_constants",
    "normwise_tail_bound",
    "plan_samples_component",
    "plan_samples_dgsm",
    "plan_samples_gaussian_normwise",
    "plan_samples_normwise",
    "quadratic_model_constants",
]

# estimator methods (``EstimatorSpec.method``) that each family of bounds covers
NORMWISE_METHODS = ("rademacher", "sparse")
COMPONENT_METHODS = ("rademacher", "gaussian", "normalized_gaussian")


def _row_sums(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a_ii, sum_{j != i} a_ij^2, sum_{j != i} |a_ij|) of an operator or raw array."""
    if not isinstance(matrix, SymmetricOperator):
        matrix = DenseSymmetric.from_dense(matrix)
    with np.errstate(over="ignore"):  # a constant that overflows is refused by the caller
        return matrix.row_sums()


def _check_args(n_samples=None, t=None, eps=None, delta=None) -> None:
    # validates whichever of the common bound arguments a caller passes
    if n_samples is not None and n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if t is not None and not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be positive and finite, got {t}")
    if eps is not None and not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {eps}")
    if delta is not None and not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")


def _requirement(formula) -> float:
    """``formula()``, or inf where a divisor in it underflows to 0: no finite N reaches the target."""
    try:
        return formula()
    except ZeroDivisionError:
        return math.inf


def _ceil_samples(value: float) -> int:
    if not math.isfinite(value):
        raise ValueError(f"the planned sample count is {value}: the bound constants over- or underflow")
    return max(1, math.ceil(value - 1e-12))


# The normwise and DGSM bounds are both the intrinsic-dimension matrix
# Bernstein inequality, P[error >= t] <= 8 d exp(-N t^2 / (2 (v + L t / 3))),
# with intrinsic dimension d, variance proxy v and summand bound L.  The
# planner and its inverse take a relative target eps, t = eps * scale, and a
# summand bound L together with r = v / (scale * L_absolute): normwise passes
# (Delta2, Delta3) at scale ||D_A||, DGSM passes (s2, s3) at scale cmax.


def _bernstein_tail(d: float, v: float, L: float, n_samples: int, t: float, clamp: bool) -> float:
    raw = 8.0 * d * math.exp(-n_samples * t * t / (2.0 * (v + L * t / 3.0)))
    return min(1.0, raw) if clamp else raw


def _bernstein_samples(d: float, L: float, r: float, eps: float, delta: float) -> int:
    # N >= (L / (3 eps^2)) (2 eps + 6 r) ln(8 d / delta)
    return _ceil_samples(_requirement(
        lambda: L / (3.0 * eps * eps) * (2.0 * eps + 6.0 * r) * math.log(8.0 * d / delta)))


def _bernstein_epsilon(d: float, L: float, r: float, n_samples: int, delta: float) -> float:
    # the planner solved for eps after simplifying its 2 eps term to 2
    return math.sqrt(L / (3.0 * n_samples) * (2.0 + 6.0 * r) * math.log(8.0 * d / delta))


@dataclass(frozen=True)
class NormwiseConstants:
    """Ingredients of the normwise probe tail bound and planner.

    ``k1`` and ``k2`` measure the absolute deviation from diagonality
    (variance proxy and summand bound), ``delta1``/``delta2`` their relative
    counterparts, and ``d`` the intrinsic dimension of the variance proxy.
    ``is_diagonal`` flags matrices recovered exactly by a single standard
    Rademacher sample, for which (at s = 1) all constants degenerate.
    """

    s: float
    k1: float
    k2: float
    d: float
    delta1: float
    delta2: float
    norm_da: float
    is_diagonal: bool = False

    @property
    def delta3(self) -> float:
        # Delta2 underflows to 0 only with Delta1; the planner refuses the nan
        return self.delta1 / self.delta2 if self.delta2 else math.nan


def normwise_constants(matrix, s: float = 1.0) -> NormwiseConstants:
    """Compute normwise bound constants from explicit entries.

    At s = 1: k1 = max_i sum_{j!=i} a_ij^2, k2 = max_i sum_{j!=i} |a_ij|,
    d = sum_i sum_{j!=i} a_ij^2 / k1.  A diagonal matrix yields a flagged
    result rather than an error; a k1 of 0 for any other matrix (its squares
    underflow) or a constant that is not finite raises ``ValueError``.
    """
    s = validate_sparsity(s)
    diag, off2, off_abs = _row_sums(matrix)
    norm_da = np.max(np.abs(diag))  # a numpy scalar, whose square overflows to inf, not an error
    is_diagonal = not np.any(off_abs)
    if is_diagonal and s == 1.0:
        return NormwiseConstants(
            s=s, k1=0.0, k2=0.0, d=math.nan, delta1=0.0, delta2=0.0,
            norm_da=float(norm_da), is_diagonal=True,
        )
    if norm_da == 0.0:
        raise ValueError(
            "all diagonal entries are zero; relative normwise targets are undefined"
        )
    with np.errstate(all="ignore"):  # an over- or underflow is refused below
        variance = off2 + (s - 1.0) * diag * diag
        k1, k2 = np.max(variance), np.max((s - 1.0) * np.abs(diag) + s * off_abs)
        c = dict(k1=k1, k2=k2, d=np.sum(variance) / k1, delta1=k1 / norm_da**2, delta2=k2 / norm_da)
    if k1 == 0.0:
        raise ValueError("K1 = 0: the squared entries of the matrix underflow")
    bad = [f"{name} = {v:g}" for name, v in c.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"normwise bound constants are not finite: {', '.join(bad)}")
    return NormwiseConstants(s=s, **{name: float(v) for name, v in c.items()},
                             norm_da=float(norm_da), is_diagonal=is_diagonal)


def normwise_tail_bound(
    c: NormwiseConstants, n_samples: int, t: float, clamp: bool = True
) -> float:
    """P[normwise absolute error >= t] <= 8 d exp(-N t^2 / (2 (k1 + t k2 / 3)))."""
    _check_args(n_samples=n_samples, t=t)
    if c.is_diagonal and c.s == 1.0:
        return 0.0
    return _bernstein_tail(c.d, c.k1, c.k2, n_samples, t, clamp)


def plan_samples_normwise(c: NormwiseConstants, eps: float, delta: float) -> int:
    """Samples for a normwise (eps, delta) estimate with (sparse) Rademacher probes.

    N >= (delta2 / (3 eps^2)) (2 eps + 6 delta1 / delta2) ln(8 d / delta);
    a diagonal matrix (s = 1) needs a single sample.
    """
    _check_args(eps=eps, delta=delta)
    if c.is_diagonal and c.s == 1.0:
        return 1
    return _bernstein_samples(c.d, c.delta2, c.delta3, eps, delta)


def epsilon_for_samples_normwise(
    c: NormwiseConstants, n_samples: int, delta: float
) -> float:
    """Invert the simplified planner for the error level reachable at N samples.

    eps = sqrt((delta2 / 3N) (2 + 6 delta3) ln(8 d / delta)); the constant-2
    simplification of the 2 eps term makes this the bound-curve formula.
    """
    _check_args(n_samples=n_samples, delta=delta)
    if c.is_diagonal and c.s == 1.0:
        return 0.0
    return _bernstein_epsilon(c.d, c.delta2, c.delta3, n_samples, delta)


@dataclass(frozen=True)
class GaussianNormwisePlan:
    """Outcome of the Gaussian normwise planner with its validity window.

    The planned sample count is valid only inside ``[window_low,
    window_high]``; when the required count falls outside (or the window is
    empty, as happens at n = 100), the plan is infeasible and ``violation``
    names the offending edge.
    """

    feasible: bool
    n_samples: Optional[int]
    required: float
    window_low: float
    window_high: int
    violation: Optional[str] = None


def gaussian_normwise_window(matrix) -> tuple[float, float, int]:
    """The Gaussian normwise planner's inputs: (||A||_inf / ||D_A||_inf, 8 e ln n, n).

    The last two are the edges of the validity window 8 e ln n <= N <= n.
    """
    diag, _, off_abs = _row_sums(matrix)
    n = diag.shape[0]
    norm_inf = float(np.max(np.abs(diag) + off_abs))
    diag_inf = float(np.max(np.abs(diag)))
    if diag_inf == 0.0:
        raise ValueError("all diagonal entries are zero")
    return norm_inf / diag_inf, 8.0 * math.e * math.log(n), n


def plan_samples_gaussian_normwise(matrix, eps: float, delta: float) -> GaussianNormwisePlan:
    """Samples for a normwise (eps, delta) estimate with Gaussian probes.

    N = ceil(128 (e ln n)^3 / (eps^2 delta) * (||A||_inf / ||D_A||_inf)^2),
    subject to the validity window 8 e ln n <= N <= n.  Infeasibility is a
    returned value, not an error.
    """
    _check_args(eps=eps, delta=delta)
    ratio, window_low, n = gaussian_normwise_window(matrix)
    if n < 3:
        raise ValueError("the Gaussian normwise planner needs n >= 3")
    required = _requirement(lambda: 128.0 * (math.e * math.log(n)) ** 3 / (eps * eps * delta) * ratio * ratio)
    planned = _ceil_samples(required)
    violation = None
    if window_low > n:
        violation = "empty_window"
    elif planned > n:
        violation = "exceeds_dimension"
    elif planned < window_low:
        violation = "below_window"
    return GaussianNormwisePlan(
        feasible=violation is None, n_samples=planned if violation is None else None,
        required=required, window_low=window_low, window_high=n, violation=violation,
    )


@dataclass(frozen=True)
class ComponentConstants:
    """Row/column-i ingredients of the componentwise bounds.

    ``off2sq`` is the squared off-diagonal mass sum_{j != i} a_ij^2, as
    ``row_sums`` reduces it (the Rademacher error variance per sample; it is 0
    only for a diagonal row or one whose squares underflow), ``col_norm`` is
    hypot(sqrt(off2sq), a_ii), ``l1``/``l2`` the Gaussian bound
    constants, ``delta1i``/``delta2i`` their relative forms, and ``psi`` the
    diagonal-dominance ratio |a_ii| / sqrt(off2sq) (None for a diagonal row,
    whose estimate is error-free).
    """

    index: int
    a_ii: float
    col_norm: float
    off2sq: float
    l1: float
    l2: float
    delta1i: float
    delta2i: float
    psi: Optional[float]

    @property
    def is_diagonal_row(self) -> bool:
        return self.off2sq == 0.0


def component_constants(matrix, index: int) -> ComponentConstants:
    """Componentwise bound constants for one (0-based) diagonal entry.

    A constant that leaves the float range raises ``ValueError``, as in
    :func:`normwise_constants`.  Only a zero a_ii gives infinite relative
    forms ``delta1i``/``delta2i``, which the planner refuses by name.
    """
    diag, off2, _ = _row_sums(matrix)
    _check_index(index, diag.shape[0])
    a_ii, off2sq = float(diag[index]), float(off2[index])
    col_norm = math.hypot(math.sqrt(off2sq), a_ii)
    c = dict(col_norm=col_norm, off2sq=off2sq, l1=abs(a_ii) + col_norm,
             l2=a_ii * a_ii + (off2sq + a_ii * a_ii))
    if a_ii != 0.0:
        ratio = col_norm / abs(a_ii)
        c.update(delta1i=1.0 + ratio, delta2i=1.0 + ratio * ratio)
    if off2sq > 0.0:
        c.update(psi=abs(a_ii) / math.sqrt(off2sq))
    bad = [f"{name} = {v:g}" for name, v in c.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"componentwise bound constants are not finite: {', '.join(bad)}")
    undefined = dict(delta1i=math.inf, delta2i=math.inf, psi=None)  # a zero a_ii, a diagonal row
    return ComponentConstants(index=index, a_ii=a_ii, **{**undefined, **c})


def _check_method(method: str) -> None:
    if method not in COMPONENT_METHODS:
        raise ValueError(
            f"unknown componentwise method {method!r}; expected one of "
            f"{COMPONENT_METHODS}"
        )


def component_tail_bound(
    cc: ComponentConstants, method: str, n_samples: int, t: float, clamp: bool = True
) -> float:
    """P[|estimate_i - a_ii| >= t] for the chosen estimator.

    rademacher:           2 exp(-N t^2 / (2 off2sq))
    gaussian:             2 exp(-N t^2 / (2 (l2 + t l1)))
    normalized_gaussian:  sqrt(2 off2sq / (pi N)) / t * (1 + t^2/off2sq)^(-(N-1)/2)
    """
    _check_method(method)
    _check_args(n_samples=n_samples, t=t)
    if method == "rademacher":
        if cc.off2sq == 0.0:
            return 0.0
        raw = 2.0 * math.exp(-n_samples * t * t / (2.0 * cc.off2sq))
    elif method == "gaussian":
        raw = 2.0 * math.exp(-n_samples * t * t / (2.0 * (cc.l2 + t * cc.l1)))
    else:
        if cc.off2sq == 0.0:
            return 0.0
        prefactor = math.sqrt(2.0 * cc.off2sq / (math.pi * n_samples)) / t
        raw = prefactor * (1.0 + t * t / cc.off2sq) ** (-(n_samples - 1) / 2.0)
    return min(1.0, raw) if clamp else raw


def plan_samples_component(
    cc: ComponentConstants, method: str, eps: float, delta: float
) -> int:
    """Samples for a componentwise (eps, delta) estimate of a_ii.

    rademacher:           N >= (off2sq / a_ii^2) 2 ln(2/delta) / eps^2
    gaussian:             N >= (delta2i + delta1i eps) 2 ln(2/delta) / eps^2
    normalized_gaussian:  N >= 1 + 2 ln(sqrt(2/pi) / (delta eps psi)) / ln(1 + eps^2 psi^2)
    """
    _check_method(method)
    _check_args(eps=eps, delta=delta)
    if cc.a_ii == 0.0:
        raise ValueError(
            "componentwise relative targets require a nonzero diagonal entry"
        )
    if method != "gaussian" and cc.off2sq == 0.0:
        return 1
    if method == "rademacher":  # a_ii^2, eps^2 or eps psi may underflow to 0
        formula = lambda: (cc.off2sq / (cc.a_ii * cc.a_ii)) * 2.0 * math.log(2.0 / delta) / (eps * eps)
    elif method == "gaussian":
        formula = lambda: (cc.delta2i + cc.delta1i * eps) * 2.0 * math.log(2.0 / delta) / (eps * eps)
    else:
        formula = lambda: 1.0 + 2.0 * math.log(
            math.sqrt(2.0 / math.pi) / (delta * eps * cc.psi)
        ) / math.log1p(eps * eps * cc.psi * cc.psi)
    return _ceil_samples(_requirement(formula))


@dataclass(frozen=True)
class DgsmConstants:
    """Bound ingredients for the gradient-outer-product estimator.

    ``cdiag`` holds the exact (or assumed) sensitivity metrics c_ii, ``beta``
    the almost-sure sup-norm gradient bound; ``s1`` is the variance-proxy
    norm max_i c_ii (beta^2 - c_ii), ``s2 = cmax + beta^2`` the summand
    bound, ``s3 = s1 / (cmax s2)`` and ``d`` the intrinsic dimension.
    """

    beta: float
    cdiag: np.ndarray
    cmax: float
    s1: float
    s2: float
    s3: float
    d: float


def dgsm_constants(cdiag: np.ndarray, beta: float) -> DgsmConstants:
    """Constants from the metric diagonal and the gradient sup-norm bound."""
    cdiag = np.asarray(cdiag, dtype=np.float64).ravel()
    beta = float(beta)
    if cdiag.size < 1:
        raise ValueError("cdiag must be nonempty")
    if np.any(cdiag < 0.0):
        raise ValueError("hypothesis violated: entries of cdiag must be nonnegative")
    beta_sq = beta * beta
    if np.any(cdiag > beta_sq * (1.0 + 1e-12)):
        raise ValueError(
            "hypothesis violated: cdiag entries must not exceed beta^2"
        )
    cmax = float(np.max(cdiag))
    if cmax <= 0.0:
        raise ValueError("hypothesis violated: cmax must be positive")
    v = cdiag * (beta_sq - cdiag)
    s1 = float(np.max(v))
    if s1 <= 0.0:
        raise ValueError(
            "hypothesis violated: the variance proxy vanishes "
            "(every c_ii equals 0 or beta^2)"
        )
    s2 = cmax + beta_sq
    return DgsmConstants(
        beta=beta,
        cdiag=cdiag,
        cmax=cmax,
        s1=s1,
        s2=s2,
        s3=s1 / (cmax * s2),
        d=float(np.sum(v)) / s1,
    )


def quadratic_model_constants(factor: np.ndarray) -> DgsmConstants:
    """Constants of the quadratic model f(x) = x^T S x / 2 on uniform [-1, 1]^n.

    ``factor`` is S as a square matrix or a diagonal vector; the metric is
    diag(S^2)/3 and the gradient bound is the infinity norm of S.
    """
    oracle = QuadraticGradientOracle(factor)
    return dgsm_constants(oracle.second_moment_diag(), oracle.beta)


def dgsm_tail_bound(dc: DgsmConstants, n_samples: int, t: float, clamp: bool = True) -> float:
    """P[normwise metric error >= t] <= 8 d exp(-N t^2 / (2 (s1 + s2 t / 3)))."""
    _check_args(n_samples=n_samples, t=t)
    return _bernstein_tail(dc.d, dc.s1, dc.s2, n_samples, t, clamp)


def plan_samples_dgsm(dc: DgsmConstants, eps: float, delta: float) -> int:
    """Samples for a normwise (eps, delta) metric estimate.

    N >= (s2 / (3 eps^2)) (2 eps + 6 s1 / (cmax s2)) ln(8 d / delta), the
    relative target being t = eps * cmax.
    """
    _check_args(eps=eps, delta=delta)
    return _bernstein_samples(dc.d, dc.s2, dc.s3, eps, delta)


def epsilon_for_samples_dgsm(dc: DgsmConstants, n_samples: int, delta: float) -> float:
    """eps = sqrt((s2 / 3N) (2 + 6 s3) ln(8 d / delta)), the bound-curve formula."""
    _check_args(n_samples=n_samples, delta=delta)
    return _bernstein_epsilon(dc.d, dc.s2, dc.s3, n_samples, delta)
