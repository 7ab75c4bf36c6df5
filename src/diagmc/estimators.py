"""Monte Carlo diagonal estimators.

Two estimators for ``diag(A)`` of a symmetric operator A:

* unnormalized: ``mean_k (A w_k) o w_k`` for any probe family, and
* normalized (Gaussian probes only, ``normalized_gaussian``):
  ``(sum_k (A z_k) o z_k) / (sum_k z_k o z_k)`` elementwise,

plus the gradient-outer-product estimator ``mean_k (grad f(x_k))^2`` for
derivative-based global sensitivity metrics.

Estimates hold TwoSum-compensated sums rather than means, so streams can be
split across workers, updated incrementally and merged exactly up to
floating-point reassociation.  Probe k of a run always consumes stream
counter k, making batched, streamed and parallel runs probe-identical.

One block loop reads the stream for every estimator here and for the replicate
studies of :mod:`diagmc.harness`.  Per block, ``draw(state, count)`` returns two
sample factors and the advanced state, and ``reduce(first, left, right)`` folds
them in from stream position ``first`` and returns the sums it changed.  A NaN
or inf factor survives the product, even by 0, so a non-finite sum raises
``ValueError`` naming the block's probe counters ``[a, b)``.

The normalized estimator's componentwise error at N = 1 is Cauchy
distributed: its mean and variance do not exist, so single-sample
normalized estimates must not be averaged across runs.
"""

from abc import ABC, abstractmethod
from typing import Callable, Union

import numpy as np

from .operators import SymmetricOperator, _check_index, _chunk_rows, _split
from .probes import (
    EstimatorSpec,
    RngState,
    _block_counts,
    sample_probe_block,
    sample_uniform_block,
)

__all__ = [
    "DegenerateProbeError",
    "DiagonalEstimate",
    "GradientOracle",
    "QuadraticGradientOracle",
    "UNNORMALIZED",
    "NORMALIZED",
    "componentwise_relative_error",
    "estimate_dgsm",
    "estimate_diagonal",
    "estimate_diagonal_normalized",
    "normwise_relative_error",
]

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"

_DEGENERATE_DENOMINATOR = 1e-300


class DegenerateProbeError(RuntimeError):
    """A normalized-estimator denominator vanished (probability-zero event)."""


def _two_sum(sums: np.ndarray, scratch: np.ndarray) -> None:
    """Add ``values = scratch[0]`` to ``sums = (totals, residuals)``; TwoSum keeps each exact rounding error.

    The other two scratch rows take the total and the back term, and ``values``
    is used up.  The operations are those of ``residuals += (totals - (total -
    back)) + (values - back)``, operand for operand, so the bits are too.
    """
    (totals, residuals), (values, total, back) = sums, scratch
    np.add(totals, values, total)
    np.subtract(total, totals, back)
    np.subtract(values, back, values)
    np.subtract(total, back, back)
    np.subtract(totals, back, back)
    np.add(back, values, back)
    residuals += back
    totals[...] = total


def _row_products(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> None:
    """``out = (left * right).sum(axis=1)`` bit for bit, through one chunk of the product at a time."""
    if not (left.flags.c_contiguous or right.flags.c_contiguous):
        # numpy may lay this product out column-major and add each row in column order
        np.multiply(left, right).sum(axis=1, out=out)
        return
    # a row-major product's rows are summed pairwise, whatever rows share the call
    n, k = left.shape
    chunk = _chunk_rows(n, k)

    def rows(runs):
        buf = np.empty((chunk, k))
        for lo, hi in runs:
            np.multiply(left[lo:hi], right[lo:hi], out=buf[: hi - lo]).sum(axis=1, out=out[lo:hi])

    _split(n, chunk, n * k, rows)


class DiagonalEstimate:
    """Running estimate of a matrix diagonal.

    ``mode`` is fixed at creation: :data:`UNNORMALIZED` divides the
    accumulated ``(A w) o w`` by the sample count, :data:`NORMALIZED`
    divides it elementwise by the accumulated ``w o w``.
    """

    def __init__(self, dim: int, mode: str = UNNORMALIZED):
        if mode not in (UNNORMALIZED, NORMALIZED):
            raise ValueError(f"unknown estimate mode {mode!r}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        self._dim = int(dim)
        self._mode = mode
        self._count = 0
        # (totals, residuals) of the numerator and, when normalized, the denominator
        self._sums = np.zeros((2, 2 if mode == NORMALIZED else 1, dim))
        # the values being added and the TwoSum's terms, reused by every update
        self._scratch = np.empty((3, *self._sums.shape[1:]))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def n_samples(self) -> int:
        return self._count

    @property
    def numerator(self) -> np.ndarray:
        return self._sums[0, 0] + self._sums[1, 0]

    @property
    def denominator(self) -> np.ndarray:
        if self._mode == UNNORMALIZED:
            raise ValueError("unnormalized estimates keep no denominator")
        return self._sums[0, 1] + self._sums[1, 1]

    def _check_vector(self, v: np.ndarray, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self._dim,):
            raise ValueError(
                f"{name} has shape {v.shape}, expected ({self._dim},)"
            )
        return v

    def update(self, probe: np.ndarray, aprobe: np.ndarray) -> "DiagonalEstimate":
        """Consume one probe and its image ``A @ probe``."""
        probe = self._check_vector(probe, "probe")
        return self.update_block(probe[:, None], self._check_vector(aprobe, "aprobe")[:, None])

    def update_block(self, probes: np.ndarray, aprobes: np.ndarray) -> "DiagonalEstimate":
        """Consume a batch of probes given as (n, k) column blocks."""
        probes = np.asarray(probes, dtype=np.float64)
        aprobes = np.asarray(aprobes, dtype=np.float64)
        if probes.shape != aprobes.shape or probes.ndim != 2 or probes.shape[0] != self._dim:
            raise ValueError("probe blocks must both be (n, k) arrays")
        factors = (aprobes, probes) if self._mode == NORMALIZED else (aprobes,)
        for f, out in zip(factors, self._scratch[0]):
            _row_products(f, probes, out)
        _two_sum(self._sums, self._scratch)
        self._count += probes.shape[1]
        return self

    def merge(self, other: "DiagonalEstimate") -> "DiagonalEstimate":
        """Fold another estimate (over a disjoint probe stream) into this one."""
        if other._mode != self._mode or other._dim != self._dim:
            raise ValueError("can only merge estimates of equal mode and dimension")
        for part in other._sums:
            self._scratch[0] = part
            _two_sum(self._sums, self._scratch)
        self._count += other._count
        return self

    @property
    def value(self) -> np.ndarray:
        """Current diagonal estimate."""
        if self._count < 1:
            raise ValueError("estimate holds no samples yet")
        if self._mode == UNNORMALIZED:
            return self.numerator / self._count
        den = self.denominator
        if np.any(np.abs(den) < _DEGENERATE_DENOMINATOR):
            raise DegenerateProbeError(
                "normalized-estimator denominator vanished; this signals a "
                "misused or repeated probe stream"
            )
        return self.numerator / den


def _run_blocks(
    dim: int,
    draw: Callable[[RngState, int], tuple[np.ndarray, np.ndarray, RngState]],
    reduce: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed: Union[int, RngState],
) -> None:
    # the one block loop over the probe stream; the module docstring states its contract
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    state = seed if isinstance(seed, RngState) else RngState(int(seed))
    first = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for count in _block_counts(dim, n_samples):
            left, right, state = draw(state, count)
            if not np.isfinite(reduce(first, left, right)).all():
                raise ValueError(
                    "non-finite matvec or gradient values at probe counters "
                    f"[{state.counter - count}, {state.counter})"
                )
            first += count


def estimate_diagonal(
    op: SymmetricOperator,
    spec: EstimatorSpec,
    n_samples: int,
    seed: Union[int, RngState],
) -> DiagonalEstimate:
    """Monte Carlo estimate of ``diag(A)`` from ``n_samples`` probes of ``spec``.

    Costs exactly ``n_samples`` operator applications.  Every probe family
    gives the unnormalized estimate, unbiased, and with Rademacher probes a
    diagonal matrix is recovered exactly from a single sample.
    ``normalized_gaussian`` gives the normalized one (see
    :func:`estimate_diagonal_normalized`); ``dgsm`` draws no probes and is
    refused.
    """
    est = DiagonalEstimate(op.dim, NORMALIZED if spec.method == "normalized_gaussian" else UNNORMALIZED)

    def draw(state, count):
        probes, state = sample_probe_block(spec, op.dim, state, count)
        return probes, op.apply(probes), state

    _run_blocks(op.dim, draw, lambda first, left, right: est.update_block(left, right).numerator,
                n_samples, seed)
    return est


def estimate_diagonal_normalized(
    op: SymmetricOperator,
    n_samples: int,
    seed: Union[int, RngState],
) -> DiagonalEstimate:
    """Normalized (elementwise-ratio) estimate of ``diag(A)`` from Gaussian probes.

    Restricted to Gaussian probes: the ratio's error law is Gaussian-specific,
    and Rademacher probes would make the denominator identically N.  Exact for
    diagonal matrices already at N = 1.
    """
    return estimate_diagonal(op, EstimatorSpec("normalized_gaussian"), n_samples, seed)


class GradientOracle(ABC):
    """Source of gradient samples ``grad f(x)`` at random inputs ``x``.

    ``beta``, when set, is an almost-sure bound on the sup norm of the
    gradient; every draw is checked against it.
    """

    def __init__(self, dim: int, beta: float = None):
        if dim < 1:
            raise ValueError("input dimension must be positive")
        self.dim = int(dim)
        self.beta = None if beta is None else float(beta)

    @abstractmethod
    def _sample_block(self, state: RngState, count: int) -> tuple[np.ndarray, RngState]:
        """Return (dim, count) gradient samples and the advanced state."""

    def sample_gradient_block(self, state: RngState, count: int) -> tuple[np.ndarray, RngState]:
        grads, new_state = self._sample_block(state, count)
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != (self.dim, count):
            raise ValueError(
                f"oracle returned shape {grads.shape}, expected {(self.dim, count)}"
            )
        if self.beta is not None:
            worst = float(np.max(np.abs(grads))) if grads.size else 0.0
            if worst > self.beta * (1.0 + 1e-12):
                raise ValueError(
                    f"gradient sup norm {worst:g} exceeds the declared bound {self.beta:g}"
                )
        return grads, new_state


class QuadraticGradientOracle(GradientOracle):
    """Gradient of f(x) = x^T S x / 2 at x uniform on [-1, 1]^n.

    ``factor`` is the symmetric square root S, given either as a full
    matrix or as a 1-D array of diagonal entries.
    """

    def __init__(self, factor: np.ndarray):
        factor = np.asarray(factor, dtype=np.float64)
        if factor.ndim == 1:
            square, row_sums = factor * factor, np.abs(factor)
        elif factor.ndim == 2 and factor.shape[0] == factor.shape[1]:
            square, row_sums = np.einsum("ij,ji->i", factor, factor), np.abs(factor).sum(axis=1)
        else:
            raise ValueError("factor must be a square matrix or a diagonal vector")
        super().__init__(factor.shape[0], beta=float(np.max(row_sums)))
        self.factor = factor
        self._metric = square / 3.0

    def second_moment_diag(self) -> np.ndarray:
        """Exact sensitivity metric diag(C) = diag(S^2) / 3."""
        return self._metric.copy()

    def _sample_block(self, state, count):
        x, new_state = sample_uniform_block(self.dim, state, count)
        if self.factor.ndim == 1:
            return self.factor[:, None] * x, new_state
        return self.factor @ x, new_state


def estimate_dgsm(
    oracle: GradientOracle,
    n_samples: int,
    seed: Union[int, RngState],
) -> DiagonalEstimate:
    """Estimate the diagonal of the gradient second-moment matrix.

    Averages ``(grad f(x_k))^2`` elementwise over ``n_samples`` draws;
    every entry of the estimate is nonnegative.
    """
    est = DiagonalEstimate(oracle.dim)

    def draw(state, count):
        grads, state = oracle.sample_gradient_block(state, count)
        return grads, grads, state

    _run_blocks(oracle.dim, draw, lambda first, left, right: est.update_block(left, right).numerator,
                n_samples, seed)
    return est


def _paired(est, exact) -> tuple[np.ndarray, np.ndarray]:
    # the estimate's values and the exact diagonal, checked to have one length
    values = est.value if isinstance(est, DiagonalEstimate) else np.asarray(est, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if values.shape != exact.shape:
        raise ValueError("estimate and exact diagonal have different lengths")
    return values, exact


def normwise_relative_error(est, exact: np.ndarray) -> float:
    """max_i |exact_i - est_i| / max_i |exact_i|.

    This is the 2-norm relative error of the associated diagonal matrices,
    the norm of a diagonal matrix being its largest-magnitude entry.
    """
    values, exact = _paired(est, exact)
    scale = float(np.max(np.abs(exact)))
    if scale == 0.0:
        raise ValueError("relative error undefined for an all-zero diagonal")
    return float(np.max(np.abs(exact - values))) / scale


def componentwise_relative_error(est, exact: np.ndarray, index: int) -> float:
    """|est_i - exact_i| / |exact_i| for one component (0-based index)."""
    values, exact = _paired(est, exact)
    _check_index(index, exact.shape[0])
    reference = float(exact[index])
    if reference == 0.0:
        raise ValueError(f"component {index} of the exact diagonal is zero")
    return abs(float(values[index]) - reference) / abs(reference)
