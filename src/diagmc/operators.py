"""Symmetric linear operators accessed through matrix-vector products.

The estimators only ever see ``op.apply``; explicit entries are needed just
for error-bound constants and exact diagonals.  Each operator reduces its own
stored entries to the per-row sums the bounds read (``row_sums``), so no bound
densifies a sparse operator; operators that cannot provide entries raise
:class:`UnsupportedOperationError` from ``to_dense``/``row_sums``/``exact_diag``.

Three parametrised test families with analytically known diagonals and
bound constants are provided:

* ``IdentityPlusRankOne``:  A = I + theta * ones * ones^T
* ``DecayingRankOne``:      A = x x^T / ||x||^2 with x_j = exp(-j (1 - theta))
* ``TridiagToeplitz``:      unit diagonal, constant off-diagonal theta
"""

import math
import warnings
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

import numpy as np

from .probes import _block_counts

__all__ = [
    "AnalyticConstants",
    "DecayingRankOne",
    "DenseSymmetric",
    "CooSymmetric",
    "IdentityPlusRankOne",
    "MatrixFreeOperator",
    "SymmetricOperator",
    "TEST_MATRIX_KINDS",
    "TridiagToeplitz",
    "UnsupportedOperationError",
    "make_test_matrix",
]

# Largest dimension stored (and densified) as a full n x n array.
DENSE_LIMIT = 10_000


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")


class UnsupportedOperationError(RuntimeError):
    """The operator cannot serve the request (e.g. no explicit entries)."""


class AnalyticConstants(NamedTuple):
    """Closed-form normwise bound ingredients of a test family (at s = 1)."""

    k1: float
    k2: float
    norm_da: float
    delta1: float
    delta2: float
    d: float


class SymmetricOperator(ABC):
    """Symmetric linear map on R^n, applied to vectors or column batches."""

    def __init__(self, dim: int):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"operator dimension must be positive, got {dim}")
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @abstractmethod
    def _matvec(self, mat: np.ndarray) -> np.ndarray:
        """Apply to an (n, k) batch of columns."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``A v`` for a vector of length n or an (n, k) batch."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 1:
            if v.shape[0] != self._dim:
                raise ValueError(
                    f"vector length {v.shape[0]} does not match operator "
                    f"dimension {self._dim}"
                )
            return self._matvec(v[:, None])[:, 0]
        if v.ndim == 2:
            if v.shape[0] != self._dim:
                raise ValueError(
                    f"batch has {v.shape[0]} rows, expected {self._dim}"
                )
            return self._matvec(v)
        raise ValueError("apply expects a vector or a 2-D column batch")

    def to_dense(self) -> np.ndarray:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no explicit-entries accessor"
        )

    def exact_diag(self) -> np.ndarray:
        raise UnsupportedOperationError(
            f"{type(self).__name__} cannot report its exact diagonal"
        )

    def row_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row i: a_ii, sum_j a_ij^2 and sum_{j != i} |a_ij|, the inputs of every bound."""
        return DenseSymmetric._wrap(self.to_dense()).row_sums()


class MatrixFreeOperator(SymmetricOperator):
    """Wrap a matvec callable; the operator is presumed symmetric."""

    def __init__(self, dim: int, matvec: Callable[[np.ndarray], np.ndarray]):
        super().__init__(dim)
        self._fn = matvec

    def _matvec(self, mat):
        out = np.asarray(self._fn(mat), dtype=np.float64)
        if out.shape != mat.shape:
            raise ValueError("matvec callable returned a wrong-shaped result")
        return out


class DenseSymmetric(SymmetricOperator):
    """Symmetric matrix stored as one full, exactly symmetric n x n array.

    Build it with :meth:`from_dense` from a full array, or directly from a
    packed lower triangle (row-major over rows ``i``, columns ``j <= i``,
    n(n+1)/2 values), which is mirrored into the full array.
    """

    def __init__(self, packed: np.ndarray, dim: int):
        super().__init__(dim)
        packed = np.asarray(packed, dtype=np.float64).ravel()
        expected = dim * (dim + 1) // 2
        if packed.shape[0] != expected:
            raise ValueError(
                f"packed lower triangle of a {dim}x{dim} matrix needs "
                f"{expected} values, got {packed.shape[0]}"
            )
        _check_finite(packed)
        m = np.zeros((dim, dim))
        lower = np.tril_indices(dim)
        m[lower] = packed
        m.T[lower] = packed
        self._matrix = m

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "DenseSymmetric":
        # adopt an exactly symmetric float64 array without copying it
        op = cls.__new__(cls)
        SymmetricOperator.__init__(op, matrix.shape[0])
        op._matrix = matrix
        return op

    @classmethod
    def from_dense(cls, matrix: np.ndarray, tol: float = 1e-12) -> "DenseSymmetric":
        """Build from a full array, rejecting asymmetry beyond ``tol`` (relative)."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        _check_finite(m)
        scale = np.max(np.abs(m)) if m.size else 0.0
        gap = np.max(np.abs(m - m.T)) if m.size else 0.0
        if gap > tol * max(scale, 1e-300):
            raise ValueError(
                f"matrix is asymmetric: max |A - A^T| = {gap:.3e} exceeds "
                f"{tol:g} * max|A|"
            )
        return cls._wrap(0.5 * (m + m.T))

    def to_dense(self) -> np.ndarray:
        return self._matrix.copy()

    def exact_diag(self) -> np.ndarray:
        return np.diag(self._matrix).copy()

    def row_sums(self):
        m, n = self._matrix, self._dim  # exactly symmetric: column sums are row sums
        # |A| goes through one reused row block, not a second n x n array
        buf, off_abs, lo = np.empty((next(_block_counts(n, n)), n)), np.empty(n), 0
        for count in _block_counts(n, n):
            rows = np.abs(m[lo : lo + count], out=buf[:count])
            rows[np.arange(count), np.arange(lo, lo + count)] = 0.0
            off_abs[lo : lo + count] = rows.sum(axis=1)
            lo += count
        return self.exact_diag(), np.einsum("ij,ij->j", m, m), off_abs

    def _matvec(self, mat):
        return self._matrix @ mat


class CooSymmetric(SymmetricOperator):
    """Coordinate-list symmetric operator built from lower-triangle entries.

    Storage of choice above the dense cutoff (n > ``DENSE_LIMIT``); entries
    with ``row < col`` are rejected, duplicates are summed.  The entries are
    stored once followed by the mirrors of the off-diagonal ones.
    """

    def __init__(self, dim: int, rows, cols, values):
        super().__init__(dim)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= dim):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= dim):
            raise ValueError("column index out of range")
        if np.any(rows < cols):
            raise ValueError("entries must lie on or below the diagonal")
        _check_finite(values)
        off = rows != cols
        self._rows = np.concatenate([rows, cols[off]])
        self._cols = np.concatenate([cols, rows[off]])
        self._values = np.concatenate([values, values[off]])

    def _matvec(self, mat):
        out = np.empty_like(mat)
        for k, col in enumerate(mat.T):
            out[:, k] = np.bincount(self._rows, self._values * col[self._cols], self._dim)
        return out

    def exact_diag(self) -> np.ndarray:
        # np.add.at, not np.bincount: bincount of no entries is integer zeros
        diag = np.zeros(self._dim)
        on = self._rows == self._cols
        np.add.at(diag, self._rows[on], self._values[on])
        return diag

    def row_sums(self):
        # duplicates are summed first, in storage order, as to_dense sums them
        n = self._dim
        keys, slot = np.unique(self._rows * n + self._cols, return_inverse=True)
        values = np.bincount(slot, self._values)
        rows, cols = np.divmod(keys, n)
        off_abs = np.where(rows != cols, np.abs(values), 0.0)
        return self.exact_diag(), np.bincount(rows, values * values, n), np.bincount(rows, off_abs, n)

    def to_dense(self) -> np.ndarray:
        if self._dim > DENSE_LIMIT:
            raise UnsupportedOperationError(
                f"refusing to densify a sparse operator with n > {DENSE_LIMIT}"
            )
        m = np.zeros((self._dim, self._dim))
        np.add.at(m, (self._rows, self._cols), self._values)
        return m


def _warn_theta(kind: str, theta: float, lo: float, hi: float):
    if not (lo <= theta <= hi):
        warnings.warn(
            f"theta={theta:g} lies outside the documented range "
            f"[{lo:g}, {hi:g}] for {kind}; formulas remain well-defined",
            stacklevel=3,
        )


class IdentityPlusRankOne(SymmetricOperator):
    """A = I + theta * ones * ones^T (documented theta range [0.01, 0.1])."""

    kind = "rank1"
    theta_range = (0.01, 0.1)

    def __init__(self, n: int, theta: float):
        if n < 2:
            raise ValueError("test matrices need n >= 2")
        super().__init__(n)
        self.theta = float(theta)
        _warn_theta(self.kind, self.theta, *self.theta_range)

    def _matvec(self, mat):
        return mat + self.theta * mat.sum(axis=0, keepdims=True)

    def exact_diag(self) -> np.ndarray:
        return np.full(self._dim, 1.0 + self.theta)

    def to_dense(self) -> np.ndarray:
        m = np.full((self._dim, self._dim), self.theta)
        m[np.diag_indices(self._dim)] += 1.0
        return m

    def analytic_constants(self) -> AnalyticConstants:
        n, t = self._dim, self.theta
        k1 = (n - 1) * t * t
        k2 = (n - 1) * t
        norm_da = 1.0 + t
        return AnalyticConstants(
            k1=k1,
            k2=k2,
            norm_da=norm_da,
            delta1=k1 / norm_da**2,
            delta2=k2 / norm_da,
            d=float(n),
        )


class DecayingRankOne(SymmetricOperator):
    """A = x x^T / ||x||^2 with x_j = exp(-j (1 - theta)), j = 1..n."""

    kind = "decay"
    theta_range = (0.1, 1.0)

    def __init__(self, n: int, theta: float):
        if n < 2:
            raise ValueError("test matrices need n >= 2")
        super().__init__(n)
        self.theta = float(theta)
        _warn_theta(self.kind, self.theta, *self.theta_range)
        j = np.arange(1, n + 1, dtype=np.float64)
        self._x = np.exp(-j * (1.0 - self.theta))
        # x spans tens of orders of magnitude at small theta; compensated
        # summation keeps the norm exact to the last bit.
        self._xnorm2 = math.fsum(float(v) * float(v) for v in self._x)

    def _matvec(self, mat):
        return self._x[:, None] * (self._x @ mat)[None, :] / self._xnorm2

    def exact_diag(self) -> np.ndarray:
        return self._x * self._x / self._xnorm2

    def to_dense(self) -> np.ndarray:
        return np.outer(self._x, self._x) / self._xnorm2

    def analytic_constants(self) -> AnalyticConstants:
        x = self._x
        u = x * x / self._xnorm2
        u1 = float(u[0])
        k1 = u1 * (1.0 - u1)
        tail = math.fsum(float(v) for v in x[1:])
        k2 = float(x[0]) * tail / self._xnorm2
        d_num = math.fsum(float(ui) * (1.0 - float(ui)) for ui in u)
        return AnalyticConstants(
            k1=k1,
            k2=k2,
            norm_da=u1,
            delta1=1.0 / u1 - 1.0,
            delta2=tail / float(x[0]),
            d=d_num / k1,
        )


class TridiagToeplitz(SymmetricOperator):
    """Unit diagonal, constant off-diagonal theta (range [0.1, 1])."""

    kind = "tridiag"
    theta_range = (0.1, 1.0)

    def __init__(self, n: int, theta: float):
        if n < 2:
            raise ValueError("test matrices need n >= 2")
        super().__init__(n)
        self.theta = float(theta)
        _warn_theta(self.kind, self.theta, *self.theta_range)

    def _matvec(self, mat):
        out = mat.copy()
        out[:-1] += self.theta * mat[1:]
        out[1:] += self.theta * mat[:-1]
        return out

    def exact_diag(self) -> np.ndarray:
        return np.ones(self._dim)

    def to_dense(self) -> np.ndarray:
        m = np.eye(self._dim)
        idx = np.arange(self._dim - 1)
        m[idx, idx + 1] = self.theta
        m[idx + 1, idx] = self.theta
        return m

    def analytic_constants(self) -> AnalyticConstants:
        # Closed forms take the interior-row maximum, so they need n >= 3.
        if self._dim < 3:
            raise ValueError("closed-form constants require n >= 3")
        t = self.theta
        return AnalyticConstants(
            k1=2.0 * t * t,
            k2=2.0 * t,
            norm_da=1.0,
            delta1=2.0 * t * t,
            delta2=2.0 * t,
            d=float(self._dim - 1),
        )


TEST_MATRIX_KINDS = {
    "rank1": IdentityPlusRankOne,
    "decay": DecayingRankOne,
    "tridiag": TridiagToeplitz,
}


def make_test_matrix(kind: str, n: int, theta: float) -> SymmetricOperator:
    """Construct a test-family operator by short name.

    ``kind`` is one of ``rank1``, ``decay``, ``tridiag``.  A theta outside
    the family's documented range triggers a warning, not an error.
    """
    try:
        cls = TEST_MATRIX_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown test-matrix kind {kind!r}; expected one of "
            f"{sorted(TEST_MATRIX_KINDS)}"
        ) from None
    return cls(n, theta)
