"""Symmetric linear operators accessed through matrix-vector products.

The estimators only ever see ``op.apply``; explicit entries are needed just
for error-bound constants and exact diagonals.  Each operator reduces what it
knows to the per-row sums the bounds read (``row_sums``): the stored operators
their entries, the test families their closed forms, so no bound densifies;
operators that cannot provide entries raise :class:`UnsupportedOperationError`
from ``to_dense``/``row_sums``/``exact_diag``, and the test families from
``to_dense``.  ``to_dense`` raises it as well for n > ``DENSE_LIMIT``, before
any n x n array is allocated.
``CooSymmetric``, the sparse storage, keeps jagged-diagonal slots and applies
them to a whole (n, k) block at a time, a chunk of rows per pass, and a large
block in parts on the process's CPUs (``_split``); the few rows longer than
the slots go on in a row-major overflow.

Three parametrised test families with closed-form diagonals and row sums
are provided:

* ``IdentityPlusRankOne``:  A = I + theta * ones * ones^T
* ``DecayingRankOne``:      A = x x^T / ||x||^2 with x_j = exp(-j (1 - theta))
* ``TridiagToeplitz``:      unit diagonal, constant off-diagonal theta
"""

import math
import os
import threading
import warnings
from abc import ABC, abstractmethod
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "AsymmetricMatrixError",
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
# Every walk over the rows of a block or matrix (the sparse apply, the dense
# row sums and symmetrization, and the estimators' row products) takes chunks
# of at most this many entries, one row at least: 512 KiB a scratch buffer.
_APPLY_ELEMENTS = 2**16


def _chunk_rows(n: int, width: int) -> int:
    """Rows per chunk of an (n, width) walk: ``_APPLY_ELEMENTS`` entries, but one row at least."""
    return max(1, min(n, _APPLY_ELEMENTS // max(width, 1)))


# The walks over disjoint runs of rows, probes or words of a large block (the
# sparse apply, the probe sampler and the estimators' row products) run on up
# to _WORKERS threads, one per CPU this process may run on, at most 2: the gain
# and the memory (each thread keeps a malloc arena of its own) have been
# measured with one extra thread only.  Each split starts and joins threads of
# its own.  A thread takes _SPLIT_ENTRIES block entries at least: below about
# 2^19, handing work to a thread costs more than it saves.  The threads take
# the runs the walk's body walks, a chunk each, from one queue, so a thread
# that starts late or runs slow (its CPU busy elsewhere) walks less of the
# block, where a fixed part each would keep the caller waiting for it.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_SPLIT_ENTRIES = 2**19


def _parts(n: int, entries: int) -> int:
    """How many threads at most :func:`_split` walks ``range(n)`` on, for a block of ``entries`` entries."""
    return max(1, min(_WORKERS, n, entries // _SPLIT_ENTRIES))


def _split(n: int, chunk: int, entries: int, body: Callable[[Iterator[tuple[int, int]]], None]) -> None:
    """Run ``body(runs)`` on up to :func:`_parts` threads, over the runs of ``chunk`` items that cover ``range(n)``.

    The runs are ``(lo, min(n, lo + chunk))`` for ``lo`` a multiple of
    ``chunk``.  Each thread's ``runs`` takes them from one shared queue until
    it is empty, so every run is walked once, by whichever thread is free, and
    a body keeps its scratch across its runs.  The calling thread runs one
    body and threads that this call starts and joins the others, no more
    threads than there are runs: a walk of one run, or of a block of fewer
    than two threads' worth of entries, stays on the calling thread.  Every
    body has ended when this returns or raises, and an error raised in any
    body reaches the caller, the caller's own first.  Every body runs under
    the caller's numpy error state, which new threads do not inherit, and a
    body may split again.  The arrays a body fills are allocated by the
    caller, and its own scratch is a chunk or a few.
    """
    starts, lock = iter(range(0, n, chunk)), threading.Lock()

    def runs():
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            yield lo, min(n, lo + chunk)

    parts = min(_parts(n, entries), -(-n // chunk))
    if parts < 2:
        body(runs())
        return
    err, call, errors, threads = np.geterr(), np.geterrcall(), [], []

    def run():
        try:
            with np.errstate(call=call, **err):
                body(runs())
        except BaseException as e:
            errors.append(e)

    try:
        for _ in range(parts - 1):
            thread = threading.Thread(target=run, name="diagmc")
            thread.start()
            threads.append(thread)
        body(runs())
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")


def _check_index(index: int, n: int) -> None:
    if not (0 <= index < n):
        raise IndexError(f"component index {index} out of range for n={n}")


class UnsupportedOperationError(RuntimeError):
    """The operator cannot serve the request (e.g. no explicit entries)."""


class AsymmetricMatrixError(ValueError):
    """``(i, j)``, 0-based, is the first pair in row-major order where a_ij and a_ji differ."""

    def __init__(self, m: np.ndarray, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"asymmetric entries: A[{i + 1},{j + 1}]={m[i, j]:g} "
                         f"vs A[{j + 1},{i + 1}]={m[j, i]:g}")


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
        """The full n x n array; refused for n > ``DENSE_LIMIT`` before it is allocated."""
        if self._dim > DENSE_LIMIT:
            raise UnsupportedOperationError(f"n = {self._dim} exceeds the dense cutoff {DENSE_LIMIT}")
        return self._dense()

    def _dense(self) -> np.ndarray:
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no explicit-entries accessor"
        )

    def exact_diag(self) -> np.ndarray:
        raise UnsupportedOperationError(
            f"{type(self).__name__} cannot report its exact diagonal"
        )

    def row_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row i: a_ii, sum_{j != i} a_ij^2 and sum_{j != i} |a_ij|, the inputs of every bound.

        Both sums leave the diagonal out, so a dominant a_ii does not swamp them.
        A square that overflows is inf, without a warning.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no explicit-entries accessor"
        )


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

    Build it with :meth:`from_dense` from a full array.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a DenseSymmetric with DenseSymmetric.from_dense")

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "DenseSymmetric":
        # adopt an exactly symmetric float64 array without copying it
        op = cls.__new__(cls)
        SymmetricOperator.__init__(op, matrix.shape[0])
        op._matrix = matrix
        return op

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "DenseSymmetric":
        """Build from a full array; asymmetry beyond 1e-12 (relative) raises AsymmetricMatrixError."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        chunk = _chunk_rows(n, n)
        # numpy's max keeps a NaN, so a NaN or inf entry anywhere leaves a NaN or inf scale
        scale = float(np.max([np.max(np.abs(m[lo : lo + chunk])) for lo in range(0, n, chunk)], initial=0.0))
        _check_finite(scale)
        out = np.empty((n, n))
        for lo in range(0, n, chunk):  # a chunk of rows against the matching chunk of columns
            rows, cols = m[lo : lo + chunk], m[:, lo : lo + chunk].T
            with np.errstate(over="ignore"):  # an infinite difference is refused as asymmetric
                bad = np.argwhere(np.abs(rows - cols) > 1e-12 * max(scale, 1e-300))
            if bad.size:
                raise AsymmetricMatrixError(m, lo + int(bad[0, 0]), int(bad[0, 1]))
            # pairs with equal bits keep them, subnormals too; the other pairs (0 and -0
            # among them) are averaged by halves, which cannot overflow
            same = rows.view(np.uint64) == cols.view(np.uint64)
            out[lo : lo + chunk] = np.where(same, rows, 0.5 * rows + 0.5 * cols)
        return cls._wrap(out)

    def _dense(self) -> np.ndarray:
        return self._matrix.copy()

    def exact_diag(self) -> np.ndarray:
        return np.diag(self._matrix).copy()

    def row_sums(self):
        m, n = self._matrix, self._dim
        # |A| without its diagonal goes through one reused chunk of rows, not a second n x n array
        chunk = _chunk_rows(n, n)
        buf, off2, off_abs = np.empty((chunk, n)), np.empty(n), np.empty(n)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            rows = np.abs(m[lo:hi], out=buf[: hi - lo])
            rows[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            rows.sum(axis=1, out=off_abs[lo:hi])
            off2[lo:hi] = np.einsum("ij,ij->i", rows, rows)  # an overflow to inf is silent
        return self.exact_diag(), off2, off_abs

    def _matvec(self, mat):
        return self._matrix @ mat


# A jagged-diagonal slot holds at least this many rows (or every row), so a
# pass over the slots makes at most (stored entries) / _SLOT_ROWS iterations.
_SLOT_ROWS = 64


class CooSymmetric(SymmetricOperator):
    """Sparse symmetric operator built from lower-triangle coordinate entries.

    Storage of choice above the dense cutoff (n > ``DENSE_LIMIT``); entries with
    ``row < col`` are rejected.  Each position of the full matrix is stored once,
    its entries summed in input order starting from +0.0, in jagged-diagonal
    order (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed., 3.4):
    ``_perm`` lists the rows by descending entry count (ties in row order), and
    slot j, ``_cols``/``_values`` from ``_slots[j]`` to ``_slots[j + 1]``, holds
    the j-th entry in column order of each of the first rows of ``_perm`` with
    more than j entries.  Only slots of at least ``_SLOT_ROWS`` rows (or of every
    row) are kept: the fewer, longer rows go on after the last slot, row by row
    in column order, and ``_overflow`` gives the ``_perm`` position of the row of
    each such entry.  That is 16 bytes per stored value, 8 per row and 8 more
    per overflow entry.  Every reader sums a row's entries in column order from
    +0.0, as a per-row ``np.bincount`` over the entries in (row, col) order does.
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
        off = rows != cols
        keys = np.concatenate([rows * dim + cols, cols[off] * dim + rows[off]])
        order = np.argsort(keys, kind="stable")  # duplicates stay in input order
        keys = keys[order]  # the unsorted keys go before the values are sorted
        values = np.concatenate([values, values[off]])[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        # temporaries are freed before the stored arrays are made: heap holes
        # below those would stay resident (+11 MB RSS at n = 5*10^4)
        del order, off
        values = np.bincount(np.cumsum(first) - 1, values).astype(np.float64, copy=False)
        _check_finite(values)  # after the sum: duplicates may overflow
        keys = keys[first]
        del first
        rows, cols = np.divmod(keys, dim)
        del keys
        counts = np.bincount(rows, minlength=dim)
        del rows
        self._perm = np.argsort(-counts, kind="stable")
        ranked, row_start = counts[self._perm], (np.cumsum(counts) - counts)[self._perm]
        width = int(ranked[min(_SLOT_ROWS, dim) - 1])
        # slot j is as long as the number of rows with more than j entries
        self._slots = np.concatenate([[0], np.cumsum(dim - np.cumsum(np.bincount(counts))[:width])])
        extra = ranked[ranked > width] - width  # the leading rows of _perm
        self._overflow = np.repeat(np.arange(extra.size), extra)
        # entry e of the overflow is entry width + (e - first of its row) of its row
        spilled = np.arange(self._overflow.size) + (row_start[: extra.size] + width
                                                    - np.cumsum(extra) + extra)[self._overflow]

        def by_slot(entries):  # slot j takes entry j of each of its rows
            out, at = np.empty_like(entries), row_start.copy()
            for slot, rows in self._slot_rows():
                np.take(entries, at[: rows.size], out=out[slot], mode="clip")
                at[: rows.size] += 1
            np.take(entries, spilled, out=out[self._slots[-1] :], mode="clip")
            return out

        self._cols = by_slot(cols)
        del cols
        self._values = by_slot(values)

    def _slot_rows(self):
        # each slot with its rows: the leading rows of _perm, one per entry
        ends = self._slots.tolist()
        for lo, hi in zip(ends[:-1], ends[1:]):
            yield slice(lo, hi), self._perm[: hi - lo]

    def _entry_rows(self) -> np.ndarray:
        # the row of each stored value; a row's values stand in column order
        rows = np.empty(self._cols.size, dtype=np.intp)
        for slot, perm in self._slot_rows():
            rows[slot] = perm
        np.take(self._perm, self._overflow, out=rows[self._slots[-1] :])
        return rows

    def _matvec(self, mat):
        n, k = mat.shape
        if not k:
            return np.empty((n, 0))
        mat = np.ascontiguousarray(mat)  # one take gathers all k columns of a row
        chunk = _chunk_rows(n, k)
        out, base = np.empty((n, k)), self._slots[-1]

        def rows(runs):  # runs of a chunk of rows of _perm
            acc, gathered = np.empty((2, chunk, k))

            def products(lo, m):  # stored values lo..lo+m times their rows of the block
                g = gathered[:m]
                # mode="clip" gathers straight into the buffer, where "raise" would copy
                np.take(mat, self._cols[lo : lo + m], axis=0, out=g, mode="clip")
                return np.multiply(self._values[lo : lo + m, None], g, out=g)

            for lo, hi in runs:
                a = acc[: hi - lo]
                a.fill(0.0)
                for slot, slot_rows in self._slot_rows():
                    m = min(hi, slot_rows.size) - lo
                    if m <= 0:  # the later slots are no longer
                        break
                    np.add(a[:m], products(slot.start + lo, m), out=a[:m])
                # overflow entries in storage order: add.at adds repeated positions in
                # sequence, and at flat positions it runs several times faster
                first, last = np.searchsorted(self._overflow, [lo, hi])
                for e in range(first, last, chunk):
                    m = min(chunk, last - e)
                    at = (self._overflow[e : e + m, None] - lo) * k + np.arange(k)
                    np.add.at(a.reshape(-1), at.reshape(-1), products(base + e, m).reshape(-1))
                out[self._perm[lo:hi]] = a

        # a row's sum stays within its chunk, so the runs give the bits of one walk
        _split(n, chunk, n * k, rows)
        return out

    def _diagonal(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the diagonal, and which stored values lie on it, from _entry_rows()
        diag, on = np.zeros(self._dim), rows == self._cols
        diag[rows[on]] = self._values[on]
        return diag, on

    def exact_diag(self) -> np.ndarray:
        return self._diagonal(self._entry_rows())[0]

    def row_sums(self):
        rows = self._entry_rows()
        diag, on = self._diagonal(rows)
        off = np.abs(self._values)
        off[on] = 0.0
        with np.errstate(over="ignore"):
            off2 = off * off
        # float64 even with no entries, where bincount returns integer zeros
        return diag, *(np.bincount(rows, w, self._dim).astype(np.float64, copy=False) for w in (off2, off))

    def _dense(self) -> np.ndarray:
        m = np.zeros((self._dim, self._dim))
        m[self._entry_rows(), self._cols] = self._values
        return m


class _TestFamily(SymmetricOperator):
    """A test family at n >= 2 and a finite theta; one outside ``theta_range`` warns.

    The warning comes only once the family has accepted the theta, so a theta
    that is refused gets the refusal alone.
    """

    def __init__(self, n: int, theta: float):
        if n < 2:
            raise ValueError("test matrices need n >= 2")
        super().__init__(n)
        self.theta = float(theta)
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        self._prepare()
        lo, hi = self.theta_range
        if not (lo <= self.theta <= hi):
            warnings.warn(
                f"theta={self.theta:g} lies outside the documented range "
                f"[{lo:g}, {hi:g}] for {self.kind}; formulas remain well-defined",
                stacklevel=2,
            )

    def _prepare(self) -> None:
        """Compute what the closed forms share; raises ``ValueError`` for a theta they cannot take."""

    def exact_diag(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # the off-diagonal sums, which may overflow, are dropped
            return self.row_sums()[0]


class IdentityPlusRankOne(_TestFamily):
    """A = I + theta * ones * ones^T (documented theta range [0.01, 0.1])."""

    kind = "rank1"
    theta_range = (0.01, 0.1)

    def _matvec(self, mat):
        return mat + self.theta * mat.sum(axis=0, keepdims=True)

    def row_sums(self):
        n, t, a_ii = self._dim, self.theta, 1.0 + self.theta
        return np.full(n, a_ii), np.full(n, (n - 1) * t * t), np.full(n, (n - 1) * abs(t))


class DecayingRankOne(_TestFamily):
    """A = x x^T / ||x||^2 with x_j = exp(-j (1 - theta)), j = 1..n."""

    kind = "decay"
    theta_range = (0.1, 1.0)

    def _prepare(self) -> None:
        j = np.arange(1, self._dim + 1, dtype=np.float64)
        with np.errstate(over="ignore"):  # refused below
            self._x = np.exp(-j * (1.0 - self.theta))
            squares = (self._x * self._x).tolist()
        # x spans tens of orders of magnitude at small theta; compensated
        # summation keeps the norm exact to the last bit.
        try:
            self._xnorm2 = math.fsum(squares)
        except OverflowError:  # finite squares whose sum is not
            self._xnorm2 = math.inf
        if not 0.0 < self._xnorm2 < math.inf:  # x or its squares overflow, or every x_j^2 underflows
            raise ValueError(f"theta={self.theta:g} puts ||x||^2 outside the float range at n={self._dim}")
        self._xsum = math.fsum(self._x.tolist())

    def _matvec(self, mat):
        return self._x[:, None] * (self._x @ mat)[None, :] / self._xnorm2

    def row_sums(self):
        # row i is u_i = x_i^2 / ||x||^2 times x / x_i, so sum_{j != i} a_ij^2 = u_i (1 - u_i)
        u, x = self._x * self._x / self._xnorm2, self._x
        return u, u * (1.0 - u), x * (self._xsum - x) / self._xnorm2


class TridiagToeplitz(_TestFamily):
    """Unit diagonal, constant off-diagonal theta (range [0.1, 1])."""

    kind = "tridiag"
    theta_range = (0.1, 1.0)

    def _matvec(self, mat):
        out = mat.copy()
        out[:-1] += self.theta * mat[1:]
        out[1:] += self.theta * mat[:-1]
        return out

    def row_sums(self):
        # the two end rows have one off-diagonal entry, the others two
        c = np.full(self._dim, 2.0)
        c[[0, -1]] = 1.0
        return np.ones(self._dim), c * (self.theta * self.theta), c * abs(self.theta)


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
