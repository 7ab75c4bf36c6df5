"""Operator tests: apply correctness, exact diagonals, symmetry, validation."""

import contextlib
import math
import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import dense, entries, family_constants
from diagmc import operators, probes
from diagmc.estimators import estimate_diagonal
from diagmc.operators import (
    DENSE_LIMIT,
    AsymmetricMatrixError,
    CooSymmetric,
    DecayingRankOne,
    DenseSymmetric,
    IdentityPlusRankOne,
    MatrixFreeOperator,
    SymmetricOperator,
    TridiagToeplitz,
    UnsupportedOperationError,
    make_test_matrix,
)

RNG = np.random.default_rng(1234)


def _all_operators():
    return [
        make_test_matrix("rank1", 37, 0.05),
        make_test_matrix("decay", 37, 0.5),
        make_test_matrix("tridiag", 37, 0.5),
        DenseSymmetric.from_dense(
            (lambda m: 0.5 * (m + m.T))(RNG.standard_normal((23, 23)))
        ),
    ]


class TestApply:
    def test_identity(self):
        op = DenseSymmetric.from_dense(np.eye(4))
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(op.apply(v), v)

    def test_tridiag_first_column(self):
        op = TridiagToeplitz(3, 0.5)
        assert np.array_equal(op.apply(np.array([1.0, 0.0, 0.0])), [1.0, 0.5, 0.0])

    def test_rank1_ones(self):
        op = IdentityPlusRankOne(3, 0.1)
        out = op.apply(np.ones(3))
        assert np.allclose(out, 1.3, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        op = TridiagToeplitz(5, 0.5)
        with pytest.raises(ValueError, match="does not match"):
            op.apply(np.ones(4))
        with pytest.raises(ValueError, match="rows"):
            op.apply(np.ones((4, 2)))

    @pytest.mark.parametrize("op", _all_operators(), ids=lambda o: type(o).__name__)
    def test_columns_match_dense(self, op):
        m = entries(op)
        eye = np.eye(op.dim)
        assert np.array_equal(op.apply(eye), m)
        for j in (0, op.dim // 2, op.dim - 1):
            assert np.array_equal(op.apply(eye[:, j]), m[:, j])

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_columns_match_dense_at_200(self, kind):
        op = make_test_matrix(kind, 200, 0.1)
        assert np.array_equal(op.apply(np.eye(200)), dense(kind, 200, 0.1))

    @pytest.mark.parametrize("op", _all_operators(), ids=lambda o: type(o).__name__)
    def test_symmetry_random_pairs(self, op):
        scale = np.max(np.abs(entries(op))) * op.dim
        for _ in range(100):
            u = RNG.standard_normal(op.dim)
            v = RNG.standard_normal(op.dim)
            lhs = u @ op.apply(v)
            rhs = op.apply(u) @ v
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), scale)

    @pytest.mark.parametrize("op", _all_operators(), ids=lambda o: type(o).__name__)
    def test_linearity(self, op):
        u = RNG.standard_normal(op.dim)
        v = RNG.standard_normal(op.dim)
        lhs = op.apply(2.5 * u - 1.25 * v)
        rhs = 2.5 * op.apply(u) - 1.25 * op.apply(v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(rhs)))


class TestExactDiag:
    def test_rank1(self):
        assert np.array_equal(
            IdentityPlusRankOne(5, 0.05).exact_diag(), np.full(5, 1.05)
        )

    def test_tridiag_all_ones(self):
        for n, theta in [(5, 0.1), (60, 0.9)]:
            assert np.array_equal(TridiagToeplitz(n, theta).exact_diag(), np.ones(n))

    def test_decay_two_by_two(self):
        # theta = 1 gives x = (1, 1), so the diagonal is (1/2, 1/2)
        op = DecayingRankOne(2, 1.0)
        assert np.allclose(op.exact_diag(), [0.5, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("op", _all_operators(), ids=lambda o: type(o).__name__)
    def test_matches_dense_diagonal(self, op):
        assert np.allclose(
            op.exact_diag(), np.diag(entries(op)), rtol=1e-15, atol=0
        )

    def test_matrix_free_unsupported(self):
        op = MatrixFreeOperator(4, lambda m: m)
        with pytest.raises(UnsupportedOperationError):
            op.exact_diag()
        with pytest.raises(UnsupportedOperationError):
            op.to_dense()


class TestEntries:
    # a family's entries are its columns, A e_j; it has no dense accessor
    def test_tridiag_entries(self):
        columns = make_test_matrix("tridiag", 100, 0.5).apply(np.eye(100))
        assert columns[0, 1] == 0.5
        assert columns[0, 2] == 0.0
        assert columns[50, 50] == 1.0

    def test_rank1_entries(self):
        columns = make_test_matrix("rank1", 100, 0.01).apply(np.eye(100))
        assert columns[3, 7] == 0.01
        assert columns[9, 9] == 1.01

    def test_decay_outer_product(self):
        op = make_test_matrix("decay", 3, 0.5)
        x = np.exp(-0.5 * np.arange(1, 4))
        expected = np.outer(x, x) / np.sum(x * x)
        assert np.allclose(op.apply(np.eye(3)), expected, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_families_refuse_to_densify(self, kind):
        with pytest.raises(UnsupportedOperationError, match="has no explicit-entries accessor$"):
            make_test_matrix(kind, 4, 0.1).to_dense()

    def test_decay_norm_spans_many_orders(self):
        op = DecayingRankOne(100, 0.1)
        diag = op.exact_diag()
        assert diag[0] > 0.8
        assert 0.0 < diag[-1] < 1e-70


class TestConstruction:
    def test_n_too_small(self):
        for kind in ("rank1", "decay", "tridiag"):
            with pytest.raises(ValueError):
                make_test_matrix(kind, 1, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown test-matrix kind"):
            make_test_matrix("hilbert", 10, 0.5)

    @pytest.mark.parametrize(
        "kind,theta", [("rank1", 0.5), ("decay", 0.01), ("tridiag", 2.0)]
    )
    def test_theta_out_of_range_warns(self, kind, theta):
        with pytest.warns(UserWarning, match="outside the documented range"):
            make_test_matrix(kind, 10, theta)

    @pytest.mark.parametrize(
        "kind,theta", [("rank1", 0.05), ("decay", 0.4), ("tridiag", 1.0)]
    )
    def test_theta_in_range_silent(self, kind, theta, recwarn):
        make_test_matrix(kind, 10, theta)
        assert not recwarn.list

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_non_finite_theta_rejected(self, kind, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            make_test_matrix(kind, 10, theta)


class TestDenseSymmetric:
    def test_from_dense_is_the_one_constructor(self):
        with pytest.raises(TypeError, match="from_dense"):
            DenseSymmetric(np.eye(2))

    def test_reconstruction_is_exactly_symmetric(self):
        m = RNG.standard_normal((15, 15))
        op = DenseSymmetric.from_dense(0.5 * (m + m.T))
        full = op.to_dense()
        assert np.array_equal(full, full.T)

    def test_equal_pairs_keep_their_bits(self):
        # subnormals and -0 included; only 0 against -0 is averaged, to 0
        m = np.array([[5e-324, -0.0, 1e308], [-0.0, -5e-324, 0.0], [1e308, -0.0, -1.7976931348623157e308]])
        expected = m.copy()
        expected[1, 2] = expected[2, 1] = 0.0
        full = DenseSymmetric.from_dense(m).to_dense()
        assert np.array_equal(full.view(np.uint64), expected.view(np.uint64))

    def test_unequal_pairs_are_averaged_symmetrically(self):
        m = RNG.standard_normal((9, 9))
        m = 0.5 * (m + m.T)
        m[2, 5] *= 1 + 2e-15
        m[7, 1] = np.nextafter(m[7, 1], 0.0)
        full = DenseSymmetric.from_dense(m).to_dense()
        assert np.array_equal(full, 0.5 * (m + m.T))
        assert np.array_equal(full.view(np.uint64), full.T.view(np.uint64))

    def test_to_dense_is_an_independent_copy(self):
        op = DenseSymmetric.from_dense(np.eye(3))
        op.to_dense()[0, 0] = 5.0
        assert np.array_equal(op.to_dense(), np.eye(3))
        assert np.array_equal(op.exact_diag(), np.ones(3))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 1.0], [1.5, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            DenseSymmetric.from_dense(m)

    def test_asymmetry_names_the_first_pair_in_row_major_order(self):
        m = np.eye(3)
        m[2, 1], m[2, 0] = 0.25, 0.5  # row-major order meets A[1,3] before A[2,3]
        with pytest.raises(AsymmetricMatrixError, match=r"A\[1,3\]=0 vs A\[3,1\]=0.5") as err:
            DenseSymmetric.from_dense(m)
        assert (err.value.i, err.value.j) == (0, 2)

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
        op = DenseSymmetric.from_dense(m)
        assert np.allclose(op.to_dense(), 0.5 * (m + m.T))

    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DenseSymmetric.from_dense(np.zeros((3, 4)))


class TestCooSymmetric:
    def test_matvec_matches_dense(self):
        # 4x4 with diagonal and two off-diagonal entries
        op = CooSymmetric(4, rows=[0, 1, 2, 3, 2, 3], cols=[0, 1, 2, 3, 0, 1],
                          values=[2.0, 3.0, 4.0, 5.0, 0.5, -1.5])
        dense = op.to_dense()
        assert np.array_equal(dense, dense.T)
        v = RNG.standard_normal(4)
        assert np.allclose(op.apply(v), dense @ v, rtol=1e-15)
        assert np.array_equal(op.exact_diag(), [2.0, 3.0, 4.0, 5.0])

    def test_upper_triangle_rejected(self):
        with pytest.raises(ValueError, match="below the diagonal"):
            CooSymmetric(3, rows=[0], cols=[1], values=[1.0])

    def test_duplicates_sum_in_dense(self):
        op = CooSymmetric(2, rows=[0, 0], cols=[0, 0], values=[1.0, 2.0])
        assert op.to_dense()[0, 0] == 3.0

    def test_no_diagonal_entries(self):
        op = CooSymmetric(3, rows=[2], cols=[0], values=[1.5])
        assert op.exact_diag().dtype == np.float64
        assert np.array_equal(op.exact_diag(), np.zeros(3))
        assert np.array_equal(op.row_sums()[2], [1.5, 0.0, 1.5])
        # no entries at all: every reader still returns float64 zeros
        op = CooSymmetric(3, rows=[], cols=[], values=[])
        for got in (op.exact_diag(), *op.row_sums(), op.apply(np.ones(3)), op.to_dense()):
            assert got.dtype == np.float64 and not np.any(got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CooSymmetric(3, rows=[0, 2], cols=[0, 1], values=[1.0, bad])

    @pytest.mark.parametrize("rows,cols", [([0, 0], [0, 0]), ([2, 2], [1, 1])], ids=["diagonal", "off-diagonal"])
    def test_duplicate_sum_that_overflows_rejected(self, rows, cols):
        # each value is finite; their sum is not, so it must not be stored as inf
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            CooSymmetric(3, rows=rows, cols=cols, values=[1e308, 1e308])
        # duplicates of opposite sign still sum to a finite entry
        op = CooSymmetric(3, rows=rows, cols=cols, values=[1e308, -1e308])
        assert not np.any(op.to_dense())


class TestDecayOutOfRange:
    @pytest.mark.parametrize("n,theta", [(2, 1e154), (2, -1e308), (1000, 2.0), (400_000, 1.001)],
                             ids=["overflow", "underflow", "large-n", "sum-overflows"])
    def test_norm_outside_float_range_rejected(self, n, theta):
        # x_j = exp(-j (1 - theta)) overflows, or all x_j^2 underflow: A = x x^T / ||x||^2 would be nan.
        # The refusal comes alone, without the out-of-range warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^theta=.* puts \|\|x\|\|\^2 outside the float range at n="):
                DecayingRankOne(n, theta)
        assert caught == []


class TestDecaySums:
    @pytest.mark.parametrize("n,theta", [(2, 0.5), (100, 0.1), (1000, 1e-3), (3000, 0.01), (5000, 0.9), (700, -2.0)])
    def test_fsum_over_lists_equals_generator_form(self, n, theta):
        # math.fsum over .tolist() of numpy products has the bits of fsum over numpy scalars
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # theta outside the documented range
            op = DecayingRankOne(n, theta)
        x = op._x
        xnorm2 = math.fsum(float(v) * float(v) for v in x)
        assert (op._xnorm2, op._xsum) == (xnorm2, math.fsum(float(v) for v in x))
        u = x * x / xnorm2
        tail = math.fsum(float(v) for v in x[1:])
        d_num = math.fsum(float(ui) * (1.0 - float(ui)) for ui in u)
        c = family_constants("decay", n, theta)
        assert (c.k2, c.delta2) == (float(x[0]) * tail / xnorm2, tail / float(x[0]))
        assert c.d == d_num / c.k1


class TestNonFiniteDense:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_dense_rejects(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DenseSymmetric.from_dense(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(299, 299), (299, 3), (3, 299)], ids=["diagonal", "lower", "upper"])
    def test_from_dense_rejects_past_the_first_chunk(self, bad, at):
        m = np.eye(300)  # 218 rows a chunk, so row 299 and column 299 lie in the second
        m[at] = bad
        with pytest.raises(ValueError, match="finite"):
            DenseSymmetric.from_dense(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_APPLY_ELEMENTS", 1)  # a row a chunk
            with pytest.raises(ValueError, match="finite"):
                DenseSymmetric.from_dense(m)


def _split_coo(m, rng):
    """Lower-triangle entries of ``m`` in shuffled order, each split in two."""
    rows, cols = np.nonzero(np.tril(m))
    vals = m[rows, cols]
    part = rng.uniform(-1.0, 1.0, vals.size)
    rows, cols, vals = np.tile(rows, 2), np.tile(cols, 2), np.concatenate([part, vals - part])
    order = rng.permutation(vals.size)
    return CooSymmetric(m.shape[0], rows[order], cols[order], vals[order])


def _stored_as_before(rows, cols, values):
    # the raw layout the canonical one replaced: the entries, then the mirrors
    # of the off-diagonal ones, duplicates kept and summed by every reader
    off = rows != cols
    return (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]),
            np.concatenate([values, values[off]]))


def _reference_readers(n, rows, cols, values):
    """exact_diag, row_sums and to_dense as computed on the raw layout."""
    rows, cols, values = _stored_as_before(rows, cols, values)
    diag = np.zeros(n)
    on = rows == cols
    np.add.at(diag, rows[on], values[on])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    summed = np.bincount(slot, values)
    r, c = np.divmod(keys, n)
    off_abs = np.where(r != c, np.abs(summed), 0.0)
    # bincount of no entries returns integer zeros; compare them as float64
    off2, off_abs = (np.bincount(r, w, n).astype(np.float64) for w in (off_abs * off_abs, off_abs))
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), values)
    return diag, (diag, off2, off_abs), dense


# few distinct values, so sums cancel, round and reach -0.0 + 0.0
_ENTRY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.2, 0.3, 1.0, -1.0, 1e16, -1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _lower_entries(draw):
    """(n, rows, cols, values): shuffled lower-triangle entries with repeated positions."""
    n = draw(st.integers(1, 7))
    diagonal = draw(st.booleans())
    positions = [(i, j) for i in range(n) for j in range(i + 1) if diagonal or i != j]
    entries = draw(st.lists(st.tuples(st.sampled_from(positions), _ENTRY_VALUES), max_size=30)
                   if positions else st.just([]))
    rows = np.array([i for (i, _), _ in entries], dtype=np.intp)
    cols = np.array([j for (_, j), _ in entries], dtype=np.intp)
    return n, rows, cols, np.array([v for _, v in entries], dtype=np.float64)


def _same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCanonicalLayout:
    @settings(max_examples=300, deadline=None)
    @given(entries=_lower_entries())
    def test_readers_equal_the_raw_layout_bit_for_bit(self, entries):
        n, rows, cols, values = entries
        op = CooSymmetric(n, rows, cols, values)
        diag, sums, dense = _reference_readers(n, rows, cols, values)
        assert _same_bits(op.exact_diag(), diag)
        assert all(_same_bits(have, want) for have, want in zip(op.row_sums(), sums))
        assert _same_bits(op.to_dense(), dense)

    @settings(max_examples=300, deadline=None)
    @given(entries=_lower_entries(), seed=st.integers(0, 2**32 - 1))
    def test_apply_matches_the_dense_product(self, entries, seed):
        n, rows, cols, values = entries
        op = CooSymmetric(n, rows, cols, values)
        x = np.random.default_rng(seed).standard_normal((n, 3))
        dense = op.to_dense()
        scale = np.abs(dense) @ np.abs(x)
        assert np.all(np.abs(op.apply(x) - dense @ x) <= 1e-13 * scale)
        assert np.all(np.abs(op.apply(x[:, 1]) - dense @ x[:, 1]) <= 1e-13 * scale[:, 1])

    def test_storage_is_sorted_with_duplicates_summed(self):
        op = CooSymmetric(3, rows=[2, 1, 2, 0, 2], cols=[0, 1, 0, 0, 2],
                          values=[0.1, 2.0, 0.2, 1.0, -0.0])
        # slots, not (row, col) order: rows 0 and 2 hold two positions, row 1 one.
        # Slot 0, (0,0) (2,0) (1,1), holds all three rows; slot 1 would hold two,
        # fewer than the three a slot of this matrix needs, so (0,2) (2,2) overflow
        assert op._perm.tolist() == [0, 2, 1]
        assert op._slots.tolist() == [0, 3]
        assert op._overflow.tolist() == [0, 1]
        assert op._cols.tolist() == [0, 0, 1, 2, 2]
        assert op._values.tolist() == [1.0, 0.1 + 0.2, 2.0, 0.1 + 0.2, 0.0]
        assert not np.signbit(op._values[-1])  # summed from +0.0
        assert not hasattr(op, "_rows")


def _canonical(n, rows, cols, values):
    """The (row, col)-sorted layout the slots replaced: each position once, summed from +0.0."""
    rows, cols, values = _stored_as_before(np.asarray(rows, np.intp), np.asarray(cols, np.intp),
                                           np.asarray(values, np.float64))
    order = np.argsort(rows * n + cols, kind="stable")
    keys, slot = np.unique((rows * n + cols)[order], return_inverse=True)
    r, c = np.divmod(keys, n)
    return r, c, np.bincount(slot.ravel(), values[order], keys.size).astype(np.float64)


def _reference_matvec(n, rows, cols, values, mat):
    """The apply the slots replaced: one bincount per column over the canonical layout."""
    r, c, v = _canonical(n, rows, cols, values)
    out = np.empty((n, mat.shape[1]))
    for k in range(mat.shape[1]):
        col = mat[:, k].copy()
        out[:, k] = np.bincount(r, v * col[c], n)
    return out


def _arrow(n):
    """Lower-triangle entries of a full first column and last row, and the diagonal."""
    i = np.arange(n)
    return (np.concatenate([i, i[1:], np.full(n - 1, n - 1)]),
            np.concatenate([i, np.zeros(n - 1, np.intp), i[:-1]]),
            np.concatenate([np.full(n, 2.0), np.full(n - 1, 0.1), np.full(n - 1, -0.3)]))


@st.composite
def _block(draw, n):
    """An (n, k) float64 block, C-ordered, F-ordered or a strided view, with +-0.0 and 1e16."""
    k = draw(st.sampled_from([1, 2, 3, 7, 64]))
    entries = draw(st.lists(_ENTRY_VALUES, min_size=n * k, max_size=n * k))
    mat = np.array(entries, dtype=np.float64).reshape(n, k)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(mat)
    if layout == "strided":
        wide = np.full((n, 2 * k), np.nan)
        wide[:, ::2] = mat
        return wide[:, ::2]
    return mat


class TestSlotApply:
    """``apply`` on the slots equals the per-column bincount it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(entries=_lower_entries(), data=st.data(),
           budget=st.sampled_from([1, 3, 64, operators._APPLY_ELEMENTS]),
           slot_rows=st.sampled_from([1, 2, 3, operators._SLOT_ROWS]))
    def test_equals_per_column_bincount(self, entries, data, budget, slot_rows):
        n, rows, cols, values = entries
        with pytest.MonkeyPatch.context() as mp:
            # small budgets split the rows into many chunks; slot_rows 1 keeps every
            # slot, larger ones send more of the longer rows to the overflow
            mp.setattr(operators, "_SLOT_ROWS", slot_rows)
            op = CooSymmetric(n, rows, cols, values)
            mp.setattr(operators, "_APPLY_ELEMENTS", budget)
            mat = data.draw(_block(n))
            assert _same_bits(op.apply(mat), _reference_matvec(n, rows, cols, values, mat))
            want = _reference_matvec(n, rows, cols, values, mat[:, :1])[:, 0]
            assert _same_bits(op.apply(mat[:, 0]), want)
        diag, sums, dense = _reference_readers(n, rows, cols, values)
        assert _same_bits(op.exact_diag(), diag)
        assert all(_same_bits(have, want) for have, want in zip(op.row_sums(), sums))
        assert _same_bits(op.to_dense(), dense)

    def test_arrow_rows_overflow_past_a_chunk(self):
        n, k = 1500, 64
        rows, cols, values = _arrow(n)
        op = CooSymmetric(n, rows, cols, values)
        # three slots of nearly all rows; the two full rows go on in the overflow,
        # each longer than the rows of a chunk
        assert op._slots.size - 1 == 3
        assert op._overflow.size == 2 * (n - 3) and n - 3 > operators._APPLY_ELEMENTS // k
        mat = np.random.default_rng(2).standard_normal((n, k))
        assert _same_bits(op.apply(mat), _reference_matvec(n, rows, cols, values, mat))
        assert _same_bits(op.apply(mat[:, 5]), _reference_matvec(n, rows, cols, values, mat[:, 5:6])[:, 0])

    def test_empty_block(self):
        op = CooSymmetric(3, rows=[2], cols=[0], values=[1.5])
        assert op.apply(np.ones((3, 0))).shape == (3, 0)

    @settings(max_examples=150, deadline=None)
    @given(entries=_lower_entries(), data=st.data(), budget=st.sampled_from([1, 3, 64]),
           slot_rows=st.sampled_from([1, 2, 3]))
    def test_parts_equal_per_column_bincount(self, in_parts, entries, data, budget, slot_rows):
        # up to three parts of rows, the leading ones with the longer rows and the overflow
        n, rows, cols, values = entries
        with in_parts(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_SLOT_ROWS", slot_rows)
            op = CooSymmetric(n, rows, cols, values)
            mp.setattr(operators, "_APPLY_ELEMENTS", budget)
            mat = data.draw(_block(n))
            assert _same_bits(op.apply(mat), _reference_matvec(n, rows, cols, values, mat))

    @pytest.mark.parametrize("budget", [64, operators._APPLY_ELEMENTS])
    def test_arrow_rows_overflow_in_parts(self, in_parts, monkeypatch, budget):
        n, k = 1500, 64
        rows, cols, values = _arrow(n)
        op = CooSymmetric(n, rows, cols, values)
        mat = np.random.default_rng(2).standard_normal((n, k))
        monkeypatch.setattr(operators, "_APPLY_ELEMENTS", budget)
        with in_parts():
            assert operators._parts(n, n * k) == 3
            assert _same_bits(op.apply(mat), _reference_matvec(n, rows, cols, values, mat))

    @staticmethod
    def _spread_block():
        # n = 5*10^4 rows of about 9 entries, and a block of 64 Rademacher probes
        n, per_row = 50_000, 4
        rng = np.random.default_rng(0)
        i = np.repeat(np.arange(1, n), per_row)
        j = (rng.random(i.size) * i).astype(np.intp)
        d = np.arange(n)
        op = CooSymmetric(n, np.concatenate([d, i]), np.concatenate([d, j]),
                          np.concatenate([1.0 + rng.random(n), rng.uniform(-0.1, 0.1, i.size)]))
        return op, probes.sample_probe_block(probes.rademacher(), n, probes.RngState(0), 64)[0]

    def test_block_extra_memory_is_two_chunks(self, peak_bytes, monkeypatch):
        op, block = self._spread_block()
        monkeypatch.setattr(operators, "_WORKERS", 1)  # one walk
        out, peak = peak_bytes(lambda: op.apply(block))
        assert peak <= out.nbytes + 2 * 2**20

    def test_parts_extra_memory_is_three_chunks_each(self, peak_bytes, monkeypatch):
        op, block = self._spread_block()
        monkeypatch.setattr(operators, "_WORKERS", 3)
        assert operators._parts(block.shape[0], block.size) == 3
        out, peak = peak_bytes(lambda: op.apply(block))
        # per part: its chunk pair and at most a chunk of overflow positions
        assert peak <= out.nbytes + 3 * 3 * 8 * operators._APPLY_ELEMENTS + 2**16


def _split_threads():
    # the threads _split starts are named "diagmc"
    return [t for t in threading.enumerate() if t.name.startswith("diagmc")]


class TestSplit:
    """``_split`` walks runs from one queue on the calling thread and threads of its own, and keeps no error back."""

    def test_small_blocks_run_whole_on_the_calling_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(operators, "_WORKERS", 3)
        operators._split(100, 30, 2 * operators._SPLIT_ENTRIES - 1, lambda runs: calls.extend(
            (lo, hi, threading.get_ident()) for lo, hi in runs))
        assert calls == [(lo, min(100, lo + 30), threading.get_ident()) for lo in range(0, 100, 30)]

    def test_one_run_starts_no_thread(self, in_parts, monkeypatch):
        # entries enough for three threads, but one run: no thread is started
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
        calls = []
        with in_parts():
            operators._split(12, 12, 12, lambda runs: calls.extend(
                (lo, hi, threading.get_ident()) for lo, hi in runs))
        assert calls == [(0, 12, threading.get_ident())]
        assert started == []

    @pytest.mark.parametrize("n,chunk", [(12, 2), (13, 4), (12, 5)])
    def test_runs_cover_the_range(self, in_parts, n, chunk):
        # three threads, the last run short where chunk does not divide n
        calls = []
        with in_parts():
            operators._split(n, chunk, n, lambda runs: calls.extend(runs))
        assert sorted(calls) == [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]

    def test_runs_are_taken_once_under_contention(self, in_parts):
        # four threads on at most two CPUs, switching every microsecond: a run taken
        # twice from the queue, or lost, would show in the runs walked
        walked, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with in_parts(workers=4):
                operators._split(20_000, 1, 20_000, lambda runs: walked.append([lo for lo, _ in runs]))
        finally:
            sys.setswitchinterval(interval)
        assert len(walked) == 4
        assert sorted(lo for mine in walked for lo in mine) == list(range(20_000))

    def test_a_slow_thread_walks_fewer_pieces(self, in_parts):
        # the other thread sleeps through its first run; the caller walks the rest
        # where a fixed half each would have kept it waiting for the other half
        walked = {}
        caller = threading.get_ident()

        def body(runs):
            for lo, hi in runs:
                if threading.get_ident() != caller:
                    time.sleep(0.5)
                walked.setdefault(threading.get_ident() == caller, []).append(lo)

        with in_parts(workers=2):
            operators._split(20, 1, 20, body)
        assert sorted(walked[True] + walked.get(False, [])) == list(range(20))
        assert len(walked.get(False, [])) <= 1

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_an_error_reaches_the_caller_after_every_piece(self, in_parts, failing):
        ended = []

        def body(runs):
            for lo, hi in runs:
                if lo == failing:
                    raise ValueError(f"run {lo}")
                time.sleep(0.2)
                ended.append(lo)

        with in_parts(), pytest.raises(ValueError, match=f"^run {failing}$"):
            operators._split(3, 1, 3, body)
        assert sorted(ended) == sorted({0, 1, 2} - {failing})

    @pytest.mark.parametrize("failing", [None, 0, 1])
    def test_no_thread_outlives_the_split(self, in_parts, failing):
        def body(runs):
            for lo, hi in runs:
                time.sleep(0.05)  # so that every thread takes a run
                if lo == failing:
                    raise ValueError(f"run {lo}")

        raises = contextlib.nullcontext() if failing is None else pytest.raises(ValueError)
        with in_parts(), raises:
            operators._split(6, 1, 6, body)
        assert _split_threads() == []

    def test_a_thread_that_fails_to_start_is_joined_after_the_first(self, in_parts, monkeypatch):
        # the second start raises: the caller walks nothing, and the first thread
        # has walked every run by the time the error reaches the caller
        started, start, ended = [], threading.Thread.start, []

        def second_fails(thread):
            started.append(thread)
            if len(started) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        def body(runs):
            for lo, hi in runs:
                time.sleep(0.1)
                ended.append(lo)

        monkeypatch.setattr(threading.Thread, "start", second_fails)
        with in_parts(workers=3), pytest.raises(RuntimeError, match="^can't start new thread$"):
            operators._split(3, 1, 3, body)
        assert sorted(ended) == [0, 1, 2]
        assert not started[0].is_alive()

    def test_a_body_may_split_again(self, in_parts):
        # an outer split of four runs whose bodies split eight runs each; a split
        # that waited on threads busy with its own caller would never end, so the
        # split runs on a daemon thread that the test waits on for a while only
        walked = []

        def inner(runs):
            walked.extend(runs)

        def outer(runs):
            for lo, hi in runs:
                operators._split(8, 1, 8, inner)

        watchdog = threading.Thread(target=operators._split, args=(4, 1, 4, outer), daemon=True)
        with in_parts(workers=2):
            watchdog.start()
            watchdog.join(timeout=60)
        assert not watchdog.is_alive(), "the nested split did not end"
        assert sorted(walked) == sorted([(lo, lo + 1) for lo in range(8)] * 4)
        assert _split_threads() == []

    def test_pieces_run_under_the_callers_error_state(self, in_parts):
        # new threads start from numpy's default error state, where inf - inf warns
        seen, threads = [], set()

        def body(runs):
            for lo, hi in runs:
                seen.append(np.geterr())
                threads.add(threading.get_ident())
                np.subtract(np.full(hi - lo, np.inf), np.inf)
                time.sleep(0.1)  # so that the other threads take runs too

        with in_parts(), warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            want = np.geterr()
            operators._split(3, 1, 3, body)
        assert seen == [want] * 3
        assert threads - {threading.get_ident()}

    def test_overflowing_slot_sums_rejected_in_parts(self, in_parts, monkeypatch):
        # entries of 1e308 on three diagonals: a row's slot sums overflow, in every
        # part of one-row runs, and the estimate refuses the block as it does in one walk
        monkeypatch.setattr(operators, "_APPLY_ELEMENTS", 1)
        n = 30
        i = np.arange(n)
        op = CooSymmetric(n, np.concatenate([i, i[1:]]), np.concatenate([i, i[:-1]]), np.full(2 * n - 1, 1e308))
        message = r"^non-finite matvec or gradient values at probe counters \[0, 4\)$"
        for workers in (1, 3):
            with in_parts(workers), warnings.catch_warnings(), pytest.raises(ValueError, match=message):
                warnings.simplefilter("error")
                estimate_diagonal(op, probes.rademacher(), 4, 0)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
    def test_a_forked_child_applies_in_parts(self, in_parts):
        n, k = 1500, 64
        op = CooSymmetric(n, *_arrow(n))
        mat = np.random.default_rng(5).standard_normal((n, k))
        with in_parts():
            want = op.apply(mat)  # split: its threads have been joined

            def child():
                assert _same_bits(op.apply(mat), want)

            assert _split_threads() == []  # none to lose in the fork
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0


class TestRowSums:
    @pytest.mark.parametrize("seed", range(5))
    def test_implementations_agree_with_the_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = 12 + seed
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        m = np.tril(m) + np.tril(m, -1).T
        off = m - np.diag(np.diag(m))
        definition = (np.diag(m), np.sum(off * off, axis=1),
                      np.sum(np.abs(m), axis=1) - np.abs(np.diag(m)))
        coo = _split_coo(m, rng)
        for got in (DenseSymmetric.from_dense(m).row_sums(), coo.row_sums()):
            for have, want in zip(got, definition):
                assert np.allclose(have, want, rtol=1e-13, atol=1e-13)
        # duplicates are summed in storage order, as to_dense sums them
        assert np.array_equal(coo.row_sums()[0], np.diag(coo.to_dense()))

    @pytest.mark.filterwarnings("ignore:theta=")
    @pytest.mark.parametrize("kind,theta", [
        ("rank1", 0.05), ("rank1", 0.1), ("rank1", -0.3), ("decay", 0.1), ("decay", 0.5),
        ("decay", 1.0), ("tridiag", 0.5), ("tridiag", 1.0), ("tridiag", -0.7),
    ])
    def test_family_closed_forms_match_dense(self, kind, theta):
        for n in (2, 3, 17, 100, 2000):
            op = make_test_matrix(kind, n, theta)
            expected = DenseSymmetric._wrap(dense(kind, n, theta)).row_sums()
            got = op.row_sums()
            for have, want in zip(got, expected):
                assert have.dtype == np.float64 and have.shape == (n,)
                # decay's far rows underflow, where the dense products lose digits
                np.testing.assert_allclose(have, want, rtol=1e-13, atol=1e-300)
            assert np.array_equal(got[0], op.exact_diag())

    def test_does_not_apply(self, monkeypatch):
        op = _split_coo(np.diag([1.0, 2.0]) + 0.5, np.random.default_rng(0))

        def refuse(*_):
            raise AssertionError("row_sums must read stored entries")
        monkeypatch.setattr(CooSymmetric, "apply", refuse)
        monkeypatch.setattr(DenseSymmetric, "apply", refuse)
        op.row_sums()
        DenseSymmetric.from_dense(np.eye(2)).row_sums()

    def test_matrix_free_refused(self):
        with pytest.raises(UnsupportedOperationError):
            MatrixFreeOperator(3, lambda m: m).row_sums()

    @pytest.mark.parametrize("rows_per_block", [1, 4, 5, 30])
    def test_dense_row_blocks_equal_one_reduction(self, monkeypatch, rows_per_block):
        m = np.random.default_rng(rows_per_block).standard_normal((21, 21))
        monkeypatch.setattr(operators, "_APPLY_ELEMENTS", rows_per_block * 21)
        m = m + m.T
        whole = np.abs(m)
        np.fill_diagonal(whole, 0.0)
        assert np.array_equal(DenseSymmetric.from_dense(m).row_sums()[2], whole.sum(axis=1))

    def test_dense_extra_memory_is_one_row_block(self, peak_bytes):
        m = np.random.default_rng(3).standard_normal((2048, 2048))
        op = DenseSymmetric.from_dense(m + m.T)
        del m
        _, peak = peak_bytes(op.row_sums)
        # one chunk of rows and the three length-n results; blocks of 1024 rows took 16.8 MB
        assert peak <= 8 * operators._APPLY_ELEMENTS + 4 * 8 * 2048

    @pytest.mark.parametrize("make", [
        lambda n: make_test_matrix("rank1", n, 0.1),
        lambda n: make_test_matrix("decay", n, 0.5),
        lambda n: make_test_matrix("tridiag", n, 0.5),
        lambda n: CooSymmetric(n, [0, n - 1], [0, 0], [1.0, 0.5]),
        lambda n: MatrixFreeOperator(n, lambda m: m),
    ], ids=["rank1", "decay", "tridiag", "coo", "matrix-free"])
    def test_above_dense_cutoff_refused_before_allocation(self, peak_bytes, make):
        op = make(DENSE_LIMIT + 1)  # an n x n array would take 800 MB

        def refuse():
            with pytest.raises(UnsupportedOperationError,
                               match="^n = 10001 exceeds the dense cutoff 10000$"):
                op.to_dense()

        _, peak = peak_bytes(refuse)
        assert peak < 2**20
        if isinstance(op, MatrixFreeOperator):
            with pytest.raises(UnsupportedOperationError,
                               match="^MatrixFreeOperator has no explicit-entries accessor$"):
                op.row_sums()
        else:  # every other row_sums reduces what the operator knows
            sums, peak = peak_bytes(op.row_sums)
            assert peak < 2**20 and all(a.shape == (DENSE_LIMIT + 1,) for a in sums)


def _parent_from_dense(m):
    """What ``from_dense`` stored before it walked row chunks, or the first asymmetric pair."""
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    with np.errstate(over="ignore"):
        bad = np.argwhere(np.abs(m - m.T) > 1e-12 * max(scale, 1e-300))
    if bad.size:
        return tuple(int(v) for v in bad[0])
    bits = m.view(np.uint64)
    return np.where(bits == bits.T, m, 0.5 * m + 0.5 * m.T)


def _parent_row_sums(m):
    """The off-diagonal sums of ``DenseSymmetric.row_sums`` before it walked row chunks."""
    n = m.shape[0]
    buf, off2, off_abs, lo = np.empty((next(probes._block_counts(n, n)), n)), np.empty(n), np.empty(n), 0
    for count in probes._block_counts(n, n):
        rows = np.abs(m[lo : lo + count], out=buf[:count])
        rows[np.arange(count), np.arange(lo, lo + count)] = 0.0
        off_abs[lo : lo + count] = rows.sum(axis=1)
        off2[lo : lo + count] = np.einsum("ij,ij->i", rows, rows)
        lo += count
    return off2, off_abs


@st.composite
def _nearly_symmetric(draw):
    """An n x n array, n 1-150, C- or F-ordered, symmetric up to a few ulps on some pairs.

    It holds zeros of either sign and subnormals, and sometimes one pair far apart.
    """
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
    m[rng.random((n, n)) < 0.05] = 5e-324
    zeros = rng.random((n, n)) < 0.3
    m[zeros] = np.copysign(0.0, rng.random(zeros.sum()) - 0.5)
    m = np.tril(m) + np.tril(m, -1).T
    nudged = rng.random((n, n)) < 0.1  # a few ulps, well inside the 1e-12 tolerance
    m[nudged] = np.nextafter(m[nudged], rng.choice([-np.inf, np.inf], nudged.sum()))
    if draw(st.booleans()):
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += 1e-3 * (1.0 + np.max(np.abs(m)))
    return np.asfortranarray(m) if draw(st.booleans()) else m


class TestDenseRowChunks:
    """Symmetrization and row sums walk chunks of rows and keep the bits of whole-matrix passes."""

    @settings(max_examples=200, deadline=None)
    @given(m=_nearly_symmetric(), budget=st.sampled_from([1, 3, 64, operators._APPLY_ELEMENTS]))
    def test_equal_whole_matrix_passes(self, m, budget):
        want = _parent_from_dense(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_APPLY_ELEMENTS", budget)
            if isinstance(want, tuple):  # the first asymmetric pair in row-major order
                with pytest.raises(AsymmetricMatrixError) as err:
                    DenseSymmetric.from_dense(m)
                assert (err.value.i, err.value.j) == want
                return
            op = DenseSymmetric.from_dense(m)
            sums = op.row_sums()
        assert op._matrix.flags.c_contiguous and _same_bits(op._matrix, want)
        assert _same_bits(sums[0], np.diag(want).copy())
        assert all(_same_bits(have, ref) for have, ref in zip(sums[1:], _parent_row_sums(want)))

    def test_from_dense_scratch_is_a_few_chunks(self, peak_bytes):
        n = 2000
        m = np.random.default_rng(5).standard_normal((n, n))
        m = m + m.T
        m[3, 5] = np.nextafter(m[3, 5], np.inf)  # one pair to average
        op, peak = peak_bytes(lambda: DenseSymmetric.from_dense(m))
        # the stored copy and a few chunks of rows; whole-matrix passes took 2.1x the matrix
        assert peak <= m.nbytes + 8 * 8 * operators._APPLY_ELEMENTS
        assert op._matrix[3, 5] == op._matrix[5, 3] == 0.5 * m[3, 5] + 0.5 * m[5, 3]


class TestOperatorProtocol:
    def test_positive_dimension_required(self):
        with pytest.raises(ValueError):
            MatrixFreeOperator(0, lambda m: m)

    def test_matrix_free_shape_check(self):
        op = MatrixFreeOperator(3, lambda m: m[:2])
        with pytest.raises(ValueError, match="wrong-shaped"):
            op.apply(np.ones(3))

    def test_is_symmetric_operator(self):
        assert isinstance(TridiagToeplitz(4, 0.5), SymmetricOperator)
