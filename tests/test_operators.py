"""Operator tests: apply correctness, exact diagonals, symmetry, validation."""

import numpy as np
import pytest

from diagmc import probes
from diagmc.operators import (
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
        dense = op.to_dense()
        eye = np.eye(op.dim)
        assert np.array_equal(op.apply(eye), dense)
        for j in (0, op.dim // 2, op.dim - 1):
            assert np.array_equal(op.apply(eye[:, j]), dense[:, j])

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_columns_match_dense_at_200(self, kind):
        op = make_test_matrix(kind, 200, 0.1)
        assert np.array_equal(op.apply(np.eye(200)), op.to_dense())

    @pytest.mark.parametrize("op", _all_operators(), ids=lambda o: type(o).__name__)
    def test_symmetry_random_pairs(self, op):
        dense = op.to_dense()
        scale = np.max(np.abs(dense)) * op.dim
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
            op.exact_diag(), np.diag(op.to_dense()), rtol=1e-15, atol=0
        )

    def test_matrix_free_unsupported(self):
        op = MatrixFreeOperator(4, lambda m: m)
        with pytest.raises(UnsupportedOperationError):
            op.exact_diag()
        with pytest.raises(UnsupportedOperationError):
            op.to_dense()


class TestEntries:
    def test_tridiag_entries(self):
        dense = make_test_matrix("tridiag", 100, 0.5).to_dense()
        assert dense[0, 1] == 0.5
        assert dense[0, 2] == 0.0
        assert dense[50, 50] == 1.0

    def test_rank1_entries(self):
        dense = make_test_matrix("rank1", 100, 0.01).to_dense()
        assert dense[3, 7] == 0.01
        assert dense[9, 9] == 1.01

    def test_decay_outer_product(self):
        op = make_test_matrix("decay", 3, 0.5)
        x = np.exp(-0.5 * np.arange(1, 4))
        expected = np.outer(x, x) / np.sum(x * x)
        assert np.allclose(op.to_dense(), expected, rtol=1e-14)

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


class TestDenseSymmetric:
    def test_packed_count(self):
        packed = np.arange(1.0, 7 * 8 // 2 + 1)
        full = DenseSymmetric(packed, 7).to_dense()
        assert np.array_equal(full[np.tril_indices(7)], packed)
        assert np.array_equal(full, full.T)
        with pytest.raises(ValueError, match="needs"):
            DenseSymmetric(np.zeros(5), 7)

    def test_reconstruction_is_exactly_symmetric(self):
        m = RNG.standard_normal((15, 15))
        op = DenseSymmetric.from_dense(0.5 * (m + m.T))
        full = op.to_dense()
        assert np.array_equal(full, full.T)

    def test_to_dense_is_an_independent_copy(self):
        op = DenseSymmetric.from_dense(np.eye(3))
        op.to_dense()[0, 0] = 5.0
        assert np.array_equal(op.to_dense(), np.eye(3))
        assert np.array_equal(op.exact_diag(), np.ones(3))

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 1.0], [1.5, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            DenseSymmetric.from_dense(m)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CooSymmetric(3, rows=[0, 2], cols=[0, 1], values=[1.0, bad])


class TestNonFiniteDense:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_dense_rejects(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DenseSymmetric.from_dense(m)

    def test_packed_rejects(self):
        with pytest.raises(ValueError, match="finite"):
            DenseSymmetric(np.array([1.0, np.nan, 1.0]), 2)


def _split_coo(m, rng):
    """Lower-triangle entries of ``m`` in shuffled order, each split in two."""
    rows, cols = np.nonzero(np.tril(m))
    vals = m[rows, cols]
    part = rng.uniform(-1.0, 1.0, vals.size)
    rows, cols, vals = np.tile(rows, 2), np.tile(cols, 2), np.concatenate([part, vals - part])
    order = rng.permutation(vals.size)
    return CooSymmetric(m.shape[0], rows[order], cols[order], vals[order])


class TestRowSums:
    @pytest.mark.parametrize("seed", range(5))
    def test_implementations_agree_with_the_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = 12 + seed
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        m = np.tril(m) + np.tril(m, -1).T
        definition = (np.diag(m), np.sum(m * m, axis=1),
                      np.sum(np.abs(m), axis=1) - np.abs(np.diag(m)))
        coo = _split_coo(m, rng)
        for got in (DenseSymmetric.from_dense(m).row_sums(), coo.row_sums()):
            for have, want in zip(got, definition):
                assert np.allclose(have, want, rtol=1e-13, atol=1e-13)
        # duplicates are summed in storage order, as to_dense sums them
        assert np.array_equal(coo.row_sums()[0], np.diag(coo.to_dense()))

    @pytest.mark.parametrize("kind,theta", [("rank1", 0.05), ("decay", 0.5), ("tridiag", 0.5)])
    def test_base_reduces_to_dense(self, kind, theta):
        op = make_test_matrix(kind, 17, theta)
        m = op.to_dense()
        expected = DenseSymmetric.from_dense(m).row_sums()
        for have, want in zip(op.row_sums(), expected):
            assert np.array_equal(have, want)
        assert np.array_equal(op.row_sums()[0], op.exact_diag())

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
        monkeypatch.setattr(probes, "_BLOCK_VECTORS", rows_per_block)
        m = np.random.default_rng(rows_per_block).standard_normal((21, 21))
        m = m + m.T
        whole = np.abs(m)
        np.fill_diagonal(whole, 0.0)
        assert np.array_equal(DenseSymmetric.from_dense(m).row_sums()[2], whole.sum(axis=1))

    def test_dense_extra_memory_is_one_row_block(self, peak_bytes):
        m = np.random.default_rng(3).standard_normal((2048, 2048))
        op = DenseSymmetric.from_dense(m + m.T)
        del m
        _, peak = peak_bytes(op.row_sums)
        assert peak < 0.6 * 2048 * 2048 * 8  # the matrix's bytes


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
