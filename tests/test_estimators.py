"""Estimator tests: exactness, replay oracles, streaming, merging, DGSM."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import LinearGradient
from diagmc import operators, probes
from diagmc.estimators import (
    DegenerateProbeError,
    DiagonalEstimate,
    GradientOracle,
    NORMALIZED,
    QuadraticGradientOracle,
    UNNORMALIZED,
    componentwise_relative_error,
    estimate_dgsm,
    estimate_diagonal,
    estimate_diagonal_normalized,
    normwise_relative_error,
    _row_products,
)
from diagmc.operators import DenseSymmetric, MatrixFreeOperator, make_test_matrix
from diagmc.probes import (
    EstimatorSpec,
    RngState,
    gaussian,
    rademacher,
    sample_probe_block,
    sparse_rademacher,
)


def _dense(matrix):
    return DenseSymmetric.from_dense(np.asarray(matrix, dtype=np.float64))


class _CountingOperator(MatrixFreeOperator):
    def __init__(self, inner):
        super().__init__(inner.dim, inner.apply)
        self.columns_applied = 0

    def _matvec(self, mat):
        self.columns_applied += mat.shape[1]
        return super()._matvec(mat)


class TestUnnormalized:
    def test_diagonal_exact_single_sample(self):
        op = _dense(np.diag([2.0, -3.0]))
        for seed in (0, 1, 99):
            est = estimate_diagonal(op, rademacher(), 1, seed)
            assert np.array_equal(est.value, [2.0, -3.0])

    def test_zero_matrix(self):
        op = _dense(np.zeros((4, 4)))
        est = estimate_diagonal(op, gaussian(), 13, 5)
        assert np.array_equal(est.value, np.zeros(4))

    def test_replay_oracle(self):
        # independently recompute mean((A w_k) o w_k) from the seeded probes
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        op = _dense(a)
        est = estimate_diagonal(op, rademacher(), 2, 7)
        state = RngState(7)
        acc = np.zeros(2)
        for _ in range(2):
            w, state = sample_probe_block(rademacher(), 2, state, 1)
            acc += ((a @ w) * w)[:, 0]
        assert np.allclose(est.value, acc / 2.0, rtol=1e-15, atol=0)

    def test_cost_is_exactly_n_applications(self, monkeypatch):
        monkeypatch.setattr(probes, "_BLOCK_VECTORS", 16)
        op = _CountingOperator(make_test_matrix("tridiag", 10, 0.5))
        estimate_diagonal(op, rademacher(), 37, 0)
        assert op.columns_applied == 37

    def test_block_size_does_not_change_result(self, monkeypatch):
        op = make_test_matrix("rank1", 30, 0.05)
        b = estimate_diagonal(op, gaussian(), 100, 3)
        monkeypatch.setattr(probes, "_BLOCK_VECTORS", 7)
        a = estimate_diagonal(op, gaussian(), 100, 3)
        assert np.allclose(a.value, b.value, rtol=1e-13, atol=0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matvec_in_a_later_block(self, monkeypatch, bad):
        # a non-finite output survives even the zero entries of sparse probes
        monkeypatch.setattr(probes, "_BLOCK_VECTORS", 4)
        calls = []

        def matvec(mat):
            calls.append(mat.shape[1])
            out = mat.copy()
            if len(calls) == 3:
                out[1, 2] = bad
            return out

        op = MatrixFreeOperator(5, matvec)
        with pytest.raises(ValueError, match=r"non-finite .* counters \[8, 12\)"):
            estimate_diagonal(op, sparse_rademacher(3.0), 20, 0)
        assert calls == [4, 4, 4]

    def test_n_samples_positive(self):
        op = make_test_matrix("tridiag", 4, 0.5)
        with pytest.raises(ValueError):
            estimate_diagonal(op, rademacher(), 0, 0)

    def test_unbiased_light(self):
        # light version of the unbiasedness criterion: 2000 single-sample
        # replicates, 5 standard errors
        op = make_test_matrix("tridiag", 20, 0.5)
        probes, _ = sample_probe_block(rademacher(), 20, RngState(42), 2000)
        trials = op.apply(probes) * probes
        mean = trials.mean(axis=1)
        se = trials.std(axis=1, ddof=1) / np.sqrt(2000)
        assert np.all(np.abs(mean - op.exact_diag()) <= 5 * se)


class TestNormalized:
    def test_diagonal_exact_single_sample(self):
        op = _dense(np.diag([5.0, -1.0]))
        est = estimate_diagonal_normalized(op, 1, 11)
        assert np.allclose(est.value, [5.0, -1.0], rtol=1e-14, atol=0)

    def test_replay_oracle(self):
        a = np.array([[1.0, 0.5], [0.5, 1.0]])
        op = _dense(a)
        est = estimate_diagonal_normalized(op, 3, 1)
        state = RngState(1)
        num = np.zeros(2)
        den = np.zeros(2)
        for _ in range(3):
            z, state = sample_probe_block(gaussian(), 2, state, 1)
            num += ((a @ z) * z)[:, 0]
            den += (z * z)[:, 0]
        assert np.allclose(est.value, num / den, rtol=1e-14, atol=0)

    def test_spec_runs_the_normalized_ratio(self):
        op = make_test_matrix("tridiag", 30, 0.5)
        got = estimate_diagonal(op, EstimatorSpec("normalized_gaussian"), 9, RngState(4, 3))
        expected = estimate_diagonal_normalized(op, 9, RngState(4, 3))
        assert got.mode == expected.mode == NORMALIZED
        assert np.array_equal(got.value, expected.value)
        assert np.array_equal(np.signbit(got.value), np.signbit(expected.value))

    def test_dgsm_spec_refused(self):
        op = _CountingOperator(make_test_matrix("tridiag", 5, 0.5))
        with pytest.raises(ValueError, match="^estimator 'dgsm' draws no probes$"):
            estimate_diagonal(op, EstimatorSpec("dgsm"), 4, 0)
        assert op.columns_applied == 0

    def test_degenerate_denominator_raises(self):
        est = DiagonalEstimate(2, NORMALIZED)
        est.update(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(DegenerateProbeError):
            est.value


class TestStreaming:
    def test_single_update_is_the_product(self):
        est = DiagonalEstimate(3)
        w = np.array([1.0, -1.0, 1.0])
        aw = np.array([0.5, 2.0, -1.0])
        est.update(w, aw)
        assert np.array_equal(est.value, aw * w)

    def test_two_updates_equal_one_block(self):
        w = np.array([[1.0, -1.0], [1.0, 1.0]])
        aw = np.array([[2.0, 0.5], [-1.0, 3.0]])
        a = DiagonalEstimate(2).update(w[:, 0], aw[:, 0]).update(w[:, 1], aw[:, 1])
        b = DiagonalEstimate(2).update_block(w, aw)
        assert np.array_equal(a.value, b.value)
        assert a.n_samples == b.n_samples == 2

    @settings(max_examples=20, deadline=None)
    @given(split=st.integers(1, 15), seed=st.integers(0, 2**32), normalized=st.booleans())
    def test_merge_any_split_matches_single_pass(self, split, seed, normalized):
        op = make_test_matrix("tridiag", 8, 0.5)
        total = 16
        if normalized:
            run = lambda n, state: estimate_diagonal_normalized(op, n, state)
        else:
            run = lambda n, state: estimate_diagonal(op, rademacher(), n, state)
        single = run(total, RngState(seed, 0))
        merged = run(split, RngState(seed, 0)).merge(run(total - split, RngState(seed, split)))
        ref = np.abs(single.value) + 1e-300
        assert np.all(np.abs(merged.value - single.value) / ref <= 1e-12)

    def test_merge_equals_single_pass(self):
        op = make_test_matrix("decay", 25, 0.5)
        dist = rademacher()
        single = estimate_diagonal(op, dist, 10, RngState(77, 0))
        first = estimate_diagonal(op, dist, 5, RngState(77, 0))
        second = estimate_diagonal(op, dist, 5, RngState(77, 5))
        merged = first.merge(second)
        assert merged.n_samples == 10
        ref = np.abs(single.value) + 1e-300
        assert np.all(np.abs(merged.value - single.value) / ref <= 1e-12)

    def test_merge_requires_matching_shape_and_mode(self):
        with pytest.raises(ValueError):
            DiagonalEstimate(3).merge(DiagonalEstimate(4))
        with pytest.raises(ValueError):
            DiagonalEstimate(3).merge(DiagonalEstimate(3, NORMALIZED))

    def test_update_length_checked(self):
        est = DiagonalEstimate(3)
        with pytest.raises(ValueError, match="shape"):
            est.update(np.ones(4), np.ones(4))

    def test_value_before_any_sample(self):
        with pytest.raises(ValueError, match="no samples"):
            DiagonalEstimate(3).value

    def test_mode_fixed_at_creation(self):
        est = DiagonalEstimate(2, UNNORMALIZED)
        with pytest.raises(ValueError, match="denominator"):
            est.denominator


class _NeumaierSum:
    """The previous accumulator, kept as the reference: Neumaier's branchy update."""

    def __init__(self, n):
        self.total, self.residual = np.zeros(n), np.zeros(n)

    def add(self, values):
        t = self.total + values
        swap = np.abs(self.total) >= np.abs(values)
        self.residual += np.where(swap, (self.total - t) + values, (values - t) + self.total)
        self.total = t

    def value(self):
        return self.total + self.residual


class _ReferenceEstimate:
    """The previous DiagonalEstimate's sums, plus which components saw a non-finite sample."""

    def __init__(self, n, normalized):
        self.sums = [_NeumaierSum(n) for _ in range(2 if normalized else 1)]
        self.count = 0
        self.poisoned = np.zeros(n, dtype=bool)

    def update_block(self, probes, aprobes):
        for acc, factor in zip(self.sums, (aprobes, probes)):
            block = (factor * probes).sum(axis=1)
            acc.add(block)
            self.poisoned |= ~np.isfinite(block)
        self.count += probes.shape[1]

    def merge(self, other):
        for acc, theirs in zip(self.sums, other.sums):
            acc.add(theirs.total)
            acc.add(theirs.residual)
        self.count += other.count
        self.poisoned |= other.poisoned

    def value(self):
        if self.count < 1:
            return ValueError
        if len(self.sums) == 1:
            return self.sums[0].value() / self.count
        den = self.sums[1].value()
        if np.any(np.abs(den) < 1e-300):
            return DegenerateProbeError
        return self.sums[0].value() / den


def _value_or_error(est):
    try:
        return est.value
    except (ValueError, DegenerateProbeError) as exc:
        return type(exc)


def _assert_same_bits(have, want):
    if isinstance(want, type):
        assert have is want
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(have), nan)
    assert np.array_equal(have[~nan].view(np.uint64), want[~nan].view(np.uint64))


# magnitudes from 1e-16 to 1e16 make the totals round and the residuals matter
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.1, 1e-16, 1e16, -1e16, 2.0**53 + 2, 7e15]),
    st.floats(-1e17, 1e17, allow_nan=False, allow_infinity=False),
)


@st.composite
def _block(draw, n, non_finite=False):
    k = draw(st.integers(1, 3))
    probes, aprobes = (np.array(draw(st.lists(_ENTRY, min_size=n * k, max_size=n * k)))
                       .reshape(n, k) for _ in range(2))
    if non_finite:
        aprobes[draw(st.integers(0, n - 1)), 0] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return probes, aprobes


@st.composite
def _accumulator_case(draw):
    n = draw(st.integers(1, 3))
    blocks = st.one_of(
        _block(n).map(lambda b: ("update", b)),
        _block(n).map(lambda b: ("update_block", b)),
        _block(n, non_finite=True).map(lambda b: ("update_block", b)),
        st.lists(_block(n), min_size=1, max_size=3).map(lambda bs: ("merge", bs)),
    )
    return n, draw(st.booleans()), draw(st.lists(blocks, min_size=1, max_size=8))


class TestTwoSumAccumulator:
    """TwoSum in one array gives the previous Neumaier sums' results bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=_accumulator_case())
    # merging -1 with (1e-16 + 2^53 + 2) rounds differently if residuals fold first
    @example(case=(1, False, [
        ("update_block", (np.ones((1, 1)), np.array([[-1.0]]))),
        ("merge", [(np.ones((1, 1)), np.array([[v]])) for v in (1e-16, 2.0**53 + 2)]),
    ]))
    def test_matches_neumaier_reference(self, case):
        n, normalized, ops = case
        mode = NORMALIZED if normalized else UNNORMALIZED
        est, ref = DiagonalEstimate(n, mode), _ReferenceEstimate(n, normalized)
        with np.errstate(invalid="ignore", over="ignore"):
            for op, arg in ops:
                if op == "update":
                    probes, aprobes = arg
                    est.update(probes[:, 0], aprobes[:, 0])
                    ref.update_block(probes[:, :1], aprobes[:, :1])
                elif op == "update_block":
                    est.update_block(*arg)
                    ref.update_block(*arg)
                elif op == "merge":
                    other, other_ref = DiagonalEstimate(n, mode), _ReferenceEstimate(n, normalized)
                    for block in arg:
                        other.update_block(*block)
                        other_ref.update_block(*block)
                    est.merge(other)
                    ref.merge(other_ref)
                assert est.n_samples == ref.count
                _assert_same_bits(est.numerator, ref.sums[0].value())
                if normalized:
                    _assert_same_bits(est.denominator, ref.sums[1].value())
                _assert_same_bits(_value_or_error(est), ref.value())
                assert not np.isfinite(est.numerator[ref.poisoned]).any()

    def test_cancellation_keeps_the_residual(self):
        # 1e16 + 1 and 1 - 1e16 both round; each residual keeps the 1 through the merge
        one = np.ones((1, 1))
        est = DiagonalEstimate(1).update_block(one, [[1e16]]).update_block(one, [[1.0]])
        other = DiagonalEstimate(1).update_block(one, [[1.0]]).update_block(one, [[-1e16]])
        assert est.merge(other).numerator[0] == 2.0


def _parent_row_products(probes, aprobes, normalized):
    """The sums ``update_block`` added before it walked row chunks: one (n, k) product per factor."""
    factors = (aprobes, probes) if normalized else (aprobes,)
    return np.array([(f * probes).sum(axis=1) for f in factors])


def _laid_out(block, layout):
    if layout == "F":
        return np.asfortranarray(block)
    if layout == "strided":  # every other column of a wider row-major array
        wide = np.full((block.shape[0], 2 * block.shape[1]), np.nan)
        wide[:, ::2] = block
        return wide[:, ::2]
    if layout == "strided-F":  # every other row of a taller column-major array
        tall = np.full((2 * block.shape[0], block.shape[1]), np.nan, order="F")
        tall[::2] = block
        return tall[::2]
    return block


@st.composite
def _laid_out_pair(draw):
    """Two (n, k) blocks, n 1-300 and k 0-80, each C-ordered, F-ordered or a strided view.

    Magnitudes span 1e-16 to 1e16, and a third or all of the entries are zeros of either
    sign, so that the sign of a zero row sum is compared too.
    """
    n, k = draw(st.integers(1, 300)), draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for layout in draw(st.lists(st.sampled_from(["C", "F", "strided", "strided-F"]), min_size=2, max_size=2)):
        block = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-16, 17, (n, k))
        zeros = rng.random((n, k)) < draw(st.sampled_from([0.35, 1.0]))
        block[zeros] = np.copysign(0.0, rng.random(zeros.sum()) - 0.5)
        pair.append(_laid_out(block, layout))
    return tuple(pair)


class TestRowChunks:
    """``update_block`` sums a chunk of rows at a time and adds the same bits as one product per factor."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_laid_out_pair(), normalized=st.booleans(),
           budget=st.sampled_from([1, 3, 64, 2**16]))
    # a column-major product of -0.0 (summed whole, as before): where numpy's sum starts a
    # row decides the sign of its zero
    @example(pair=(np.ones((3, 2), order="F"), np.full((3, 2), -0.0, order="F")),
             normalized=False, budget=1)
    def test_equals_one_product_per_factor(self, pair, normalized, budget):
        probes, aprobes = pair
        n = probes.shape[0]
        want = _parent_row_products(probes, aprobes, normalized)
        est, ref = DiagonalEstimate(n, NORMALIZED if normalized else UNNORMALIZED), _ReferenceEstimate(n, normalized)
        with pytest.MonkeyPatch.context() as mp:
            # budget 1 puts every row of a row-major product in a chunk of its own
            mp.setattr(operators, "_APPLY_ELEMENTS", budget)
            have = np.empty_like(want)
            for f, out in zip((aprobes, probes), have):
                _row_products(f, probes, out)
            for block in (pair, pair[::-1]):
                est.update_block(*block)
                ref.update_block(*block)
        _assert_same_bits(have, want)  # the sign of a zero sum included
        _assert_same_bits(est.numerator, ref.sums[0].value())
        if normalized:
            _assert_same_bits(est.denominator, ref.sums[1].value())

    @pytest.mark.parametrize("mode", [UNNORMALIZED, NORMALIZED])
    def test_scratch_is_one_chunk_not_a_product(self, peak_bytes, mode):
        n, k = 50_000, 64
        probes, _ = sample_probe_block(rademacher(), n, RngState(0), k)
        aprobes = 1.5 * probes
        est = DiagonalEstimate(n, mode)
        _, peak = peak_bytes(lambda: est.update_block(probes, aprobes))
        factors = 2 if mode == NORMALIZED else 1
        # one chunk of rows and a few length-n vectors per factor (the sums and
        # the TwoSum's temporaries), where an (n, k) product takes 25.6 MB
        assert peak <= 8 * operators._APPLY_ELEMENTS + 5 * factors * 8 * n


class TestDgsm:
    def test_linear_exact_single_sample(self):
        h = np.array([2.0, -0.5, 3.0, 0.0])
        est = estimate_dgsm(LinearGradient(h), 1, 0)
        assert np.array_equal(est.value, h * h)

    def test_zero_gradient(self):
        est = estimate_dgsm(LinearGradient(np.zeros(3)), 50, 4)
        assert np.array_equal(est.value, np.zeros(3))

    def test_nonnegative_entries(self):
        oracle = QuadraticGradientOracle(np.array([1.0, 0.5, 0.25]))
        est = estimate_dgsm(oracle, 500, 9)
        assert np.all(est.value >= 0.0)

    def test_quadratic_diagonal_within_three_se(self):
        # diag(C) = diag(S^2)/3; per-component standard error of the mean of
        # s_i^2 x^2 over N draws is s_i^2 sqrt(Var(x^2)/N) with Var(x^2)=4/45
        s = np.exp(-10.0 * np.arange(1, 101) / 100.0)
        oracle = QuadraticGradientOracle(s)
        n_samples = 100_000
        est = estimate_dgsm(oracle, n_samples, 0)
        se = s * s * np.sqrt(4.0 / 45.0 / n_samples)
        assert np.all(np.abs(est.value - oracle.second_moment_diag()) <= 3.0 * se)

    def test_full_matrix_factor(self):
        s = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 0.5]])
        oracle = QuadraticGradientOracle(s)
        assert np.allclose(oracle.second_moment_diag(), np.diag(s @ s) / 3.0)
        est = estimate_dgsm(oracle, 200_000, 1)
        assert np.allclose(est.value, oracle.second_moment_diag(), rtol=0.05)

    def test_wrong_length_oracle_rejected(self):
        class Bad(GradientOracle):
            def _sample_block(self, state, count):
                return np.zeros((self.dim + 1, count)), state.advance(count)

        with pytest.raises(ValueError, match="shape"):
            estimate_dgsm(Bad(3), 1, 0)

    def test_beta_violation_detected(self):
        class Lying(GradientOracle):
            def _sample_block(self, state, count):
                return np.full((self.dim, count), 2.0), state.advance(count)

        with pytest.raises(ValueError, match="sup norm"):
            estimate_dgsm(Lying(3, beta=1.0), 1, 0)

    def test_beta_bound_holds_for_models(self):
        oracle = QuadraticGradientOracle(np.array([[0.6, 0.2], [0.2, 0.9]]))
        grads, _ = oracle.sample_gradient_block(RngState(5), 1000)
        assert np.max(np.abs(grads)) <= oracle.beta


class TestErrorMeasures:
    def test_normwise_zero(self):
        assert normwise_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_normwise_simple(self):
        assert normwise_relative_error(
            np.array([1.1, 1.0]), np.array([1.0, 1.0])
        ) == pytest.approx(0.1)

    def test_normwise_max_based(self):
        # |(-4) - (-3)| / 4
        assert normwise_relative_error(
            np.array([2.0, -3.0]), np.array([2.0, -4.0])
        ) == pytest.approx(0.25)

    def test_normwise_zero_exact_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            normwise_relative_error(np.array([1.0]), np.array([0.0]))

    def test_componentwise(self):
        exact = np.array([10.0, -0.5])
        assert componentwise_relative_error(np.array([10.0, 1.0]), exact, 0) == 0.0
        assert componentwise_relative_error(np.array([9.0, 1.0]), exact, 0) == pytest.approx(0.1)
        assert componentwise_relative_error(np.array([9.0, 0.5]), exact, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("index", [-1, -5, 5])
    def test_componentwise_index_checked(self, index):
        with pytest.raises(IndexError, match=rf"^component index {index} out of range for n=5$"):
            componentwise_relative_error(np.ones(5), np.ones(5), index)

    def test_componentwise_lengths_checked(self):
        with pytest.raises(ValueError, match="^estimate and exact diagonal have different lengths$"):
            componentwise_relative_error(np.ones(5), np.ones(3), 0)

    def test_componentwise_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            componentwise_relative_error(np.array([1.0]), np.array([0.0]), 0)

    def test_accepts_estimates(self):
        op = make_test_matrix("tridiag", 6, 0.5)
        est = estimate_diagonal(op, rademacher(), 4, 0)
        assert normwise_relative_error(est, op.exact_diag()) >= 0.0
        assert componentwise_relative_error(est, op.exact_diag(), 2) >= 0.0
