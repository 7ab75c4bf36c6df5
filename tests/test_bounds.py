"""Bound-evaluator tests.

The recurring oracle here recomputes every constant directly from dense
entries with independent numpy expressions, then compares against the
bounds module and against the test families' closed forms.
"""

import math

import numpy as np
import pytest

from closed_forms import entries, family_constants
from diagmc import bounds
from diagmc.estimators import estimate_diagonal, estimate_diagonal_normalized
from diagmc.harness import EstimatorSpec, normalized_error_samples, replicate_component_errors
from diagmc.operators import CooSymmetric, DenseSymmetric, MatrixFreeOperator, make_test_matrix
from diagmc.probes import RngState, rademacher
from test_operators import _split_coo

RNG = np.random.default_rng(777)

THETA_GRIDS = {
    "rank1": np.linspace(0.01, 0.1, 5),
    "decay": np.linspace(0.1, 1.0, 5),
    "tridiag": np.linspace(0.1, 1.0, 5),
}


def _tridiag_coo(n, theta):
    """Unit-diagonal tridiagonal Toeplitz matrix as stored lower-triangle entries."""
    idx = np.arange(n)
    return CooSymmetric(n, np.concatenate([idx, idx[1:]]), np.concatenate([idx, idx[:-1]]),
                        np.concatenate([np.ones(n), np.full(n - 1, theta)]))


def _oracle_normwise(m, s=1.0):
    """Definition-based constants straight from the dense entries."""
    diag = np.diag(m)
    col_sq = np.sum(m * m, axis=0)
    variance_diag = col_sq + (s - 2.0) * diag * diag
    k1 = np.max(variance_diag)
    row_abs = np.sum(np.abs(m), axis=1) - np.abs(diag)
    k2 = np.max((s - 1.0) * np.abs(diag) + s * row_abs)
    d = np.sum(variance_diag) / k1
    norm_da = np.max(np.abs(diag))
    return k1, k2, d, k1 / norm_da**2, k2 / norm_da


def _linear_model_constants(h):
    """DGSM constants of f(x) = h^T x: the metric h o h and the gradient bound max |h_i|."""
    return bounds.dgsm_constants(h * h, np.max(np.abs(h)))


def _random_symmetric(n, seed=0):
    m = np.random.default_rng(seed).standard_normal((n, n))
    m = 0.5 * (m + m.T)
    m[np.diag_indices(n)] += 1.0
    return m


class TestNormwiseConstants:
    def test_rank1_reference_values(self):
        nc = bounds.normwise_constants(make_test_matrix("rank1", 100, 0.1))
        assert nc.k1 == pytest.approx(0.99, rel=1e-10)
        assert nc.k2 == pytest.approx(9.9, rel=1e-10)
        assert nc.d == pytest.approx(100.0, rel=1e-10)
        assert nc.delta2 == pytest.approx(9.0, rel=1e-10)
        assert nc.delta1 == pytest.approx(0.99 / 1.21, rel=1e-10)

    def test_tridiag_reference_values(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 100, 0.5))
        assert nc.delta1 == pytest.approx(0.5, rel=1e-12)
        assert nc.delta2 == pytest.approx(1.0, rel=1e-12)
        assert nc.d == pytest.approx(99.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_closed_forms_match_definitions(self, kind):
        for theta in THETA_GRIDS[kind]:
            nc = bounds.normwise_constants(make_test_matrix(kind, 100, theta))
            ref = family_constants(kind, 100, theta)
            for got, want in [
                (nc.k1, ref.k1), (nc.k2, ref.k2), (nc.d, ref.d),
                (nc.delta1, ref.delta1), (nc.delta2, ref.delta2),
            ]:
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 10.0, 50.0])
    def test_matches_definition_oracle(self, s):
        m = _random_symmetric(30, seed=3)
        nc = bounds.normwise_constants(m, s=s)
        k1, k2, d, d1, d2 = _oracle_normwise(m, s)
        assert nc.k1 == pytest.approx(k1, rel=1e-13)
        assert nc.k2 == pytest.approx(k2, rel=1e-13)
        assert nc.d == pytest.approx(d, rel=1e-13)
        assert nc.delta1 == pytest.approx(d1, rel=1e-13)
        assert nc.delta2 == pytest.approx(d2, rel=1e-13)

    def test_s_equal_one_reduces_to_standard_forms(self):
        m = _random_symmetric(20, seed=4)
        nc = bounds.normwise_constants(m, s=1.0)
        diag = np.diag(m)
        col_sq = np.sum(m * m, axis=0)
        k1_std = np.max(col_sq - diag * diag)
        k2_std = np.max(np.sum(np.abs(m - np.diag(diag)), axis=1))
        d_std = (np.sum(m * m) - np.sum(diag * diag)) / k1_std
        assert nc.k1 == pytest.approx(k1_std, rel=1e-13)
        assert nc.k2 == pytest.approx(k2_std, rel=1e-13)
        assert nc.d == pytest.approx(d_std, rel=1e-13)

    def test_diagonal_matrix_flagged(self):
        nc = bounds.normwise_constants(np.diag([1.0, 2.0, -3.0]))
        assert nc.is_diagonal
        assert nc.k1 == 0.0 and nc.k2 == 0.0
        assert math.isnan(nc.d)

    def test_diagonal_matrix_sparse_constants_positive(self):
        nc = bounds.normwise_constants(np.diag([1.0, 2.0, -3.0]), s=3.0)
        assert nc.is_diagonal
        assert nc.k1 == pytest.approx(2.0 * 9.0)
        assert nc.k2 == pytest.approx(2.0 * 3.0)

    @pytest.mark.parametrize("s", [2.0, 3.0, 10.0, 50.0])
    def test_monotone_in_s(self, s):
        m = _random_symmetric(15, seed=5)
        base = bounds.normwise_constants(m, s=1.0)
        grown = bounds.normwise_constants(m, s=s)
        assert grown.k1 >= base.k1
        assert grown.k2 >= base.k2

    def test_d_at_least_one(self):
        for seed in range(5):
            nc = bounds.normwise_constants(_random_symmetric(12, seed=seed))
            assert nc.d >= 1.0

    def test_scale_equivariance(self):
        m = _random_symmetric(18, seed=6)
        alpha = 3.7
        a = bounds.normwise_constants(m)
        b = bounds.normwise_constants(alpha * m)
        assert b.k1 == pytest.approx(alpha**2 * a.k1, rel=1e-12)
        assert b.k2 == pytest.approx(alpha * a.k2, rel=1e-12)
        for attr in ("d", "delta1", "delta2"):
            assert getattr(b, attr) == pytest.approx(getattr(a, attr), rel=1e-12)
        assert bounds.plan_samples_normwise(b, 0.3, 0.01) == bounds.plan_samples_normwise(a, 0.3, 0.01)

    def test_matrix_free_refused(self):
        op = MatrixFreeOperator(5, lambda m: m)
        with pytest.raises(Exception, match="explicit-entries"):
            bounds.normwise_constants(op)

    def test_nan_matrix_refused(self):
        with pytest.raises(ValueError, match="finite"):
            bounds.normwise_constants(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_large_sparse_from_stored_entries(self, peak_bytes):
        # densifying this operator would take 80 GB
        n, theta = 100_000, 0.5
        op = _tridiag_coo(n, theta)
        closed = family_constants("tridiag", 3, theta)
        (nc, end, mid), peak = peak_bytes(lambda: (
            bounds.normwise_constants(op),
            bounds.component_constants(op, 0),
            bounds.component_constants(op, n // 2),
        ))
        assert peak < 64 * 2**20
        assert nc.k1 == closed.k1 and nc.k2 == closed.k2 and nc.d == n - 1
        assert nc.norm_da == 1.0 and not nc.is_diagonal
        assert (end.a_ii, end.off2sq) == (1.0, theta**2)
        assert (mid.a_ii, mid.off2sq) == (1.0, 2.0 * theta**2)


class TestFamiliesAtAMillion:
    @pytest.mark.parametrize("kind,theta", [("rank1", 0.1), ("decay", 0.5), ("tridiag", 0.5)])
    def test_no_bound_densifies(self, monkeypatch, peak_bytes, kind, theta):
        n = 10**6
        op = make_test_matrix(kind, n, theta)

        def refuse(_):
            raise AssertionError("a bound densified a test family")
        monkeypatch.setattr(type(op), "_dense", refuse)
        (nc, cc, (ratio, _, _)), peak = peak_bytes(lambda: (
            bounds.normwise_constants(op),
            bounds.component_constants(op, n // 2),
            bounds.gaussian_normwise_window(op),
        ))
        assert peak < 64 * 2**20
        closed = family_constants(kind, n, theta)
        assert nc.k1 == pytest.approx(closed.k1, rel=1e-10)
        assert nc.k2 == pytest.approx(closed.k2, rel=1e-10)
        assert cc.a_ii == op.exact_diag()[n // 2] and ratio >= 1.0


class TestMillionTridiagonal:
    # Estimated and planned under the block policy's memory bound.  Measured
    # peaks: 172 MiB (Rademacher), 229 MiB (normalized), 61 MiB (constants).
    # The estimate caps sit below the 397 MiB and 580 MiB that one block of
    # all 16 probes takes.
    N_SAMPLES = 16

    @pytest.fixture(scope="class")
    def op(self):
        return _tridiag_coo(10**6, 0.5)

    def test_rademacher_estimate(self, op, peak_bytes):
        est, peak = peak_bytes(lambda: estimate_diagonal(op, rademacher(), self.N_SAMPLES, 3))
        assert peak < 256 * 2**20
        assert est.n_samples == self.N_SAMPLES and abs(est.value.mean() - 1.0) < 0.01

    def test_normalized_estimate(self, op, peak_bytes):
        est, peak = peak_bytes(lambda: estimate_diagonal_normalized(op, self.N_SAMPLES, 3))
        assert peak < 320 * 2**20
        assert est.n_samples == self.N_SAMPLES and abs(est.value.mean() - 1.0) < 0.01

    def test_planned(self, op, peak_bytes):
        nc, peak = peak_bytes(lambda: bounds.normwise_constants(op))
        assert peak < 96 * 2**20
        closed = family_constants("tridiag", 3, 0.5)
        assert nc.k1 == closed.k1 and nc.k2 == closed.k2 and nc.d == 10**6 - 1
        assert bounds.plan_samples_normwise(nc, 0.1, 1e-6) >= 1


class TestNormwiseTail:
    def test_decays_to_zero(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 50, 0.5))
        values = [bounds.normwise_tail_bound(nc, 100, t) for t in (0.1, 1.0, 5.0, 50.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-100

    def test_tridiag_direct_evaluation(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 100, 0.5))
        got = bounds.normwise_tail_bound(nc, 1000, 0.1)
        expected = 8.0 * 99.0 * math.exp(-1000 * 0.01 / (2.0 * (0.5 + 0.1 * 1.0 / 3.0)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_doubling_samples_never_increases(self):
        nc = bounds.normwise_constants(make_test_matrix("rank1", 100, 0.05))
        for t in (0.01, 0.1, 1.0):
            for n in (1, 10, 100, 1000):
                assert bounds.normwise_tail_bound(nc, 2 * n, t) <= bounds.normwise_tail_bound(nc, n, t)

    def test_clamped_vs_raw(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 100, 1.0))
        assert bounds.normwise_tail_bound(nc, 1, 0.01) == 1.0
        assert bounds.normwise_tail_bound(nc, 1, 0.01, clamp=False) > 1.0

    def test_tail_monotone_in_s_clamped(self):
        for kind in ("rank1", "decay", "tridiag"):
            for theta in THETA_GRIDS[kind][::2]:
                op = make_test_matrix(kind, 40, theta)
                for n, t in [(10, 0.05), (100, 0.1), (1000, 0.5), (5000, 1.0)]:
                    tails = [
                        bounds.normwise_tail_bound(bounds.normwise_constants(op, s=s), n, t)
                        for s in (1, 2, 3, 10, 50)
                    ]
                    assert all(a <= b + 1e-15 for a, b in zip(tails, tails[1:]))

    def test_diagonal_tail_zero(self):
        nc = bounds.normwise_constants(np.diag([1.0, 2.0]))
        assert bounds.normwise_tail_bound(nc, 5, 0.3) == 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
    def test_t_must_be_positive_and_finite(self, t):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 10, 0.5))
        cc = bounds.component_constants(make_test_matrix("tridiag", 10, 0.5), 3)
        dc = bounds.dgsm_constants(np.array([0.1, 0.2]), 1.0)
        calls = [lambda: bounds.normwise_tail_bound(nc, 10, t),
                 lambda: bounds.component_tail_bound(cc, "rademacher", 10, t),
                 lambda: bounds.dgsm_tail_bound(dc, 10, t)]
        for call in calls:
            with pytest.raises(ValueError, match="t must be positive"):
                call()


class TestNormwisePlanner:
    def test_rank1_reference_plan(self):
        # independent arithmetic for rank1(100, 0.1), eps=0.1, delta=1e-16
        delta1 = 99 * 0.1**2 / 1.1**2
        delta2 = 99 * 0.1 / 1.1
        expected = math.ceil(
            delta2 / (3 * 0.1**2) * (2 * 0.1 + 6 * delta1 / delta2) * math.log(8 * 100.0 / 1e-16)
        )
        assert expected == 9734
        nc = bounds.normwise_constants(make_test_matrix("rank1", 100, 0.1))
        assert bounds.plan_samples_normwise(nc, 0.1, 1e-16) == expected

    def test_eps_scaling_ratio(self):
        # with 6 delta1/delta2 dominating 2 eps, halving eps roughly quadruples N
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 100, 0.5))
        n_full = bounds.plan_samples_normwise(nc, 0.01, 1e-6)
        n_half = bounds.plan_samples_normwise(nc, 0.005, 1e-6)
        assert 3.5 <= n_half / n_full <= 4.05

    def test_diagonal_needs_single_sample(self):
        nc = bounds.normwise_constants(np.diag([3.0, -1.0, 2.0]))
        assert bounds.plan_samples_normwise(nc, 0.5, 0.01) == 1

    def test_validates_inputs(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 10, 0.5))
        with pytest.raises(ValueError):
            bounds.plan_samples_normwise(nc, 0.0, 0.1)
        with pytest.raises(ValueError):
            bounds.plan_samples_normwise(nc, 0.1, 1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        op = make_test_matrix("tridiag", 10, 0.5)
        nc = bounds.normwise_constants(op)
        cc = bounds.component_constants(op, 3)
        dc = _linear_model_constants(np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            bounds.plan_samples_normwise(nc, eps, 0.1)
        with pytest.raises(ValueError, match="finite"):
            bounds.plan_samples_component(cc, "rademacher", eps, 0.1)
        with pytest.raises(ValueError, match="finite"):
            bounds.plan_samples_dgsm(dc, eps, 0.1)
        with pytest.raises(ValueError, match="finite"):
            bounds.plan_samples_gaussian_normwise(op, eps, 0.1)

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_planner_tail_duality(self, kind):
        for theta in THETA_GRIDS[kind]:
            nc = bounds.normwise_constants(make_test_matrix(kind, 100, theta))
            for eps, delta in [(0.5, 0.05), (0.1, 1e-16), (1.0, 0.5)]:
                planned = bounds.plan_samples_normwise(nc, eps, delta)
                tail = bounds.normwise_tail_bound(nc, planned, eps * nc.norm_da)
                assert tail <= delta * (1.0 + 1e-9)


class TestEpsilonInversion:
    @pytest.mark.parametrize("delta", [math.nan, 0.0, 1.0])
    def test_inverters_share_the_delta_check(self, delta):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 10, 0.5))
        dc = _linear_model_constants(np.array([1.0, 0.5]))
        for invert, constants in ((bounds.epsilon_for_samples_normwise, nc),
                                  (bounds.epsilon_for_samples_dgsm, dc)):
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
                invert(constants, 16, delta)

    def test_exact_inverse_square_root_scaling(self):
        nc = bounds.normwise_constants(make_test_matrix("rank1", 100, 0.05))
        for n in (16, 100, 1024):
            assert bounds.epsilon_for_samples_normwise(nc, 4 * n, 0.01) == \
                bounds.epsilon_for_samples_normwise(nc, n, 0.01) / 2.0

    def test_tridiag_direct_evaluation(self):
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 100, 0.1))
        got = bounds.epsilon_for_samples_normwise(nc, 10_000, 1e-16)
        expected = math.sqrt(0.2 / (3 * 10_000) * (2 + 6 * 0.1) * math.log(8 * 99.0 / 1e-16))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_round_trip_identity(self, kind):
        # N' / N = (2 eps' + 6 delta3) / (2 + 6 delta3) up to the ceiling:
        # exactly the dropped 2eps-vs-2 simplification
        for theta in THETA_GRIDS[kind][::2]:
            nc = bounds.normwise_constants(make_test_matrix(kind, 100, theta))
            for n in (64, 1024):
                eps_prime = bounds.epsilon_for_samples_normwise(nc, n, 1e-16)
                n_prime = bounds.plan_samples_normwise(nc, eps_prime, 1e-16)
                predicted = n * (2 * eps_prime + 6 * nc.delta3) / (2 + 6 * nc.delta3)
                assert n_prime == pytest.approx(predicted, abs=1.0)

    @pytest.mark.parametrize("kind", ["rank1", "decay", "tridiag"])
    def test_round_trip_within_half_at_unit_eps(self, kind):
        # starting from N = plan(eps = 1) puts eps' near 1, where the
        # simplified-vs-full discrepancy is bounded by ~0.51
        for theta in THETA_GRIDS[kind]:
            nc = bounds.normwise_constants(make_test_matrix(kind, 100, theta))
            n = bounds.plan_samples_normwise(nc, 1.0, 1e-16)
            eps_prime = bounds.epsilon_for_samples_normwise(nc, n, 1e-16)
            n_prime = bounds.plan_samples_normwise(nc, eps_prime, 1e-16)
            assert abs(n_prime - n) / n <= 0.51


class TestGaussianNormwisePlanner:
    def test_window_empty_at_n_100(self):
        assert 8 * math.e * math.log(100) > 100  # the window truly is empty
        plan = bounds.plan_samples_gaussian_normwise(
            make_test_matrix("tridiag", 100, 0.5), 0.1, 0.01
        )
        assert not plan.feasible
        assert plan.violation == "empty_window"

    def test_identity_ratio_one(self):
        n = 1000
        plan = bounds.plan_samples_gaussian_normwise(np.eye(n), 50.0, 0.5)
        required = 128 * (math.e * math.log(n)) ** 3 / (50.0**2 * 0.5)
        assert plan.feasible
        assert plan.n_samples == math.ceil(required)
        assert plan.window_low <= plan.n_samples <= n

    def test_halving_eps_quadruples_required(self):
        a = bounds.plan_samples_gaussian_normwise(np.eye(1000), 50.0, 0.5)
        b = bounds.plan_samples_gaussian_normwise(np.eye(1000), 25.0, 0.5)
        assert b.required == pytest.approx(4.0 * a.required, rel=1e-12)

    def test_exceeds_dimension(self):
        plan = bounds.plan_samples_gaussian_normwise(np.eye(1000), 0.5, 0.5)
        assert not plan.feasible
        assert plan.violation == "exceeds_dimension"

    def test_below_window(self):
        plan = bounds.plan_samples_gaussian_normwise(np.eye(1000), 5000.0, 0.5)
        assert not plan.feasible
        assert plan.violation == "below_window"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            bounds.plan_samples_gaussian_normwise(np.eye(2), 0.5, 0.5)


class TestComponentConstants:
    def test_diagonal_matrix(self):
        cc = bounds.component_constants(np.diag([2.0, 3.0]), 0)
        assert cc.off2sq == 0.0
        assert cc.delta1i == 2.0 and cc.delta2i == 2.0
        assert cc.psi is None and cc.is_diagonal_row

    def test_tridiag_interior(self):
        cc = bounds.component_constants(make_test_matrix("tridiag", 50, 0.5), 25)
        assert cc.off2sq == pytest.approx(0.5, rel=1e-14)
        assert cc.a_ii == 1.0
        assert cc.psi == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-14)

    def test_scaling(self):
        m = _random_symmetric(10, seed=8)
        a = bounds.component_constants(m, 4)
        b = bounds.component_constants(3.0 * m, 4)
        assert b.off2sq == pytest.approx(9.0 * a.off2sq, rel=1e-12)
        assert b.psi == pytest.approx(a.psi, rel=1e-12)
        assert b.delta1i == pytest.approx(a.delta1i, rel=1e-12)
        assert b.delta2i == pytest.approx(a.delta2i, rel=1e-12)

    def test_deltas_at_least_two(self):
        m = _random_symmetric(10, seed=9)
        for i in range(10):
            cc = bounds.component_constants(m, i)
            assert cc.delta1i >= 2.0 and cc.delta2i >= 2.0
            assert cc.l1**2 >= cc.l2

    def test_index_checked(self):
        with pytest.raises(IndexError):
            bounds.component_constants(np.eye(3), 3)


class TestComponentTail:
    def test_rademacher_diagonal_row_is_zero(self):
        cc = bounds.component_constants(np.diag([2.0, 3.0]), 0)
        for t in (0.01, 1.0, 10.0):
            assert bounds.component_tail_bound(cc, "rademacher", 10, t) == 0.0
            assert bounds.component_tail_bound(cc, "normalized_gaussian", 10, t) == 0.0

    def test_gaussian_dominates_rademacher(self):
        cc = bounds.component_constants(make_test_matrix("tridiag", 30, 0.5), 15)
        for n in (1, 10, 100):
            for t in (0.05, 0.2, 1.0):
                g = bounds.component_tail_bound(cc, "gaussian", n, t, clamp=False)
                r = bounds.component_tail_bound(cc, "rademacher", n, t, clamp=False)
                assert g >= r

    def test_normalized_single_sample_form(self):
        cc = bounds.component_constants(make_test_matrix("tridiag", 30, 0.5), 15)
        t = 3.0
        got = bounds.component_tail_bound(cc, "normalized_gaussian", 1, t, clamp=False)
        assert got == pytest.approx(math.sqrt(2.0 * cc.off2sq / math.pi) / t, rel=1e-12)

    def test_normalized_single_sample_bounds_cauchy_tail(self):
        # at N=1 the error is Cauchy with scale sqrt(off2sq); compare the
        # bound against Monte Carlo tail frequencies
        op = make_test_matrix("tridiag", 10, 0.5)
        cc = bounds.component_constants(op, 5)
        errors = replicate_component_errors(
            op, 5, EstimatorSpec("normalized_gaussian"), 1, 100_000, 31
        )
        for t in (0.5, 1.0, 2.0, 5.0):
            freq = np.mean(np.abs(errors) > t)
            assert freq <= bounds.component_tail_bound(cc, "normalized_gaussian", 1, t)

    def test_unknown_method(self):
        cc = bounds.component_constants(np.eye(3), 0)
        with pytest.raises(ValueError, match="unknown componentwise method"):
            bounds.component_tail_bound(cc, "uniform", 1, 0.1)


class TestComponentPlanner:
    def test_rademacher_diagonal_row(self):
        cc = bounds.component_constants(np.diag([2.0, 3.0]), 1)
        assert bounds.plan_samples_component(cc, "rademacher", 0.1, 0.01) == 1

    def test_gaussian_diagonal_row_formula(self):
        cc = bounds.component_constants(np.diag([2.0, 3.0]), 1)
        eps, delta = 0.25, 0.01
        expected = math.ceil((2 + 2 * eps) * 2 * math.log(2 / delta) / eps**2)
        assert bounds.plan_samples_component(cc, "gaussian", eps, delta) == expected

    def test_zero_entry_rejected(self):
        m = np.array([[0.0, 1.0], [1.0, 2.0]])
        cc = bounds.component_constants(m, 0)
        for method in ("rademacher", "gaussian", "normalized_gaussian"):
            with pytest.raises(ValueError, match="nonzero diagonal"):
                bounds.plan_samples_component(cc, method, 0.1, 0.01)

    @pytest.mark.parametrize("method", ["rademacher", "gaussian", "normalized_gaussian"])
    def test_fewer_samples_with_more_dominance(self, method):
        # psi sweep via 2x2 matrices [[1, b], [b, 1]] with shrinking b
        plans = []
        for b in (0.9, 0.5, 0.25, 0.1, 0.01):
            cc = bounds.component_constants(np.array([[1.0, b], [b, 1.0]]), 0)
            plans.append(bounds.plan_samples_component(cc, method, 0.3, 0.05))
        assert all(a >= b for a, b in zip(plans, plans[1:]))

    @pytest.mark.parametrize("method", ["rademacher", "gaussian", "normalized_gaussian"])
    def test_planner_tail_duality(self, method):
        cc = bounds.component_constants(make_test_matrix("tridiag", 50, 0.9), 25)
        for eps, delta in [(0.5, 0.05), (0.2, 0.01)]:
            planned = bounds.plan_samples_component(cc, method, eps, delta)
            tail = bounds.component_tail_bound(cc, method, planned, eps * abs(cc.a_ii))
            assert tail <= delta * (1.0 + 1e-9)

    @pytest.mark.parametrize("method", ["rademacher", "gaussian", "normalized_gaussian"])
    def test_empirical_validity(self, method):
        # planned N at (0.5, 0.05) keeps the observed failure fraction far
        # below delta (the bounds are conservative)
        op = make_test_matrix("tridiag", 50, 0.9)
        cc = bounds.component_constants(op, 25)
        eps, delta = 0.5, 0.05
        planned = bounds.plan_samples_component(cc, method, eps, delta)
        spec = {
            "rademacher": EstimatorSpec("rademacher"),
            "gaussian": EstimatorSpec("gaussian"),
            "normalized_gaussian": EstimatorSpec("normalized_gaussian"),
        }[method]
        errors = replicate_component_errors(op, 25, spec, planned, 4000, 17)
        failures = np.mean(np.abs(errors) > eps * abs(cc.a_ii))
        assert failures <= delta


class TestDgsm:
    def test_linear_model_closed_forms(self):
        h = np.array([2.0, -1.0, 0.5, 1.5])
        dc = _linear_model_constants(h)
        beta = np.max(np.abs(h))
        v = h**2 * (beta**2 - h**2)
        assert dc.beta == beta
        assert dc.cmax == pytest.approx(beta**2)
        assert dc.s1 == pytest.approx(np.max(v))
        assert dc.s2 == pytest.approx(2.0 * beta**2)
        assert dc.d == pytest.approx(np.sum(v) / np.max(v))

    def test_quadratic_model_closed_forms(self):
        s = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.2], [0.0, 0.2, 0.9]])
        dc = bounds.quadratic_model_constants(s)
        m = s @ s
        beta = np.max(np.sum(np.abs(s), axis=1))
        assert dc.beta == pytest.approx(beta)
        assert dc.cmax == pytest.approx(np.max(np.diag(m)) / 3.0)
        assert dc.s2 == pytest.approx(np.max(np.diag(m)) / 3.0 + beta**2)
        v = np.diag(m) / 3.0 * (beta**2 - np.diag(m) / 3.0)
        assert dc.s1 == pytest.approx(np.max(v))
        assert dc.d == pytest.approx(np.sum(v) / np.max(v))

    def test_experiment_matrix_constants(self):
        # diagonal factor s_j = exp(-10 j / n): everything has a closed form
        n = 100
        s = np.exp(-10.0 * np.arange(1, n + 1) / n)
        dc = bounds.quadratic_model_constants(s)
        q = s * s
        assert dc.beta == pytest.approx(s[0])
        assert dc.cmax == pytest.approx(q[0] / 3.0)
        assert dc.s2 == pytest.approx(q[0] / 3.0 + q[0])
        assert dc.s1 == pytest.approx((q[0] / 3.0) * (q[0] - q[0] / 3.0))
        assert dc.s3 == pytest.approx(0.5)

    def test_degenerate_hypotheses_rejected(self):
        with pytest.raises(ValueError, match="variance proxy"):
            bounds.dgsm_constants(np.array([4.0, 4.0]), 2.0)
        with pytest.raises(ValueError, match="exceed"):
            bounds.dgsm_constants(np.array([5.0]), 2.0)
        with pytest.raises(ValueError, match="cmax"):
            bounds.dgsm_constants(np.array([0.0, 0.0]), 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.dgsm_constants(np.array([-1.0, 1.0]), 2.0)

    def test_epsilon_inversion_scaling(self):
        dc = _linear_model_constants(np.array([1.0, 2.0, 0.5]))
        for n in (16, 100):
            assert bounds.epsilon_for_samples_dgsm(dc, 4 * n, 0.01) == \
                bounds.epsilon_for_samples_dgsm(dc, n, 0.01) / 2.0

    def test_experiment_epsilon_direct(self):
        n = 100
        dc = bounds.quadratic_model_constants(np.exp(-10.0 * np.arange(1, n + 1) / n))
        got = bounds.epsilon_for_samples_dgsm(dc, 1024, 0.01)
        expected = math.sqrt(dc.s2 / (3 * 1024) * (2 + 6 * dc.s3) * math.log(8 * dc.d / 0.01))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_tail_below_delta_beyond_planned(self):
        dc = bounds.quadratic_model_constants(np.exp(-10.0 * np.arange(1, 101) / 100))
        eps, delta = 0.3, 0.01
        planned = bounds.plan_samples_dgsm(dc, eps, delta)
        assert bounds.dgsm_tail_bound(dc, 20 * planned, dc.cmax) < delta

    def test_planner_tail_duality_cmax_at_least_one(self):
        # the printed planner is exact w.r.t. the tail precisely when cmax >= 1
        dc = _linear_model_constants(np.array([2.0, 1.0, 0.5]))
        assert dc.cmax >= 1.0
        for eps, delta in [(0.5, 0.05), (0.25, 0.01)]:
            planned = bounds.plan_samples_dgsm(dc, eps, delta)
            tail = bounds.dgsm_tail_bound(dc, planned, eps * dc.cmax)
            assert tail <= delta * (1.0 + 1e-9)

    def test_planner_is_cmax_scaled_tail_requirement(self):
        # documents the planner/tail relationship: the planner formula equals
        # cmax times the sample count the tail bound itself would require
        dc = bounds.quadratic_model_constants(np.exp(-10.0 * np.arange(1, 101) / 100))
        eps, delta = 0.4, 0.02
        planned = bounds.plan_samples_dgsm(dc, eps, delta)
        t = eps * dc.cmax
        tail_requirement = (
            2.0 * (dc.s1 + dc.s2 * t / 3.0) * math.log(8 * dc.d / delta) / (t * t)
        )
        assert planned == pytest.approx(dc.cmax * tail_requirement, abs=1.0)

    def test_tail_validates_inputs(self):
        dc = _linear_model_constants(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            bounds.dgsm_tail_bound(dc, 0, 0.1)
        with pytest.raises(ValueError):
            bounds.dgsm_tail_bound(dc, 10, 0.0)


class TestEmpiricalNormwiseValidity:
    def test_planned_samples_achieve_target(self):
        # normwise planner at a loose target, checked empirically
        op = make_test_matrix("tridiag", 30, 0.5)
        nc = bounds.normwise_constants(op)
        eps, delta = 0.5, 0.2
        planned = bounds.plan_samples_normwise(nc, eps, delta)
        failures = 0
        trials = 200
        for r in range(trials):
            est = estimate_diagonal(op, rademacher(), planned, RngState(55, r * planned))
            nre = np.max(np.abs(est.value - op.exact_diag())) / nc.norm_da
            failures += nre > eps
        assert failures / trials <= delta


def _lower_coo(m):
    rows, cols = np.nonzero(np.tril(m))
    return CooSymmetric(m.shape[0], rows, cols, m[rows, cols])


def _dominant(n=9, ratio=1e9):
    """Off-diagonal entries of magnitude at most 1 under a diagonal ``ratio`` times as large."""
    m = np.random.default_rng(5).uniform(-1.0, 1.0, (n, n))
    m = np.tril(m, -1) + np.tril(m, -1).T
    m[np.diag_indices(n)] = ratio * (1.0 + np.arange(n))
    return m


_MASS_OPERATORS = {
    "dense": lambda: DenseSymmetric.from_dense(_random_symmetric(13, seed=3)),
    "coo-split": lambda: _split_coo(_random_symmetric(13, seed=4), np.random.default_rng(4)),
    "dense-dominant": lambda: DenseSymmetric.from_dense(_dominant()),
    "coo-dominant": lambda: _lower_coo(_dominant()),
    **{f"{kind}-{n}": (lambda kind=kind, n=n, theta=theta: make_test_matrix(kind, n, theta))
       for kind, theta in (("rank1", 0.05), ("decay", 0.5), ("tridiag", 0.5))
       for n in (2, 3, 17, 100, 2000)},
}


class TestOffDiagonalMass:
    """Every reader of sum_{j != i} a_ij^2 agrees with the dense array with its diagonal zeroed.

    The dominant matrices have a_ii / |a_ij| >= 10^9, where ||a_i||^2 - a_ii^2
    loses every digit: a bound that rebuilt the mass that way fails here.
    """

    @staticmethod
    def _reference(op):
        m = entries(op)
        np.fill_diagonal(m, 0.0)
        return np.sum(m * m, axis=1)

    @pytest.mark.parametrize("name", _MASS_OPERATORS)
    def test_row_sums_and_bound_constants(self, name):
        op = _MASS_OPERATORS[name]()
        want = self._reference(op)
        # decay's far rows underflow, where the dense products lose digits
        np.testing.assert_allclose(op.row_sums()[1], want, rtol=1e-13, atol=1e-300)
        nc = bounds.normwise_constants(op)
        np.testing.assert_allclose([nc.k1, nc.d], [np.max(want), np.sum(want) / np.max(want)],
                                   rtol=1e-13)
        for i in {0, op.dim // 2, op.dim - 1}:
            cc = bounds.component_constants(op, i)
            np.testing.assert_allclose(cc.off2sq, want[i], rtol=1e-13, atol=1e-300)
            assert cc.col_norm == math.hypot(math.sqrt(cc.off2sq), cc.a_ii)

    @pytest.mark.parametrize("name", ["dense", "coo-split", "dense-dominant", "coo-dominant"])
    def test_t_law_standardization(self, name):
        op, index, n_samples = _MASS_OPERATORS[name](), 4, 3
        errors = replicate_component_errors(op, index, EstimatorSpec("normalized_gaussian"),
                                            n_samples, 5, 17)
        scale = math.sqrt(n_samples / self._reference(op)[index])
        np.testing.assert_allclose(normalized_error_samples(op, index, n_samples, 5, 17),
                                   errors * scale, rtol=1e-13)

    def test_dominant_row_has_a_tail(self):
        # one-sample estimates of a_11 are off by |a_21| = 10^-3, so P[error >= 10^-4] = 1
        m = np.diag([1e6] * 4)
        m[1, 0] = m[0, 1] = 1e-3
        cc = bounds.component_constants(m, 0)
        assert cc.off2sq == 1e-3 * 1e-3 and cc.psi == 1e9
        assert bounds.component_tail_bound(cc, "rademacher", 1, 1e-4) == 1.0
        assert bounds.normwise_constants(m).k1 == 1e-3 * 1e-3


class TestOverAndUnderflow:
    """A finite matrix whose constants leave the float range is refused with ValueError."""

    @staticmethod
    def _matrix(diag, off):
        m = np.diag([diag] * 4)
        m[1, 0] = m[0, 1] = off
        return m

    def test_squares_underflow(self):
        with pytest.raises(ValueError, match="^K1 = 0: the squared entries of the matrix underflow$"):
            bounds.normwise_constants(self._matrix(1.0, 1e-170))
        # sparse probes add (s - 1) a_ii^2 to the variance, which does not underflow
        assert bounds.normwise_constants(self._matrix(1.0, 1e-170), 3.0).k1 == 2.0

    @pytest.mark.parametrize("diag,off", [(1e200, 1e200), (1.0, 1e200), (1e-170, 1e-100)])
    def test_normwise_constants_not_finite(self, diag, off):
        with pytest.raises(ValueError, match="^normwise bound constants are not finite: "):
            bounds.normwise_constants(self._matrix(diag, off))

    @pytest.mark.parametrize("method", ["rademacher", "gaussian", "normalized_gaussian"])
    @pytest.mark.parametrize("diag,off", [(1e200, 1e200), (1e-170, 1.0)])
    def test_component_plan_not_finite(self, method, diag, off):
        # off2sq overflows, or Delta2i = 1 + (col_norm / a_ii)^2 does: no constants to plan from
        with pytest.raises(ValueError, match="^componentwise bound constants are not finite: "):
            bounds.plan_samples_component(bounds.component_constants(self._matrix(diag, off), 0),
                                          method, 0.1, 1e-6)

    def test_component_col_norm_by_hypot(self):
        # a_ii^2 overflows and a_ii does not: col_norm stays finite, only L2 = 2 a_ii^2 + off2sq does not
        with pytest.raises(ValueError, match="^componentwise bound constants are not finite: l2 = inf$"):
            bounds.component_constants(self._matrix(1e160, 1.0), 0)

    def test_huge_diagonal_keeps_finite_constants(self):
        # ||D_A||^2 overflows, so Delta1 = K1 / ||D_A||^2 underflows to 0: a real value
        nc = bounds.normwise_constants(self._matrix(1e200, 1.0))
        assert (nc.k1, nc.delta1, nc.delta2) == (1.0, 0.0, 1e-200)
        assert bounds.plan_samples_normwise(nc, 0.1, 1e-6) == 1

    def test_eps_whose_square_underflows(self):
        # eps^2 (times delta) is 0: no finite N reaches the target, in every planner
        inf = "^the planned sample count is inf: "
        nc = bounds.normwise_constants(make_test_matrix("tridiag", 10, 0.5))
        with pytest.raises(ValueError, match=inf):
            bounds.plan_samples_normwise(nc, 1e-170, 0.1)
        with pytest.raises(ValueError, match=inf):
            bounds.plan_samples_dgsm(bounds.quadratic_model_constants(np.linspace(0.5, 1.0, 4)), 1e-170, 0.1)
        with pytest.raises(ValueError, match=inf):
            bounds.plan_samples_gaussian_normwise(make_test_matrix("tridiag", 100, 0.5), 1e-160, 1e-10)
        cc = bounds.component_constants(make_test_matrix("tridiag", 10, 0.5), 3)
        for method in bounds.COMPONENT_METHODS:
            with pytest.raises(ValueError, match=inf):
                bounds.plan_samples_component(cc, method, 1e-170, 0.1)

    def test_relative_constants_underflow(self):
        # Delta1 and Delta2 both underflow against ||D_A|| = 1e200: Delta3 = 0/0 is refused as nan
        nc = bounds.normwise_constants(np.array([[0.1, 1e-160], [1e-160, 1e200]]))
        assert (nc.delta1, nc.delta2) == (0.0, 0.0) and math.isnan(nc.delta3)
        with pytest.raises(ValueError, match="^the planned sample count is nan: "):
            bounds.plan_samples_normwise(nc, 0.1, 0.1)
