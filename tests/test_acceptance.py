"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All randomized criteria run the deterministic default seed (0), so
the suite is reproducible; stated runtime budgets are asserted where the
criterion carries one.
"""

import collections
import functools
import math
import time

import numpy as np
import pytest

from closed_forms import LinearGradient, family_constants
from diagmc import bounds
from diagmc.estimators import (
    QuadraticGradientOracle,
    estimate_dgsm,
    estimate_diagonal,
    estimate_diagonal_normalized,
    normwise_relative_error,
)
from diagmc.harness import (
    EstimatorSpec,
    dgsm_experiment_factor,
    ks_student_t,
    normalized_error_samples,
    replicate_component_errors,
    run_experiment,
    standard_experiment_configs,
)
from diagmc.operators import DenseSymmetric, make_test_matrix
from diagmc.probes import RngState, derive_seed, gaussian, rademacher, sample_probe_block

THETA_GRIDS = {
    "rank1": np.linspace(0.01, 0.1, 5),
    "decay": np.linspace(0.1, 1.0, 5),
    "tridiag": np.linspace(0.1, 1.0, 5),
}


def _report(number, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} "
          f"[{elapsed:.1f}s] {detail}")


def test_criterion_01_constant_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for kind, thetas in THETA_GRIDS.items():
        for theta in thetas:
            nc = bounds.normwise_constants(make_test_matrix(kind, 100, theta))
            ref = family_constants(kind, 100, theta)
            pairs = [
                (nc.k1, ref.k1), (nc.k2, ref.k2), (nc.d, ref.d),
                (nc.delta1, ref.delta1), (nc.delta2, ref.delta2),
            ]
            for got, want in pairs:
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "constant reproduction", ok,
            f"max rel diff {worst:.2e}, budget 5s", elapsed)
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_diagonal_exactness():
    start = time.perf_counter()
    rng_vals = np.random.default_rng(202).uniform(0.5, 2.0, 200)
    rng_vals *= np.random.default_rng(203).choice([-1.0, 1.0], 200)
    op = DenseSymmetric.from_dense(np.diag(rng_vals))
    worst = 0.0
    for seed in range(3):
        unnorm = estimate_diagonal(op, rademacher(), 1, seed).value
        norm = estimate_diagonal_normalized(op, 1, seed).value
        worst = max(worst, np.max(np.abs(unnorm - rng_vals) / np.abs(rng_vals)))
        worst = max(worst, np.max(np.abs(norm - rng_vals) / np.abs(rng_vals)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14
    _report(2, "diagonal exactness at N=1", ok, f"max rel err {worst:.2e}", elapsed)
    assert ok


def test_criterion_03_unbiasedness():
    start = time.perf_counter()
    op = make_test_matrix("tridiag", 50, 0.5)
    replicates = 10_000
    probes, _ = sample_probe_block(rademacher(), 50, RngState(0), replicates)
    trials = op.apply(probes) * probes  # each column is an N=1 estimate
    # spot-check the vectorization against the estimator entry point
    for r in (0, 17, 4242):
        direct = estimate_diagonal(op, rademacher(), 1, RngState(0, r)).value
        assert np.array_equal(direct, trials[:, r])
    mean = trials.mean(axis=1)
    se = trials.std(axis=1, ddof=1) / math.sqrt(replicates)
    z = np.abs(mean - op.exact_diag()) / se
    elapsed = time.perf_counter() - start
    ok = bool(np.all(z <= 4.0)) and elapsed < 30.0
    _report(3, "unbiasedness", ok,
            f"max |z| {z.max():.2f} over 50 components, budget 30s", elapsed)
    assert np.all(z <= 4.0)
    assert elapsed < 30.0


def test_criterion_04_convergence_slope():
    start = time.perf_counter()
    n_grid = np.array([16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    cases = [("rank1", 0.05), ("decay", 0.5), ("tridiag", 0.5)]
    dists = [("rademacher", rademacher()), ("gaussian", gaussian())]
    slopes = {}
    for ki, (kind, theta) in enumerate(cases):
        op = make_test_matrix(kind, 100, theta)
        exact = op.exact_diag()
        for dist_name, dist in dists:
            means = []
            for ni, n_samples in enumerate(n_grid):
                nres = [
                    normwise_relative_error(
                        estimate_diagonal(op, dist, int(n_samples),
                                          derive_seed(0, 4, ki, ni, s)),
                        exact,
                    )
                    for s in range(20)
                ]
                means.append(np.mean(nres))
            slope = np.polyfit(np.log(n_grid), np.log(means), 1)[0]
            slopes[(kind, dist_name)] = slope
    elapsed = time.perf_counter() - start
    ok = all(abs(sl + 0.5) <= 0.15 for sl in slopes.values()) and elapsed < 120.0
    detail = ", ".join(f"{k[0]}/{k[1]}={v:.3f}" for k, v in slopes.items())
    _report(4, "convergence slope -1/2", ok, detail + ", budget 120s", elapsed)
    for key, slope in slopes.items():
        assert abs(slope + 0.5) <= 0.15, (key, slope)
    assert elapsed < 120.0


def test_criterion_05_bound_dominance_experiment_1():
    start = time.perf_counter()
    violations, cells, min_ratio = 0, 0, math.inf
    for config in standard_experiment_configs(1, seed=0):
        _, summaries = run_experiment(config)
        for s in summaries:
            cells += 1
            min_ratio = min(min_ratio, s.bound_eps / s.mean_nre)
            if s.bound_eps < s.mean_nre:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    _report(5, "bound dominance (experiment 1)", ok,
            f"{cells} cells, {violations} violations, min bound/mean "
            f"{min_ratio:.2f}, budget 120s", elapsed)
    assert violations == 0
    assert cells == 3 * 5 * 9
    assert elapsed < 120.0


def test_criterion_06_sparse_degradation_experiment_3():
    start = time.perf_counter()
    (config,) = standard_experiment_configs(3, seed=0)
    records, _ = run_experiment(config)
    cells = collections.defaultdict(list)
    for r in records:
        cells[(r.s, r.n_samples)].append(r.nre)
    medians = {key: float(np.median(v)) for key, v in cells.items()}
    s_values = [1.0, 3.0, 10.0, 50.0]
    low_accuracy = all(
        medians[(50.0, n)] > 0.1 for n in config.n_grid if n <= 1000
    )
    monotone = all(
        medians[(s_values[i], n)] <= medians[(s_values[i + 1], n)]
        for n in config.n_grid
        for i in range(len(s_values) - 1)
    )
    elapsed = time.perf_counter() - start
    ok = low_accuracy and monotone
    worst_s50 = min(medians[(50.0, n)] for n in config.n_grid if n <= 1000)
    _report(6, "sparse degradation (experiment 3)", ok,
            f"min median NRE at s=50, N<=1000: {worst_s50:.3f}; monotone={monotone}",
            elapsed)
    assert low_accuracy
    assert monotone


# Criterion 7 on the default seed, at N = 512.  Rademacher and normalized
# Gaussian perform alike: their mean NREs differ by a fraction of a percent,
# well inside the replicate noise at R = 100, so no seed-free test can order
# them.  The claim is that they agree within Z_AGREE standard errors of the
# difference of their means (a two-sided false-failure rate of about 0.3%
# when the means are equal, by the normal approximation), and that both sit
# an order of magnitude below Gaussian, with sparse:3 grouped with Gaussian.
Z_AGREE = 3.0
N_ORDERING = 512


@functools.lru_cache(maxsize=None)
def _experiment_2_records():
    (config,) = standard_experiment_configs(2, seed=0)
    return config, run_experiment(config)[0]


def _ordering(nres):
    """(agree, separated, grouping, detail) of criterion 7 on replicate NREs by estimator."""
    rad, norm, gau, sparse3 = (
        np.asarray(nres[k]) for k in ("rademacher", "normalized_gaussian", "gaussian", "sparse:3")
    )
    se = math.sqrt(rad.var(ddof=1) / rad.size + norm.var(ddof=1) / norm.size)
    z = (rad.mean() - norm.mean()) / se
    agree = abs(z) <= Z_AGREE
    separated = max(rad.mean(), norm.mean()) <= 0.1 * gau.mean()
    grouping = abs(sparse3.mean() - gau.mean()) <= 0.25 * gau.mean()
    detail = (f"rad={rad.mean():.4f}, norm={norm.mean():.4f}, |z|={abs(z):.2f} <= {Z_AGREE}; "
              f"gauss={gau.mean():.4f} >= 10x both; "
              f"|sparse3-gauss|/gauss={abs(sparse3.mean() - gau.mean()) / gau.mean():.3f}")
    return agree, separated, grouping, detail


def _nres_at_ordering_n(records):
    nres = collections.defaultdict(list)
    for r in records:
        if r.n_samples == N_ORDERING:
            nres[r.dist].append(r.nre)
    return nres


def test_criterion_07_estimator_ordering_experiment_2():
    start = time.perf_counter()
    _, records = _experiment_2_records()
    agree, separated, grouping, detail = _ordering(_nres_at_ordering_n(records))
    elapsed = time.perf_counter() - start
    _report(7, "estimator ordering (experiment 2)", agree and separated and grouping,
            detail, elapsed)
    assert agree
    assert separated
    assert grouping


def test_criterion_07_rejects_biased_rademacher():
    # the same Rademacher estimates, each shifted by 0.3% of the exact diagonal:
    # about a quarter of their mean NRE
    config, records = _experiment_2_records()
    op = make_test_matrix(config.matrix, config.n, config.thetas[0])
    exact = op.exact_diag()
    nres = _nres_at_ordering_n(records)
    cells = [r for r in records if r.n_samples == N_ORDERING and r.dist == "rademacher"]
    values = [estimate_diagonal(op, rademacher(), N_ORDERING, r.seed).value for r in cells]
    assert [normwise_relative_error(v, exact) for v in values] == nres["rademacher"]
    nres["rademacher"] = [normwise_relative_error(v + 0.003 * exact, exact) for v in values]
    agree, separated, grouping, _ = _ordering(nres)
    assert not agree
    assert separated and grouping


def test_criterion_07_rejects_sparse_in_place_of_rademacher():
    _, records = _experiment_2_records()
    nres = _nres_at_ordering_n(records)
    nres["rademacher"] = nres["sparse:3"]
    agree, separated, _, _ = _ordering(nres)
    assert not agree
    assert not separated


def test_criterion_08_t_distribution_law():
    start = time.perf_counter()
    op = make_test_matrix("tridiag", 20, 0.5)
    passes = 0
    suites = 100
    for suite in range(suites):
        samples = normalized_error_samples(
            op, 10, 10, 10_000, derive_seed(0, 8, suite)
        )
        passes += ks_student_t(samples, 10, alpha=0.01).passed
    elapsed = time.perf_counter() - start
    ok = passes >= 95
    _report(8, "t-distribution law (KS)", ok, f"{passes}/100 suites passed", elapsed)
    assert passes >= 95


def test_criterion_09_planner_validity():
    start = time.perf_counter()
    op = make_test_matrix("tridiag", 100, 0.9)
    index = 50
    cc = bounds.component_constants(op, index)
    eps, delta = 0.5, 0.05
    planned = bounds.plan_samples_component(cc, "rademacher", eps, delta)
    errors = replicate_component_errors(
        op, index, EstimatorSpec("rademacher"), planned, 10_000, 0
    )
    failures = float(np.mean(np.abs(errors) > eps * abs(cc.a_ii)))
    elapsed = time.perf_counter() - start
    ok = failures <= delta
    _report(9, "componentwise planner validity", ok,
            f"planned N={planned}, failure fraction {failures:.4f} <= {delta}", elapsed)
    assert failures <= delta


def test_criterion_10_dgsm_correctness():
    start = time.perf_counter()
    factor = dgsm_experiment_factor(100)
    oracle = QuadraticGradientOracle(factor)
    exact = oracle.second_moment_diag()
    nre_large = normwise_relative_error(estimate_dgsm(oracle, 100_000, 0), exact)

    h = np.random.default_rng(10).uniform(-2.0, 2.0, 100)
    linear_exact = np.array_equal(
        estimate_dgsm(LinearGradient(h), 1, 0).value, h * h
    )

    (config,) = standard_experiment_configs(4, seed=0)
    _, summaries = run_experiment(config)
    dominated = all(s.bound_eps >= s.mean_nre for s in summaries)
    min_ratio = min(s.bound_eps / s.mean_nre for s in summaries)
    elapsed = time.perf_counter() - start
    ok = nre_large <= 0.01 and linear_exact and dominated
    _report(10, "sensitivity-metric correctness", ok,
            f"NRE at 1e5 = {nre_large:.4f} <= 0.01, linear exact={linear_exact}, "
            f"bound min ratio {min_ratio:.2f}", elapsed)
    assert nre_large <= 0.01
    assert linear_exact
    assert dominated


def test_criterion_11_gaussian_window_infeasibility():
    start = time.perf_counter()
    # n = 100: the window [8 e ln n, n] is empty by direct arithmetic
    assert 8 * math.e * math.log(100) > 100
    plan_100 = bounds.plan_samples_gaussian_normwise(
        make_test_matrix("tridiag", 100, 0.5), 0.5, 0.5
    )
    empty_handled = (not plan_100.feasible) and plan_100.violation == "empty_window"

    # n = 1000, eps = 0.5, delta = 0.5: direct arithmetic on the identity
    n = 1000
    required = 128 * (math.e * math.log(n)) ** 3 / (0.5**2 * 0.5)
    window_low = 8 * math.e * math.log(n)
    directly_feasible = max(required, window_low) <= n
    plan_1000 = bounds.plan_samples_gaussian_normwise(np.eye(n), 0.5, 0.5)
    iff_holds = plan_1000.feasible == directly_feasible

    # a genuinely feasible configuration exercises the other branch
    plan_loose = bounds.plan_samples_gaussian_normwise(np.eye(n), 50.0, 0.5)
    required_loose = 128 * (math.e * math.log(n)) ** 3 / (50.0**2 * 0.5)
    loose_ok = (
        plan_loose.feasible
        and plan_loose.n_samples == math.ceil(required_loose)
        and window_low <= plan_loose.n_samples <= n
    )
    elapsed = time.perf_counter() - start
    ok = empty_handled and iff_holds and loose_ok
    _report(11, "gaussian planner window", ok,
            f"n=100 empty window -> infeasible; n=1000 eps=0.5: direct arithmetic "
            f"requires N={required:.3g} > n -> {plan_1000.violation}; "
            f"eps=50 feasible with N={plan_loose.n_samples}", elapsed)
    assert empty_handled
    assert iff_holds
    assert not plan_1000.feasible  # required 6.8e6 exceeds n
    assert loose_ok
