"""Harness tests: quantiles, KS check, experiment runs, CSV reproducibility."""

import csv
import hashlib
import math
import sys
import warnings

import numpy as np
import pytest

from diagmc import operators, probes
from diagmc.estimators import estimate_diagonal, estimate_diagonal_normalized
from diagmc.harness import (
    DEFAULT_N_GRID,
    EstimatorSpec,
    ExperimentConfig,
    ks_student_t,
    normalized_error_samples,
    parse_estimator_spec,
    quantile_band,
    replicate_component_errors,
    run_experiment,
    standard_experiment_configs,
    write_experiment_csv,
)
from diagmc.operators import DenseSymmetric, MatrixFreeOperator, make_test_matrix
from diagmc.probes import RngState, gaussian, rademacher, sample_probe_block


class TestQuantiles:
    def test_median_of_uniform_grid(self):
        assert quantile_band(np.arange(1.0, 101.0), 0.5) == 50.5

    def test_extremes(self):
        values = [3.0, 1.0, 7.0]
        assert quantile_band(values, 0.0) == 1.0
        assert quantile_band(values, 1.0) == 7.0

    def test_singleton(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            assert quantile_band([3.0], q) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile_band([], 0.5)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            quantile_band([1.0], 1.5)


def _t_samples(dof, count, seed):
    # Z / sqrt(U/dof) built from our own Gaussian probes
    block, _ = sample_probe_block(gaussian(), dof + 1, RngState(seed), count)
    return block[0] / np.sqrt(np.sum(block[1:] ** 2, axis=0) / dof)


class TestKsStudentT:
    def test_null_hypothesis_passes(self):
        samples = _t_samples(10, 10_000, 321)
        result = ks_student_t(samples, 10, alpha=0.01)
        assert result.passed
        assert result.p_value > 0.01
        assert result.statistic < result.critical_value

    def test_normal_against_t3_fails(self):
        block, _ = sample_probe_block(gaussian(), 1, RngState(5), 10_000)
        result = ks_student_t(block[0], 3, alpha=0.01)
        assert not result.passed
        # the normal-vs-t3 KS distance is ~0.037, far above the critical value
        assert result.statistic > 0.02

    def test_single_dof_rejected(self):
        with pytest.raises(ValueError, match="dof >= 2"):
            ks_student_t([0.1, 0.2], 1)

    def test_statistic_matches_manual_computation(self):
        samples = np.array([-1.0, 0.0, 0.5, 2.0])
        from diagmc.special import student_t_cdf

        cdf = student_t_cdf(np.sort(samples), 5.0)
        expected = max(
            max((i + 1) / 4 - c for i, c in enumerate(cdf)),
            max(c - i / 4 for i, c in enumerate(cdf)),
        )
        assert ks_student_t(samples, 5).statistic == pytest.approx(expected, rel=1e-12)


class TestNormalizedErrorLaw:
    def test_standardized_errors_follow_t(self):
        op = make_test_matrix("tridiag", 20, 0.5)
        samples = normalized_error_samples(op, 10, 10, 10_000, 2)
        assert ks_student_t(samples, 10, alpha=0.01).passed

    def test_replicates_match_direct_estimates(self):
        op = make_test_matrix("tridiag", 12, 0.5)
        n_samples, index, seed = 7, 6, 99
        errors = replicate_component_errors(
            op, index, EstimatorSpec("normalized_gaussian"), n_samples, 3, seed
        )
        exact = op.exact_diag()
        for r in range(3):
            est = estimate_diagonal_normalized(op, n_samples, RngState(seed, r * n_samples))
            assert errors[r] == pytest.approx(est.value[index] - exact[index], rel=1e-12)

    def test_unnormalized_replicates_match_direct(self):
        op = make_test_matrix("rank1", 9, 0.05)
        errors = replicate_component_errors(
            op, 4, EstimatorSpec("rademacher"), 5, 2, 13
        )
        exact = op.exact_diag()
        for r in range(2):
            est = estimate_diagonal(op, rademacher(), 5, RngState(13, r * 5))
            assert errors[r] == pytest.approx(est.value[4] - exact[4], rel=1e-12)

    @pytest.mark.parametrize("name", ["normalized_gaussian", "sparse"])
    def test_blocks_splitting_replicates_match_direct(self, monkeypatch, name):
        # 3-vector blocks do not divide N = 7, so replicates span blocks
        monkeypatch.setattr(probes, "_BLOCK_VECTORS", 3)
        op = make_test_matrix("tridiag", 12, 0.5)
        spec = EstimatorSpec(name, 3.0 if name == "sparse" else None)
        n_samples, index, seed = 7, 5, 21
        errors = replicate_component_errors(op, index, spec, n_samples, 4, seed)
        exact = op.exact_diag()
        for r in range(4):
            est = estimate_diagonal(op, spec, n_samples, RngState(seed, r * n_samples))
            assert errors[r] == pytest.approx(est.value[index] - exact[index], rel=1e-12)

    @pytest.mark.parametrize("case, replicates, block_vectors, digest", [
        ("t-law", None, None, "1a385870654d84305246daadb9913e14114cd448896df4683dba875e07b953d0"),
        ("sparse", 500, None, "2955158b657a539f190245bc6a30f6b23752993935678c6a41edcbadf1833dfa"),
        ("sparse", 50, 3, "cb76e6c00b8cc77b571e3487ba84137a92005680b5504390057122407c2fc541"),
    ])
    def test_row_path_bits_pinned(self, monkeypatch, case, replicates, block_vectors, digest):
        # exact bits of the replicate study; 3-vector blocks split its N = 7 replicates
        if block_vectors is not None:
            monkeypatch.setattr(probes, "_BLOCK_VECTORS", block_vectors)
        if case == "t-law":
            errors = normalized_error_samples(make_test_matrix("tridiag", 20, 0.5), 10, 10, 10_000, 2)
        else:
            op = make_test_matrix("rank1", 100, 0.01)
            errors = replicate_component_errors(op, 7, EstimatorSpec("sparse", 3.0), 7, replicates, 5)
        assert hashlib.sha256(np.ascontiguousarray(errors).tobytes()).hexdigest() == digest

    def test_diagonal_component_rejected(self):
        op = make_test_matrix("tridiag", 5, 0.5)
        # build a diagonal matrix via a dense wrapper
        from diagmc.operators import DenseSymmetric

        diag_op = DenseSymmetric.from_dense(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="off-diagonal"):
            normalized_error_samples(diag_op, 0, 5, 10, 0)
        assert op.dim == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        # estimate_diagonal refuses this operator; the replicate study must too
        op = MatrixFreeOperator(3, lambda m: np.full_like(m, bad))
        with pytest.raises(ValueError, match="non-finite matvec values in row 1"):
            replicate_component_errors(op, 1, EstimatorSpec("rademacher"), 4, 3, 0)
        with pytest.raises(ValueError, match="non-finite matvec values in row 2"):
            normalized_error_samples(op, 2, 4, 3, 0)

    def test_overflowing_sum_rejected(self):
        # a finite row whose products overflow: estimate_diagonal refuses it, so must the study
        op = DenseSymmetric.from_dense(np.full((3, 3), 1e308))
        message = r"non-finite matvec or gradient values at probe counters "
        with pytest.raises(ValueError, match=message + r"\[0, 4\)"):
            estimate_diagonal(op, rademacher(), 4, 0)
        with pytest.raises(ValueError, match=message + r"\[0, 12\)"):
            replicate_component_errors(op, 0, rademacher(), 4, 3, 0)

    def test_overflowing_sum_rejected_in_parts(self, in_parts, monkeypatch):
        # the row products of the estimate run in three parts of one-row runs, on split
        # threads; at 1e308 I every row's sum of four products overflows.  A short
        # switch interval lets the split threads take runs before the caller has
        # walked them all
        monkeypatch.setattr(operators, "_APPLY_ELEMENTS", 1)
        interval = sys.getswitchinterval()
        with in_parts(), warnings.catch_warnings():
            warnings.simplefilter("error")
            self.test_overflowing_sum_rejected()
            op = DenseSymmetric.from_dense(np.diag(np.full(2000, 1e308)))
            sys.setswitchinterval(1e-6)
            try:
                with pytest.raises(ValueError, match=r"non-finite matvec or gradient values at probe counters \[0, 4\)"):
                    estimate_diagonal(op, rademacher(), 4, 0)
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("row, match", [
        ([1.0, 1e200, 1e200], "squared off-diagonal mass of component 0 overflows"),
        ([1.0, 1e-170, 0.0], "no off-diagonal mass, or its squares underflow to 0"),
    ])
    def test_off_diagonal_mass_out_of_range_rejected(self, row, match):
        # the standardization would divide by an inf or underflowed sum of squares
        a = np.eye(3)
        a[0] = a[:, 0] = row
        with pytest.raises(ValueError, match=match):
            normalized_error_samples(DenseSymmetric.from_dense(a), 0, 4, 3, 0)

    @pytest.mark.parametrize("index", [-1, -20, 20])
    def test_component_index_out_of_range(self, index):
        # numpy would read -1 as row n - 1 and -n as row 0
        op = make_test_matrix("tridiag", 20, 0.5)
        message = f"component index {index} out of range for n=20"
        with pytest.raises(IndexError, match=message):
            normalized_error_samples(op, index, 10, 10, 0)
        with pytest.raises(IndexError, match=message):
            replicate_component_errors(op, index, EstimatorSpec("rademacher"), 10, 10, 0)

    def test_one_row_matvec_per_t_law_suite(self):
        calls = []
        op = make_test_matrix("tridiag", 6, 0.5)
        counting = MatrixFreeOperator(6, lambda m: calls.append(m.shape) or op.apply(m))
        samples = normalized_error_samples(counting, 2, 4, 3, 0)
        assert calls == [(6, 1)]  # one unit-vector matvec
        assert np.array_equal(samples, normalized_error_samples(op, 2, 4, 3, 0))


class TestSpecParsing:
    def test_round_trips(self):
        assert parse_estimator_spec("rademacher").method == "rademacher"
        assert parse_estimator_spec("normalized-gaussian").method == "normalized_gaussian"
        spec = parse_estimator_spec("sparse:3")
        assert spec.method == "sparse" and spec.s == 3.0
        assert spec.label == "sparse:3"
        assert spec.sparsity == 3.0
        assert parse_estimator_spec("rademacher").sparsity == 1.0

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_estimator_spec("sparse")
        with pytest.raises(ValueError):
            parse_estimator_spec("sobol")
        with pytest.raises(ValueError):
            EstimatorSpec("sparse")
        for text in ("sparse:abc", "sparse:", "sparse:3:4", "gaussian:2"):
            with pytest.raises(ValueError):
                parse_estimator_spec(text)

    @pytest.mark.parametrize("method", ["rademacher", "gaussian", "normalized_gaussian", "dgsm"])
    def test_sparsity_only_for_sparse(self, method):
        with pytest.raises(ValueError, match=f"^estimator '{method}' takes no sparsity parameter$"):
            EstimatorSpec(method, 3.0)
        assert EstimatorSpec(method).sparsity == (1.0 if method == "rademacher" else None)
        assert EstimatorSpec("sparse", 2.5).sparsity == 2.5

    @pytest.mark.parametrize("text", ["sparse:0.5", "sparse:1e-3", "sparse:1.5", "sparse:nan"])
    def test_sparsity_range_checked_when_parsed(self, text):
        with pytest.raises(ValueError, match="sparsity parameter"):
            parse_estimator_spec(text)
        with pytest.raises(ValueError, match="sparsity parameter"):
            EstimatorSpec("sparse", float(text.partition(":")[2]))

    def test_name_normalisation(self):
        assert parse_estimator_spec(" Normalized-Gaussian ").method == "normalized_gaussian"
        assert parse_estimator_spec("SPARSE:10").s == 10.0
        # only the name is normalised: an exponent in the parameter stays a number
        assert parse_estimator_spec("sparse:5e1").s == 50.0

    def test_one_spec_type(self):
        assert EstimatorSpec is probes.EstimatorSpec
        assert parse_estimator_spec("rademacher") == rademacher()
        assert parse_estimator_spec("sparse:3") == probes.sparse_rademacher(3)
        assert parse_estimator_spec("gaussian") == gaussian()

    def test_estimate_dispatch_matches_direct_calls(self):
        op = make_test_matrix("tridiag", 12, 0.5)
        direct = {
            "rademacher": estimate_diagonal(op, rademacher(), 9, 4),
            "sparse:3": estimate_diagonal(op, probes.sparse_rademacher(3), 9, 4),
            "gaussian": estimate_diagonal(op, gaussian(), 9, 4),
            "normalized-gaussian": estimate_diagonal_normalized(op, 9, 4),
        }
        for text, expected in direct.items():
            got = estimate_diagonal(op, parse_estimator_spec(text), 9, 4)
            assert got.mode == expected.mode
            assert np.array_equal(got.value, expected.value)


class TestConfigs:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig(
                experiment=1, matrix="tridiag", n=10, thetas=(0.5,),
                distributions=(EstimatorSpec("rademacher"),), n_grid=(8, 8),
            )

    def test_replicates_positive(self):
        with pytest.raises(ValueError, match="replicate"):
            ExperimentConfig(
                experiment=1, matrix="tridiag", n=10, thetas=(0.5,),
                distributions=(EstimatorSpec("rademacher"),), replicates=0,
            )

    def test_theta_out_of_range_flagged(self):
        with pytest.warns(UserWarning, match="outside the documented range"):
            ExperimentConfig(
                experiment=1, matrix="tridiag", n=10, thetas=(5.0,),
                distributions=(EstimatorSpec("rademacher"),),
            )

    def test_theta_out_of_range_warns_once_per_run(self, recwarn):
        # the config warns when it is made; building the operator must not warn again
        config = standard_experiment_configs(2, n=10, replicates=1, n_grid=(16,), thetas=(0.5,))[0]
        run_experiment(config)
        assert [str(w.message) for w in recwarn.list] == [
            "theta=0.5 outside the documented range [0.01, 0.1] for rank1"
        ]

    @pytest.mark.parametrize("override,match", [
        (dict(n=1), "tridiag needs n >= 2"),
        (dict(matrix="dgsm_quadratic", thetas=(), n=0), "dgsm_quadratic needs n >= 1"),
        (dict(delta=0.0), "delta"),
        (dict(delta=float("nan")), "delta"),
        (dict(thetas=(0.5, float("inf"))), "thetas must be finite"),
    ], ids=["family-n", "dgsm-n", "delta-zero", "delta-nan", "theta-inf"])
    def test_invalid_config_rejected(self, override, match):
        with pytest.raises(ValueError, match=match):
            _small_config(**override)

    def test_standard_defaults(self):
        exp1 = standard_experiment_configs(1)
        assert [c.matrix for c in exp1] == ["rank1", "decay", "tridiag"]
        assert all(c.replicates == 10 and c.delta == 1e-16 for c in exp1)
        assert all(c.n_grid == DEFAULT_N_GRID for c in exp1)
        (exp2,) = standard_experiment_configs(2)
        assert exp2.replicates == 100
        assert [d.label for d in exp2.distributions] == [
            "rademacher", "gaussian", "sparse:3", "normalized_gaussian",
        ]
        (exp3,) = standard_experiment_configs(3)
        assert [d.sparsity for d in exp3.distributions] == [1.0, 3.0, 10.0, 50.0]
        (exp4,) = standard_experiment_configs(4)
        assert exp4.matrix == "dgsm_quadratic" and exp4.delta == 0.01

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            standard_experiment_configs(7)

    @pytest.mark.parametrize("experiment,override,match", [
        (2, {"delta": 0.1}, "experiment 2 has no bound curve"),
        (3, {"delta": 0.1}, "experiment 3 has no bound curve"),
        (4, {"thetas": (0.5,)}, "experiment 4 has no theta grid"),
    ])
    def test_ignored_argument_rejected(self, experiment, override, match):
        with pytest.raises(ValueError, match=match):
            standard_experiment_configs(experiment, **override)


SMALL_GRID = (16, 64)


def _small_config(**overrides):
    base = dict(
        experiment=1, matrix="tridiag", n=12, thetas=(0.3, 0.7),
        distributions=(EstimatorSpec("rademacher"),), n_grid=SMALL_GRID,
        replicates=5, seed=11, delta=1e-16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_record_and_summary_counts(self):
        records, summaries = run_experiment(_small_config())
        assert len(records) == 2 * 2 * 5
        assert len(summaries) == 2 * 2
        assert all(r.nre >= 0.0 for r in records)

    def test_unique_cell_identity(self):
        records, _ = run_experiment(_small_config())
        keys = {(r.seed, r.replicate, r.n_samples) for r in records}
        assert len(keys) == len(records)

    def test_bound_column_only_for_experiment_one(self):
        _, summaries = run_experiment(_small_config())
        assert all(s.bound_eps is not None for s in summaries)
        _, summaries2 = run_experiment(_small_config(experiment=2, delta=None))
        assert all(s.bound_eps is None for s in summaries2)

    def test_bound_dominates_on_small_run(self):
        _, summaries = run_experiment(_small_config(replicates=10))
        assert all(s.bound_eps >= s.mean_nre for s in summaries)

    def test_quantiles_bracket_mean_mostly(self):
        _, summaries = run_experiment(_small_config(replicates=30))
        inside = [s.q025 <= s.mean_nre <= s.q975 for s in summaries]
        assert np.mean(inside) >= 0.99

    def test_dgsm_experiment_runs(self):
        config = ExperimentConfig(
            experiment=4, matrix="dgsm_quadratic", n=20, thetas=(),
            distributions=(EstimatorSpec("dgsm"),), n_grid=SMALL_GRID,
            replicates=4, seed=0, delta=0.01,
        )
        records, summaries = run_experiment(config)
        assert len(records) == 2 * 4
        assert all(math.isnan(r.theta) for r in records)
        assert all(s.bound_eps is not None for s in summaries)

    def test_deterministic_given_seed(self):
        a_records, a_summ = run_experiment(_small_config())
        b_records, b_summ = run_experiment(_small_config())
        # wall times differ between runs; everything else must not
        strip = lambda r: (r.experiment, r.matrix, r.theta, r.dist, r.s,
                           r.n_samples, r.replicate, r.seed, r.nre)
        assert [strip(r) for r in a_records] == [strip(r) for r in b_records]
        assert a_summ == b_summ


class TestCsv:
    def test_round_trip_and_reproducibility(self, tmp_path):
        records, summaries = run_experiment(_small_config())
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_experiment_csv(path_a, records, summaries)
        records2, summaries2 = run_experiment(_small_config())
        write_experiment_csv(path_b, records2, summaries2)
        assert path_a.read_bytes() == path_b.read_bytes()

        with open(path_a) as fh:
            rows = list(csv.DictReader(fh))
        replicate_rows = [r for r in rows if r["replicate"] != ""]
        aggregate_rows = [r for r in rows if r["replicate"] == ""]
        assert len(replicate_rows) == len(records)
        assert len(aggregate_rows) == len(summaries)
        assert all(r["nre"] != "" for r in replicate_rows)
        assert all(r["mean_nre"] != "" and r["bound_eps"] != "" for r in aggregate_rows)
        # wall time never enters the CSV, keeping bytes reproducible
        assert "wall" not in rows[0]
