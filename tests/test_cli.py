"""CLI tests: subcommands, CSV artifacts, exit codes."""

import csv

import pytest

from diagmc import estimators
from diagmc.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from diagmc.estimators import estimate_diagonal
from diagmc.operators import make_test_matrix
from diagmc.probes import rademacher


# commands on tridiag:10:0.5 whose --dist must be refused with exit code 1
_PLAN = ("plan", "--eps", "0.1", "--delta", "0.1")
BAD_DIST_COMMANDS = [
    ("estimate", "--samples", "4", "--dist", "sobol"),
    ("estimate", "--samples", "4", "--dist", "sparse:abc"),
    ("estimate", "--samples", "4", "--dist", "dgsm"),
    (*_PLAN, "--dist", "sobol"),
    (*_PLAN, "--dist", "sparse:abc"),
    (*_PLAN, "--dist", "gaussian"),
    (*_PLAN, "--dist", "sparse:3", "--component", "2"),
    ("bounds", "--dist", "sobol"),
    ("bounds", "--dist", "gaussian"),
    ("bounds", "--dist", "normalized-gaussian"),
    ("bounds", "--dist", "sobol", "--component", "3"),
]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_writes_expected_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = _run(
            capsys, "estimate", "--test-matrix", "tridiag:100:0.5",
            "--dist", "rademacher", "--samples", "1024", "--seed", "7",
            "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert set(rows[0]) == {"index", "estimate", "exact", "abs_err"}
        # the CSV must agree with a direct library call
        op = make_test_matrix("tridiag", 100, 0.5)
        est = estimate_diagonal(op, rademacher(), 1024, 7)
        assert float(rows[3]["estimate"]) == pytest.approx(est.value[3], rel=1e-15)
        assert float(rows[3]["exact"]) == 1.0
        assert float(rows[3]["abs_err"]) == pytest.approx(abs(est.value[3] - 1.0), rel=1e-12)

    def test_matrix_file_source(self, tmp_path, capsys):
        mtx = tmp_path / "m.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
            "1 1 2.0\n2 1 1.0\n2 2 3.0\n"
        )
        out = tmp_path / "d.csv"
        code, _, _ = _run(
            capsys, "estimate", "--matrix-file", str(mtx),
            "--samples", "1", "--seed", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["exact"]) for r in rows] == [2.0, 3.0]

    @pytest.mark.parametrize("dist", ["normalized-gaussian", "sparse:3", "gaussian"])
    def test_other_estimators(self, tmp_path, capsys, dist):
        out = tmp_path / "d.csv"
        code, _, _ = _run(
            capsys, "estimate", "--test-matrix", "rank1:20:0.05",
            "--dist", dist, "--samples", "64", "--out", str(out),
        )
        assert code == EXIT_OK
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 20

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DIAGMC_OUTPUT_DIR", str(tmp_path))
        code, _, _ = _run(
            capsys, "estimate", "--test-matrix", "tridiag:10:0.5", "--samples", "4",
        )
        assert code == EXIT_OK
        assert (tmp_path / "diagonal.csv").exists()

    def test_missing_source_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "estimate", "--samples", "4")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_bad_matrix_file_is_data_error(self, tmp_path, capsys):
        mtx = tmp_path / "bad.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 4 0\n")
        code, _, err = _run(
            capsys, "estimate", "--matrix-file", str(mtx), "--samples", "1",
        )
        assert code == EXIT_DATA
        assert "not square" in err

    def test_non_utf8_matrix_file_is_data_error(self, tmp_path, capsys):
        mtx = tmp_path / "latin1.mtx"
        mtx.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\n"
                        b"% r\xe9sum\xe9\n1 1 1\n1 1 2.0\n")
        code, out, err = _run(capsys, "bounds", "--matrix-file", str(mtx))
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"data error: cannot parse {mtx}: line 2: byte 0xe9 is not valid UTF-8\n"

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = _run(
            capsys, "estimate", "--matrix-file", "/nonexistent.mtx", "--samples", "1",
        )
        assert code == EXIT_DATA


class TestPlan:
    def test_normwise_reference_plan(self, capsys):
        code, out, _ = _run(
            capsys, "plan", "--test-matrix", "rank1:100:0.1",
            "--dist", "rademacher", "--eps", "0.1", "--delta", "1e-16",
        )
        assert code == EXIT_OK
        assert "N = 9734" in out
        for token in ("K1 =", "K2 =", "d =", "Delta1 =", "Delta2 ="):
            assert token in out

    def test_gaussian_normwise_infeasible_exit_code(self, capsys):
        code, out, _ = _run(
            capsys, "plan", "--dist", "gaussian-normwise",
            "--test-matrix", "tridiag:100:0.5", "--eps", "0.1", "--delta", "0.01",
        )
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in out
        assert "window" in out

    def test_componentwise_plan(self, capsys):
        code, out, _ = _run(
            capsys, "plan", "--test-matrix", "tridiag:50:0.9",
            "--dist", "rademacher", "--component", "25",
            "--eps", "0.5", "--delta", "0.05",
        )
        assert code == EXIT_OK
        assert "N = 48" in out  # (2*0.81) * 2 ln(40) / 0.25 = 47.8 -> 48

    def test_unknown_dist_usage_error(self, capsys):
        # one test over every subcommand that takes --dist
        for argv in BAD_DIST_COMMANDS:
            code, out, err = _run(capsys, *argv, "--test-matrix", "tridiag:10:0.5")
            assert code == EXIT_USAGE, argv
            assert "usage error" in err and out == "", argv

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize("dist", [("rademacher",), ("gaussian-normwise",),
                                      ("rademacher", "--component", "3")])
    def test_non_finite_eps_is_data_error(self, capsys, eps, dist):
        code, out, err = _run(
            capsys, "plan", "--test-matrix", "tridiag:10:0.5", "--dist", *dist,
            f"--eps={eps}", "--delta", "0.1",
        )
        assert code == EXIT_DATA
        assert "epsilon must be positive and finite" in err
        assert out == ""

    def test_sparse_plan(self, capsys):
        code, out, _ = _run(
            capsys, "plan", "--test-matrix", "rank1:100:0.05",
            "--dist", "sparse:3", "--eps", "0.5", "--delta", "0.1",
        )
        assert code == EXIT_OK
        assert "N = " in out


class TestBounds:
    def test_normwise_constants_printed(self, capsys):
        code, out, _ = _run(
            capsys, "bounds", "--test-matrix", "tridiag:100:0.5",
            "--dist", "rademacher",
        )
        assert code == EXIT_OK
        assert "K1 = 0.5" in out
        assert "Delta2 = 1" in out

    def test_component_constants_printed(self, capsys):
        code, out, _ = _run(
            capsys, "bounds", "--test-matrix", "tridiag:100:0.5", "--component", "50",
        )
        assert code == EXIT_OK
        assert "off2sq = 0.5" in out
        assert "Psi =" in out

    def test_gaussian_normwise_window_matches_planner(self, capsys):
        code, out, _ = _run(
            capsys, "bounds", "--test-matrix", "tridiag:100:0.5", "--dist", "gaussian-normwise",
        )
        assert code == EXIT_OK
        assert "norm_ratio = 2\n" in out
        _, plan_out, _ = _run(
            capsys, "plan", "--test-matrix", "tridiag:100:0.5", "--dist", "gaussian-normwise",
            "--eps", "0.1", "--delta", "0.01",
        )
        window = next(line for line in out.splitlines() if line.startswith("window"))
        assert window in plan_out.splitlines()

    @pytest.mark.parametrize("dist", ["rademacher", "gaussian", "normalized-gaussian"])
    def test_component_constants_for_each_method(self, capsys, dist):
        code, out, _ = _run(
            capsys, "bounds", "--test-matrix", "tridiag:100:0.5", "--component", "50",
            "--dist", dist,
        )
        assert code == EXIT_OK
        assert "off2sq = 0.5" in out

    def test_bad_component_is_data_error(self, capsys):
        code, _, _ = _run(
            capsys, "bounds", "--test-matrix", "tridiag:10:0.5", "--component", "99",
        )
        assert code == EXIT_DATA


class TestLargeSparseFile:
    def test_plan_and_bounds_above_the_dense_cutoff(self, tmp_path, capsys):
        n = 20_000
        lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{n} {n} {2 * n - 1}"]
        lines += [f"{i} {i} 1.0" for i in range(1, n + 1)]
        lines += [f"{i + 1} {i} 0.5" for i in range(1, n)]
        path = tmp_path / "tridiag.mtx"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _run(capsys, "plan", "--matrix-file", str(path),
                              "--eps", "0.1", "--delta", "0.01")
        assert code == EXIT_OK, err
        assert "K1 = 0.5\n" in out and "K2 = 1\n" in out
        code, out, err = _run(capsys, "bounds", "--matrix-file", str(path), "--component", "7")
        assert code == EXIT_OK, err
        assert "off2sq = 0.5\n" in out


class TestExperiment:
    def test_small_experiment_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "exp1.csv"
        code, _, _ = _run(
            capsys, "experiment", "--id", "1", "--out", str(out),
            "--replicates", "2", "--n", "10", "--n-grid", "16,32",
            "--thetas", "0.1",
        )
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 3 families x 1 theta x 2 N x (2 replicates + 1 aggregate)
        assert len(rows) == 3 * 2 * 3

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = _run(
            capsys, "experiment", "--id", "1", "--n-grid", "16,notanumber",
        )
        assert code == EXIT_USAGE

    def test_bad_id_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "experiment", "--id", "9")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv,message", [
        (("--id", "1", "--n", "1"), "rank1 needs n >= 2, got 1"),
        (("--id", "4", "--n", "0"), "dgsm_quadratic needs n >= 1, got 0"),
        (("--id", "1", "--delta", "2"), "delta must lie in (0, 1), got 2.0"),
        (("--id", "2", "--thetas", "nan"), "thetas must be finite"),
    ], ids=["family-n", "dgsm-n", "delta", "theta"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "exp.csv"
        code, _, err = _run(capsys, "experiment", *argv, "--replicates", "1",
                            "--n-grid", "16", "--out", str(out))
        assert code == EXIT_USAGE and err.startswith("usage error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--id", "2", "--delta", "0.1"), "experiment 2 has no bound curve; delta does not apply"),
        (("--id", "3", "--delta", "0.1"), "experiment 3 has no bound curve; delta does not apply"),
        (("--id", "4", "--thetas", "0.5"), "experiment 4 has no theta grid; thetas do not apply"),
    ], ids=["delta-2", "delta-3", "thetas-4"])
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "exp.csv"
        code, stdout, err = _run(capsys, "experiment", *argv, "--out", str(out))
        assert (code, stdout, err) == (EXIT_USAGE, "", f"usage error: {message}\n")
        assert not out.exists()


class TestParsing:
    def test_bad_test_matrix_spec(self, capsys):
        code, _, err = _run(
            capsys, "estimate", "--test-matrix", "tridiag:100", "--samples", "1",
        )
        assert code == EXIT_USAGE
        assert "kind:n:theta" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = _run(
            capsys, "estimate", "--test-matrix", "hilbert:10:0.5", "--samples", "1",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("bounds", "--test-matrix", "rank1:50:inf"),
        ("plan", "--test-matrix", "tridiag:100:nan", "--eps", "0.1", "--delta", "0.1"),
    ], ids=["bounds-inf", "plan-nan"])
    def test_non_finite_theta_is_data_error(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_DATA and out == "" and "theta must be finite" in err

    @pytest.mark.parametrize("argv", [
        ("bounds", "--test-matrix", "tridiag:10001:0.5"),
        ("bounds", "--test-matrix", "decay:10001:0.5", "--component", "3"),
        ("plan", "--test-matrix", "rank1:10001:0.1", "--eps", "0.1", "--delta", "0.1"),
        ("experiment", "--id", "1", "--n", "10001", "--replicates", "1", "--n-grid", "16"),
    ], ids=["bounds", "bounds-component", "plan", "experiment"])
    def test_test_family_above_dense_cutoff_is_data_error(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        # UnsupportedOperationError: the bound constants would densify n x n
        monkeypatch.setenv("DIAGMC_OUTPUT_DIR", str(tmp_path))
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (EXIT_DATA, "")
        assert err == "data error: n = 10001 exceeds the dense cutoff 10000\n"
        assert not any(tmp_path.iterdir())

    def test_degenerate_denominator_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimators, "_DEGENERATE_DENOMINATOR", float("inf"))
        code, out, err = _run(
            capsys, "estimate", "--test-matrix", "tridiag:10:0.5", "--samples", "4",
            "--dist", "normalized-gaussian", "--out", str(tmp_path / "d.csv"),
        )
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("data error: normalized-estimator denominator vanished")

    def test_too_small_dimension_is_data_error(self, capsys):
        code, _, _ = _run(
            capsys, "estimate", "--test-matrix", "tridiag:1:0.5", "--samples", "1",
        )
        assert code == EXIT_DATA
