"""CLI tests: subcommands, CSV artifacts, exit codes."""

import contextlib
import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

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
    ("estimate", "--samples", "4", "--dist", "sparse:0.5"),
    ("estimate", "--samples", "4", "--dist", "sparse:1.5"),
    (*_PLAN, "--dist", "sobol"),
    (*_PLAN, "--dist", "sparse:abc"),
    (*_PLAN, "--dist", "sparse:1e-3"),
    (*_PLAN, "--dist", "gaussian"),
    (*_PLAN, "--dist", "sparse:3", "--component", "2"),
    ("bounds", "--dist", "sobol"),
    ("bounds", "--dist", "sparse:inf"),
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


# Recorded plan/bounds runs: argv (FILE stands for the file written by
# _write_integer_file), exit code, stdout, stderr.  The matrix-file and error
# cases were recorded before `plan` and `bounds` shared one handler.
FILE = "{file}"
RECORDED = {
    "file-bounds": (("bounds", "--matrix-file", FILE,), 0, 'K1 = 33\nK2 = 9\nd = 5558.727272727273\nDelta1 = 0.67346938775510201\nDelta2 = 1.2857142857142858\nnorm_DA = 7\n', ''),
    "file-bounds-sparse": (("bounds", "--matrix-file", FILE, "--dist", "sparse:3",), 0, 'K1 = 131\nK2 = 41\nd = 5525.6183206106871\nDelta1 = 2.6734693877551021\nDelta2 = 5.8571428571428568\nnorm_DA = 7\n', ''),
    "file-bounds-component": (("bounds", "--matrix-file", FILE, "--component", "5001",), 0, 'a_ii = 7\ncol_norm = 8.6602540378443873\noff2sq = 26\nL1 = 15.660254037844387\nL2 = 124\nDelta1i = 2.237179148263484\nDelta2i = 2.5306122448979593\nPsi = 1.3728129459672884\n', ''),
    "file-bounds-gaussian-normwise": (("bounds", "--matrix-file", FILE, "--dist", "gaussian-normwise",), 0, 'norm_ratio = 2.2857142857142856\nwindow = [200.30562398941663, 10007]\n', ''),
    "file-plan": (("plan", "--matrix-file", FILE, "--eps", "0.1", "--delta", "0.01",), 0, 'N = 2194\nK1 = 33\nK2 = 9\nd = 5558.727272727273\nDelta1 = 0.67346938775510201\nDelta2 = 1.2857142857142858\nnorm_DA = 7\n', ''),
    "file-plan-sparse": (("plan", "--matrix-file", FILE, "--dist", "sparse:3", "--eps", "0.1", "--delta", "0.01",), 0, 'N = 8780\nK1 = 131\nK2 = 41\nd = 5525.6183206106871\nDelta1 = 2.6734693877551021\nDelta2 = 5.8571428571428568\nnorm_DA = 7\n', ''),
    "file-plan-component": (("plan", "--matrix-file", FILE, "--dist", "gaussian", "--component", "5001", "--eps", "0.1", "--delta", "0.01",), 0, 'N = 2919\na_ii = 7\ncol_norm = 8.6602540378443873\noff2sq = 26\nL1 = 15.660254037844387\nL2 = 124\nDelta1i = 2.237179148263484\nDelta2i = 2.5306122448979593\nPsi = 1.3728129459672884\n', ''),
    "file-plan-gaussian-normwise": (("plan", "--matrix-file", FILE, "--dist", "gaussian-normwise", "--eps", "0.1", "--delta", "0.01",), 3, 'required (pre-window) = 104969547113.67653\nwindow = [200.30562398941663, 10007]\ninfeasible: exceeds_dimension\n', ''),
    "usage-error": (("plan", "--matrix-file", FILE, "--eps", "0.1",), 1, '', 'usage error: the following arguments are required: --delta\n'),
    "data-error": (("bounds", "--matrix-file", FILE, "--component", "10007",), 2, '', 'data error: component index 10007 out of range for n=10007\n'),
    "tridiag-bounds": (("bounds", "--test-matrix", "tridiag:100:0.5",), 0, 'K1 = 0.5\nK2 = 1\nd = 99\nDelta1 = 0.5\nDelta2 = 1\nnorm_DA = 1\n', ''),
    "tridiag-plan-gaussian-normwise": (("plan", "--test-matrix", "tridiag:100:0.5", "--dist", "gaussian-normwise", "--eps", "0.1", "--delta", "0.01",), 3, 'required (pre-window) = 10043624323.235048\nwindow = [100.14520346826232, 100]\ninfeasible: empty_window\n', ''),
    "tridiag-plan-component": (("plan", "--test-matrix", "tridiag:100:0.5", "--component", "0", "--eps", "0.1", "--delta", "0.01",), 0, 'N = 265\na_ii = 1\ncol_norm = 1.1180339887498949\noff2sq = 0.25\nL1 = 2.1180339887498949\nL2 = 2.25\nDelta1i = 2.1180339887498949\nDelta2i = 2.25\nPsi = 2\n', ''),
    "rank1-plan": (("plan", "--test-matrix", "rank1:100:0.1", "--eps", "0.1", "--delta", "0.01",), 0, 'N = 2525\nK1 = 0.98999999999999999\nK2 = 9.9000000000000004\nd = 99.999999999999986\nDelta1 = 0.81818181818181801\nDelta2 = 9\nnorm_DA = 1.1000000000000001\n', ''),
    "rank1-bounds-sparse": (("bounds", "--test-matrix", "rank1:100:0.1", "--dist", "sparse:3",), 0, 'K1 = 3.4100000000000001\nK2 = 31.900000000000002\nd = 100.00000000000003\nDelta1 = 2.8181818181818179\nDelta2 = 29\nnorm_DA = 1.1000000000000001\n', ''),
    "rank1-bounds-component": (("bounds", "--test-matrix", "rank1:100:0.1", "--component", "99", "--dist", "normalized-gaussian",), 0, 'a_ii = 1.1000000000000001\ncol_norm = 1.4832396974191326\noff2sq = 0.98999999999999999\nL1 = 2.583239697419133\nL2 = 3.4100000000000001\nDelta1i = 2.3483997249264839\nDelta2i = 2.8181818181818179\nPsi = 1.1055415967851334\n', ''),
    "tridiag-large-bounds": (("bounds", "--test-matrix", "tridiag:100000:0.5",), 0, 'K1 = 0.5\nK2 = 1\nd = 99999\nDelta1 = 0.5\nDelta2 = 1\nnorm_DA = 1\n', ''),
    "tridiag-large-plan-sparse": (("plan", "--test-matrix", "tridiag:100000:0.5", "--dist", "sparse:3", "--eps", "0.1", "--delta", "0.01",), 0, 'N = 9706\nK1 = 2.5\nK2 = 5\nd = 99999.800000000003\nDelta1 = 2.5\nDelta2 = 5\nnorm_DA = 1\n', ''),
}
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _write_integer_file(path, n):
    """A symmetric coordinate file of integers: a diagonal, a sub-diagonal and a sparse fourth one."""
    entries = []
    for i in range(1, n + 1):
        entries.append(f"{i} {i} {(i * 7) % 5 + 3}")
        if i < n:
            entries.append(f"{i + 1} {i} {(i * 5) % 9 - 4}")
        if i + 4 <= n and i % 3 == 0:
            entries.append(f"{i + 4} {i} {i % 4 + 1}")
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {len(entries)}\n"
                    + "\n".join(entries) + "\n")


def _assert_output_matches(got: str, want: str) -> None:
    """Labels and line order exactly, sample counts and dimensions exactly, other numbers within 4 ulps."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), got
    for g, w in zip(got_lines, want_lines):
        assert _NUMBER.sub("#", g) == _NUMBER.sub("#", w), (g, w)
        integers = {"N": (0,), "window": (1,)}.get(w.split(" ", 1)[0], ())
        for k, (a, b) in enumerate(zip(_NUMBER.findall(g), _NUMBER.findall(w))):
            if k in integers:
                assert a == b, (g, w)
            else:
                assert abs(float(a) - float(b)) <= 4 * math.ulp(float(b)), (g, w)


class TestRecordedPlanBounds:
    @pytest.fixture(scope="class")
    def matrix_file(self, tmp_path_factory):
        # n above the dense cutoff, so the file loads as a CooSymmetric
        path = tmp_path_factory.mktemp("recorded") / "integers.mtx"
        _write_integer_file(path, 10_007)
        return str(path)

    @pytest.mark.parametrize("name", RECORDED)
    def test_output_matches_record(self, capsys, matrix_file, name):
        argv, code, out, err = RECORDED[name]
        got = _run(capsys, *(matrix_file if a == FILE else a for a in argv))
        assert (got[0], got[2]) == (code, err.replace(FILE, matrix_file))
        _assert_output_matches(got[1], out)


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


def _four_by_four(path, diag, a21):
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n"
                    + "".join(f"{i} {i} {diag}\n" for i in range(1, 5)) + f"2 1 {a21}\n")
    return str(path)


HUGE_COMPONENT = ("componentwise bound constants are not finite: "
                  "col_norm = inf, off2sq = inf, l1 = inf, l2 = inf, delta1i = inf, delta2i = inf")


class TestExtremeFiles:
    """Finite files whose constants cancel, underflow or overflow: an answer or exit 2, never a traceback."""

    def test_dominant_diagonal(self, tmp_path, capsys):
        path = _four_by_four(tmp_path / "dominant.mtx", "1000000", "0.001")
        for argv in (("plan", "--eps", "0.1", "--delta", "1e-6"), ("bounds",)):
            code, out, err = _run(capsys, *argv, "--matrix-file", path)
            assert (code, err) == (EXIT_OK, "") and "K1 = 9.9999999999999995e-07\n" in out
        code, out, _ = _run(capsys, "plan", "--component", "0", "--eps", "0.1", "--delta", "1e-6",
                            "--matrix-file", path)
        assert code == EXIT_OK
        assert "off2sq = 9.9999999999999995e-07\n" in out and "Psi = 1000000000\n" in out

    @pytest.mark.parametrize("diag,a21,argv,message", [
        ("1", "1e-170", ("bounds",), "K1 = 0: the squared entries of the matrix underflow"),
        ("1", "1e-170", ("plan", "--dist", "sparse:1", "--eps", "0.1", "--delta", "0.01"),
         "K1 = 0: the squared entries of the matrix underflow"),
        ("1e200", "1e200", ("plan", "--eps", "0.1", "--delta", "0.01"),
         "normwise bound constants are not finite: k1 = inf, d = nan, delta1 = nan"),
        ("1e200", "1e200", ("bounds", "--dist", "sparse:3"),
         "normwise bound constants are not finite: k1 = inf, d = nan, delta1 = nan"),
        ("1e200", "1e200", ("plan", "--component", "0", "--dist", "gaussian", "--eps", "0.1", "--delta", "0.01"),
         HUGE_COMPONENT),
        ("1e200", "1e200", ("bounds", "--component", "0"), HUGE_COMPONENT),
    ], ids=["tiny-bounds", "tiny-plan", "huge-plan", "huge-bounds-sparse", "huge-plan-component",
            "huge-bounds-component"])
    def test_refused_as_data_error(self, tmp_path, capsys, diag, a21, argv, message):
        path = _four_by_four(tmp_path / "m.mtx", diag, a21)
        assert _run(capsys, *argv, "--matrix-file", path) == (EXIT_DATA, "", f"data error: {message}\n")

    @pytest.mark.parametrize("argv,warned", [
        (("bounds", "--test-matrix", "tridiag:5:1e308"), [UserWarning]),
        (("bounds", "--test-matrix", "decay:2:1e154"), []),
        (("estimate", "--samples", "4", "--matrix-file", "huge.mtx"), []),
    ], ids=["tridiag-row-sums", "decay-norm", "dense-matmul"])
    def test_refusal_comes_alone(self, tmp_path, capsys, monkeypatch, argv, warned):
        # no numpy warning before the one data error line; only tridiag's accepted
        # theta warns that it lies outside the documented range
        _four_by_four(tmp_path / "huge.mtx", "1e308", "1e308")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, *argv)
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert [w.category for w in caught] == warned

    @pytest.mark.parametrize("argv", [
        ("--test-matrix", "tridiag:10:0.5", "--eps", "1e-170", "--delta", "0.1"),
        ("--dist", "gaussian-normwise", "--test-matrix", "tridiag:100:0.5", "--eps", "1e-160", "--delta", "1e-10"),
    ], ids=["normwise", "gaussian-normwise"])
    def test_eps_whose_square_underflows(self, capsys, argv):
        assert _run(capsys, "plan", *argv) == (
            EXIT_DATA, "", "data error: the planned sample count is inf: the bound constants over- or underflow\n")

    @pytest.mark.parametrize("n", [2, 10_001], ids=["dense", "sparse"])
    def test_duplicates_whose_sum_overflows(self, tmp_path, capsys, n):
        # a_11 = 1e308 + 1e308, each finite, is not stored as inf
        path = tmp_path / "dup.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n + 1}\n1 1 1e308\n1 1 1e308\n"
                        + "".join(f"{i} {i} 1\n" for i in range(2, n + 1)))
        assert _run(capsys, "bounds", "--matrix-file", str(path)) == (
            EXIT_DATA, "", "data error: matrix entries must be finite\n")


    @pytest.mark.parametrize("argv", [
        ("bounds", "--matrix-file", "huge-n.mtx"),
        ("estimate", "--samples", "1", "--test-matrix", "rank1:1000000000000:0.05"),
    ], ids=["file", "test-matrix"])
    def test_size_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, argv):
        # n = 10^12: a length-n array takes 7.28 TiB, an allocation refused at once
        (tmp_path / "huge-n.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                                             "1000000000000 1000000000000 1\n1 1 1\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (EXIT_DATA, "")
        assert re.fullmatch(r"data error: Unable to allocate [\d.]+ TiB .*\n", err)

# The grammar of the property test below: every float option draws from these,
# half the time from the two plain values, so that many commands succeed
_FLOATS = ("0", "5e-324", "1e-320", "1e-170", "1e-160", "0.1", "1", "1e154", "1e200",
           "1e308", "-1e308", "nan", "inf", "-inf")
_floats = st.sampled_from(("0.1", "1")) | st.sampled_from(_FLOATS)


@st.composite
def _matrix_market(draw) -> str:
    """A real Matrix Market file of 1-5 rows, either format and symmetry, duplicates allowed."""
    fmt, symmetry = draw(st.sampled_from(("coordinate", "array"))), draw(st.sampled_from(("general", "symmetric")))
    n, mirror = draw(st.integers(1, 5)), draw(st.booleans())  # mirror: a general file with symmetric values
    if fmt == "array":
        lower = [(i, j) for j in range(n) for i in range(j, n)]  # column-major
        values = {ij: draw(_floats) for ij in lower}
        body = [values[ij] for ij in lower] if symmetry == "symmetric" else [
            values[i, j] if i >= j else values[j, i] if mirror else draw(_floats) for j in range(n) for i in range(n)]
        return f"%%MatrixMarket matrix array real {symmetry}\n{n} {n}\n" + "\n".join(body) + "\n"
    entries = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), _floats), max_size=8))
    if symmetry == "symmetric":
        entries = [(max(i, j), min(i, j), v) for i, j, v in entries]
    elif mirror:
        entries += [(j, i, v) for i, j, v in entries if i != j]
    return (f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {len(entries)}\n"
            + "".join(f"{i} {j} {v}\n" for i, j, v in entries))


@st.composite
def _command(draw) -> tuple:
    """``(argv, file)``: argv for ``diagmc`` from its documented grammar, with ``{dir}`` for a
    scratch directory, and the text of its ``{dir}/m.mtx`` (None if it reads no file)."""
    command = draw(st.sampled_from(("estimate", "plan", "bounds", "experiment")))
    if command == "experiment":
        grid = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
        argv = [command, "--id", str(draw(st.integers(1, 4))), "--n", str(draw(st.integers(1, 8))),
                "--replicates", "1", "--n-grid", ",".join(map(str, grid)), "--out", "{dir}/e.csv"]
        if draw(st.booleans()):
            argv.append("--thetas=" + ",".join(draw(st.lists(_floats, min_size=1, max_size=2))))
        if draw(st.booleans()):
            argv.append(f"--delta={draw(_floats)}")
        return argv, None
    file = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(("rank1", "decay", "tridiag")))
        argv = [command, "--test-matrix", f"{kind}:{draw(st.integers(1, 8))}:{draw(_floats)}"]
    else:
        file = draw(_matrix_market())
        argv = [command, "--matrix-file", "{dir}/m.mtx"]
    dists = ["rademacher", "gaussian", "normalized-gaussian", "gaussian-normwise", "sparse:3"]
    argv.append("--dist=" + draw(st.sampled_from(dists) | _floats.map("sparse:{}".format)))
    if command == "estimate":
        return argv + ["--samples", str(draw(st.integers(1, 5))), "--out", "{dir}/d.csv"], file
    if command == "plan":
        # the planners are where eps and delta under- and overflow: no plain values here
        argv += [f"--eps={draw(st.sampled_from(_FLOATS))}", f"--delta={draw(st.sampled_from(_FLOATS))}"]
    if draw(st.booleans()):
        argv.append(f"--component={draw(st.integers(-1, 5))}")
    return argv, file


class TestNoTraceback:
    """No argv of the grammar ends in a traceback: an answer, an infeasible plan or one error line."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_command())
    # the inputs that once escaped: an eps whose square underflows
    @example((["plan", "--test-matrix", "tridiag:10:0.5", "--eps=1e-170", "--delta=0.1"], None))
    @example((["plan", "--dist=gaussian-normwise", "--test-matrix", "tridiag:100:0.5",
               "--eps=1e-160", "--delta=1e-10"], None))
    def test_exit_code_and_message(self, command):
        argv, file = command
        with tempfile.TemporaryDirectory() as directory:
            if file is not None:
                Path(directory, "m.mtx").write_text(file)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("{dir}", directory) for arg in argv])
        event(f"{argv[0]} exits {code}")
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INFEASIBLE)
        if code in (EXIT_USAGE, EXIT_DATA):
            prefix = "usage error: " if code == EXIT_USAGE else "data error: "
            assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
        if code == EXIT_INFEASIBLE:
            assert "infeasible: " in out.getvalue()


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
        (("--id", "1", "--n-grid", ""), "--n-grid must be a comma-separated integer list"),
        (("--id", "1", "--thetas", ""), "--thetas must be a comma-separated float list"),
    ], ids=["family-n", "dgsm-n", "delta", "theta", "empty-grid", "empty-thetas"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "exp.csv"
        # argv comes last, so its --n-grid replaces the small default grid
        code, _, err = _run(capsys, "experiment", "--replicates", "1", "--n-grid", "16",
                            *argv, "--out", str(out))
        assert code == EXIT_USAGE and err.startswith("usage error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("--id", "2", "--delta", "0.1"), "experiment 2 has no bound curve; delta does not apply"),
        (("--id", "3", "--delta", "0.1"), "experiment 3 has no bound curve; delta does not apply"),
        (("--id", "4", "--thetas", "0.5"), "experiment 4 has no theta grid; thetas do not apply"),
        (("--id", "4", "--thetas", ""), "--thetas must be a comma-separated float list"),
    ], ids=["delta-2", "delta-3", "thetas-4", "empty-thetas-4"])
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

    @pytest.mark.parametrize("argv,first", [
        (("bounds", "--test-matrix", "tridiag:10001:0.5"), "K1 = 0.5\nK2 = 1\nd = 10000\n"),
        (("bounds", "--test-matrix", "decay:10001:0.5", "--component", "3"), "a_ii = "),
        (("plan", "--test-matrix", "rank1:10001:0.1", "--eps", "0.1", "--delta", "0.1"), "N = "),
        (("experiment", "--id", "1", "--n", "10001", "--replicates", "1", "--n-grid", "16"),
         "wrote 15 replicate rows and 15 aggregate rows to "),
    ], ids=["bounds", "bounds-component", "plan", "experiment"])
    def test_test_family_above_dense_cutoff_has_bound_constants(self, tmp_path, capsys,
                                                                monkeypatch, argv, first):
        # the families' row sums come from closed forms, never from an n x n array
        monkeypatch.setenv("DIAGMC_OUTPUT_DIR", str(tmp_path))
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "") and out.startswith(first)
        assert [p.name for p in tmp_path.iterdir()] == (
            ["experiment_1.csv"] if argv[0] == "experiment" else [])

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
