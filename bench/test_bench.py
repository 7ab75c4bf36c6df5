"""Tests of the benchmark itself: negative controls and trace reconciliation.

Run with ``python -m pytest bench`` (about half a minute).  Each negative
control corrupts one program output in one round of a workload and checks that
the corrupted operations are counted as failed, which shows the output checks
are not vacuous.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import diagmc  # noqa: E402
import diagmc.cli  # noqa: E402
from inputs import write_matrix_market  # noqa: E402
from metrics import per_layer  # noqa: E402
from tracing import Tracer, _targets  # noqa: E402
from workloads import CliDense, Paper, SparseLarge, binomial_limit, run_ops, run_round  # noqa: E402

SEED = 3


def _paper(tmp_path):
    return Paper(SEED, tmp_path)


def _with_file(cls, tmp_path):
    wl = cls(SEED, tmp_path)
    write_matrix_market(wl.entries, wl.path)
    return wl


def _sparse(tmp_path):
    return _with_file(SparseLarge, tmp_path)


def _dense(tmp_path):
    return _with_file(CliDense, tmp_path)


def _failures(wl):
    """Run set-up and one round; returns the failed operations' kinds."""
    wl.prepare_checks()
    results = run_ops(wl.setup()) + run_round(wl, 0)
    return [op.kind for op in results if op.error] + ["collective"] * wl.finish()


@pytest.mark.parametrize("make", [_paper, _sparse, _dense])
def test_workloads_pass_on_correct_program(tmp_path, make):
    assert _failures(make(tmp_path)) == []


class _Shifted:
    def __init__(self, est):
        self.n_samples, self.value = est.n_samples, est.value + 1.0


def test_corrupted_estimate_is_counted(tmp_path, monkeypatch):
    for name in ("estimate_diagonal", "estimate_diagonal_normalized"):
        original = getattr(diagmc, name)
        monkeypatch.setattr(diagmc, name, lambda *a, f=original, **k: _Shifted(f(*a, **k)))
    # a shift of 1 exceeds the Rademacher and normalized thresholds (about
    # 0.3 and 0.5); Gaussian and sparse:3 errors at N = 64 legitimately reach
    # several units, so their thresholds catch only gross errors
    assert sorted(_failures(_sparse(tmp_path))) == [
        "estimate-normalized-gaussian", "estimate-rademacher"]


def test_wrong_exit_code_is_counted(tmp_path, monkeypatch):
    original = diagmc.cli.main
    monkeypatch.setattr(diagmc.cli, "main", lambda argv: original(argv) and 0)
    assert _failures(_dense(tmp_path)) == ["plan-gaussian-normwise"]


def test_missing_csv_row_is_counted(tmp_path, monkeypatch):
    original = diagmc.cli.write_experiment_csv
    monkeypatch.setattr(diagmc.cli, "write_experiment_csv",
                        lambda path, records, summaries: original(path, records[:-1], summaries))
    assert _failures(_paper(tmp_path)) == [f"experiment-{e}" for e in (1, 2, 3, 4)]


def test_excess_ks_rejections_fail_the_run(tmp_path):
    wl = _paper(tmp_path)
    wl.ks = [False] * 6 + [True] * 14
    assert wl.finish() == 6
    wl.ks = [False] * 5 + [True] * 15
    assert wl.finish() == 0


def test_binomial_limit():
    # P[Bin(20, 0.01) > 4] is 1.4e-6 and P[Bin(20, 0.01) > 5] is 3.4e-8
    assert binomial_limit(20, 0.01, 1e-6) == 5
    assert binomial_limit(20, 0.01, 1e-5) == 4


def test_trace_reconciles_and_uninstalls(tmp_path):
    wl = _dense(tmp_path)
    originals = [(owner, name, obj) for owner, name, obj, _ in _targets()]
    tracer = Tracer(wl.stored_entries)
    tracer.install()
    setup_ops = wl.setup()
    wl.prepare_checks()
    setup_spans = tracer.take()
    ops = run_round(wl, 0)
    spans = tracer.take()
    tracer.uninstall()
    assert all(vars(owner)[name] is obj for owner, name, obj in originals)
    assert not [op.error for op in ops if op.error]

    expect = {"probe_apply_match": True, "file_entries": wl.entries.nnz,
              "loads": sum(op.loads for op in [*setup_ops, *ops])}
    metrics, detail = per_layer(setup_spans, [(spans, ops)], [1.0], [], expect)
    assert all(detail["self_checks"].values()), detail["self_checks"]
    assert metrics["cli.calls"][0] == 10
    assert metrics["matrixmarket.calls"][0] == 10
    assert metrics["probes.vectors"][0] == wl.planned
    assert metrics["operators.densify_s"][0] > 0.0


def test_every_binding_of_a_layer_function_is_wrapped():
    bound = {(getattr(owner, "__name__", ""), name) for owner, name, _, _ in _targets()}
    for module in ("diagmc.probes", "diagmc.estimators", "diagmc.harness", "diagmc"):
        assert (module, "sample_probe_block") in bound
    assert ("diagmc.estimators", "sample_uniform_block") in bound
    assert ("diagmc.cli", "load_matrix_market") in bound
    assert ("SymmetricOperator", "apply") in bound
