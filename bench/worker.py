"""One workload in one process: set-up, timed rounds, checks, optional trace.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; pins BLAS
to one thread before numpy is imported and writes its findings as JSON to
``--out``.  Set-up time runs from the first line of this file to the end of
the workload's set-up, so it covers importing numpy and diagmc.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported, below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import diagmc  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402
from workloads import WORKLOADS, OpResult, execute, run_ops, run_round, verify  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input-dir", required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--out", required=True)
    p.add_argument("--spans-out", help="CSV file for the traced spans")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path(args.src).resolve()
    if src not in Path(diagmc.__file__).resolve().parents:
        print(f"diagmc imported from {diagmc.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, Path(args.input_dir))
    tracer = None
    if args.trace:
        tracer = Tracer(workload.stored_entries)
        tracer.install()
    setup_ops = workload.setup()
    pending = [(op, *execute(op)) for op in setup_ops]
    setup_spans = []
    if tracer:
        setup_spans = tracer.take()
        tracer.uninstall()
    setup_s = time.perf_counter() - _T0

    workload.prepare_checks()
    results = [OpResult(op.kind, dt, op.vectors, op.loads, verify(op, out, err))
               for op, out, err, dt in pending]
    report = {"setup_s": setup_s}
    if args.mode == "run":
        untraced, traced = [], []
        start, r = time.perf_counter(), 0
        # trace 0 times every round; trace 1 alternates untraced and traced
        # rounds, so the tracing overhead is measured under the same load
        while r < 1 + args.trace or time.perf_counter() - start < args.seconds:
            if args.trace and r % 2:
                tracer.install()
                ops = run_round(workload, r)
                traced.append((tracer.take(), ops))
                tracer.uninstall()
            else:
                untraced.append(run_round(workload, r))
            r += 1
        results += [op for ops in untraced for op in ops] + [op for _, ops in traced for op in ops]
        if args.trace:
            peaks, memory_ops = memory_pass(workload, tracer, r)
            results += memory_ops
            expect = {
                "probe_apply_match": workload.probe_apply_match,
                "file_entries": workload.file_entries,
                "loads": sum(op.loads for op in setup_ops) + sum(op.loads for _, ops in traced for op in ops),
            }
            metrics, report["trace"] = per_layer(
                setup_spans, traced, [sum(op.seconds for op in ops) for ops in untraced], peaks, expect)
            report["failed_self_checks"] = [k for k, ok in report["trace"]["self_checks"].items() if not ok]
            if args.spans_out:
                write_spans(args.spans_out, [("setup", setup_spans)] + [("round", s) for s, _ in traced])
        else:
            metrics, report["latency"] = end_to_end(untraced, workload.tail_pct)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        report["metrics"] = metrics
        report["collective_failures"] = workload.finish()
        report["sizes"] = workload.sizes()
    report["attempted"] = len(results)
    report["errors"] = [f"{op.kind}: {op.error}" for op in results if op.error]
    report["environment"] = {k: os.environ.get(k) for k in PINNED}
    Path(args.out).write_text(json.dumps(report))
    return 0


def memory_pass(workload, tracer, r):
    """Set-up and one round again under tracemalloc, for per-layer peak bytes."""
    tracemalloc.start()
    tracer.install(memory=True)
    try:
        ops = run_ops(workload.setup()) + run_round(workload, r)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    return tracer.peaks, ops


if __name__ == "__main__":
    sys.exit(main())
