"""Operation results reduced to the benchmark's end-to-end and per-layer metrics."""

import functools
import statistics

import numpy as np

from tracing import KindTotals, summarize


def end_to_end(rounds: list, tail_pct: float) -> tuple[dict, dict]:
    """Metrics of untraced rounds, plus the sample counts behind them.

    ``wall_s`` is the median time of one round's operations, ``probes_per_s``
    the probe vectors drawn per second of the operations that draw them, and
    ``cmd_*`` percentiles of the latency of single operations.
    """
    walls = [sum(op.seconds for op in ops) for ops in rounds]
    ops = [op for r in rounds for op in r]
    drawing = [op for op in ops if op.vectors]
    latency = np.array([op.seconds for op in ops]) * 1e3
    tail = float(np.percentile(latency, tail_pct))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "probes_per_s": (sum(op.vectors for op in drawing) / sum(op.seconds for op in drawing), "1/s"),
        "cmd_p50_ms": (float(np.percentile(latency, 50.0)), "ms"),
        "cmd_tail_ms": (tail, "ms"),
    }
    detail = {
        "rounds": len(rounds), "commands": len(ops), "tail_percentile": tail_pct,
        "commands_beyond_tail": int(np.sum(latency > tail)),
        "median_ms_by_kind": {
            kind: statistics.median(op.seconds * 1e3 for op in ops if op.kind == kind)
            for kind in dict.fromkeys(op.kind for op in ops)
        },
    }
    return metrics, detail


def _merge(parts, scale: float = 1.0) -> dict:
    out = {}
    for totals in parts:
        for kind, t in totals.items():
            m = out.setdefault(kind, KindTotals())
            m.calls += t.calls * scale
            m.self_s += t.self_s * scale
            m.a += t.a * scale
            m.b += t.b * scale
            m.paths.extend(t.paths)
    return out


@functools.cache
def declared_entries(path: str) -> int:
    """The entry count on a Matrix Market size line."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("%") and line.strip():
                return int(line.split()[2])
    raise ValueError(f"{path} has no size line")


def per_layer(setup_spans, traced, untraced_walls, peaks, expect) -> tuple[dict, dict]:
    """Per-layer metrics of one pass (set-up plus one traced round).

    ``traced`` holds ``(spans, ops)`` per traced round; ``expect`` carries the
    workload facts the trace must reconcile with: ``probe_apply_match`` and
    ``file_entries`` (the generated file's entry count, or None) and
    ``loads`` (the files the traced operations parse).
    """
    setup_totals, _ = summarize(setup_spans)
    round_totals, tops, walls, ops = [], [], [], []
    for spans, round_ops in traced:
        totals, top = summarize(spans)
        round_totals.append(totals)
        tops.append(top)
        walls.append(sum(op.seconds for op in round_ops))
        ops.extend(round_ops)
    whole = _merge([setup_totals, *round_totals])
    per_pass = _merge([setup_totals, _merge(round_totals, 1.0 / len(traced))])

    def get(kind):
        return per_pass.get(kind, KindTotals())

    def peak(prefix):
        return max((b for kind, b in peaks if kind.split(".")[0] == prefix), default=0)

    probes, apply_ = get("probes"), get("operators.apply")
    mm, mm_whole = get("matrixmarket"), whole.get("matrixmarket", KindTotals())
    mm_entries = sum(declared_entries(p) for p in mm_whole.paths)
    mm_entries_per_pass = mm_entries / mm_whole.calls * mm.calls if mm_whole.calls else 0.0
    unattributed = sum(walls) - sum(tops)
    m = {
        "probes.calls": (probes.calls, "count"),
        "probes.vectors": (probes.a, "count"),
        "probes.busy_s": (probes.self_s, "s"),
        "probes.ns_per_entry": (1e9 * probes.self_s / probes.b if probes.b else 0.0, "ns"),
        "probes.bytes_out": (8.0 * probes.b, "B"),
        "probes.peak_bytes": (peak("probes"), "B"),
        "operators.calls": (apply_.calls, "count"),
        "operators.columns": (apply_.a, "count"),
        "operators.busy_s": (apply_.self_s + get("operators").self_s, "s"),
        "operators.ns_per_entry": (1e9 * apply_.self_s / apply_.b if apply_.b else 0.0, "ns"),
        "operators.densify_s": (get("operators.densify").self_s, "s"),
        "operators.peak_bytes": (peak("operators"), "B"),
        "estimators.calls": (get("estimators.estimate").calls, "count"),
        "estimators.accumulate_s": (get("estimators.accumulate").self_s, "s"),
        "estimators.self_s": (get("estimators.estimate").self_s + get("estimators").self_s, "s"),
        "bounds.calls": (get("bounds").calls, "count"),
        "bounds.busy_s": (get("bounds").self_s, "s"),
        "bounds.peak_bytes": (peak("bounds"), "B"),
        "matrixmarket.calls": (mm.calls, "count"),
        "matrixmarket.entries": (mm_entries_per_pass, "count"),
        "matrixmarket.busy_s": (mm.self_s, "s"),
        "matrixmarket.entries_per_s": (mm_entries_per_pass / mm.self_s if mm.self_s else 0.0, "1/s"),
        "matrixmarket.peak_bytes": (peak("matrixmarket"), "B"),
        "harness.cells": (get("harness").a, "count"),
        "harness.self_s": (get("harness").self_s, "s"),
        "harness.csv_s": (get("harness.csv").self_s, "s"),
        "special.calls": (get("special").calls, "count"),
        "special.busy_s": (get("special").self_s, "s"),
        "cli.calls": (get("cli").calls, "count"),
        "cli.self_s": (get("cli").self_s, "s"),
        "trace.overhead_s": (statistics.median(walls) - statistics.median(untraced_walls), "s"),
        "trace.unattributed_s": (unattributed / len(traced), "s"),
    }

    vectors = whole.get("probes", KindTotals()).a
    columns = whole.get("operators.apply", KindTotals()).a
    loads = mm_whole.calls
    checks = {
        "probes.vectors equals the probe vectors requested":
            vectors == sum(op.vectors for op in ops),
        "matrixmarket.calls equals the files parsed": loads == expect["loads"],
        "layer self times add up to the traced wall time (within 2%)":
            0.0 <= unattributed <= 0.02 * sum(walls),
    }
    if expect["probe_apply_match"]:
        checks["operators.columns equals probes.vectors"] = columns == vectors
    if expect["file_entries"] is not None:
        checks["matrixmarket.entries equals the generated entry count"] = (
            mm_entries == loads * expect["file_entries"])
    detail = {"traced_rounds": len(traced), "traced_wall_s": walls,
              "untraced_wall_s": untraced_walls, "self_checks": checks}
    return m, detail
