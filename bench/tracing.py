"""Layer spans recorded from outside the diagmc package.

A :class:`Tracer` swaps every module and class attribute through which callers
reach a layer for a wrapper that records a span, and swaps the originals back
afterwards.  Layers are the package's modules.  Bindings are found by identity,
so a function re-exported by ``diagmc/__init__.py`` or imported by name into
another module (``sample_probe_block`` lives in ``probes``, ``estimators`` and
``harness``) is wrapped wherever it is bound.

A span is ``(kind, start, end, parent, extra)``; spans are kept in memory and
reduced by :func:`summarize`.  A call nested directly inside a span of the same
kind (``to_dense`` calling ``full``, ``sample_probe`` calling
``sample_probe_block``) records no span of its own.

In memory mode the wrappers record, instead of times, the peak ``tracemalloc``
bytes allocated while each span was open, children included.
"""

import csv
import sys
import time
import tracemalloc
import types
from dataclasses import dataclass, field

LAYERS = ("probes", "operators", "estimators", "bounds", "matrixmarket", "harness", "special", "cli")

# Distribution constructors and seed mixing cost next to nothing; their time
# stays in the caller's self time instead of adding a span per replicate.
UNWRAPPED = {
    "derive_seed", "gaussian", "probe_moments", "rademacher",
    "sparse_rademacher", "validate_sparsity",
}

_FUNCTION_KINDS = {
    "estimate_diagonal": "estimators.estimate",
    "estimate_diagonal_normalized": "estimators.estimate",
    "estimate_dgsm": "estimators.estimate",
    "write_experiment_csv": "harness.csv",
}

_METHOD_KINDS = {
    "apply": "operators.apply",
    "to_dense": "operators.densify",
    "full": "operators.densify",
}

# DiagonalEstimate methods that fold samples into the running sums
_ACCUMULATE = ("update", "update_block", "merge")


def _vectors(args, result):
    block = result[0]
    return (block.shape[1] if block.ndim == 2 else 1, block.size)


def _experiment_cells(args, result):
    return len(result[1])


def _load_path(args, result):
    return str(args[0])


_EXTRA = {
    "probes": _vectors,
    "harness.run_experiment": _experiment_cells,
    "matrixmarket": _load_path,
}


def _targets():
    """Yield ``(owner, name, original, kind)`` for every binding to wrap."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "diagmc" or name.startswith("diagmc.")]
    kinds = {}
    for layer in LAYERS:
        mod = sys.modules[f"diagmc.{layer}"]
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in UNWRAPPED):
                kinds[obj] = _FUNCTION_KINDS.get(name, layer)
    for mod in modules:
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj in kinds:
                yield mod, name, obj, kinds[obj]

    operators = sys.modules["diagmc.operators"]
    for cls in vars(operators).values():
        if not (isinstance(cls, type) and issubclass(cls, operators.SymmetricOperator)
                and cls.__module__ == operators.__name__):
            continue
        for name, obj in vars(cls).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(obj, (types.FunctionType, classmethod)):
                yield cls, name, obj, _METHOD_KINDS.get(name, "operators")

    estimate_cls = sys.modules["diagmc.estimators"].DiagonalEstimate
    for name in _ACCUMULATE:
        yield estimate_cls, name, vars(estimate_cls)[name], "estimators.accumulate"


@dataclass
class KindTotals:
    calls: int = 0
    self_s: float = 0.0
    a: float = 0.0  # first counter (vectors, columns, cells)
    b: float = 0.0  # second counter (entries, column-entries)
    paths: list = field(default_factory=list)


def summarize(spans) -> tuple[dict, float]:
    """Per-kind totals and the summed duration of top-level spans."""
    child = [0.0] * len(spans)
    for kind, start, end, parent, extra in spans:
        if parent >= 0:
            child[parent] += end - start
    totals, top = {}, 0.0
    for i, (kind, start, end, parent, extra) in enumerate(spans):
        t = totals.setdefault(kind, KindTotals())
        t.calls += 1
        t.self_s += (end - start) - child[i]
        if isinstance(extra, tuple):
            t.a += extra[0]
            t.b += extra[1]
        elif isinstance(extra, str):
            t.paths.append(extra)
        elif extra is not None:
            t.a += extra
        if parent < 0:
            top += end - start
    return totals, top


def write_spans(path, phases) -> None:
    """Write ``(phase, spans)`` pairs as CSV, one span per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "part", "index", "kind", "start", "end", "parent"])
        for part, (phase, spans) in enumerate(phases):
            for index, (kind, start, end, parent, _) in enumerate(spans):
                writer.writerow([phase, part, index, kind, f"{start:.9f}", f"{end:.9f}", parent])


class Tracer:
    """Installs span-recording wrappers on the diagmc layers.

    ``stored_entries(op)`` gives the values an operator stores; apply spans
    record ``columns * stored_entries`` for the per-entry cost.
    """

    def __init__(self, stored_entries):
        self.stored_entries = stored_entries
        self.spans = []
        self.peaks = []  # (kind, bytes) from memory mode
        self._stack = []
        self._installed = []

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def install(self, memory: bool = False) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        make = self._memory_wrapper if memory else self._timing_wrapper
        for owner, name, original, kind in list(_targets()):
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__, kind, name))
            else:
                wrapped = make(original, kind, name)
            setattr(owner, name, wrapped)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []

    def _extra(self, kind, name):
        if kind == "operators.apply":
            stored = self.stored_entries

            def columns(args, result):
                cols = result.shape[1] if result.ndim == 2 else 1
                return (cols, cols * stored(args[0]))
            return columns
        return _EXTRA.get(f"{kind}.{name}") or _EXTRA.get(kind)

    def _timing_wrapper(self, fn, kind, name):
        tracer, stack, clock = self, self._stack, time.perf_counter
        extra = self._extra(kind, name)

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == kind:
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((kind, index))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (kind, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (kind, start, end, parent,
                            extra(args, result) if extra else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _memory_wrapper(self, fn, kind, name):
        peaks, stack = self.peaks, self._stack
        traced, reset = tracemalloc.get_traced_memory, tracemalloc.reset_peak

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == kind:
                return fn(*args, **kwargs)
            current, peak = traced()
            if stack and peak > stack[-1][2]:
                stack[-1][2] = peak
            reset()
            frame = [kind, current, current]  # kind, bytes at entry, running peak
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                peak = max(frame[2], traced()[1])
                peaks.append((kind, peak - frame[1]))
                if stack and peak > stack[-1][2]:
                    stack[-1][2] = peak
                reset()

        wrapper.__wrapped__ = fn
        return wrapper
