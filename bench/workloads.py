"""The benchmark workloads: operations, their output checks and their sizes.

A workload is driven through the package's public entry points only:
``diagmc.cli.main(argv)``, ``load_matrix_market``, ``estimate_diagonal`` /
``estimate_diagonal_normalized`` and ``normalized_error_samples`` with
``ks_student_t``.  Entry points are looked up on their module at call time, so
a tracer that has swapped them in is seen.

The checks hold for any valid probe stream: they compare against
probabilistic bounds whose false-alarm chance is stated next to each, never
against recorded digits.
"""

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import diagmc
import diagmc.cli
import diagmc.harness

from inputs import GENERATORS

class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class OpResult:
    kind: str
    seconds: float
    vectors: int
    loads: int
    error: Optional[str]


@dataclass
class Op:
    """One operation: a program call and the check of what it returned."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    vectors: int = 0  # probe vectors the operation asks the program for
    loads: int = 0  # Matrix Market files the program parses for it


def execute(op: Op):
    """Run an operation; returns (output, error, seconds)."""
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # any error of the program fails this operation only
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


def verify(op: Op, out, error: Optional[str]) -> Optional[str]:
    """Check an operation's output unless it already failed; returns the error."""
    if error is None:
        try:
            op.check(out)
        except Exception as exc:  # a malformed output fails its check
            error = f"check failed: {type(exc).__name__}: {exc}"
    return error


def run_ops(ops) -> list:
    """Run and check operations in turn; only the program calls are timed."""
    results = []
    for op in ops:
        out, error, seconds = execute(op)
        results.append(OpResult(op.kind, seconds, op.vectors, op.loads, verify(op, out, error)))
    return results


def run_round(workload, r: int) -> list:
    return run_ops(workload.round(r))


def run_cli(argv: list) -> tuple[int, str]:
    """``diagmc.cli.main`` in-process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = diagmc.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _sub_seed(seed: int, *labels: int) -> int:
    return diagmc.derive_seed(seed, *labels) % (2**31)


def _bisect_threshold(tail: Callable[[float], float], target: float) -> float:
    """Smallest t (to 1e-9 relative) with the decreasing ``tail(t) <= target``."""
    lo, hi = 1e-9, 1.0
    while tail(hi) > target:
        hi *= 2.0
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(mid) <= target else (mid, hi)
    return hi


def binomial_limit(trials: int, p: float, tail: float) -> int:
    """Smallest k with P[Binomial(trials, p) > k] < tail."""
    cdf = 0.0
    for k in range(trials + 1):
        cdf += math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        if 1.0 - cdf < tail:
            return k
    return trials


class Workload:
    name = ""
    tail_pct = 50.0  # latency percentile reported as cmd_tail_ms
    probe_apply_match = False  # every probe drawn is applied by the operator
    file_entries = None  # entries of the Matrix Market file the program parses

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def setup(self) -> list:
        """Program work before the first timed operation; returns counted ops."""
        return []

    def prepare_checks(self) -> None:
        """Reference data for the checks, built after set-up is timed."""

    def round(self, r: int):
        """Yield round ``r``'s operations; each runs before the next is made."""
        raise NotImplementedError

    def finish(self) -> int:
        """Checks over the whole run; returns the number of failed operations."""
        return 0

    def stored_entries(self, op) -> int:
        """Values an operator stores: the packed triangle for dense storage, else n."""
        n = op.dim
        return n * (n + 1) // 2 if isinstance(op, diagmc.DenseSymmetric) else n

    def sizes(self) -> dict:
        return {}


class Paper(Workload):
    """Standard experiments 1-4 through the CLI, then the t-law study."""

    name = "paper"
    tail_pct = 75.0
    n, n_grid = 100, (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    replicates = (2, 5, 5, 5)  # per experiment 1-4
    suites = 5  # t-law suites per round
    TLAW_N, TLAW_INDEX, TLAW_DIM, TLAW_REPLICATES, KS_ALPHA = 10, 10, 20, 10**4, 0.01

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ks = []  # whether each t-law suite passed its KS test

    def setup(self):
        self.tlaw_op = diagmc.make_test_matrix("tridiag", self.TLAW_DIM, 0.5)
        return []

    def _cells(self, eid: int) -> int:
        per_grid = {1: 3 * 5, 2: 4, 3: 4, 4: 1}[eid]
        return per_grid * len(self.n_grid)

    def round(self, r):
        for eid, reps in zip((1, 2, 3, 4), self.replicates):
            out = self.workdir / f"experiment_{eid}.csv"
            argv = ["experiment", "--id", eid, "--replicates", reps, "--n", self.n,
                    "--n-grid", ",".join(map(str, self.n_grid)),
                    "--seed", _sub_seed(self.seed, r, eid), "--out", out]
            yield Op(
                f"experiment-{eid}",
                run=lambda argv=argv: run_cli(argv),
                check=lambda res, eid=eid, reps=reps, out=out: self._check_experiment(res, eid, reps, out),
                vectors=self._cells(eid) // len(self.n_grid) * reps * sum(self.n_grid),
            )
        for k in range(self.suites):
            seed = _sub_seed(self.seed, r, 100 + k)
            yield Op("t-law", run=lambda seed=seed: self._suite(seed), check=self._check_suite,
                     vectors=self.TLAW_REPLICATES * self.TLAW_N)

    def _suite(self, seed):
        samples = diagmc.harness.normalized_error_samples(
            self.tlaw_op, self.TLAW_INDEX, self.TLAW_N, self.TLAW_REPLICATES, seed)
        return diagmc.harness.ks_student_t(samples, self.TLAW_N, self.KS_ALPHA)

    def _check_suite(self, ks):
        require(ks.n_samples == self.TLAW_REPLICATES, f"KS used {ks.n_samples} samples")
        require(math.isfinite(ks.statistic) and 0.0 <= ks.statistic <= 1.0,
                f"KS statistic {ks.statistic}")
        self.ks.append(ks.passed)

    def _check_experiment(self, res, eid, reps, out):
        code, _ = res
        require(code == 0, f"experiment {eid} exited {code}")
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        agg = [row for row in rows if row["replicate"] == ""]
        cells = self._cells(eid)
        require(len(agg) == cells, f"experiment {eid}: {len(agg)} aggregate rows, expected {cells}")
        require(len(rows) - len(agg) == cells * reps,
                f"experiment {eid}: {len(rows) - len(agg)} replicate rows, expected {cells * reps}")
        if eid in (1, 4):
            # the bound curve holds with probability 1 - delta (1e-16 and 0.01
            # per cell); the seed code's smallest margin is 3.3x
            for row in agg:
                require(float(row["bound_eps"]) >= float(row["mean_nre"]),
                        f"experiment {eid}: bound {row['bound_eps']} < mean error {row['mean_nre']}")
        else:
            # error falls as 1/sqrt(N): 16x over the default grid; require half
            first, last = str(self.n_grid[0]), str(self.n_grid[-1])
            need = 0.5 * math.sqrt(self.n_grid[-1] / self.n_grid[0])
            for dist in {row["dist"] for row in agg}:
                nre = {row["N"]: float(row["mean_nre"]) for row in agg if row["dist"] == dist}
                require(nre[first] >= need * nre[last],
                        f"experiment {eid} {dist}: error fell {nre[first] / nre[last]:.2f}x, need {need:g}x")

    def finish(self):
        # each suite rejects a true t law with probability alpha; fail the run
        # only past a count a correct program exceeds with probability < 1e-6
        rejected = self.ks.count(False)
        return rejected if rejected > binomial_limit(len(self.ks), self.KS_ALPHA, 1e-6) else 0

    def sizes(self):
        return {"n": self.n, "n_grid": list(self.n_grid),
                "replicates_per_experiment": list(self.replicates),
                "tlaw": {"matrix": f"tridiag:{self.TLAW_DIM}:0.5", "index": self.TLAW_INDEX,
                         "N": self.TLAW_N, "replicates": self.TLAW_REPLICATES,
                         "suites_per_round": self.suites, "alpha": self.KS_ALPHA}}


class _FileWorkload(Workload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.path = self.workdir / f"{self.name}.mtx"
        self._entries = None

    @property
    def entries(self):
        """The generated matrix, rebuilt from the seed on first use."""
        if self._entries is None:
            self._entries = GENERATORS[self.name](self.seed)
        return self._entries

    @property
    def file_entries(self):
        return self.entries.nnz

    def sizes(self):
        return {"n": self.entries.n, "stored_entries": self.entries.nnz,
                "file_bytes": self.path.stat().st_size}


class SparseLarge(_FileWorkload):
    """One CooSymmetric load, then N=64 estimates over four estimators."""

    name = "sparse-large"
    tail_pct = 60.0
    probe_apply_match = True
    METHODS = ("rademacher", "gaussian", "sparse:3", "normalized-gaussian")
    N_SAMPLES = 64
    CHECK_DELTA = 1e-9  # chance that a correct estimate fails its check

    def setup(self):
        return [Op("load", run=self._load, check=self._check_load, loads=1)]

    def _load(self):
        self.op = diagmc.load_matrix_market(self.path)
        return self.op

    def _check_load(self, op):
        require(isinstance(op, diagmc.CooSymmetric), f"loaded as {type(op).__name__}")
        require(op.dim == self.entries.n, f"dimension {op.dim}")
        require(np.array_equal(op.exact_diag(), self.diag), "diagonal differs from the file")

    def stored_entries(self, op):
        if isinstance(op, diagmc.CooSymmetric):
            return self.entries.nnz
        return super().stored_entries(op)

    def prepare_checks(self):
        """Union-bounded (over n) error thresholds, one per estimator."""
        e = self.entries
        self.diag = e.diagonal()
        off_sq, off_abs = e.row_sums()
        col_sq = self.diag**2 + off_sq
        worst = diagmc.ComponentConstants(  # every tail bound grows with these
            index=0, a_ii=float(np.max(self.diag)), col_norm=float(np.sqrt(np.max(col_sq))),
            off2sq=float(np.max(off_sq)),
            l1=float(np.max(np.abs(self.diag) + np.sqrt(col_sq))),
            l2=float(np.max(self.diag**2 + col_sq)),
            delta1i=math.nan, delta2i=math.nan, psi=None,
        )
        n, N, target = e.n, self.N_SAMPLES, self.CHECK_DELTA
        self.thresholds = {}
        for method in ("rademacher", "gaussian", "normalized-gaussian"):
            key = method.replace("-", "_")
            self.thresholds[method] = _bisect_threshold(
                lambda t: n * diagmc.component_tail_bound(worst, key, N, t, clamp=False), target)
        # sparse s=3 has no componentwise bound in the package; use Bernstein
        # with its per-sample variance off2sq + (s-1) a_ii^2 and summand range
        # (s-1)|a_ii| + s sum_j |a_ij|
        s = 3.0
        var = float(np.max(off_sq + (s - 1.0) * self.diag**2))
        rng = float(np.max((s - 1.0) * np.abs(self.diag) + s * off_abs))
        log_term = 2.0 * math.log(2.0 * n / target)
        b = log_term * rng / 3.0
        self.thresholds["sparse:3"] = (b + math.sqrt(b * b + 4.0 * N * log_term * var)) / (2.0 * N)

    def round(self, r):
        for k, method in enumerate(self.METHODS):
            seed = _sub_seed(self.seed, r, k)
            yield Op(f"estimate-{method}",
                     run=lambda method=method, seed=seed: self._estimate(method, seed),
                     check=lambda res, method=method: self._check_estimate(res, method),
                     vectors=self.N_SAMPLES)

    def _estimate(self, method, seed):
        if method == "normalized-gaussian":
            est = diagmc.estimate_diagonal_normalized(self.op, self.N_SAMPLES, seed)
        else:
            dist = {"rademacher": diagmc.rademacher, "gaussian": diagmc.gaussian,
                    "sparse:3": lambda: diagmc.sparse_rademacher(3)}[method]()
            est = diagmc.estimate_diagonal(self.op, dist, self.N_SAMPLES, seed)
        return est.n_samples, est.value

    def _check_estimate(self, res, method):
        n_samples, value = res
        require(n_samples == self.N_SAMPLES, f"{method}: {n_samples} samples")
        require(value.shape == self.diag.shape, f"{method}: shape {value.shape}")
        worst = float(np.max(np.abs(value - self.diag)))
        require(worst <= self.thresholds[method],
                f"{method}: max error {worst:.4g} > threshold {self.thresholds[method]:.4g}")

    def sizes(self):
        return {**super().sizes(), "estimators": list(self.METHODS),
                "N_per_call": self.N_SAMPLES}


class CliDense(_FileWorkload):
    """A fixed list of ``diagmc`` commands, each reparsing the banded file."""

    name = "cli-dense"
    tail_pct = 75.0
    probe_apply_match = True
    EPS, DELTA = 0.1, 1e-6

    def prepare_checks(self):
        self.diag = self.entries.diagonal()
        self.component = _sub_seed(self.seed, 7) % self.entries.n

    def _commands(self):
        mtx, target = ["--matrix-file", self.path], ["--eps", self.EPS, "--delta", self.DELTA]
        comp = ["--component", self.component]
        yield "bounds-rademacher", ["bounds", "--dist", "rademacher", *mtx], 0
        yield "bounds-sparse", ["bounds", "--dist", "sparse:3", *mtx], 0
        yield "bounds-component", ["bounds", *comp, *mtx], 0
        yield "plan-rademacher", ["plan", "--dist", "rademacher", *target, *mtx], 0
        yield "plan-sparse", ["plan", "--dist", "sparse:3", *target, *mtx], 0
        # 8 e ln n <= N <= n cannot hold at this eps, delta: infeasible, exit 3
        yield "plan-gaussian-normwise", ["plan", "--dist", "gaussian-normwise", *target, *mtx], 3
        for dist in ("rademacher", "gaussian", "normalized-gaussian"):
            yield f"plan-component-{dist}", ["plan", "--dist", dist, *comp, *target, *mtx], 0

    def round(self, r):
        self.planned = None
        for kind, argv, expected in self._commands():
            yield Op(kind, run=lambda argv=argv: run_cli(argv),
                     check=lambda res, kind=kind, expected=expected: self._check_command(res, kind, expected),
                     loads=1)
        out = self.workdir / "diagonal.csv"
        planned = self.planned
        argv = ["estimate", "--dist", "rademacher", "--samples", planned,
                "--seed", _sub_seed(self.seed, r, 0), "--out", out, "--matrix-file", self.path]
        yield Op("estimate", run=lambda: self._estimate(argv, planned),
                 check=lambda res: self._check_estimate(res, planned, out),
                 vectors=planned or 0, loads=1)

    @staticmethod
    def _estimate(argv, planned):
        require(planned is not None, "no planned sample count to estimate with")
        return run_cli(argv)

    def _check_command(self, res, kind, expected):
        code, text = res
        require(code == expected, f"{kind} exited {code}, expected {expected}")
        lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        if kind.startswith("plan") and expected == 0:
            require(int(lines["N"]) >= 1, f"{kind}: N = {lines['N']}")
            if kind == "plan-rademacher":
                self.planned = int(lines["N"])
        if kind == "bounds-component":
            a_ii = float(lines["a_ii"])
            require(a_ii == self.diag[self.component], f"a_ii = {a_ii} differs from the file")
        if kind in ("bounds-rademacher", "bounds-sparse"):
            require(float(lines["K1"]) > 0.0, f"{kind}: K1 = {lines['K1']}")

    def _check_estimate(self, res, planned, out):
        code, _ = res
        require(code == 0, f"estimate exited {code}")
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        require(data.shape == (self.entries.n, 4), f"estimate CSV has shape {data.shape}")
        scale = float(np.max(np.abs(self.diag)))
        require(np.array_equal(data[:, 2], self.diag), "exact column differs from the file")
        # the plan guarantees this with probability 1 - delta = 1 - 1e-6
        err = float(np.max(np.abs(data[:, 1] - self.diag))) / scale
        require(err <= self.EPS, f"normwise error {err:.4g} > eps {self.EPS} at N = {planned}")

    def sizes(self):
        return {**super().sizes(), "eps": self.EPS, "delta": self.DELTA,
                "component": self.component, "commands_per_round": 10}


WORKLOADS = {cls.name: cls for cls in (Paper, SparseLarge, CliDense)}
