"""diagmc benchmark: one workload per invocation, each run in fresh processes.

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.bench_work/`` before anything is
timed, and removed afterwards.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` the per-layer ones,
from a run that alternates untraced and traced rounds.  The line before it
records provenance, input sizes, sample counts and the self-checks.

Workloads (see README.md for why each was chosen):

* ``paper``: standard experiments 1-4 through the CLI, then the t-law study;
* ``sparse-large``: one n = 50,000 CooSymmetric load, then N = 64 estimates;
* ``cli-dense``: ten ``diagmc`` commands on an n = 2000 banded file.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported, here and in the workers

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from inputs import GENERATORS, write_matrix_market  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "sparse-large", "cli-dense")
# set-up is timed in this many fresh processes and the median reported; a
# short set-up (imports only) is noisier, so it is sampled more often
SETUP_SAMPLES = {"paper": 11, "sparse-large": 5, "cli-dense": 11}
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_worker(args, workdir: Path, mode: str, deadline: float, spans_out: Path = None) -> dict:
    out = workdir / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--input-dir", str(workdir), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--out", str(out)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}
    try:
        # worker output goes to stderr, so the result stays the last stdout line
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(environment: dict) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "environment_in_worker": environment,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "diagmc" / "__init__.py").is_file():
        print(f"no diagmc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = {}
        if args.workload in GENERATORS:
            entries = GENERATORS[args.workload](args.seed)
            path = workdir / f"{args.workload}.mtx"
            inputs = {"file": path.name, "bytes": write_matrix_market(entries, path),
                      "n": entries.n, "entries": entries.nnz}
        setups = []
        if not args.trace:
            setups = [run_worker(args, workdir, "setup", deadline) for _ in range(SETUP_SAMPLES[args.workload] - 1)]
        spans_out = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        main_run = run_worker(args, workdir, "run", deadline, spans_out)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = [*setups, main_run]
    metrics = dict(main_run["metrics"])
    setup_samples = [r["setup_s"] for r in reports]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_samples), "s")
    errors = [e for r in reports for e in r["errors"]]
    failed = (len(errors) + main_run["collective_failures"]
              + len(main_run.get("failed_self_checks", [])))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(main_run["environment"]),
        "inputs": inputs, "sizes": main_run["sizes"],
        "setup_samples_s": setup_samples,
        "latency": main_run.get("latency"), "trace_detail": main_run.get("trace"),
        "spans_file": str(spans_out.relative_to(ROOT)) if spans_out else None,
        "errors": errors[:20], "collective_failures": main_run["collective_failures"],
        "failed_self_checks": main_run.get("failed_self_checks", []),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
