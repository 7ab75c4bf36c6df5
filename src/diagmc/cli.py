"""Command-line interface.

Subcommands::

    estimate    run a diagonal estimate and write index,estimate,exact,abs_err CSV
    plan        print the sample count for an (eps, delta) target, plus constants
    bounds      print the bound constants applicable to a matrix / estimator
    experiment  run one of the standard experiments (1-4) and write its CSV

Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible plan.
The environment variable ``DIAGMC_OUTPUT_DIR`` sets the default output
directory for generated CSV files.
"""

import argparse
import ctypes
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .estimators import DegenerateProbeError, estimate_diagonal
from .harness import (
    _canonical_name,
    parse_estimator_spec,
    run_experiment,
    standard_experiment_configs,
    write_experiment_csv,
)
from .matrixmarket import MatrixMarketError, load_matrix_market
from .operators import TEST_MATRIX_KINDS, UnsupportedOperationError, make_test_matrix
from .probes import _BLOCK_BYTES

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# --dist names a planner here, not an estimator
_GAUSSIAN_NORMWISE = "gaussian_normwise"
_NORMWISE_NAMES = (*bounds_mod.NORMWISE_METHODS, _GAUSSIAN_NORMWISE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _parse_test_matrix(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError("test-matrix spec must be kind:n:theta, e.g. tridiag:100:0.5")
    kind, n_text, theta_text = parts
    if kind not in TEST_MATRIX_KINDS:
        raise UsageError(
            f"unknown test-matrix kind {kind!r}; choose from {sorted(TEST_MATRIX_KINDS)}"
        )
    try:
        n = int(n_text)
        theta = float(theta_text)
    except ValueError:
        raise UsageError(f"cannot parse test-matrix spec {spec!r}") from None
    return make_test_matrix(kind, n, theta)


def _load_operator(args):
    if getattr(args, "test_matrix", None):
        return _parse_test_matrix(args.test_matrix)
    if getattr(args, "matrix_file", None):
        try:
            return load_matrix_market(args.matrix_file)
        except MatrixMarketError as exc:
            raise DataError(f"cannot parse {args.matrix_file}: {exc}") from None
        except OSError as exc:
            raise DataError(f"cannot read {args.matrix_file}: {exc}") from None
    raise UsageError("provide --test-matrix or --matrix-file")


def _parse_dist(text: str, accepted: tuple, what: str):
    """The estimator named by ``--dist``; ``accepted`` lists the names ``what`` takes."""
    try:
        spec = parse_estimator_spec(text)
    except ValueError as exc:
        raise UsageError(f"--dist {text!r}: {exc}") from None
    if spec.method not in accepted:
        names = ("sparse:S" if m == "sparse" else m.replace("_", "-") for m in accepted)
        raise UsageError(f"{what} supports --dist {', '.join(names)}; got {text!r}")
    return spec


def _default_out(name: str) -> Path:
    base = os.environ.get("DIAGMC_OUTPUT_DIR", ".")
    return Path(base) / name


def _cmd_estimate(args) -> int:
    op = _load_operator(args)
    spec = _parse_dist(
        args.dist, ("rademacher", "sparse", "gaussian", "normalized_gaussian"), "estimate"
    )
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    values, exact = estimate_diagonal(op, spec, args.samples, args.seed).value, op.exact_diag()
    out = Path(args.out) if args.out else _default_out("diagonal.csv")
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("index,estimate,exact,abs_err\n")
            for i, v in enumerate(values):
                fh.write(f"{i},{v:.17g},{exact[i]:.17g},{abs(v - exact[i]):.17g}\n")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None
    print(f"wrote {len(values)} diagonal estimates to {out}")
    return EXIT_OK


def _print_normwise(nc) -> None:
    print(f"K1 = {nc.k1:.17g}")
    print(f"K2 = {nc.k2:.17g}")
    print(f"d = {nc.d:.17g}")
    print(f"Delta1 = {nc.delta1:.17g}")
    print(f"Delta2 = {nc.delta2:.17g}")
    print(f"norm_DA = {nc.norm_da:.17g}")


def _print_component(cc) -> None:
    print(f"a_ii = {cc.a_ii:.17g}")
    print(f"col_norm = {cc.col_norm:.17g}")
    print(f"off2sq = {cc.off2sq:.17g}")
    print(f"L1 = {cc.l1:.17g}")
    print(f"L2 = {cc.l2:.17g}")
    print(f"Delta1i = {cc.delta1i:.17g}")
    print(f"Delta2i = {cc.delta2i:.17g}")
    print(f"Psi = {'undefined (diagonal row)' if cc.psi is None else format(cc.psi, '.17g')}")


def _cmd_constants(args) -> int:
    """``bounds`` prints the bound constants; ``plan`` prints the sample count first."""
    op, plan = _load_operator(args), args.command == "plan"
    what = "planning" if plan else "bounds"
    if args.component is not None:
        spec = _parse_dist(args.dist, bounds_mod.COMPONENT_METHODS, f"componentwise {what}")
        cc = bounds_mod.component_constants(op, args.component)
        if plan:
            print(f"N = {bounds_mod.plan_samples_component(cc, spec.method, args.eps, args.delta)}")
        _print_component(cc)
        return EXIT_OK
    if _canonical_name(args.dist) == _GAUSSIAN_NORMWISE:
        if not plan:
            ratio, window_low, n = bounds_mod.gaussian_normwise_window(op)
            print(f"norm_ratio = {ratio:.17g}")
            print(f"window = [{window_low:.17g}, {n}]")
            return EXIT_OK
        gn = bounds_mod.plan_samples_gaussian_normwise(op, args.eps, args.delta)
        print(f"required (pre-window) = {gn.required:.17g}")
        print(f"window = [{gn.window_low:.17g}, {gn.window_high}]")
        if not gn.feasible:
            print(f"infeasible: {gn.violation}")
            return EXIT_INFEASIBLE
        print(f"N = {gn.n_samples}")
        return EXIT_OK
    spec = _parse_dist(args.dist, _NORMWISE_NAMES, f"normwise {what}")
    nc = bounds_mod.normwise_constants(op, s=spec.sparsity)
    if plan:
        print(f"N = {bounds_mod.plan_samples_normwise(nc, args.eps, args.delta)}")
    elif nc.is_diagonal:
        print("matrix is diagonal: a single Rademacher sample is exact")
    _print_normwise(nc)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    grid = None
    if args.n_grid:
        try:
            grid = tuple(int(tok) for tok in args.n_grid.split(","))
        except ValueError:
            raise UsageError("--n-grid must be a comma-separated integer list") from None
    thetas = None
    if args.thetas:
        try:
            thetas = tuple(float(tok) for tok in args.thetas.split(","))
        except ValueError:
            raise UsageError("--thetas must be a comma-separated float list") from None
    try:
        configs = standard_experiment_configs(
            args.id, seed=args.seed, n=args.n, replicates=args.replicates,
            n_grid=grid, thetas=thetas, delta=args.delta,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = Path(args.out) if args.out else _default_out(f"experiment_{args.id}.csv")
    records, summaries = [], []
    for config in configs:
        r, s = run_experiment(config)
        records.extend(r)
        summaries.extend(s)
    try:
        write_experiment_csv(out, records, summaries)
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None
    print(f"wrote {len(records)} replicate rows and {len(summaries)} aggregate rows to {out}")
    return EXIT_OK


def _add_matrix_args(parser) -> None:
    parser.add_argument("--test-matrix", help="kind:n:theta (kinds: rank1, decay, tridiag)")
    parser.add_argument("--matrix-file", help="Matrix Market file (.mtx)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diagmc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a matrix diagonal")
    _add_matrix_args(p_est)
    p_est.add_argument("--dist", default="rademacher",
                       help="rademacher | sparse:S | gaussian | normalized-gaussian")
    p_est.add_argument("--samples", type=int, required=True)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--out", help="output CSV path")
    p_est.set_defaults(func=_cmd_estimate)

    for name, text in (("plan", "sample count for an (eps, delta) target"),
                       ("bounds", "print bound constants")):
        p_cmd = sub.add_parser(name, help=text)
        _add_matrix_args(p_cmd)
        p_cmd.add_argument("--dist", default="rademacher",
                           help="rademacher | sparse:S | gaussian-normwise, or a "
                                "componentwise method with --component")
        if name == "plan":
            p_cmd.add_argument("--eps", type=float, required=True)
            p_cmd.add_argument("--delta", type=float, required=True)
        p_cmd.add_argument("--component", type=int, help=(
            "0-based index for componentwise planning" if name == "plan" else None))
        p_cmd.set_defaults(func=_cmd_constants)

    p_exp = sub.add_parser("experiment", help="run a standard experiment")
    p_exp.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p_exp.add_argument("--out", help="output CSV path")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--n", type=int, default=100)
    p_exp.add_argument("--replicates", type=int)
    p_exp.add_argument("--n-grid", help="comma-separated sample sizes")
    p_exp.add_argument("--thetas", help="comma-separated theta values")
    p_exp.add_argument("--delta", type=float)
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def _keep_freed_blocks() -> None:
    # A block of up to _BLOCK_BYTES per array is freed after every block; glibc
    # would hand it back to the kernel and fault it in again for the next one.
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except OSError:  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, _BLOCK_BYTES)  # M_MMAP_THRESHOLD: smaller arrays come from the heap
    mallopt(-1, 2 * _BLOCK_BYTES)  # M_TRIM_THRESHOLD: and stay there once freed


def main(argv=None) -> int:
    _keep_freed_blocks()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, UnsupportedOperationError, DegenerateProbeError,
            IndexError) as exc:  # IndexError: a --component out of range
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
