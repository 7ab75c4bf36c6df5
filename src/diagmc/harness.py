"""Experiment runner, CSV emission and distribution checks.

Four standard experiments reproduce the benchmark studies as flat CSV:

1. Rademacher estimator on the three test families over a theta grid, with
   the normwise bound-curve column (delta = 1e-16 by default).
2. Estimator comparison (Rademacher, Gaussian, sparse s=3, normalized
   Gaussian) on the rank-one family at theta = 0.01.
3. Sparsity sweep s in {1, 3, 10, 50} on the same matrix.
4. Gradient second-moment estimator on the decaying quadratic model, with
   the metric bound-curve column (delta = 0.01 by default).

Every (theta, distribution, N, replicate) cell derives its own stream from
the top-level seed, so runs are schedule-independent and a fixed config
yields a byte-identical CSV.
"""

import csv
import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from . import bounds, probes
from .estimators import (
    DiagonalEstimate,
    QuadraticGradientOracle,
    _run_blocks,
    estimate_dgsm,
    estimate_diagonal,
    normwise_relative_error,
)
from .operators import SymmetricOperator, _check_index, make_test_matrix, TEST_MATRIX_KINDS
from .probes import (
    EstimatorSpec,
    RngState,
    _block_counts,
    _draws_gaussians,
    _words_per_probe,
    derive_seed,
    sample_probe_block,
)
from .special import kolmogorov_critical, kolmogorov_sf, student_t_cdf

__all__ = [
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentRow",
    "KsResult",
    "dgsm_experiment_factor",
    "ks_student_t",
    "normalized_error_samples",
    "parse_estimator_spec",
    "quantile_band",
    "replicate_component_errors",
    "run_experiment",
    "standard_experiment_configs",
    "write_experiment_csv",
]

DEFAULT_N_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _canonical_name(text: str) -> str:
    return text.strip().lower().replace("-", "_")


def parse_estimator_spec(text: str) -> EstimatorSpec:
    """Parse CLI-style names: rademacher, sparse:S, gaussian, normalized-gaussian, dgsm.

    Case, surrounding blanks and ``-`` versus ``_`` in the name do not matter.
    """
    name, colon, arg = text.partition(":")
    name = _canonical_name(name)
    if name != "sparse":
        spec = EstimatorSpec(name)
        if colon:
            raise ValueError(f"estimator {name!r} takes no parameter")
        return spec
    try:
        s = float(arg)
    except ValueError:
        raise ValueError("sparse estimator must be written as sparse:S with a number S") from None
    return EstimatorSpec("sparse", s)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's grid: matrix family, estimators, sample sizes, seeds."""

    experiment: int
    matrix: str
    n: int
    thetas: tuple
    distributions: tuple
    n_grid: tuple = DEFAULT_N_GRID
    replicates: int = 100
    seed: int = 0
    delta: Optional[float] = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicate count must be at least 1")
        min_n = 1 if self.matrix == "dgsm_quadratic" else 2
        if self.n < min_n:
            raise ValueError(f"{self.matrix} needs n >= {min_n}, got {self.n}")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        grid = tuple(int(v) for v in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("the sample-size grid must be strictly increasing")
        if any(v < 1 for v in grid):
            raise ValueError("sample sizes must be positive")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if not all(map(math.isfinite, self.thetas)):
            raise ValueError(f"thetas must be finite, got {self.thetas}")
        if self.matrix in TEST_MATRIX_KINDS:
            lo, hi = TEST_MATRIX_KINDS[self.matrix].theta_range
            for t in self.thetas:
                if not (lo <= t <= hi):
                    warnings.warn(
                        f"theta={t:g} outside the documented range [{lo:g}, {hi:g}] "
                        f"for {self.matrix}",
                        stacklevel=2,
                    )


@dataclass(frozen=True)
class ExperimentRow:
    """One experiment CSV row; its fields are the columns in order, ``n_samples`` for N.

    A replicate row sets ``replicate``, its cell ``seed`` and its ``nre``; an
    aggregate row leaves those None and sets the replicates' ``mean_nre``,
    their 2.5%-97.5% band and, where the experiment has one, ``bound_eps``.
    """

    experiment: int
    matrix: str
    theta: float
    dist: str
    s: Optional[float]
    n_samples: int
    replicate: Optional[int] = None
    seed: Optional[int] = None
    nre: Optional[float] = None
    bound_eps: Optional[float] = None
    q025: Optional[float] = None
    q975: Optional[float] = None
    mean_nre: Optional[float] = None


CSV_COLUMNS = tuple("N" if f.name == "n_samples" else f.name for f in fields(ExperimentRow))


def dgsm_experiment_factor(n: int) -> np.ndarray:
    """Diagonal square-root factor s_j = exp(-10 j / n), j = 1..n."""
    j = np.arange(1, n + 1, dtype=np.float64)
    return np.exp(-10.0 * j / n)


def _experiment_targets(config: ExperimentConfig):
    """Yield (theta, source, exact diagonal, bound curve or None) per theta.

    The DGSM experiment has one target, a gradient oracle, at theta = nan.
    """
    if config.matrix == "dgsm_quadratic":
        factor = dgsm_experiment_factor(config.n)
        oracle = QuadraticGradientOracle(factor)
        curve = None
        if config.delta is not None:
            dc = bounds.quadratic_model_constants(factor)
            curve = lambda n: bounds.epsilon_for_samples_dgsm(dc, n, config.delta)
        yield math.nan, oracle, oracle.second_moment_diag(), curve
        return
    for theta in config.thetas:
        with warnings.catch_warnings():
            # the config warned about an out-of-range theta when it was made
            warnings.filterwarnings("ignore", "theta=", UserWarning)
            op = make_test_matrix(config.matrix, config.n, theta)
        curve = None
        if config.experiment == 1 and config.delta is not None:
            nc = bounds.normwise_constants(op, s=1.0)
            curve = lambda n, nc=nc: bounds.epsilon_for_samples_normwise(nc, n, config.delta)
        yield theta, op, op.exact_diag(), curve


def _estimate(spec: EstimatorSpec, source, n_samples: int, seed: int) -> DiagonalEstimate:
    # a DGSM cell's source is a gradient oracle, every other cell's an operator
    if spec.method == "dgsm":
        return estimate_dgsm(source, n_samples, seed)
    return estimate_diagonal(source, spec, n_samples, seed)


def _run_cells(config: ExperimentConfig):
    records, summaries = [], []
    for ti, (theta, source, exact, curve) in enumerate(_experiment_targets(config)):
        for di, spec in enumerate(config.distributions):
            for ni, n_samples in enumerate(config.n_grid):
                cell = dict(experiment=config.experiment, matrix=config.matrix, theta=theta,
                            dist=spec.label, s=spec.sparsity, n_samples=n_samples)
                nres = []
                for r in range(config.replicates):
                    seed = derive_seed(config.seed, config.experiment, ti, di, ni, r)
                    nres.append(normwise_relative_error(_estimate(spec, source, n_samples, seed), exact))
                    records.append(ExperimentRow(**cell, replicate=r, seed=seed, nre=nres[-1]))
                summaries.append(ExperimentRow(
                    **cell, bound_eps=curve(n_samples) if curve is not None else None,
                    q025=quantile_band(nres, 0.025), q975=quantile_band(nres, 0.975),
                    mean_nre=float(np.mean(nres)),
                ))
    return records, summaries


def run_experiment(config: ExperimentConfig):
    """Run every cell of a config; returns (records, summaries), lists of :class:`ExperimentRow`.

    ``records`` holds one replicate row per (theta, estimator, N, replicate)
    cell, ``summaries`` one aggregate row per (theta, estimator, N).  Cells
    whose replicate mean escapes the [q2.5, q97.5] band (possible for
    strongly skewed small-replicate cells) are flagged with a warning, never
    treated as fatal.
    """
    records, summaries = _run_cells(config)
    skewed = [s for s in summaries if not (s.q025 <= s.mean_nre <= s.q975)]
    if skewed:
        warnings.warn(
            f"{len(skewed)} of {len(summaries)} cells have a replicate mean "
            "outside the 2.5%-97.5% quantile band",
            stacklevel=2,
        )
    return records, summaries


# Per standard experiment: its matrices, estimator names, default replicate
# count, default delta (None: no bound curve) and default theta grid (None:
# five points across each family's documented range; (): no theta grid).
_STANDARD_EXPERIMENTS = {
    1: (("rank1", "decay", "tridiag"), ("rademacher",), 10, 1e-16, None),
    2: (("rank1",), ("rademacher", "gaussian", "sparse:3", "normalized-gaussian"), 100, None, (0.01,)),
    3: (("rank1",), ("rademacher", "sparse:3", "sparse:10", "sparse:50"), 100, None, (0.01,)),
    4: (("dgsm_quadratic",), ("dgsm",), 100, 0.01, ()),
}


def standard_experiment_configs(
    experiment: int,
    seed: int = 0,
    n: int = 100,
    replicates: Optional[int] = None,
    n_grid: Optional[Sequence[int]] = None,
    thetas: Optional[Sequence[float]] = None,
    delta: Optional[float] = None,
) -> list:
    """Default configs for the standard experiments (1-4); a delta or thetas they ignore raises."""
    if experiment not in _STANDARD_EXPERIMENTS:
        raise ValueError(f"unknown experiment id {experiment}; expected 1-4")
    matrices, names, default_replicates, default_delta, default_thetas = _STANDARD_EXPERIMENTS[experiment]
    if delta is not None and default_delta is None:
        raise ValueError(f"experiment {experiment} has no bound curve; delta does not apply")
    if thetas is not None and default_thetas == ():
        raise ValueError(f"experiment {experiment} has no theta grid; thetas do not apply")
    configs = []
    for matrix in matrices:
        theta_grid = thetas if thetas is not None else default_thetas
        if theta_grid is None:
            lo, hi = TEST_MATRIX_KINDS[matrix].theta_range
            theta_grid = np.linspace(lo, hi, 5)
        configs.append(ExperimentConfig(
            experiment=experiment, matrix=matrix, n=n, thetas=theta_grid,
            distributions=tuple(parse_estimator_spec(name) for name in names),
            n_grid=tuple(n_grid) if n_grid is not None else DEFAULT_N_GRID,
            replicates=replicates if replicates is not None else default_replicates,
            seed=seed, delta=delta if delta is not None else default_delta,
        ))
    return configs


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.17g}"
    return str(value)


def write_experiment_csv(path, records, summaries) -> None:
    """Emit replicate rows followed by aggregate rows, every field through ``_fmt``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt(v) for v in vars(row).values()] for row in (*records, *summaries))


def quantile_band(values: Sequence[float], q: float) -> float:
    """Empirical quantile with linear interpolation between order statistics."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("quantile of an empty sample is undefined")
    if not (0.0 <= q <= 1.0):
        raise ValueError("quantile level must lie in [0, 1]")
    return float(np.quantile(values, q, method="linear"))


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov outcome against a Student t null."""

    statistic: float
    p_value: float
    critical_value: float
    alpha: float
    dof: float
    n_samples: int
    passed: bool


def ks_student_t(samples: Sequence[float], dof: int, alpha: float = 0.01) -> KsResult:
    """KS test of standardized errors against the Student t law with ``dof`` dof.

    Callers standardize errors by sqrt(N / sum_{j != i} a_ij^2) first.  A
    single degree of freedom is rejected: the error there is Cauchy and must
    be handled separately.
    """
    if dof < 2:
        raise ValueError("the t-distribution check needs dof >= 2")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    m = samples.size
    if m < 2:
        raise ValueError("need at least two samples")
    cdf = student_t_cdf(samples, float(dof))
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    statistic = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    # Stephens' effective sample-size correction for the asymptotic law
    scale = math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)
    p_value = kolmogorov_sf(scale * statistic)
    critical = kolmogorov_critical(alpha) / scale
    return KsResult(
        statistic=statistic, p_value=p_value, critical_value=critical,
        alpha=alpha, dof=float(dof), n_samples=int(m), passed=statistic <= critical,
    )


def _component_row(op: SymmetricOperator, index: int) -> np.ndarray:
    _check_index(index, op.dim)
    basis = np.zeros(op.dim)
    basis[index] = 1.0
    row = op.apply(basis)
    if not np.isfinite(row).all():
        raise ValueError(f"non-finite matvec values in row {index} of the operator")
    return row


def replicate_component_errors(
    op: SymmetricOperator,
    index: int,
    spec: EstimatorSpec,
    n_samples: int,
    replicates: int,
    seed: Union[int, RngState],
) -> np.ndarray:
    """Signed errors est_i - a_ii over independent replicates of one estimator.

    Replicate r consumes counters [r*N, (r+1)*N) of a single stream, so the
    replicates are disjoint and the study is one pass over probe blocks, which may
    split a replicate.  By symmetry the inner products use only row ``index``,
    so only the probe entries that the row and entry ``index`` read are drawn, a
    run of consecutive blocks per sampler call: as many blocks as keep the run's
    filled entries within those of one block of whole vectors and its raw words
    within the 32 MiB block budget, one block at least.  Each block of the run is
    reduced on its own, so the errors equal those of block-by-block draws bit for
    bit.  Non-finite sums are refused as
    :func:`~diagmc.estimators.estimate_diagonal` refuses them.
    """
    return _row_errors(_component_row(op, index), index, spec, n_samples, replicates, seed)


def _row_hull(row: np.ndarray, index: int) -> slice:
    # the probe entries a row study reads: the hull of the row's nonzeros and entry ``index``
    reads = np.append(np.flatnonzero(row), index)
    return slice(int(reads.min()), int(reads.max()) + 1)


def _run_probes(spec: EstimatorSpec, n: int, hull: slice, block: int) -> int:
    # How many probes a row study draws in one call: a run of whole blocks, as many
    # as keep the run's filled entries within one block of whole vectors (n x block)
    # and its raw words within _BLOCK_BYTES, one block at least.  The filled entries
    # cover the hull in whole units of the family, as sample_probe_block fills them
    # (Gaussian pairs, 64-entry Rademacher words, single sparse entries), so a
    # cover that spans the whole row takes one block.
    per_word, align = (1, 2) if _draws_gaussians(spec) else (64, 64) if spec.sparsity == 1.0 else (1, 1)
    lo, hi = hull.start - hull.start % align, min(n, -(-hull.stop // align) * align)
    words = 8 * _words_per_probe(n, per_word) * block
    return block * max(1, min(n // (hi - lo), probes._BLOCK_BYTES // words))


def _row_errors(row, index, spec, n_samples, replicates, seed) -> np.ndarray:
    # replicate_component_errors given row ``index`` of the operator
    if n_samples < 1 or replicates < 1:
        raise ValueError("n_samples and replicates must be positive")
    normalized = spec.method == "normalized_gaussian"
    num = np.zeros(replicates)
    den = np.zeros(replicates) if normalized else np.full(replicates, float(n_samples))
    n, total = row.size, replicates * n_samples
    hull = _row_hull(row, index)
    rows = None if hull.stop - hull.start == n else hull
    block = next(_block_counts(n, total))
    per_run = _run_probes(spec, n, hull, block)
    state = seed if isinstance(seed, RngState) else RngState(int(seed))

    def blocks(state):
        # the stream's blocks in order, as _block_counts cuts it, one draw a run of them
        for first in range(0, total, per_run):
            run, state = sample_probe_block(spec, n, state, min(per_run, total - first), rows=rows)
            for j in range(0, run.shape[1], block):
                yield run[:, j : j + block]

    stream, zeros = blocks(state), None

    def draw(state, count):
        nonlocal zeros
        vectors = next(stream)
        if rows is not None:
            # zeros elsewhere, so that the product below runs the operations of a whole block
            if zeros is None or zeros.shape[1] != count:
                zeros = np.zeros((n, count))
            zeros[hull] = vectors
            vectors = zeros
        return row @ vectors, vectors[index], state.advance(count)

    def reduce(first, products, entries):
        lo = first // n_samples
        owner = np.arange(first, first + entries.size) // n_samples - lo
        reps = slice(lo, lo + owner[-1] + 1)
        num[reps] += np.bincount(owner, products * entries)
        if normalized:
            den[reps] += np.bincount(owner, entries ** 2)
        return num[reps]

    _run_blocks(n, draw, reduce, total, state)
    return num / den - float(row[index])


def normalized_error_samples(
    op: SymmetricOperator,
    index: int,
    n_samples: int,
    replicates: int,
    seed: Union[int, RngState],
) -> np.ndarray:
    """Standardized normalized-estimator errors for the t-distribution check.

    Returns (est_i - a_ii) * sqrt(N / sum_{j != i} a_ij^2) over replicates,
    which is t-distributed with N degrees of freedom.  Non-finite sums are refused
    as in :func:`replicate_component_errors`, and so is an off-diagonal mass
    that overflows or is 0.
    """
    row = _component_row(op, index)
    off = np.delete(row, index)
    with np.errstate(over="ignore", under="ignore"):  # a square out of range is refused below
        off2sq = float(off @ off)
    if not math.isfinite(off2sq):
        raise ValueError(f"the squared off-diagonal mass of component {index} overflows")
    if off2sq == 0.0:
        raise ValueError(f"component {index} has no off-diagonal mass, or its squares underflow to 0")
    errors = _row_errors(row, index, EstimatorSpec("normalized_gaussian"), n_samples, replicates, seed)
    return errors * math.sqrt(n_samples / off2sq)
