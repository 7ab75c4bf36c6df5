"""Seeded probe-vector generation for Monte Carlo diagonal estimation.

Three probe families are supported: Rademacher (entries are random signs),
sparse Rademacher with sparsity parameter ``s`` (entries in {-sqrt(s), 0,
+sqrt(s)} with probabilities {1/(2s), 1 - 1/s, 1/(2s)}), and standard
Gaussian.  All families have zero mean and unit variance per entry; their
per-entry fourth moments are 1, s and 3 respectively.

Probes are addressed by a ``(seed, counter)`` pair.  Probe ``k`` of a stream
is synthesised from a fixed window of raw Philox words, so any sub-range of
a stream can be regenerated independently of batch boundaries, threads or
the order in which other probes were drawn.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import Philox

__all__ = [
    "GAUSSIAN",
    "RADEMACHER",
    "SPARSE_RADEMACHER",
    "ProbeDistribution",
    "ProbeMoments",
    "RngState",
    "derive_seed",
    "gaussian",
    "probe_moments",
    "rademacher",
    "sample_probe",
    "sample_probe_block",
    "sample_uniform_block",
    "sparse_rademacher",
    "validate_sparsity",
]

RADEMACHER = "rademacher"
SPARSE_RADEMACHER = "sparse_rademacher"
GAUSSIAN = "gaussian"

_MASK64 = (1 << 64) - 1
# float in [0, 1) from the top 53 bits of a word
_INV53 = 2.0**-53


def validate_sparsity(s: float) -> float:
    """Check a sparse-Rademacher sparsity parameter.

    Valid values are ``s = 1`` and any real ``s >= 2``.  Values strictly
    between 1 and 2 are rejected: the sparse tail bounds need an integer
    parameter there, and the open interval contains none.
    """
    s = float(s)
    if not math.isfinite(s) or s < 1.0:
        raise ValueError(f"sparsity parameter must satisfy s >= 1, got {s}")
    if 1.0 < s < 2.0:
        raise ValueError(
            f"sparsity parameter s={s} in (1, 2) is not supported; "
            "use s = 1 or any s >= 2"
        )
    return s


@dataclass(frozen=True)
class ProbeDistribution:
    """Law of a probe vector's i.i.d. entries.

    ``kind`` is one of :data:`RADEMACHER`, :data:`SPARSE_RADEMACHER`,
    :data:`GAUSSIAN`.  ``s`` is the sparsity parameter and is meaningful
    only for the sparse family; ``sparse_rademacher(1)`` coincides with
    ``rademacher()`` draw for draw.
    """

    kind: str
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in (RADEMACHER, SPARSE_RADEMACHER, GAUSSIAN):
            raise ValueError(f"unknown probe distribution kind: {self.kind!r}")
        if self.kind == SPARSE_RADEMACHER:
            object.__setattr__(self, "s", validate_sparsity(self.s))
        elif self.s != 1.0:
            raise ValueError(f"{self.kind} takes no sparsity parameter")

    @property
    def label(self) -> str:
        if self.kind == SPARSE_RADEMACHER:
            return f"sparse(s={self.s:g})"
        return self.kind


def rademacher() -> ProbeDistribution:
    """Entries +-1 with probability 1/2 each."""
    return ProbeDistribution(RADEMACHER)


def sparse_rademacher(s: float) -> ProbeDistribution:
    """Entries in {-sqrt(s), 0, +sqrt(s)} with probabilities {1/(2s), 1-1/s, 1/(2s)}."""
    return ProbeDistribution(SPARSE_RADEMACHER, float(s))


def gaussian() -> ProbeDistribution:
    """Standard normal entries."""
    return ProbeDistribution(GAUSSIAN)


class ProbeMoments(NamedTuple):
    mean: float
    variance: float
    fourth_moment: float


def probe_moments(dist: ProbeDistribution) -> ProbeMoments:
    """Analytic per-entry moments (mean, variance, fourth moment)."""
    if dist.kind == GAUSSIAN:
        m4 = 3.0
    elif dist.kind == SPARSE_RADEMACHER:
        m4 = dist.s
    else:
        m4 = 1.0
    return ProbeMoments(0.0, 1.0, m4)


@dataclass(frozen=True)
class RngState:
    """Position in a probe stream: a 64-bit seed plus a probe counter.

    States are values; drawing returns an advanced copy instead of mutating.
    Independent workers may own disjoint counter ranges of the same seed, or
    entirely separate seeds derived with :func:`derive_seed`.
    """

    seed: int
    counter: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        counter = int(self.counter)
        if counter < 0:
            raise ValueError("stream counter must be nonnegative")
        object.__setattr__(self, "counter", counter)

    def advance(self, count: int) -> "RngState":
        return RngState(self.seed, self.counter + int(count))


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *fields: int) -> int:
    """Mix a base seed with integer labels into a new 64-bit seed.

    Used to hand every experiment cell (matrix index, distribution index,
    sample-size index, replicate, ...) its own statistically independent
    stream while staying reproducible from one top-level seed.
    """
    h = _splitmix64(int(seed) & _MASK64)
    for f in fields:
        h = _splitmix64(h ^ (int(f) & _MASK64))
    return h


def _words_per_probe(n: int) -> int:
    # Each probe owns a fixed window of raw words, rounded up to whole
    # Philox blocks (4 words) so windows start on block boundaries.
    return 4 * ((n + 3) // 4)


# The one block policy: at most _BLOCK_VECTORS length-n vectors and _BLOCK_BYTES
# of float64 entries per block, but one vector at least.  Counter addressing
# makes the split invisible to the values drawn.
_BLOCK_VECTORS = 1024
_BLOCK_BYTES = 2**25


def _block_counts(n: int, total: int):
    size = max(1, min(_BLOCK_VECTORS, _BLOCK_BYTES // (8 * n)))
    for start in range(0, total, size):
        yield min(size, total - start)


def _raw_words(seed: int, first_word: int, n_words: int) -> np.ndarray:
    if first_word % 4 != 0:
        raise ValueError("word offset must be block-aligned")
    bg = Philox(key=seed, counter=first_word // 4)
    return bg.random_raw(n_words)


def _to_uniform01(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * _INV53


def _gaussian_from_words(words: np.ndarray, n: int) -> np.ndarray:
    # Box-Muller on consecutive word pairs; each pair yields two entries.
    pairs = (n + 1) // 2
    w = words[:, : 2 * pairs]
    # u1 in (0, 1] so the log is finite
    u1 = ((w[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
    u2 = _to_uniform01(w[:, 1::2])
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    z = np.empty((len(words), 2 * pairs))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z[:, :n]


def _sample_block(
    n: int, state: RngState, count: int, entries: Callable[[np.ndarray, int], np.ndarray]
) -> tuple[np.ndarray, RngState]:
    # The word window shared by every public sampler: vector j of the block
    # is built by ``entries`` from the raw words of counter ``state.counter + j``
    # (one row per vector), and is returned as column j.
    if n < 1:
        raise ValueError("vector length must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty((n, 0)), state
    w = _words_per_probe(n)
    words = _raw_words(state.seed, state.counter * w, count * w).reshape(count, w)
    return np.ascontiguousarray(entries(words, n).T), state.advance(count)


def sample_probe_block(
    dist: ProbeDistribution, n: int, state: RngState, count: int
) -> tuple[np.ndarray, RngState]:
    """Draw ``count`` consecutive probes as the columns of an (n, count) array.

    Column ``j`` is exactly the probe addressed by ``state.counter + j``; the
    block decomposition has no effect on the values drawn.
    """

    def entries(words, n):
        if dist.kind == GAUSSIAN:
            return _gaussian_from_words(words, n)
        u = _to_uniform01(words[:, :n])
        if dist.kind == RADEMACHER:
            return np.where(u < 0.5, -1.0, 1.0)
        lo = 1.0 / (2.0 * dist.s)
        root = math.sqrt(dist.s)
        return np.where(u < lo, -root, np.where(u >= 1.0 - lo, root, 0.0))

    return _sample_block(n, state, count, entries)


def sample_probe(
    dist: ProbeDistribution, n: int, state: RngState
) -> tuple[np.ndarray, RngState]:
    """Draw the single probe addressed by ``state`` and advance the counter."""
    block, new_state = sample_probe_block(dist, n, state, 1)
    return block[:, 0], new_state


def sample_uniform_block(
    n: int, state: RngState, count: int, low: float = -1.0, high: float = 1.0
) -> tuple[np.ndarray, RngState]:
    """Draw ``count`` i.i.d. uniform vectors on [low, high)^n, one per column.

    Shares the counter discipline of :func:`sample_probe_block`; used for
    sampling gradient-evaluation points in the sensitivity-metric estimator.
    """
    return _sample_block(
        n, state, count, lambda words, n: low + (high - low) * _to_uniform01(words[:, :n])
    )
