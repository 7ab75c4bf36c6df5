"""Seeded probe-vector generation for Monte Carlo diagonal estimation.

An :class:`EstimatorSpec` names an estimator by what it draws.  Its probe
families are Rademacher (entries are random signs), sparse Rademacher with
sparsity parameter ``s`` (entries in {-sqrt(s), 0, +sqrt(s)} with
probabilities {1/(2s), 1 - 1/s, 1/(2s)}), and standard Gaussian, which the
normalized ratio draws as well.  All families have zero mean and unit
variance per entry; their per-entry fourth moments are 1, s and 3
respectively.  The sensitivity-metric estimator ``dgsm`` draws gradients,
not probes.

Probes are addressed by a ``(seed, counter)`` pair.  Probe ``k`` of a stream
is synthesised from a fixed window of raw Philox words, so any sub-range of
a stream can be regenerated independently of batch boundaries, threads or
the order in which other probes were drawn.

Stream format 3 sizes the window by family, rounded up to whole Philox
blocks of 4 words.  A Rademacher probe (and ``sparse_rademacher(1)``, which
is the same law) takes 64 entries from each word: ceil(n/64) words, entry
``i`` being bit ``i mod 64`` of word ``i // 64``, read from the word's value
(``(w >> b) & 1``, least significant bit first), a set bit giving +1.
Sparse (s != 1), Gaussian and uniform probes take n words, one word per
entry (a pair per two Gaussian entries), as in format 2.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy.random import Philox

from .operators import _chunk_rows, _chunks, _parts, _split

__all__ = [
    "STREAM_FORMAT",
    "EstimatorSpec",
    "RngState",
    "derive_seed",
    "gaussian",
    "rademacher",
    "sample_probe_block",
    "sample_uniform_block",
    "sparse_rademacher",
    "validate_sparsity",
]

# Version of the map from raw Philox words to entries.  Format 3 changes only
# the Rademacher map of format 2, to one bit per entry.  Format 2 gave the
# Rademacher, sparse and uniform entries of format 1 bit for bit; its Gaussian
# entries differ from format 1 (cos/sin Box-Muller) by at most 2^-50 times
# their pair's radius.
STREAM_FORMAT = 3

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
class EstimatorSpec:
    """Which estimator runs: a probe family, the normalized Gaussian ratio or DGSM.

    ``method`` is one of rademacher, sparse, gaussian, normalized_gaussian
    and dgsm; ``s`` is the sparsity parameter of ``sparse`` alone, checked
    with :func:`validate_sparsity`.  ``normalized_gaussian`` draws Gaussian
    probes, ``sparse`` with s = 1 draws the Rademacher probes bit for bit, and
    ``dgsm`` draws gradients, not probes.
    """

    method: str
    s: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("rademacher", "sparse", "gaussian", "normalized_gaussian", "dgsm"):
            raise ValueError(
                f"unknown estimator {self.method!r}; expected rademacher, sparse:S, "
                "gaussian, normalized-gaussian or dgsm"
            )
        if self.method == "sparse":
            if self.s is None:
                raise ValueError("sparse estimator needs a sparsity parameter")
            object.__setattr__(self, "s", validate_sparsity(self.s))
        elif self.s is not None:
            raise ValueError(f"estimator {self.method!r} takes no sparsity parameter")

    @property
    def sparsity(self) -> Optional[float]:
        """The s of the sparse bounds: 1 for Rademacher, None where they do not apply."""
        return 1.0 if self.method == "rademacher" else self.s

    @property
    def label(self) -> str:
        return f"sparse:{self.s:g}" if self.method == "sparse" else self.method


def rademacher() -> EstimatorSpec:
    """Entries +-1 with probability 1/2 each."""
    return EstimatorSpec("rademacher")


def sparse_rademacher(s: float) -> EstimatorSpec:
    """Entries in {-sqrt(s), 0, +sqrt(s)} with probabilities {1/(2s), 1-1/s, 1/(2s)}."""
    return EstimatorSpec("sparse", s)


def gaussian() -> EstimatorSpec:
    """Standard normal entries."""
    return EstimatorSpec("gaussian")


def _draws_gaussians(spec: EstimatorSpec) -> bool:
    # whether a probe-based spec draws Gaussian entries, rather than Rademacher or sparse ones
    if spec.method == "dgsm":
        raise ValueError("estimator 'dgsm' draws no probes")
    return spec.method in ("gaussian", "normalized_gaussian")


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


def _words_per_probe(n: int, entries_per_word: int = 1) -> int:
    # Each probe owns a fixed window of raw words, rounded up to whole
    # Philox blocks (4 words) so windows start on block boundaries.
    words = -(-n // entries_per_word)
    return 4 * ((words + 3) // 4)


# The one block policy: at most _BLOCK_VECTORS length-n vectors and _BLOCK_BYTES
# of float64 entries per block, but one vector at least.  Counter addressing
# makes the split invisible to the values drawn.
_BLOCK_VECTORS = 1024
_BLOCK_BYTES = 2**25
# Gaussian entries are made in tiles of at most this many word pairs: every
# probe of the block (so the transposed writes fill whole rows of it), or this
# many, by as many pairs as fit.
_TILE_PAIRS = 2**14
# A block sampled in parts draws its words this many at a time (256 KiB; a
# multiple of 4, so every draw starts on a Philox block).
_DRAW_WORDS = 2**15


def _block_counts(n: int, total: int):
    size = max(1, min(_BLOCK_VECTORS, _BLOCK_BYTES // (8 * n)))
    for start in range(0, total, size):
        yield min(size, total - start)


def _raw_words(seed: int, first_word: int, n_words: int) -> np.ndarray:
    if first_word % 4 != 0:
        raise ValueError("word offset must be block-aligned")
    bg = Philox(key=seed, counter=first_word // 4)
    return bg.random_raw(n_words)


def _fill_rademacher(out: np.ndarray, words: np.ndarray) -> None:
    # Entry i is bit i mod 64 of word i // 64.  Unpacking the little-endian
    # bytes least significant bit first reads the bits by value on any
    # platform; 2 bit - 1 is made in int8 and cast into the block in one copy.
    signs = np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), axis=1, count=len(out), bitorder="little"
    ).view(np.int8)
    signs *= 2
    signs -= 1
    np.copyto(out, signs.T)


def _fill_sparse(out: np.ndarray, words: np.ndarray, s: float) -> None:
    # u = (w >> 11) 2^-53 is exact, so u < lo exactly when w >> 11 < ceil(lo 2^53),
    # which is w < ceil(lo 2^53) 2^11.  The upper test is written as w > T 2^11 - 1
    # so that T = 2^53 (1 - lo rounding to 1: no positive entries) cannot overflow.
    lo = 1.0 / (2.0 * s)
    below = np.uint64(math.ceil(lo * 2.0**53) << 11)
    above = np.uint64((math.ceil((1.0 - lo) * 2.0**53) << 11) - 1)
    w = words[:, : len(out)]
    sign = (w > above).view(np.int8)
    np.subtract(sign, (w < below).view(np.int8), out=sign)
    np.multiply(sign.T, math.sqrt(s), out=out)


def _fill_uniform(out: np.ndarray, words: np.ndarray, low: float, high: float) -> None:
    # u = m 2^-53 with m the top 53 bits, then low + (high - low) u, as in format 1
    np.right_shift(words, np.uint64(11), out=words)
    np.multiply(words[:, : len(out)].T, _INV53, out=out)
    out *= high - low
    out += low


def _fill_gaussian(out: np.ndarray, words: np.ndarray) -> None:
    # Box-Muller on consecutive word pairs (u1, u2); each pair yields the two
    # entries r cos(2 pi u2), r sin(2 pi u2).  They are built from the
    # half-angle tangent t = tan(pi u2), which is vectorised where cos and sin
    # are not: with d = r / (1 + t^2), r (1 - t^2) / (1 + t^2) = 2 d - r and
    # r 2 t / (1 + t^2) = 2 t d.
    # The passes go one tile of g probes by c pairs at a time, over (g, c)
    # arrays that are contiguous and small enough to stay in cache, where
    # numpy's loops run at full speed: u1 and u2 are shifted out of their
    # stride-2 words into the tile, and the finished cosine and sine entries
    # go into the rows of ``out`` by one transposed copy each.  Each entry
    # goes through the same IEEE operations in the same order whatever the
    # tiling, so the tile size changes no bit of the stream.  The tile takes
    # three (g, c) arrays, 3 g c <= 3 _TILE_PAIRS floats (384 KiB), at any
    # block size.
    n, count = out.shape
    pairs = (n + 1) // 2
    g = min(count, _TILE_PAIRS)
    c = max(1, min(pairs, _TILE_PAIRS // g))
    r_space, t_space, d_space = np.empty((3, g * c))
    # the shifted words are last read before d is first written
    spaces = (d_space.view(np.uint64), r_space, t_space, d_space)
    for j in range(0, count, g):
        rows = min(g, count - j)
        for p in range(0, pairs, c):
            cols = min(c, pairs - p)
            u, r, t, d = (a[: rows * cols].reshape(rows, cols) for a in spaces)
            w = words[j : j + rows, 2 * p : 2 * (p + cols)]
            np.right_shift(w[:, 0::2], np.uint64(11), out=u)
            # u1 in (0, 1] so the log is finite
            u += np.uint64(1)
            np.multiply(u, _INV53, out=r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.right_shift(w[:, 1::2], np.uint64(11), out=u)
            # pi 2^-53 is exact, so this is the rounded half angle pi u2 of format 1
            np.multiply(u, math.pi * _INV53, out=t)
            np.tan(t, out=t)
            np.multiply(t, t, out=d)
            d += 1.0
            np.divide(r, d, out=d)
            d *= 2.0
            np.subtract(d, r, out=r)
            np.multiply(t, d, out=t)
            cos = out[2 * p : 2 * (p + cols) : 2, j : j + rows]
            sin = out[2 * p + 1 : 2 * (p + cols) : 2, j : j + rows]
            cos[...] = r.T
            # an odd n has no sine entry in its last pair
            sin[...] = t[:, : len(sin)].T


def _sample_block(
    n: int,
    state: RngState,
    count: int,
    fill: Callable[[np.ndarray, np.ndarray], None],
    entries_per_word: int = 1,
) -> tuple[np.ndarray, RngState]:
    # The word window shared by every public sampler: ``fill`` writes vector j
    # of the block, built from the raw words of counter ``state.counter + j``
    # (row j of its second argument), into column j of the (n, count) block.
    if n < 1:
        raise ValueError("vector length must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty((n, count))
    w = _words_per_probe(n, entries_per_word)
    first = state.counter * w
    # one thread draws and fills its block whole: through the piece path below, a
    # Gaussian (100, 1) block took 61 us where this takes 38, and a (100, 1024)
    # block of any family 8-30% longer (2-CPU Xeon), in the paper's many short calls
    if _parts(count, n * count) < 2:
        if count:
            fill(out, _raw_words(state.seed, first, count * w).reshape(count, w))
        return out, state.advance(count)
    # the probes' words go into one word array, _DRAW_WORDS at a time, pieces of
    # probes at a time; then the block is filled pieces of rows at a time, a
    # chunk of entries at a time (a multiple of 64 rows, where every family's
    # words split), so that the scratch of a draw or a fill is a chunk too
    words = np.empty((count, w), dtype=np.uint64)

    def draw(pieces):
        for lo, hi in pieces:
            flat = words[lo:hi].reshape(-1)
            for at in range(0, flat.size, _DRAW_WORDS):
                size = min(_DRAW_WORDS, flat.size - at)
                flat[at : at + size] = _raw_words(state.seed, first + lo * w + at, size)

    step = 64 * max(1, _chunk_rows(n, count) // 64)

    def rows(pieces):
        for lo, hi in _chunks(pieces, step):
            fill(out[lo:hi], words[:, lo // entries_per_word : (lo + step) // entries_per_word])

    _split(count, n * count, draw)
    _split(n, n * count, rows, align=step)
    return out, state.advance(count)


def sample_probe_block(
    spec: EstimatorSpec, n: int, state: RngState, count: int
) -> tuple[np.ndarray, RngState]:
    """Draw ``count`` consecutive probes of ``spec`` as the columns of an (n, count) array.

    Column ``j`` is exactly the probe addressed by ``state.counter + j``; the
    block decomposition has no effect on the values drawn.
    """
    if _draws_gaussians(spec):
        return _sample_block(n, state, count, _fill_gaussian)
    if spec.sparsity == 1.0:
        # Rademacher, and sparse_rademacher(1) with it
        return _sample_block(n, state, count, _fill_rademacher, entries_per_word=64)
    return _sample_block(n, state, count, partial(_fill_sparse, s=spec.s))


def sample_uniform_block(
    n: int, state: RngState, count: int, low: float = -1.0, high: float = 1.0
) -> tuple[np.ndarray, RngState]:
    """Draw ``count`` i.i.d. uniform vectors on [low, high)^n, one per column.

    Shares the counter discipline of :func:`sample_probe_block`; used for
    sampling gradient-evaluation points in the sensitivity-metric estimator.
    """
    return _sample_block(n, state, count, partial(_fill_uniform, low=low, high=high))
