"""Probe-generation tests: laws, moments, determinism, counter addressing."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from closed_forms import fourth_moment
from diagmc import estimators, operators, probes
from diagmc.estimators import estimate_diagonal
from diagmc.operators import MatrixFreeOperator
from diagmc.probes import (
    STREAM_FORMAT,
    _block_counts,
    EstimatorSpec,
    RngState,
    derive_seed,
    gaussian,
    rademacher,
    sample_probe_block,
    sample_uniform_block,
    sparse_rademacher,
    validate_sparsity,
)

N_EMPIRICAL = 1_000_000


def _draws(dist, count, seed=7, n=32):
    block, _ = sample_probe_block(dist, n, RngState(seed), count // n)
    return block.ravel()


class TestValidation:
    def test_s_below_one_rejected(self):
        with pytest.raises(ValueError):
            validate_sparsity(0.5)

    @pytest.mark.parametrize("s", [1.2, 1.5, 1.999])
    def test_open_interval_rejected(self, s):
        with pytest.raises(ValueError, match="not supported"):
            sparse_rademacher(s)

    @pytest.mark.parametrize("s", [1.0, 2.0, 2.5, 10.0, 50.0])
    def test_valid_sparsity(self, s):
        assert sparse_rademacher(s).s == s

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown estimator 'uniform'"):
            EstimatorSpec("uniform")

    def test_nonsparse_takes_no_s(self):
        with pytest.raises(ValueError):
            EstimatorSpec("gaussian", 3.0)

    def test_negative_counter(self):
        with pytest.raises(ValueError):
            RngState(1, -1)


class TestLaws:
    def test_rademacher_support(self):
        draws = _draws(rademacher(), 10_000)
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_sparse_support(self):
        draws = _draws(sparse_rademacher(3), 100_000)
        root = np.sqrt(3.0)
        assert set(np.unique(draws)) == {-root, 0.0, root}

    def test_sparse_three_point_probabilities(self):
        draws = _draws(sparse_rademacher(3), N_EMPIRICAL)
        root = np.sqrt(3.0)
        assert np.mean(draws == -root) == pytest.approx(1.0 / 6.0, abs=0.005)
        assert np.mean(draws == root) == pytest.approx(1.0 / 6.0, abs=0.005)
        assert np.mean(draws == 0.0) == pytest.approx(2.0 / 3.0, abs=0.005)

    def test_sparse_s1_equals_rademacher_bitwise(self):
        a, _ = sample_probe_block(rademacher(), 64, RngState(9), 100)
        b, _ = sample_probe_block(sparse_rademacher(1), 64, RngState(9), 100)
        assert np.array_equal(a, b)

    def test_normalized_gaussian_draws_the_gaussian_block(self):
        a, sa = sample_probe_block(gaussian(), 37, RngState(9, 4), 50)
        b, sb = sample_probe_block(EstimatorSpec("normalized_gaussian"), 37, RngState(9, 4), 50)
        assert sa == sb
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_dgsm_draws_no_probes(self):
        with pytest.raises(ValueError, match="^estimator 'dgsm' draws no probes$"):
            sample_probe_block(EstimatorSpec("dgsm"), 8, RngState(9), 4)

    def test_sparse_s1_never_zero(self):
        draws = _draws(sparse_rademacher(1), 100_000)
        assert not np.any(draws == 0.0)

    @pytest.mark.parametrize(
        "dist",
        [rademacher(), gaussian()]
        + [sparse_rademacher(s) for s in (1, 3, 10, 50)],
        ids=["rademacher", "gaussian"] + [f"sparse(s={s})" for s in (1, 3, 10, 50)],
    )
    def test_empirical_moments(self, dist):
        # E[w^2] within 4 standard deviations of its mean, sqrt((m4 - 1) / N) (w^2 has
        # variance m4 - 1): a correct sampler fails that check with probability about
        # 6.3e-5 a family (normal approximation), whatever the seed
        draws = _draws(dist, N_EMPIRICAL)
        m4 = fourth_moment(dist)
        assert abs(draws.mean()) <= 4.0 / np.sqrt(N_EMPIRICAL)
        assert abs(np.mean(draws**2) - 1.0) <= 4.0 * np.sqrt((m4 - 1.0) / N_EMPIRICAL)
        assert abs(np.mean(draws**4) - m4) <= 0.03 * m4

    @pytest.mark.parametrize("s", [1.0, 3.0, 10.0, 50.0])
    def test_sparsity_fraction(self, s):
        draws = _draws(sparse_rademacher(s), N_EMPIRICAL)
        zero_fraction = np.mean(draws == 0.0)
        assert abs(zero_fraction - (1.0 - 1.0 / s)) <= 0.01


class TestDeterminism:
    GOLDEN = {
        # stream format 3: the low six bits of Philox(key=42, counter=5)'s first word
        "rademacher": [-1.0, 1.0, -1.0, 1.0, 1.0, 1.0],
        "sparse3": [0.0, 0.0, 0.0, 0.0, -1.7320508075688772, 0.0],
        # stream formats 2 and 3
        "gaussian": [
            0.0453845885501869, -0.8841466673023727, -0.1204306896950813,
            1.1592929956103182, -0.8020029708724918, 2.1359433518840056,
        ],
    }

    def test_same_state_same_output(self):
        for dist in (rademacher(), sparse_rademacher(3), gaussian()):
            a, sa = sample_probe_block(dist, 17, RngState(42, 3), 1)
            b, sb = sample_probe_block(dist, 17, RngState(42, 3), 1)
            assert np.array_equal(a, b)
            assert sa == sb == RngState(42, 4)

    def test_golden_values(self):
        state = RngState(42, counter=5)
        for dist, key in [
            (rademacher(), "rademacher"),
            (sparse_rademacher(3), "sparse3"),
            (gaussian(), "gaussian"),
        ]:
            vec, _ = sample_probe_block(dist, 6, state, 1)
            assert vec[:, 0].tolist() == self.GOLDEN[key]

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 40),
        start=st.integers(0, 50),
        count=st.integers(1, 20),
        kind=st.sampled_from(["rademacher", "sparse", "gaussian"]),
    )
    def test_block_matches_single_draws(self, n, start, count, kind):
        dist = {
            "rademacher": rademacher(),
            "sparse": sparse_rademacher(3),
            "gaussian": gaussian(),
        }[kind]
        block, end = sample_probe_block(dist, n, RngState(7, start), count)
        assert end == RngState(7, start + count)
        for j in range(count):
            single, _ = sample_probe_block(dist, n, RngState(7, start + j), 1)
            assert np.array_equal(block[:, j], single[:, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 130),
        start=st.integers(0, 50),
        count=st.integers(2, 20),
        kind=st.sampled_from(["rademacher", "sparse", "gaussian", "uniform"]),
        draw=st.sampled_from([4, 12, probes._DRAW_WORDS]),
        budget=st.sampled_from([1, operators._APPLY_ELEMENTS]),
    )
    def test_block_in_parts_matches_single_draws(self, in_parts, n, start, count, kind, draw, budget):
        # up to three parts of probes, each drawing its words ``draw`` at a time and
        # filling 64 entries at a time at budget 1
        with in_parts(), patch.object(probes, "_DRAW_WORDS", draw), \
                patch.object(operators, "_APPLY_ELEMENTS", budget):
            block = _live_block(kind, n, RngState(7, start), count, s=3.0)
        for j in range(count):
            single = _live_block(kind, n, RngState(7, start + j), 1, s=3.0)
            assert block[:, j].tobytes() == single[:, 0].tobytes()

    def test_disjoint_counters_uncorrelated(self):
        a, _ = sample_probe_block(gaussian(), 100, RngState(5, 0), 1000)
        b, _ = sample_probe_block(gaussian(), 100, RngState(5, 1000), 1000)
        rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(rho) < 0.01

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(3, 1, 2, 5) == derive_seed(3, 1, 2, 5)
        seeds = {derive_seed(0, i, j) for i in range(20) for j in range(20)}
        assert len(seeds) == 400


def _overlapping_block(spec, n, state, count):
    """A planted defect built from the public sampler: probe k + 1 starts one Philox
    word after probe k, so consecutive windows overlap.  At n = 100 a Rademacher
    probe (64 entries a word) repeats 36 signs of the probe before it, and a sparse
    probe (one entry a word) repeats 99 entries, shifted by one."""
    per_word = 64 if spec.sparsity == 1.0 else 1
    stream, _ = sample_probe_block(spec, per_word * (count - 1) + n, state, 1)
    return sliding_window_view(stream[:, 0], n)[::per_word].T, state.advance(count)


def _rereading_block(spec, n, state, count):
    """A planted defect: the next block starts at the last probe of this one."""
    return sample_probe_block(spec, n, state, count)[0], state.advance(count - 1)


class TestIndependence:
    """Probe k and probe k + 1 are independent: within a block, across calls, across the
    block splits of one estimate, and as the first probes of neighbouring replicates.

    The statistic is the largest entry of the lag-1 cross-covariance
    C = (1/K) sum_k sign(w_k) sign(w_(k+1))^T of the entries' signs over K
    consecutive pairs.  The signs of Rademacher entries are the entries, those of
    sparse entries the entries over sqrt(s), and those of independent N(0, 1)
    entries independent Rademacher entries.  Under independence each entry's K
    terms are martingale differences (the next probe's signs have mean 0 given the
    earlier ones) of magnitude at most 1.  Azuma-Hoeffding gives
    P(|C_ij| >= tau) <= 2 exp(-K tau^2 / 2), so with a union bound over the n^2
    entries a threshold tau = sqrt(2 ln(2 n^2 / ALPHA) / K) fails an independent
    stream with probability at most ALPHA per check.  At n = 100 and K = 4,096,
    tau is 0.108; the Rademacher, sparse:3 and Gaussian streams read 0.061, 0.023
    and 0.057, and the overlapping sampler 1.0, 0.34 and 1.0.  The same bound holds
    for probe 0 of replicates r and r + 1, whose derived seeds key separate streams.
    """

    N, K, ALPHA = 100, 4096, 1e-6
    FAMILIES = [rademacher(), sparse_rademacher(3), gaussian()]
    IDS = ["rademacher", "sparse:3", "gaussian"]

    @classmethod
    def _independent(cls, stream):
        signs = np.sign(stream)
        left, right = signs[:, :-1], signs[:, 1:]
        pairs = left.shape[1]
        tau = math.sqrt(2.0 * math.log(2.0 * cls.N**2 / cls.ALPHA) / pairs)
        return np.max(np.abs(left @ right.T)) / pairs < tau

    @classmethod
    def _window(cls, spec):
        # the Philox words of one probe
        return probes._words_per_probe(cls.N, 64 if spec.sparsity == 1.0 else 1)

    @classmethod
    def _one_block(cls, sample, spec):
        return sample(spec, cls.N, RngState(0), cls.K + 1)[0]

    @classmethod
    def _two_calls(cls, sample, spec):
        # the stream read as two consecutive calls of K / 2 + 1 and K / 2 probes
        first, state = sample(spec, cls.N, RngState(0), cls.K // 2 + 1)
        return np.hstack([first, sample(spec, cls.N, state, cls.K // 2)[0]])

    @classmethod
    def _across_block_splits(cls, sample, spec):
        # one estimate of K + 1 probes in blocks of one, so every pair straddles a
        # split of the block loop; the identity operator hands back each block drawn
        blocks = []
        op = MatrixFreeOperator(cls.N, lambda mat: blocks.append(mat.copy()) or mat)
        with patch.object(probes, "_BLOCK_VECTORS", 1), patch.object(estimators, "sample_probe_block", sample):
            estimate_diagonal(op, spec, cls.K + 1, 0)
        return np.hstack(blocks)

    @classmethod
    def _across_worker_splits(cls, in_parts, spec, raw_words=probes._raw_words):
        # one estimate of K + 1 probes in blocks of two, each drawn in two runs of one
        # probe's words, so every pair straddles a worker split or a block split
        blocks = []
        op = MatrixFreeOperator(cls.N, lambda mat: blocks.append(mat.copy()) or mat)
        with in_parts(workers=2), patch.object(probes, "_BLOCK_VECTORS", 2), \
                patch.object(probes, "_DRAW_WORDS", cls._window(spec)), \
                patch.object(probes, "_raw_words", raw_words):
            estimate_diagonal(op, spec, cls.K + 1, 0)
        return np.hstack(blocks)

    @classmethod
    def _replicate_neighbours(cls, seed_of, spec):
        # probe 0 of replicates 0..K of one experiment cell, each under its own seed
        return np.hstack([sample_probe_block(spec, cls.N, RngState(seed_of(r)), 1)[0]
                          for r in range(cls.K + 1)])

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    @pytest.mark.parametrize("read", ["_one_block", "_two_calls"])
    def test_lag_one_cross_covariance_is_small(self, spec, read):
        assert self._independent(getattr(self, read)(sample_probe_block, spec))

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    @pytest.mark.parametrize("read", ["_one_block", "_two_calls"])
    def test_overlapping_windows_are_caught(self, spec, read):
        stream = getattr(self, read)(_overlapping_block, spec)
        assert stream.shape == (self.N, self.K + 1)
        assert not self._independent(stream)

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_pairs_across_block_splits(self, spec):
        assert self._independent(self._across_block_splits(sample_probe_block, spec))

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_a_split_that_rereads_a_probe_is_caught(self, spec):
        stream = self._across_block_splits(_rereading_block, spec)
        assert stream.shape == (self.N, self.K + 1)
        assert not self._independent(stream)

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_pairs_across_worker_splits(self, in_parts, spec):
        assert self._independent(self._across_worker_splits(in_parts, spec))

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_a_part_that_rereads_its_neighbour_is_caught(self, in_parts, spec):
        # the planted defect: the second part of each block draws from the first
        # part's probe, whose window starts w words earlier
        w, raw = self._window(spec), probes._raw_words

        def rereading(seed, first, count):
            return raw(seed, first - w if first // w % 2 else first, count)

        stream = self._across_worker_splits(in_parts, spec, rereading)
        assert stream.shape == (self.N, self.K + 1)
        assert not self._independent(stream)

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_first_probes_of_neighbouring_replicates(self, spec):
        # the cell seed of harness._run_cells: experiment 1, indices (0, 0, 0), replicate r
        assert self._independent(self._replicate_neighbours(lambda r: derive_seed(0, 1, 0, 0, 0, r), spec))

    @pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
    def test_seeds_that_ignore_the_replicate_are_caught(self, spec):
        assert not self._independent(self._replicate_neighbours(lambda r: derive_seed(0, 1, 0, 0, 0), spec))


class TestUniform:
    def test_range_and_mean(self):
        block, _ = sample_uniform_block(50, RngState(11), 2000)
        assert block.min() >= -1.0 and block.max() < 1.0
        assert abs(block.mean()) < 0.01
        assert abs(np.mean(block**2) - 1.0 / 3.0) < 0.01

    def test_custom_interval(self):
        block, _ = sample_uniform_block(10, RngState(11), 100, low=2.0, high=3.0)
        assert block.min() >= 2.0 and block.max() < 3.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_uniform_block(4, RngState(11), -1)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_probe_block(rademacher(), 4, RngState(11), -1)


def test_gaussian_block_is_standard_normal():
    draws = _draws(gaussian(), N_EMPIRICAL)
    assert np.all(np.isfinite(draws))
    assert abs(np.mean(draws**3)) < 0.02
    # empirical CDF at a few points
    for x, expected in [(-1.0, 0.158655), (0.0, 0.5), (2.0, 0.977250)]:
        assert abs(np.mean(draws < x) - expected) < 0.005


class TestBlockCounts:
    @pytest.mark.parametrize("n", [1, 100, 4096, 4097, 50_000, 10**6, 4 * 10**6])
    @pytest.mark.parametrize("total", [1, 37, 1024, 5000])
    def test_sizes_sum_to_total_within_both_limits(self, n, total):
        sizes = list(_block_counts(n, total))
        assert sum(sizes) == total and min(sizes) >= 1
        for size in sizes:
            assert size == 1 or (size <= 1024 and 8 * n * size <= 2**25)
        # every block but the last is full
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]

    def test_small_vectors_keep_1024_per_block(self):
        assert list(_block_counts(4096, 2500)) == [1024, 1024, 452]

    def test_huge_vectors_go_one_at_a_time(self):
        assert list(_block_counts(10**7, 3)) == [1, 1, 1]


def _window_words(state, count, w):
    """Raw words of probes ``state.counter`` to ``state.counter + count - 1``, one row
    per probe, for windows of ``w`` words."""
    return probes._raw_words(state.seed, state.counter * w, count * w).reshape(count, w)


def _format1_block(kind, n, state, count, s=1.0, low=-1.0, high=1.0):
    """Stream format 1, kept as the reference: float uniforms compared with
    ``np.where`` and cos/sin Box-Muller.  Returns the (n, count) block and, for
    Gaussians, the radius of each entry's pair."""
    words = _window_words(state, count, 4 * ((n + 3) // 4))
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = None
    if kind == "sparse":
        lo, root = 1.0 / (2.0 * s), math.sqrt(s)
        z = np.where(u[:, :n] < lo, -root, np.where(u[:, :n] >= 1.0 - lo, root, 0.0))
    elif kind == "uniform":
        z = low + (high - low) * u[:, :n]
    else:
        pairs = (n + 1) // 2
        u1 = u[:, 0 : 2 * pairs : 2] + 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u[:, 1 : 2 * pairs : 2]
        z = np.empty((count, 2 * pairs))
        z[:, 0::2] = r * np.cos(angle)
        z[:, 1::2] = r * np.sin(angle)
        z = z[:, :n]
        radius = np.repeat(r, 2, axis=1)[:, :n].T
    return z.T, radius


def _format2_block(kind, n, state, count, s=1.0):
    """Stream format 2, kept as the reference for the maps format 3 keeps: sparse
    (s != 1) and uniform entries are format 1's bit for bit, Gaussians are the
    whole-block Box-Muller passes of :func:`_reference_fill_gaussian`."""
    if kind != "gaussian":
        return _format1_block(kind, n, state, count, s, low=-0.5, high=2.0)[0]
    out = np.empty((n, count))
    _reference_fill_gaussian(out, _window_words(state, count, 4 * ((n + 3) // 4)))
    return out


def _format3_rademacher(n, state, count):
    """Stream format 3's Rademacher map, one entry at a time: entry i of a probe is
    bit i mod 64 of word i // 64 of its window of ceil(n/64) words, rounded up to
    whole Philox blocks; a set bit gives +1."""
    words = _window_words(state, count, 4 * ((n + 255) // 256))
    out = np.empty((n, count))
    for k in range(count):
        for i in range(n):
            out[i, k] = 1.0 if int(words[k, i // 64]) >> (i % 64) & 1 else -1.0
    return out


def _live_block(kind, n, state, count, s=1.0):
    if kind == "uniform":
        return sample_uniform_block(n, state, count, low=-0.5, high=2.0)[0]
    dist = {"rademacher": rademacher(), "sparse": sparse_rademacher(s), "gaussian": gaussian()}[kind]
    return sample_probe_block(dist, n, state, count)[0]


def _assert_matches_reference(kind, n, state, count, s=1.0):
    # Rademacher against format 3's bit reference, every other map against format 1
    block = _live_block(kind, n, state, count, s)
    if kind == "rademacher":
        assert np.array_equal(block, _format3_rademacher(n, state, count))
        return block, None
    reference, radius = _format1_block(kind, n, state, count, s, low=-0.5, high=2.0)
    if kind == "gaussian":
        assert np.all(np.abs(block - reference) <= 2.0**-50 * radius)
    else:
        assert np.array_equal(block, reference)
    return block, radius


class TestStreamFormat2:
    """Format 2, the differential reference for the maps format 3 keeps: sparse
    (s != 1) and uniform entries equal format 1's bit for bit, and Gaussians lie
    within 2^-50 of their pair's radius of it.  Rademacher edge words are read
    through format 3's map."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        start=st.integers(0, 2**40),
        count=st.integers(1, 40),
        s=st.sampled_from([2.0, 2.5, 3.0, 10.0, 50.0]),
        kind=st.sampled_from(["sparse", "uniform", "gaussian"]),
    )
    def test_matches_format1(self, n, start, count, s, kind):
        _assert_matches_reference(kind, n, RngState(derive_seed(n, start), start), count, s)

    # Philox words where the maps from words to entries change branch: 0 gives
    # u = 0 (u1 = 2^-53, the largest radius), 2^63 gives u = 1/2 (the pole of
    # tan(pi u2)), 2^64 - 1 gives u = 1 - 2^-53 (u1 = 1, radius 0).
    EDGE = [0, 1 << 63, (1 << 64) - 1]

    @staticmethod
    def _feed(monkeypatch, words):
        row = np.array(words, dtype=np.uint64)
        monkeypatch.setattr(probes, "_raw_words", lambda seed, first, count: np.resize(row, count))

    def test_edge_words_gaussian(self, monkeypatch):
        pairs = [(a, b) for a in self.EDGE for b in self.EDGE]
        self._feed(monkeypatch, [word for pair in pairs for word in pair] + [0, 0])
        block, radius = _assert_matches_reference("gaussian", 18, RngState(0), 2)
        assert np.array_equal(block[:, 0], block[:, 1])
        assert np.all(np.isfinite(block))
        z, r = block[:, 0].reshape(9, 2), radius[0::2, 0]
        assert r[0] == r[1] == r[2] == math.sqrt(-2.0 * math.log(2.0**-53))
        assert np.all(r[6:] == 0.0) and np.all(z[6:] == 0.0)
        # |cos|, |sin| <= 1, and the signs of angles 0, pi and 2 pi (1 - 2^-53)
        assert np.all(np.abs(z[:6]) <= r[:6, None])
        assert np.array_equal(np.sign(z[:6]), np.tile([[1, 0], [-1, 1], [1, -1]], (2, 1)))

    @pytest.mark.parametrize("s", [2.0, 2.5, 3.0, 10.0, 50.0, 1e17])
    def test_edge_words_sparse_and_thresholds(self, monkeypatch, s):
        lo = 1.0 / (2.0 * s)
        thresholds = [math.ceil(lo * 2.0**53), math.ceil((1.0 - lo) * 2.0**53)]
        words = self.EDGE + [(t << 11) + d for t in thresholds for d in (-1, 0) if t < 2**53]
        self._feed(monkeypatch, words)
        block, _ = _assert_matches_reference("sparse", len(words), RngState(0), 1, s)
        root = math.sqrt(s)
        assert block[:3, 0].tolist() == [-root, 0.0, root if s < 1e17 else 0.0]

    @pytest.mark.parametrize("kind", ["rademacher", "uniform"])
    def test_edge_words_rademacher_and_uniform(self, monkeypatch, kind):
        self._feed(monkeypatch, self.EDGE + [(1 << 63) - 1])
        if kind == "rademacher":
            # the four words are one 256-entry window, read from bit 0 of each up
            block, _ = _assert_matches_reference(kind, 256, RngState(0), 1)
            signs = np.repeat([-1.0, 1.0, 1.0, -1.0], [127, 1, 127, 1])
            assert np.array_equal(block[:, 0], signs)
        else:
            block, _ = _assert_matches_reference(kind, 4, RngState(0), 1)
            assert block[0, 0] == -0.5 and block[1, 0] == 0.75 and block[2, 0] < 2.0


class TestStreamFormat3:
    def test_version_is_exported(self):
        import diagmc

        assert STREAM_FORMAT == diagmc.STREAM_FORMAT == 3

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        start=st.integers(0, 2**40),
        count=st.integers(1, 12),
        s=st.sampled_from([1.0, None]),
    )
    @example(n=64, start=0, count=3, s=None)
    @example(n=65, start=5, count=3, s=1.0)
    @example(n=1, start=2**40, count=1, s=None)
    def test_rademacher_matches_bit_reference(self, n, start, count, s):
        # sparse_rademacher(1) is the same law through the same fill
        dist = rademacher() if s is None else sparse_rademacher(s)
        state = RngState(derive_seed(n, start, count), start)
        block, _ = sample_probe_block(dist, n, state, count)
        assert np.array_equal(block, _format3_rademacher(n, state, count))

    @pytest.mark.parametrize("word, sign", [(0, -1.0), ((1 << 64) - 1, 1.0)])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_all_zero_and_all_one_words(self, monkeypatch, word, sign, n):
        TestStreamFormat2._feed(monkeypatch, [word])
        block, _ = sample_probe_block(rademacher(), n, RngState(0, 3), 5)
        assert np.array_equal(block, np.full((n, 5), sign))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        start=st.integers(0, 2**40),
        count=st.integers(1, 40),
        s=st.sampled_from([2.0, 2.5, 3.0, 10.0, 50.0]),
        kind=st.sampled_from(["sparse", "uniform", "gaussian"]),
    )
    def test_other_families_keep_format2(self, n, start, count, s, kind):
        state = RngState(derive_seed(n, start, count), start)
        block = _live_block(kind, n, state, count, s)
        reference = _format2_block(kind, n, state, count, s)
        assert np.array_equal(block, reference)
        assert np.array_equal(np.signbit(block), np.signbit(reference))


def _reference_fill_gaussian(out, words):
    """Format-2 Gaussian fill as it ran before tiling: each pass over the whole
    (count, n) words and (n, count) block, through stride-2 and transposed views."""
    pairs, half = (len(out) + 1) // 2, len(out) // 2
    cos, sin = out[0::2], out[1::2]
    np.right_shift(words, np.uint64(11), out=words)
    u1, u2 = words[:, 0 : 2 * pairs : 2], words[:, 1 : 2 * pairs : 2]
    u1 += np.uint64(1)
    np.multiply(u1.T, 2.0**-53, out=cos)
    np.log(cos, out=cos)
    cos *= -2.0
    np.sqrt(cos, out=cos)
    slots = words.view(np.float64)
    t, d = slots[:, 0 : 2 * pairs : 2], slots[:, 1 : 2 * pairs : 2]
    np.multiply(u2, math.pi * 2.0**-53, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=d)
    d += 1.0
    np.divide(cos.T, d, out=d)
    d *= 2.0
    np.multiply(t[:, :half].T, d[:, :half].T, out=sin)
    np.subtract(d.T, cos, out=cos)


def _assert_tiles_match_reference(n, state, count, tile):
    with patch.object(probes, "_TILE_PAIRS", tile):
        block, _ = sample_probe_block(gaussian(), n, state, count)
    reference, _ = probes._sample_block(n, state, count, _reference_fill_gaussian)
    assert np.array_equal(block, reference)
    assert np.array_equal(np.signbit(block), np.signbit(reference))


class TestGaussianTiles:
    """Tiled Box-Muller equals the whole-block passes bit for bit, sign of zero included.

    ``np.log`` and ``np.tan`` used to run on stride-2 and transposed views and now
    run on contiguous tiles, and numpy picks its SIMD kernel by stride.  On a
    platform whose strided and contiguous kernels round differently these tests
    fail: that is a change of the probe stream there, to be reported, not a
    tolerance to widen.
    """

    TILES = [1, 2, 3, 7, probes._TILE_PAIRS]

    @pytest.mark.parametrize("tile", TILES)
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), count=st.integers(1, 80), start=st.integers(0, 2**40))
    def test_matches_whole_block_passes(self, tile, n, count, start):
        _assert_tiles_match_reference(n, RngState(derive_seed(n, count, start), start), count, tile)

    def test_large_block(self):
        _assert_tiles_match_reference(50_000, RngState(3), 64, probes._TILE_PAIRS)

    @pytest.mark.parametrize("tile", TILES)
    def test_edge_words(self, monkeypatch, tile):
        # every pair of the words where Box-Muller changes branch (radius 0 gives
        # signed zeros), rotating through the probes since 18 does not divide 40
        edge = TestStreamFormat2.EDGE
        row = np.array([w for a in edge for b in edge for w in (a, b)], dtype=np.uint64)
        monkeypatch.setattr(probes, "_raw_words", lambda seed, first, count: np.resize(row, count))
        _assert_tiles_match_reference(37, RngState(0), 11, tile)

    def test_scratch_is_bounded(self, peak_bytes):
        # the tile adds at most 512 KiB to the raw words and the block
        n, count = 100, 1024
        words = count * probes._words_per_probe(n) * 8
        block, peak = peak_bytes(lambda: sample_probe_block(gaussian(), n, RngState(3), count)[0])
        assert peak - words - block.nbytes <= 512 * 1024
        block, peak = peak_bytes(lambda: sample_probe_block(gaussian(), 50_000, RngState(3), 64)[0])
        assert peak <= 2.25 * block.nbytes


@pytest.mark.parametrize("kind", ["rademacher", "sparse", "gaussian", "uniform"])
def test_block_peak_memory(peak_bytes, kind):
    # raw words and the returned block, plus at most a quarter block of scratch;
    # Rademacher words and sign bytes take an eighth of the block between them
    block, peak = peak_bytes(lambda: _live_block(kind, 50_000, RngState(3), 64, s=3.0))
    assert block.shape == (50_000, 64)
    assert peak <= (1.25 if kind == "rademacher" else 2.5) * block.nbytes


@pytest.mark.parametrize("draw,fits", [(probes._DRAW_WORDS, True), (2**40, False)], ids=["chunks", "whole-share"])
def test_parts_draw_their_words_a_chunk_at_a_time(peak_bytes, monkeypatch, draw, fits):
    # three parts of (5*10^4, 64) uniform vectors, which fill in place: beyond the block
    # and the word array, each part holds one draw of 2^15 words at most.  The variant
    # in which each part allocates its whole share of the words (a third of them) is caught.
    monkeypatch.setattr(operators, "_WORKERS", 3)
    monkeypatch.setattr(probes, "_DRAW_WORDS", draw)
    n, count = 50_000, 64
    assert operators._parts(count, n * count) == 3
    words = count * probes._words_per_probe(n) * 8
    block, peak = peak_bytes(lambda: sample_uniform_block(n, RngState(3), count)[0])
    assert (peak <= block.nbytes + words + 3 * 8 * 2**15 + 2**14) == fits


class TestRowRange:
    """``rows=slice(lo, hi)`` gives ``[lo:hi]`` of the whole block bit for bit, sign of zero included."""

    SPECS = {"rademacher": rademacher(), "sparse": sparse_rademacher(3), "gaussian": gaussian()}
    # Rademacher ranges on both sides of the word boundaries 63|64 and 127|128; Gaussian
    # ones at odd n whose ends split a pair (entries 2p, 2p + 1)
    RANGES = [
        ("rademacher", 200, 63, 64), ("rademacher", 200, 63, 65), ("rademacher", 200, 64, 128),
        ("rademacher", 200, 127, 129), ("rademacher", 200, 60, 130), ("rademacher", 129, 128, 129),
        ("rademacher", 20, 9, 12),
        ("sparse", 20, 9, 12), ("sparse", 200, 0, 1), ("sparse", 200, 199, 200),
        ("gaussian", 21, 9, 12), ("gaussian", 21, 10, 11), ("gaussian", 21, 3, 21),
        ("gaussian", 21, 20, 21), ("gaussian", 21, 0, 21), ("gaussian", 1, 0, 1),
    ]

    @staticmethod
    def _assert_range(spec, n, lo, hi, state, count):
        whole, end = sample_probe_block(spec, n, state, count)
        part, part_end = sample_probe_block(spec, n, state, count, rows=slice(lo, hi))
        assert part.shape == (hi - lo, count) and part_end == end
        assert part.flags.c_contiguous and part.flags.owndata
        assert np.array_equal(part.view(np.uint64), whole[lo:hi].view(np.uint64))

    @pytest.mark.parametrize("count", [0, 1, 37])
    @pytest.mark.parametrize("kind, n, lo, hi", RANGES)
    def test_range_is_the_whole_blocks_rows(self, kind, n, lo, hi, count):
        self._assert_range(self.SPECS[kind], n, lo, hi, RngState(5, 3), count)

    @pytest.mark.parametrize("kind, n, lo, hi", RANGES)
    def test_range_in_parts(self, in_parts, kind, n, lo, hi):
        with in_parts():
            self._assert_range(self.SPECS[kind], n, lo, hi, RngState(5, 3), 37)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), data=st.data(), count=st.integers(0, 9),
           kind=st.sampled_from(["rademacher", "sparse", "gaussian"]))
    def test_any_range(self, n, data, count, kind):
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        self._assert_range(self.SPECS[kind], n, lo, hi, RngState(9, 2**33), count)

    def test_normalized_gaussian_draws_the_gaussian_range(self):
        part, _ = sample_probe_block(EstimatorSpec("normalized_gaussian"), 21, RngState(5), 4, rows=slice(9, 12))
        whole, _ = sample_probe_block(gaussian(), 21, RngState(5), 4)
        assert np.array_equal(part.view(np.uint64), whole[9:12].view(np.uint64))

    @pytest.mark.parametrize("kind, lo, hi, filled", [
        ("gaussian", 9, 12, 4), ("gaussian", 10, 12, 2), ("sparse", 9, 12, 3),
        ("rademacher", 63, 65, 128), ("rademacher", 64, 65, 64), ("rademacher", 195, 196, 8),
    ])
    def test_only_the_cover_is_filled(self, monkeypatch, kind, lo, hi, filled):
        # whole Gaussian pairs, whole 64-entry words (the last one cut at n = 200), single sparse entries
        fill = {"gaussian": "_fill_gaussian", "sparse": "_fill_sparse", "rademacher": "_fill_rademacher"}[kind]
        rows, original = [], getattr(probes, fill)

        def recording(out, words, **kw):
            rows.append(len(out))
            original(out, words, **kw)

        monkeypatch.setattr(probes, fill, recording)
        sample_probe_block(self.SPECS[kind], 200, RngState(1), 5, rows=slice(lo, hi))
        assert rows == [filled]

    def test_a_narrow_range_of_a_large_block_is_drawn_whole(self, monkeypatch):
        # the choice of the split path counts the entries filled, 64 x 64 here, not the
        # block's 5*10^4 x 64: one thread draws the words in one call, where the split
        # path draws runs of _DRAW_WORDS words
        monkeypatch.setattr(operators, "_WORKERS", 2)
        calls, raw = [], probes._raw_words
        monkeypatch.setattr(probes, "_raw_words", lambda *args: calls.append(args) or raw(*args))
        part, _ = sample_probe_block(gaussian(), 50_000, RngState(3), 64, rows=slice(100, 164))
        assert part.shape == (64, 64) and len(calls) == 1
        sample_probe_block(gaussian(), 50_000, RngState(3), 64)
        assert len(calls) > 2

    @pytest.mark.parametrize("rows", [
        slice(-1, 5), slice(0, 21), slice(5, 5), slice(6, 5), slice(0, 10, 2), slice(0, 10, -1), [1, 2],
    ], ids=["negative-lo", "hi-past-n", "empty", "reversed", "step-2", "step-minus-1", "not-a-slice"])
    def test_bad_range_rejected(self, rows):
        with pytest.raises(ValueError, match="rows"):
            sample_probe_block(gaussian(), 20, RngState(0), 3, rows=rows)

    def test_open_ends_mean_the_whole_probe(self):
        whole, _ = sample_probe_block(rademacher(), 70, RngState(2), 3)
        part, _ = sample_probe_block(rademacher(), 70, RngState(2), 3, rows=slice(None, None))
        assert np.array_equal(part, whole)
