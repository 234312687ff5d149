"""``max_tiles`` sampling composed with the trace planner.

Sampling must stay an unbiased, deterministic subset regardless of how
the records are computed: the sampled fraction is exact, sampled records
are a strict subset of the full-matrix records, and a fixed RNG seed
reproduces the same sample through every backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prosparsity import transform_matrix
from repro.core.spike_matrix import random_spike_matrix
from repro.engine import ProsperityEngine

TILE_M, TILE_K = 64, 16
MAX_TILES = 10


@pytest.fixture
def matrix(rng):
    # 20 row blocks x 3 col blocks = 60 tiles, ragged on both axes.
    return random_spike_matrix(TILE_M * 20 - 10, TILE_K * 3 - 5, 0.3, rng, 0.4)


def _engine(backend):
    return ProsperityEngine(backend=backend, tile_m=TILE_M, tile_k=TILE_K)


def _record_multiset(records):
    return sorted(map(tuple, records.tolist()))


class TestSampledFraction:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_fraction_exact(self, matrix, backend):
        total = matrix.num_tiles(TILE_M, TILE_K)
        result = _engine(backend).transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        assert len(result.tile_records) == MAX_TILES
        assert result.stats.sample_fraction == MAX_TILES / total

    def test_no_sampling_when_under_cap(self, rng):
        small = random_spike_matrix(TILE_M, TILE_K, 0.3, rng)
        result = _engine("fused").transform_matrix(
            small, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        assert result.stats.sample_fraction == 1.0
        assert len(result.tile_records) == 1


class TestSampledSubset:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_records_strict_subset_of_full(self, matrix, backend):
        engine = _engine(backend)
        sampled = engine.transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        full = engine.transform_matrix(matrix)
        assert len(sampled.tile_records) < len(full.tile_records)
        full_multiset = _record_multiset(full.tile_records)
        for record in map(tuple, sampled.tile_records.tolist()):
            assert record in full_multiset

    def test_sample_counts_bounded_by_full(self, matrix):
        """Each distinct record appears at most as often as in the full set."""
        engine = _engine("fused")
        sampled = engine.transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        full = engine.transform_matrix(matrix)
        from collections import Counter

        sampled_counts = Counter(map(tuple, sampled.tile_records.tolist()))
        full_counts = Counter(map(tuple, full.tile_records.tolist()))
        for record, count in sampled_counts.items():
            assert count <= full_counts[record]


class TestSampledDeterminism:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_fixed_seed_reproduces(self, matrix, backend):
        engine = _engine(backend)
        first = engine.transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(42)
        )
        second = engine.transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(42)
        )
        assert np.array_equal(first.tile_records, second.tile_records)

    def test_matches_core_sampled_path(self, matrix):
        """Same seed, same tiles, same records as the core oracle path."""
        core = transform_matrix(
            matrix, TILE_M, TILE_K, keep_transforms=False,
            max_tiles=MAX_TILES, rng=np.random.default_rng(7),
        )
        engine = _engine("fused").transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(7)
        )
        assert np.array_equal(core.tile_records, engine.tile_records)
        assert core.stats.sample_fraction == engine.stats.sample_fraction


class TestSampledTraceComposition:
    def test_default_rng_matches_per_workload_reseed(self, rng):
        """rng=None seeds default_rng(0) *per workload*.

        transform_matrix reseeds per call, so the trace plan must too —
        a single shared generator would diverge from workload 1 on.
        """
        matrices = [
            random_spike_matrix(TILE_M * 20, TILE_K * 2, 0.3, rng, 0.4)
            for _ in range(3)
        ]
        planned = _engine("fused").transform_trace(matrices, max_tiles=MAX_TILES)
        loop = [
            _engine("fused").transform_matrix(m, max_tiles=MAX_TILES)
            for m in matrices
        ]
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)

    def test_mixed_sampled_and_whole_workloads(self, rng):
        """transform_trace mixes sampled + exact workloads in one plan."""
        big = random_spike_matrix(TILE_M * 20, TILE_K * 2, 0.3, rng, 0.4)
        small = random_spike_matrix(TILE_M, TILE_K, 0.3, rng)
        planned = _engine("fused").transform_trace(
            [big, small], max_tiles=MAX_TILES, rng=np.random.default_rng(5)
        )
        loop_rng = np.random.default_rng(5)
        loop = [
            _engine("fused").transform_matrix(m, max_tiles=MAX_TILES, rng=loop_rng)
            for m in (big, small)
        ]
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)
            assert mine.stats.sample_fraction == theirs.stats.sample_fraction
        assert planned[0].stats.sample_fraction < 1.0
        assert planned[1].stats.sample_fraction == 1.0
