"""Tests for the vectorized batch query kernel.

The contract under test is simple and strict: for any store the kernel
supports, any batch, and either join strategy, the answers are
bit-identical to the scalar reference path (the shared probe helpers
in :mod:`repro.core.flatstore`).
"""

import random

import numpy as np
import pytest

from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.generators import glp_graph
from repro.oracle import (
    DistanceOracle,
    ParallelOracle,
    ShardedLabelStore,
    evaluate_batch,
)
from repro.oracle import kernel
from tests.conftest import random_graph


def build_flat(n=120, seed=3, directed=False):
    g = glp_graph(n, seed=seed, directed=directed)
    return FlatLabelStore.from_index(HybridBuilder(g).build().index)


def batch(n, count, seed, include_special=True):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    if include_special:
        pairs += [(0, 0), (n - 1, n - 1)]      # s == t
        pairs += pairs[:5]                      # duplicates
    return pairs


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def flat(request):
    return build_flat(directed=request.param)


class TestSupports:
    def test_flat_and_quantized_supported(self, flat):
        assert kernel.supports(flat)
        assert kernel.supports(QuantizedLabelStore.from_flat(flat))
        assert kernel.supports(ShardedLabelStore.split(flat, 3))

    def test_tuple_list_not_supported(self, flat):
        assert not kernel.supports(flat.to_index())


class TestBitIdentity:
    def test_flat_matches_scalar(self, flat):
        pairs = batch(flat.n, 1500, seed=11)
        expected = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == expected

    def test_quantized_matches_scalar(self, flat):
        q = QuantizedLabelStore.from_flat(flat)
        pairs = batch(flat.n, 1500, seed=12)
        assert kernel.batch_eval(q, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_sharded_matches_scalar(self, flat):
        sharded = ShardedLabelStore.split(flat, 4)
        pairs = batch(flat.n, 1500, seed=13)
        assert kernel.batch_eval(sharded, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_sharded_quantized_shards(self, flat, tmp_path):
        ShardedLabelStore.split(flat, 3).save(tmp_path / "s", format="v3")
        sharded = ShardedLabelStore.load(tmp_path / "s")
        assert all(
            isinstance(s, QuantizedLabelStore) for s in sharded.shards
        )
        pairs = batch(flat.n, 800, seed=14)
        assert kernel.batch_eval(sharded, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_sorted_join_matches(self, flat, monkeypatch):
        # Force the searchsorted join (the huge-vertex-count fallback).
        monkeypatch.setattr(kernel, "_DENSE_TABLE_ELEMS", 0)
        fresh = build_flat(directed=flat.directed)
        pairs = batch(fresh.n, 1500, seed=15)
        assert kernel.batch_eval(fresh, pairs) == [
            fresh.query(s, t) for s, t in pairs
        ]

    @pytest.mark.parametrize(
        "seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    )
    def test_random_graphs(self, seed):
        g = random_graph(seed, max_n=60)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        q = QuantizedLabelStore.from_flat(flat)
        pairs = [(s, t) for s in range(g.num_vertices)
                 for t in range(g.num_vertices)]
        expected = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == expected
        assert kernel.batch_eval(q, pairs) == expected

    def test_mixed_key_dtype_shards(self):
        # Shard key spaces straddling the int32 boundary: the small
        # shard packs its keys in int32, the big one needs int64, and
        # the shifted cross-shard join must not wrap (regression: the
        # target keys used the target shard's dtype even though they
        # land in the source shard's key space).
        from array import array

        n = 92_682  # 92_682^2 > 2^31, 1_000 * 92_682 < 2^31
        split = 1_000

        def synth_shard(lo, hi, special):
            offsets = array("q", [0])
            pivots = array("i")
            dists = array("d")
            for v in range(lo, hi):
                for p, d in special.get(v, [(v, 0.0)]):
                    pivots.append(p)
                    dists.append(d)
                offsets.append(len(pivots))
            return FlatLabelStore(
                hi - lo, False, offsets, pivots, dists,
                offsets, pivots, dists,
            )

        s, t = 5, 50_000
        special = {
            s: [(0, 1.0), (s, 0.0)],
            t: [(0, 1.0), (t, 0.0)],
        }
        sharded = ShardedLabelStore(
            [synth_shard(0, split, special),
             synth_shard(split, n, special)],
            [(0, split), (split, n)],
        )
        small = kernel._sides(sharded.shards[0], n)[0].keys.dtype
        big = kernel._sides(sharded.shards[1], n)[0].keys.dtype
        assert (small, big) == (np.int32, np.int64)
        pairs = [(s, t), (t, s), (s, 7), (t, t)]
        assert kernel.batch_eval(sharded, pairs) == [
            sharded.query(a, b) for a, b in pairs
        ]

    def test_unreachable_pairs_inf(self):
        from repro.graphs.digraph import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        assert kernel.batch_eval(flat, [(0, 2), (1, 3), (0, 1)]) == [
            float("inf"), float("inf"), 1.0,
        ]

    def test_empty_batch(self, flat):
        assert kernel.batch_eval(flat, []) == []

    def test_out_of_range_raises(self, flat):
        with pytest.raises(IndexError, match="out of range"):
            kernel.batch_eval(flat, [(0, flat.n)])
        with pytest.raises(IndexError, match="out of range"):
            kernel.batch_eval(flat, [(-1, 0)])


class TestEvaluateBatchIntegration:
    def test_kernel_on_off_agree(self, flat):
        pairs = batch(flat.n, 1000, seed=21)
        off = evaluate_batch(flat, pairs, kernel="off")
        assert evaluate_batch(flat, pairs, kernel="on") == off
        assert evaluate_batch(flat, pairs, kernel="auto") == off

    def test_kernel_on_unsupported_raises(self, flat):
        with pytest.raises(ValueError, match="kernel='on'"):
            evaluate_batch(flat.to_index(), [(0, 1)], kernel="on")

    def test_bad_kernel_mode_rejected(self, flat):
        with pytest.raises(ValueError, match="kernel must be one of"):
            evaluate_batch(flat, [(0, 1)], kernel="fast")

    def test_auto_falls_back_for_lists(self, flat):
        index = flat.to_index()
        pairs = batch(flat.n, 200, seed=22)
        assert evaluate_batch(index, pairs, kernel="auto") == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_cache_filled_by_kernel_path(self, flat):
        from repro.oracle.cache import LRUCache

        cache = LRUCache(1024)
        pairs = batch(flat.n, 100, seed=23)
        first = evaluate_batch(flat, pairs, cache=cache, kernel="on")
        assert cache.info().size > 0
        # Second pass must be served from the cache, identically.
        assert evaluate_batch(flat, pairs, cache=cache, kernel="on") == first

    def test_oracle_kernel_knob(self, flat):
        pairs = batch(flat.n, 500, seed=24)
        on = DistanceOracle(flat, cache_size=0, kernel="on")
        off = DistanceOracle(flat, cache_size=0, kernel="off")
        assert on.query_batch(pairs) == off.query_batch(pairs)

    def test_parallel_oracle_rejects_bad_kernel_mode(self, flat, tmp_path):
        shard_dir = tmp_path / "shards"
        ShardedLabelStore.split(flat, 2).save(shard_dir)
        with pytest.raises(ValueError, match="kernel must be one of"):
            ParallelOracle(shard_dir, kernel="bogus")

    def test_mmapped_v3_through_kernel(self, flat, tmp_path):
        q = QuantizedLabelStore.from_flat(flat)
        q.save(tmp_path / "i.idx3")
        oracle = DistanceOracle.open(
            tmp_path / "i.idx3", use_mmap=True, kernel="on", cache_size=0
        )
        try:
            assert oracle.store.is_mmapped
            pairs = batch(flat.n, 500, seed=25)
            assert oracle.query_batch(pairs) == [
                flat.query(s, t) for s, t in pairs
            ]
        finally:
            oracle.close()
