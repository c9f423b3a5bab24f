"""Tests for the ParallelOracle shard-directory serving frontend."""

import pytest

from repro.baselines.pll import build_pll
from repro.bench.workloads import random_pairs
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, ParallelOracle, ShardedLabelStore
from repro.serve import shm

needs_fork = pytest.mark.skipif(
    not shm.available(), reason="fan-out needs the fork start method"
)


@pytest.fixture(scope="module")
def graph():
    return ba_graph(400, m=2, seed=19)


@pytest.fixture(scope="module")
def flat(graph):
    index, _ = build_pll(graph)
    return FlatLabelStore.from_index(index)


@pytest.fixture(scope="module")
def shard_dir(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "shards"
    ShardedLabelStore.split(flat, 3).save(path)
    return path


@pytest.fixture(scope="module")
def expected(flat):
    pairs = random_pairs(flat.n, 600, seed=23)
    return pairs, [flat.query(s, t) for s, t in pairs]


@pytest.fixture(scope="module")
def updated(graph, flat):
    """Labels after two edge insertions, and the delta that gets there."""
    dyn = DynamicHopDoublingIndex.from_store(flat, graph=graph, engine="dict")
    dyn.insert_edges([(0, 399), (17, 250)])
    return dyn, dyn.pop_label_delta()


def _fanned(shard_dir, **kwargs) -> ParallelOracle:
    """An oracle that fans every batch out (no size or entry cutoff)."""
    return ParallelOracle(
        shard_dir, min_parallel_batch=1, inline_entries=0, **kwargs
    )


@pytest.mark.parametrize("fmt", ["v2", "v3"])
@pytest.mark.parametrize("kernel", ["auto", "off"])
def test_batch_matches_single_store(flat, updated, tmp_path, kernel, fmt):
    """Bit-identical to ``store.query`` per pair, before and after an
    update is staged and reconciled, on both evaluators and formats."""
    dyn, delta = updated
    root = tmp_path / "shards"
    ShardedLabelStore.split(flat, 3).save(root, format=fmt)
    pairs = random_pairs(flat.n, 600, seed=23)
    with _fanned(root, workers=2, kernel=kernel) as oracle:
        assert oracle.query_batch(pairs) == [
            flat.query(s, t) for s, t in pairs
        ]
        assert (oracle._fanout is not None) == shm.available()
        oracle.apply_updates(delta)
        want = [dyn.query(s, t) for s, t in pairs]
        assert want != [flat.query(s, t) for s, t in pairs]
        # Staged updates are answered inline by the parent's overlay.
        assert oracle.query_batch(pairs) == want
        oracle.reconcile()
        assert oracle._fanout is None
        # Reconciled: fresh workers fork over the rewritten shards.
        assert oracle.query_batch(pairs) == want
        assert oracle.query_batch(pairs) == [
            oracle.store.query(s, t) for s, t in pairs
        ]
        assert (oracle._fanout is not None) == shm.available()


def test_order_preserved_with_duplicates_and_self_pairs(shard_dir, flat):
    # Shard-grouped fan-out permutes evaluation order; the merge must
    # restore input order exactly, duplicates and s == t included.
    pairs = [(5, 300), (300, 5), (5, 300), (7, 7), (399, 0), (5, 300)]
    want = [flat.query(s, t) for s, t in pairs]
    for kernel in ("auto", "off"):
        with _fanned(shard_dir, workers=3, kernel=kernel) as oracle:
            assert oracle.query_batch(pairs) == want


def test_small_batches_evaluated_inline(shard_dir, expected):
    pairs, want = expected
    with ParallelOracle(
        shard_dir, workers=2, min_parallel_batch=10_000, inline_entries=0
    ) as oracle:
        assert oracle.query_batch(pairs) == want
        # No workers are forked for below-threshold batches.
        assert oracle._fanout is None


def test_single_pair_facilities_work(shard_dir, flat):
    with ParallelOracle(shard_dir, workers=2) as oracle:
        assert oracle.n == flat.n
        assert oracle.query(3, 250) == flat.query(3, 250)
        assert oracle.query_via(3, 250) == flat.query_via(3, 250)
        reference = DistanceOracle(flat)
        assert oracle.nearest(9, k=4) == reference.nearest(9, k=4)


def test_warmup_then_query(shard_dir, expected):
    pairs, want = expected
    oracle = _fanned(shard_dir, workers=2)
    try:
        oracle.warmup()
        assert (oracle._fanout is not None) == shm.available()
        assert oracle.query_batch(pairs) == want
    finally:
        oracle.close()


def test_warmup_is_a_no_op_when_batches_stay_inline(shard_dir):
    with ParallelOracle(shard_dir, workers=2) as oracle:
        # The small index is cache-resident: the kernel answers inline.
        oracle.warmup()
        assert oracle._fanout is None


def test_out_of_range_pair_raises(shard_dir):
    for kernel in ("auto", "off"):
        with _fanned(shard_dir, workers=2, kernel=kernel) as oracle:
            with pytest.raises(IndexError):
                oracle.query_batch([(0, 1), (0, 10_000)])


def test_close_is_idempotent(shard_dir):
    oracle = _fanned(shard_dir, workers=2)
    oracle.query_batch([(0, 1)] * 2048)
    oracle.close()
    oracle.close()
    assert oracle._fanout is None


def test_invalid_configuration_rejected(shard_dir):
    with pytest.raises(ValueError, match="workers"):
        ParallelOracle(shard_dir, workers=0)
    with pytest.raises(ValueError, match="kernel"):
        ParallelOracle(shard_dir, kernel="sometimes")


@needs_fork
def test_shm_fanout_matches_flat_store(shard_dir, expected):
    pairs, want = expected
    with _fanned(shard_dir, workers=2) as oracle:
        assert oracle.shard_hits is None
        assert oracle.query_batch(pairs) == want
        # The fan-out engaged and recorded per-shard routing hits.
        assert oracle._fanout is not None
        assert sum(oracle.shard_hits) == len(pairs)


@needs_fork
def test_shm_transport_survives_update_reconcile(shard_dir, flat, expected):
    from repro.core.labels import LabelDelta

    pairs, want = expected
    with _fanned(shard_dir, workers=2) as oracle:
        assert oracle.query_batch(pairs) == want
        delta = LabelDelta.empty(flat.n, flat.directed)
        delta.out[5] = list(flat.out_label(5))
        oracle.apply_updates(delta)
        # Staged updates force inline; the stale forked workers are
        # dropped at reconcile and the next fan-out re-forks fresh.
        assert oracle.query_batch(pairs) == want
        oracle.reconcile()
        assert oracle._fanout is None
        assert oracle.query_batch(pairs) == want


def test_default_workers_bounded_by_shards(shard_dir):
    oracle = ParallelOracle(shard_dir)
    try:
        assert 1 <= oracle.workers <= 3
    finally:
        oracle.close()
