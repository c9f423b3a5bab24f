"""Sharded-serving benchmark: ParallelOracle vs single-store batches.

The claim behind the sharded store + fan-out frontend is that batch
throughput scales with cores once the index is partitioned: every
forked worker shares the parent's mmap of the shard files and
evaluates its span with the same evaluation paths the single-store
process uses.  This
file builds one index over a 10k-vertex Barabasi-Albert graph, serves
it four ways — per-pair, single-store ``query_batch``, and
``ParallelOracle`` over a shard directory with the vectorized kernel
pinned off and on — and enforces:

* **bit-identical answers** across all paths (always);
* the **>= 1.5x batch-throughput floor** for the parallel frontend
  over the single-store batch path, measured like-for-like on the
  scalar evaluation path so it isolates the fan-out machinery (on
  machines with >= 2 cores; a process pool cannot beat the GIL-free
  single process on one core, so the floor is skipped there — CI
  runners have >= 2).

With the kernel on, both configurations speed up by several times and
the measured rates are recorded without a floor: spans cross the
process boundary as two integers over shared buffers, but a
cache-resident index answered by one kernel call per batch is hard to
beat until indexes outgrow one machine's memory (the oracle's default
``inline_entries`` keeps such indexes inline) — that trade-off belongs
in the data, not hidden by the gate (``benchmarks/test_query_throughput.py`` gates
the kernel itself).

Every run also records its measurements — including p50/p99 single-
pair latency and which evaluation kernel served the batch paths — in
``BENCH_shard_throughput.json`` (uploaded as a CI artifact), so the
throughput trajectory is visible per commit even where the floor is
skipped.
"""

from __future__ import annotations

import gc
import os
import sys
import time

import pytest

from repro.baselines.pll import build_pll
from repro.bench.export import write_bench_json
from repro.bench.metrics import interleaved_rates
from repro.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, ParallelOracle, ShardedLabelStore
from repro.oracle import kernel as query_kernel

NUM_VERTICES = 10_000
#: Big enough that pool dispatch (copying pairs, waking workers) is
#: amortised; the per-worker chunks still fit well inside L2-resident
#: label slices.
NUM_PAIRS = 20_000
NUM_SHARDS = 4
#: Acceptance floor for ParallelOracle vs single-store batch
#: throughput on the scalar path.  With 4 process workers the fan-out
#: measures ~2-3x on 2-4 core CI runners; 1.5 is the criterion with
#: headroom for noise.
MIN_PARALLEL_SPEEDUP = 1.5
#: Single-pair queries timed for the latency percentiles.
LATENCY_SAMPLES = 2_000

_CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """One PLL index served two ways: flat store and shard directory."""
    graph = ba_graph(NUM_VERTICES, m=2, seed=1)
    index, _ = build_pll(graph)
    flat = FlatLabelStore.from_index(index)
    root = tmp_path_factory.mktemp("shard-bench")
    shard_dir = root / "shards"
    ShardedLabelStore.split(flat, NUM_SHARDS).save(shard_dir)
    return flat, shard_dir


@pytest.fixture(scope="module")
def pairs():
    return random_pairs(NUM_VERTICES, NUM_PAIRS, seed=77)


def _make_parallel(shard_dir, kernel: str) -> ParallelOracle:
    oracle = ParallelOracle(
        shard_dir,
        workers=min(NUM_SHARDS, _CORES),
        cache_size=0,
        kernel=kernel,
    )
    oracle.warmup()
    return oracle


@pytest.fixture(scope="module")
def parallel_oracle(assets):
    """The default serving configuration (kernel resolved to auto)."""
    _, shard_dir = assets
    oracle = _make_parallel(shard_dir, kernel="auto")
    yield oracle
    oracle.close()


@pytest.fixture(scope="module")
def parallel_oracle_scalar(assets):
    """Kernel pinned off — the floor's like-for-like configuration."""
    _, shard_dir = assets
    oracle = _make_parallel(shard_dir, kernel="off")
    yield oracle
    oracle.close()


def _latency_percentiles_us(oracle, pairs) -> tuple[float, float]:
    """(p50, p99) single-pair query latency in microseconds."""
    sample = pairs[:LATENCY_SAMPLES]
    timings = []
    query = oracle.query
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for s, t in sample:
            t0 = time.perf_counter()
            query(s, t)
            timings.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    timings.sort()
    p50 = timings[len(timings) // 2]
    p99 = timings[min(len(timings) - 1, (len(timings) * 99) // 100)]
    return p50 * 1e6, p99 * 1e6


def test_sharded_answers_bit_identical(assets, pairs, parallel_oracle,
                                       parallel_oracle_scalar):
    """Per-pair, batched, sharded, and kernel paths agree everywhere."""
    flat, shard_dir = assets
    expected = [flat.query(s, t) for s, t in pairs]

    single = DistanceOracle(flat, cache_size=0)
    assert single.query_batch(pairs) == expected

    sharded = ShardedLabelStore.load(shard_dir, use_mmap=True)
    try:
        assert [sharded.query(s, t) for s, t in pairs] == expected
    finally:
        sharded.close()

    assert parallel_oracle.query_batch(pairs) == expected
    assert parallel_oracle_scalar.query_batch(pairs) == expected


def test_single_store_batch_throughput(benchmark, assets, pairs):
    """Baseline: the single-process batch path (kernel resolved to auto)."""
    flat, _ = assets
    oracle = DistanceOracle(flat, cache_size=0)
    benchmark(lambda: oracle.query_batch(pairs))


def test_parallel_batch_throughput(benchmark, assets, pairs, parallel_oracle):
    """The sharded path through the default-configured oracle."""
    result = benchmark(lambda: parallel_oracle.query_batch(pairs))
    flat, _ = assets
    assert result == [flat.query(s, t) for s, t in pairs]


def test_parallel_throughput_floor_and_export(assets, pairs, parallel_oracle,
                                              parallel_oracle_scalar):
    """The acceptance criterion: sharded batches >= 1.5x single-store.

    The floor compares the scalar evaluation path on both sides (the
    fan-out machinery itself); the kernel-on rates for both
    configurations, p50/p99 single-pair latency, and the resolved
    kernel are exported to ``BENCH_shard_throughput.json`` on every
    run.  The floor itself needs a second core (a process pool on one
    core only adds dispatch overhead) and is asserted when the machine
    has one.
    """
    flat, _ = assets
    single_scalar = DistanceOracle(flat, cache_size=0, kernel="off")
    single_auto = DistanceOracle(flat, cache_size=0)
    single_rate, parallel_rate = interleaved_rates(
        [single_scalar.query_batch, parallel_oracle_scalar.query_batch],
        pairs,
    )
    single_kernel_rate, parallel_kernel_rate = interleaved_rates(
        [single_auto.query_batch, parallel_oracle.query_batch], pairs
    )
    p50_us, p99_us = _latency_percentiles_us(parallel_oracle, pairs)
    speedup = parallel_rate / single_rate
    kernel_name = (
        "numpy" if query_kernel.supports(parallel_oracle.store) else "scalar"
    )
    floor_enforced = _CORES >= 2
    write_bench_json(
        "shard_throughput",
        {
            "num_vertices": NUM_VERTICES,
            "num_pairs": NUM_PAIRS,
            "num_shards": NUM_SHARDS,
            "workers": parallel_oracle.workers,
            "cores": _CORES,
            "kernel": kernel_name,
            "single_store_pairs_per_sec": round(single_rate),
            "parallel_pairs_per_sec": round(parallel_rate),
            "single_store_kernel_pairs_per_sec": round(single_kernel_rate),
            "parallel_kernel_pairs_per_sec": round(parallel_kernel_rate),
            "query_p50_us": round(p50_us, 2),
            "query_p99_us": round(p99_us, 2),
            "speedup": round(speedup, 3),
            "kernel_speedup": round(
                parallel_kernel_rate / single_kernel_rate, 3
            ),
            "floor": MIN_PARALLEL_SPEEDUP,
            "floor_enforced": floor_enforced,
        },
    )
    if not floor_enforced:
        reason = (
            f"SKIP: only {_CORES} core(s) — the >= "
            f"{MIN_PARALLEL_SPEEDUP}x parallel floor needs real "
            "parallelism (a process pool on one core only adds dispatch "
            "overhead); rates were still measured and exported to "
            "BENCH_shard_throughput.json"
        )
        print(reason, file=sys.stderr)
        pytest.skip(reason)
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"ParallelOracle {parallel_rate:,.0f} pairs/s vs single store "
        f"{single_rate:,.0f} pairs/s — {speedup:.2f}x is below the "
        f"{MIN_PARALLEL_SPEEDUP}x floor"
    )
