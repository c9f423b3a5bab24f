"""Batch-query benchmark: the vectorized kernel vs the scalar probe path.

The tentpole claim of the kernel (:mod:`repro.oracle.kernel`) is that
an entire batch answered with numpy array passes beats the per-pair
Python probe loop by a wide margin while returning bit-identical
distances; the companion claim of binary format v3 is that the same
labels fit in half (in practice about a quarter) of the v2 bytes and
query at full kernel speed straight from the compact arrays.  This
file builds one index over the standard 10k-vertex Barabasi-Albert
graph and enforces:

* **bit-identical answers** between the scalar path, the kernel over
  the v2 store, and the kernel over the mmap-loaded v3 store;
* the **>= 3x kernel throughput floor** over the scalar batch path
  (measured ~3.5-4.5x on CPython 3.10-3.12);
* the **<= 50% v3 file-size ceiling** relative to the v2 file
  (measured ~25% on this index: 2-byte delta pivots + 1-byte
  quantized distances vs 4-byte pivots + 8-byte floats).

Every run records its measurements in ``BENCH_query_throughput.json``
(uploaded as a CI artifact), so the throughput trajectory is visible
per commit.
"""

from __future__ import annotations

import pytest

from repro.baselines.pll import build_pll
from repro.bench.export import write_bench_json
from repro.bench.metrics import interleaved_rates
from repro.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle

NUM_VERTICES = 10_000
NUM_PAIRS = 20_000
#: Acceptance floor for the kernel vs the scalar batch path.  The
#: dense-join kernel measures ~3.5-4.5x; 3.0 is the criterion with
#: headroom for machine noise.
MIN_KERNEL_SPEEDUP = 3.0
#: Acceptance ceiling for the v3 file size relative to v2.
MAX_V3_SIZE_RATIO = 0.5


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """One PLL index saved as v2 and v3, plus the serving stores."""
    graph = ba_graph(NUM_VERTICES, m=2, seed=1)
    index, _ = build_pll(graph)
    flat = FlatLabelStore.from_index(index)
    root = tmp_path_factory.mktemp("query-bench")
    v2_path = root / "index.idx2"
    v3_path = root / "index.idx3"
    flat.save(v2_path)
    QuantizedLabelStore.from_flat(flat).save(v3_path)
    quantized = QuantizedLabelStore.load(v3_path, use_mmap=True)
    yield flat, quantized, v2_path, v3_path
    quantized.close()


@pytest.fixture(scope="module")
def pairs():
    return random_pairs(NUM_VERTICES, NUM_PAIRS, seed=77)


def test_kernel_answers_bit_identical(assets, pairs):
    """Scalar path, v2 kernel, and mmapped-v3 kernel agree everywhere."""
    flat, quantized, _, _ = assets
    expected = DistanceOracle(flat, cache_size=0,
                              kernel="off").query_batch(pairs)
    assert DistanceOracle(flat, cache_size=0,
                          kernel="on").query_batch(pairs) == expected
    assert DistanceOracle(quantized, cache_size=0,
                          kernel="on").query_batch(pairs) == expected


def test_scalar_batch_throughput(benchmark, assets, pairs):
    """Baseline: the per-pair dict-probe loop (kernel pinned off)."""
    flat, _, _, _ = assets
    oracle = DistanceOracle(flat, cache_size=0, kernel="off")
    benchmark(lambda: oracle.query_batch(pairs))


def test_kernel_batch_throughput(benchmark, assets, pairs):
    """The vectorized kernel over the v2 CSR arrays."""
    flat, _, _, _ = assets
    oracle = DistanceOracle(flat, cache_size=0, kernel="on")
    result = benchmark(lambda: oracle.query_batch(pairs))
    assert result == [flat.query(s, t) for s, t in pairs]


def test_kernel_v3_batch_throughput(benchmark, assets, pairs):
    """The vectorized kernel straight over the mmapped v3 arrays."""
    _, quantized, _, _ = assets
    oracle = DistanceOracle(quantized, cache_size=0, kernel="on")
    benchmark(lambda: oracle.query_batch(pairs))


def test_v3_size_ceiling(assets):
    """The acceptance criterion: v3 files <= 50% of the v2 bytes."""
    _, quantized, v2_path, v3_path = assets
    ratio = v3_path.stat().st_size / v2_path.stat().st_size
    assert ratio <= MAX_V3_SIZE_RATIO, (
        f"v3 file is {ratio:.1%} of v2 ({v3_path.stat().st_size:,} vs "
        f"{v2_path.stat().st_size:,} bytes) — above the "
        f"{MAX_V3_SIZE_RATIO:.0%} ceiling"
    )
    assert quantized.is_quantized


def test_kernel_throughput_floor_and_export(assets, pairs):
    """The acceptance criterion: kernel >= 3x the scalar batch path.

    Measures all three serving configurations interleaved, asserts the
    floor on the v2 kernel, and exports every rate (plus the on-disk
    size comparison) to ``BENCH_query_throughput.json``.
    """
    flat, quantized, v2_path, v3_path = assets
    scalar = DistanceOracle(flat, cache_size=0, kernel="off")
    kernel_v2 = DistanceOracle(flat, cache_size=0, kernel="on")
    kernel_v3 = DistanceOracle(quantized, cache_size=0, kernel="on")
    scalar_rate, v2_rate, v3_rate = interleaved_rates(
        [scalar.query_batch, kernel_v2.query_batch, kernel_v3.query_batch],
        pairs,
        repeats=7,
    )
    speedup = v2_rate / scalar_rate
    v2_size = v2_path.stat().st_size
    v3_size = v3_path.stat().st_size
    write_bench_json(
        "query_throughput",
        {
            "num_vertices": NUM_VERTICES,
            "num_pairs": NUM_PAIRS,
            "kernel": "numpy",
            "scalar_pairs_per_sec": round(scalar_rate),
            "kernel_v2_pairs_per_sec": round(v2_rate),
            "kernel_v3_pairs_per_sec": round(v3_rate),
            "kernel_speedup": round(speedup, 3),
            "kernel_v3_speedup": round(v3_rate / scalar_rate, 3),
            "floor": MIN_KERNEL_SPEEDUP,
            "v2_file_bytes": v2_size,
            "v3_file_bytes": v3_size,
            "v3_size_ratio": round(v3_size / v2_size, 4),
            "v3_pivot_width": quantized.pivot_width,
            "v3_dist_width": quantized.dist_width,
        },
    )
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"kernel {v2_rate:,.0f} pairs/s vs scalar {scalar_rate:,.0f} "
        f"pairs/s — {speedup:.2f}x is below the {MIN_KERNEL_SPEEDUP}x floor"
    )
