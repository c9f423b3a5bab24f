"""repro.oracle — the batched distance-query serving layer.

The :class:`DistanceOracle` facade is the single entry point for
answering queries over a built index: it attaches to any
:class:`~repro.core.labels.LabelStore` backend (tuple-list or flat
CSR), serves single-pair and batched point-to-point distances through
an LRU result cache, and exposes reachability, path reconstruction,
one-to-all, and k-NN on top.

For indexes too big (or traffic too heavy) for one process, the store
can be range-partitioned into a shard directory and served by forked
workers instead (:mod:`repro.oracle.sharding` /
:mod:`repro.oracle.parallel`); fanned-out batches ride the
shared-memory fan-out of :mod:`repro.serve.shm`, and the asyncio
request frontend lives one layer up in :mod:`repro.serve`.

Quick start::

    from repro.oracle import DistanceOracle, ParallelOracle

    oracle = DistanceOracle.open("g.index")        # any format version
    oracle.query(3, 4021)                          # exact distance
    oracle.query_batch([(0, 9), (3, 4021), ...])   # grouped evaluation
    oracle.nearest(3, k=10)                        # k-NN

    served = ParallelOracle("g.shards", workers=4)  # `repro shard` output
    served.query_batch(pairs)                       # fanned over the pool
"""

from repro.oracle.batch import KERNEL_MODES, evaluate_batch, read_pair_file
from repro.oracle.cache import CacheInfo, LRUCache
from repro.oracle.oracle import DEFAULT_CACHE_SIZE, DistanceOracle
from repro.oracle.parallel import (
    DEFAULT_INLINE_ENTRIES,
    DEFAULT_MIN_PARALLEL_BATCH,
    ParallelOracle,
)
from repro.oracle.sharding import (
    ShardedLabelStore,
    ShardError,
    load_balanced_ranges,
    load_manifest,
    split_ranges,
)

__all__ = [
    "DistanceOracle",
    "ParallelOracle",
    "ShardedLabelStore",
    "ShardError",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_INLINE_ENTRIES",
    "DEFAULT_MIN_PARALLEL_BATCH",
    "KERNEL_MODES",
    "LRUCache",
    "CacheInfo",
    "evaluate_batch",
    "load_balanced_ranges",
    "load_manifest",
    "read_pair_file",
    "split_ranges",
]
