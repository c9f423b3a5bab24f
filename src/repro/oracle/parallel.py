"""The :class:`ParallelOracle` frontend: fan ``query_batch`` out over shards.

One :class:`~repro.oracle.DistanceOracle` is one process serving one
store; this frontend serves a **shard directory** (see
:mod:`repro.oracle.sharding`) and may fan large batches out to forked
workers instead:

* the parent opens the :class:`ShardedLabelStore` itself (mmap by
  default), so every single-pair facility — ``query``, k-NN, path
  reconstruction, the verifier — works exactly as on a plain oracle;
* fanned-out batches ride the one query worker pool, the
  shared-memory fan-out of :mod:`repro.serve.shm`: workers are
  *forked* over the parent's store, so they share the label arrays
  copy-on-write, pairs are grouped by the shard owning each source
  vertex, and pair/result buffers live in shared mmaps — nothing is
  pickled per batch.  Each span runs the oracle's evaluator: the
  vectorized kernel, or with ``kernel="off"`` the scalar grouped
  merge joins, so answers are bit-identical to
  ``DistanceOracle.query_batch`` either way
  (``benchmarks/test_shard_throughput.py`` enforces the equality and
  measures the scalar fan-out against one process).

This class only decides **inline vs. fan-out**.  Batches below
``min_parallel_batch`` pairs, single-worker oracles, platforms without
the ``fork`` start method, and stores with staged updates are answered
inline by the parent (through the LRU cache, like any oracle).  With
the kernel on, a cache-resident index (total label entries at or below
``inline_entries``) is answered inline too: one vectorized pass beats
pool dispatch there.  The fan-out path bypasses the parent's result
cache: shipping cache state between processes would cost more than the
joins it saves.  The fan-out records per-shard hit counts
(:attr:`ParallelOracle.shard_hits`) feeding the load-adaptive
rebalance hook.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.graphs.digraph import Graph
from repro.oracle.batch import KERNEL_MODES
from repro.oracle.oracle import DEFAULT_CACHE_SIZE, DistanceOracle
from repro.oracle.sharding import ShardedLabelStore

#: Batches smaller than this are evaluated inline by the parent —
#: dispatch overhead (buffer copies, worker wakeups) dominates below it.
DEFAULT_MIN_PARALLEL_BATCH = 1024

#: With the kernel on, batches are served inline (single kernel
#: process, no pool) while the store's total label entries stay at or
#: below this.  A cache-resident index is joined faster by one
#: vectorized kernel pass than by fanning spans out to workers — ~2M
#: entries is ~24 MB of key/dist views, comfortably inside a shared L3.
DEFAULT_INLINE_ENTRIES = 2_000_000


class ParallelOracle(DistanceOracle):
    """Batched distance serving over a shard directory with forked workers."""

    def __init__(
        self,
        shard_dir: str | Path,
        workers: int | None = None,
        use_mmap: bool = True,
        graph: Graph | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        min_parallel_batch: int = DEFAULT_MIN_PARALLEL_BATCH,
        kernel: str = "auto",
        inline_entries: int = DEFAULT_INLINE_ENTRIES,
    ) -> None:
        # Validate configuration before the store load so a bad call
        # never leaks N open shard mappings.
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        store = ShardedLabelStore.load(shard_dir, use_mmap=use_mmap)
        super().__init__(store, graph=graph, cache_size=cache_size,
                         kernel=kernel)
        self.shard_dir = Path(shard_dir)
        self.min_parallel_batch = min_parallel_batch
        self.inline_entries = inline_entries
        self._fanout = None
        self._total_entries: int | None = None
        if workers is None:
            # More workers than shards just contend for the same pages;
            # more workers than cores contend for the same cycles.
            workers = min(store.num_shards, os.cpu_count() or 1)
        self.workers = workers

    # -- batched serving -----------------------------------------------------
    def _serve_inline(self, num_pairs: int) -> bool:
        """Whether this batch should bypass the worker pool.

        Inline always wins for small batches and single-worker
        oracles, and is the only option where ``fork`` is missing.  It
        is *forced* while updates are staged but not yet reconciled
        (the forked workers hold the pre-update labels — only the
        parent's overlay answers correctly).  The scalar evaluator
        otherwise always fans out; the kernel keeps cache-resident
        indexes (total entries <= ``inline_entries``) on the parent,
        where one vectorized pass beats pool dispatch.
        """
        if num_pairs < self.min_parallel_batch or self.workers <= 1:
            return True
        if self.store.has_pending_updates:
            return True
        from repro.serve.shm import available

        if not available():
            return True
        if self.kernel == "off":
            return False
        if self._total_entries is None:
            self._total_entries = self.store.total_entries(
                include_trivial=True
            )
        return self._total_entries <= self.inline_entries

    def query_batch(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Distances for every pair, in input order.

        Bit-identical to :meth:`DistanceOracle.query_batch`; see
        :meth:`_serve_inline` for which batches stay on the parent.
        """
        pairs = list(pairs)
        if self._serve_inline(len(pairs)):
            return super().query_batch(pairs)
        return self._ensure_fanout().query_batch(pairs)

    def warmup(self) -> None:
        """Fork the workers now instead of inside the first fanned batch.

        A no-op when batches of ``min_parallel_batch`` pairs would be
        answered inline anyway — there is no pool to warm.
        """
        if not self._serve_inline(self.min_parallel_batch):
            self._ensure_fanout().warmup()

    def _ensure_fanout(self):
        if self._fanout is None:
            from repro.serve.shm import SharedMemoryFanout

            self._fanout = SharedMemoryFanout(
                self.store, workers=self.workers, kernel=self.kernel
            )
        return self._fanout

    def _close_fanout(self) -> None:
        if self._fanout is not None:
            self._fanout.close()
            self._fanout = None

    @property
    def shard_hits(self) -> list[int] | None:
        """Per-shard hit counts the fan-out recorded (None before any).

        The raw signal behind
        :meth:`repro.serve.shm.SharedMemoryFanout.rebalance`.
        """
        if self._fanout is None:
            return None
        return self._fanout.shard_hits.tolist()

    # -- incremental updates -------------------------------------------------
    def apply_updates(self, delta) -> list[int]:
        """Stage updates on the parent's sharded store.

        The staged overlay answers immediately and correctly through
        the parent; batches are served **inline** (never fanned out)
        until :meth:`reconcile` rewrites the changed shard files,
        because the forked workers hold the pre-update labels.
        """
        result = super().apply_updates(delta)
        self._total_entries = None
        return result

    def reconcile(self) -> list[int]:
        """Flush staged updates to the shard directory, refresh workers.

        Rewrites only the dirty shard files (and their manifest
        checksums) via :meth:`ShardedLabelStore.reconcile`, then drops
        the fan-out: its workers inherited the pre-update shards at
        fork time, so the next fanned-out batch forks fresh workers
        over the merged arrays.  Returns the rewritten shard ids.
        """
        rewritten = self.store.reconcile(self.shard_dir)
        self._close_fanout()
        return rewritten

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and release the shard mappings."""
        self._close_fanout()
        super().close()

    def __enter__(self) -> "ParallelOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelOracle({self.store!r}, workers={self.workers}, "
            f"kernel={self.kernel!r})"
        )
