"""Shared-memory fan-out: the one worker pool that serves queries.

Label lookup is a memory-bandwidth problem (Akiba et al.; Farhan et
al. — see PAPERS.md); the way to spread it over cores is sharing the
label arrays between workers, not copying them per process.  This
module shares both halves of the work:

* **labels**: the parent builds the kernel's packed key views once
  (:func:`repro.oracle.kernel.ensure_sides`) and only then forks the
  pool, so every worker inherits the store — its mmapped label files
  *and* the derived key views — copy-on-write.  Workers never touch a
  byte of label state through a pipe; they share one physical copy.
* **queries and results**: the pair columns and the distance results
  live in anonymous shared mappings (``mmap.mmap(-1, ...)`` maps
  ``MAP_SHARED``) created before the fork.  A task message is just a
  ``(lo, hi)`` span — two integers through the pool — and each worker
  writes its distances straight into the shared result buffer.

Each span runs one of two evaluators: the vectorized kernel
(:func:`repro.oracle.kernel.batch_eval_arrays`), or with
``kernel="off"`` the scalar grouped merge joins of
:func:`repro.oracle.batch.evaluate_batch` — so the scalar path keeps a
multi-core route over the same transport.

Batches against a sharded store are grouped by the shard owning each
pair's source vertex, so a worker's probes stay inside one shard's
pages; the per-shard routing counts accumulate as **hit counts**, and
:meth:`SharedMemoryFanout.rebalance` turns them into a load-weighted
re-split of the vertex ranges
(:func:`repro.oracle.sharding.load_balanced_ranges`).  Replication is
implicit in this design: every forked worker shares the whole label
set, so any worker can serve any shard's span and a hot range is
served by as many workers as its query mass demands.

A worker that dies (OOM killer, stray ``SIGKILL``) costs one batch
answered inline in the parent, not the pool: the broken pool is
dropped, the next batch forks fresh workers, and the event is counted
as a respawn in :meth:`SharedMemoryFanout.stats`.

Requires the ``fork`` start method (POSIX), which :func:`available`
reports; :class:`~repro.oracle.parallel.ParallelOracle` answers inline
where it is missing.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable

import numpy as np

from repro.oracle import kernel as _kernel
from repro.oracle.batch import KERNEL_MODES, evaluate_batch

#: Initial capacity (in pairs) of the shared query/result buffers.
#: Buffers grow geometrically when a larger batch arrives; growth
#: restarts the worker pool, so serving frontends size this to their
#: admission batch limit up front.
DEFAULT_CAPACITY = 1 << 16

# Per pair: one int64 source + one int64 target + one float64 result.
_BYTES_PER_PAIR = 24


class FanoutUnavailableError(RuntimeError):
    """Shared-memory fan-out cannot run on this platform or store."""


def available() -> bool:
    """Whether fan-out can run here: the ``fork`` start method exists."""
    return "fork" in multiprocessing.get_all_start_methods()


# Worker-side serving state, inherited at fork time: (store, S, T, R,
# kernel) with S/T/R numpy views over the shared mmap buffers.
# Deliberately a module global rather than pool initargs —
# fork-inheritance of the parent's objects is the whole point, nothing
# may be pickled.  The
# owning SharedMemoryFanout rebinds it before every submit round, so
# pools forked by different instances never mix state.
_FANOUT_STATE = None


def _eval_span(lo: int, hi: int) -> None:
    """Worker entry: evaluate one span of the shared query buffers.

    Reads pairs from the shared S/T views, writes distances into the
    shared R view — the return value is ``None`` on purpose, nothing
    crosses the pool's result pipe but the completion itself.  The
    parent calls it directly to answer a batch inline after a worker
    died.
    """
    store, S, T, R, kernel = _FANOUT_STATE
    if kernel == "off":
        pairs = zip(S[lo:hi].tolist(), T[lo:hi].tolist())
        R[lo:hi] = evaluate_batch(store, pairs, kernel="off")
    else:
        R[lo:hi] = _kernel.batch_eval_arrays(store, S[lo:hi], T[lo:hi])


class SharedMemoryFanout:
    """Fan batches out over forked workers sharing the label arrays.

    ``store`` is a kernel-supported label store — a
    :class:`~repro.core.flatstore.FlatLabelStore`, its quantized v3
    subclass, or a :class:`~repro.oracle.sharding.ShardedLabelStore`
    over them.  Answers are bit-identical to ``store.query`` per pair:
    every span runs the same evaluator the inline path uses, just on
    another core — the vectorized kernel, or with ``kernel="off"`` the
    scalar grouped merge joins.

    The instance owns a forked worker pool and the shared query
    buffers; :meth:`close` (or use as a context manager) releases
    both.  Not thread-safe: one batch at a time per instance.
    """

    def __init__(
        self,
        store,
        workers: int | None = None,
        capacity: int = DEFAULT_CAPACITY,
        kernel: str = "auto",
    ) -> None:
        if not available():
            raise FanoutUnavailableError(
                "shared-memory fan-out needs the 'fork' start method"
            )
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
            )
        if not _kernel.supports(store):
            raise FanoutUnavailableError(
                f"the batch kernel does not support "
                f"{type(store).__name__} stores"
            )
        if getattr(store, "has_pending_updates", False):
            raise FanoutUnavailableError(
                "store has staged updates; reconcile before fanning out"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        from repro.oracle.sharding import ShardedLabelStore

        self.store = store
        self.n = store.n
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._sharded = isinstance(store, ShardedLabelStore)
        self._los = (
            np.asarray(store._los, dtype=np.int64) if self._sharded else None
        )
        self.shard_hits = np.zeros(
            store.num_shards if self._sharded else 1, dtype=np.int64
        )
        self.kernel = kernel
        self.pairs_served = 0
        self.batches_served = 0
        self.respawns = 0
        # Build the packed key views BEFORE any fork, so children
        # inherit them copy-on-write instead of rebuilding per worker
        # (scalar spans never read them).
        if kernel != "off":
            _kernel.ensure_sides(store)
        self._pool: ProcessPoolExecutor | None = None
        self._capacity = 0
        self._mm: mmap.mmap | None = None
        self._S = self._T = self._R = None
        self._grow(capacity)

    # -- shared buffers and pool ---------------------------------------------
    def _grow(self, capacity: int) -> None:
        """(Re)allocate the shared buffers; the pool restarts lazily."""
        self._shutdown_pool()
        self._release_buffers()
        mm = mmap.mmap(-1, capacity * _BYTES_PER_PAIR)
        self._mm = mm
        self._S = np.frombuffer(mm, dtype=np.int64, count=capacity)
        self._T = np.frombuffer(
            mm, dtype=np.int64, count=capacity, offset=capacity * 8
        )
        self._R = np.frombuffer(
            mm, dtype=np.float64, count=capacity, offset=capacity * 16
        )
        self._capacity = capacity

    def _release_buffers(self) -> None:
        global _FANOUT_STATE
        if _FANOUT_STATE is not None and _FANOUT_STATE[1] is self._S:
            _FANOUT_STATE = None
        self._S = self._T = self._R = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # pragma: no cover - stray external view
                pass
            self._mm = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        global _FANOUT_STATE
        # Rebound before every submit round: workers snapshot the
        # global at fork time, and the pool forks lazily on submit.
        _FANOUT_STATE = (self.store, self._S, self._T, self._R, self.kernel)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def warmup(self) -> None:
        """Fork every worker now instead of inside the first batch.

        Forking from a quiescent parent (before an event loop or
        thread pool starts) is also the safest moment on POSIX, so
        serving frontends call this during startup.
        """
        pool = self._ensure_pool()
        futures = [
            pool.submit(_eval_span, 0, 0) for _ in range(self.workers)
        ]
        for future in futures:
            future.result()

    # -- batched serving -----------------------------------------------------
    def query_batch(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Distances for every pair, in input order (list convenience)."""
        pairs = list(pairs)
        if not pairs:
            return []
        sq = np.asarray(pairs, dtype=np.int64)
        return self.query_batch_arrays(sq[:, 0], sq[:, 1]).tolist()

    def query_batch_arrays(self, S, T):
        """Distances for pair columns ``(S[k], T[k])`` as one f64 array.

        The array-in/array-out twin of :meth:`query_batch`; raises
        ``IndexError`` on out-of-range vertices before anything is
        dispatched, like every other batch path.
        """
        S = np.ascontiguousarray(S, dtype=np.int64)
        T = np.ascontiguousarray(T, dtype=np.int64)
        if S.shape != T.shape or S.ndim != 1:
            raise ValueError("S and T must be 1-D arrays of equal length")
        npairs = len(S)
        if npairs == 0:
            return np.empty(0, dtype=np.float64)
        bad = (S < 0) | (S >= self.n) | (T < 0) | (T >= self.n)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise IndexError(
                f"query ({int(S[k])}, {int(T[k])}) out of range "
                f"[0, {self.n})"
            )
        if npairs > self._capacity:
            capacity = self._capacity
            while capacity < npairs:
                capacity *= 2
            self._grow(capacity)
        order, spans = self._plan(S)
        if order is None:
            self._S[:npairs] = S
            self._T[:npairs] = T
        else:
            self._S[:npairs] = S[order]
            self._T[:npairs] = T[order]
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_eval_span, lo, hi) for lo, hi in spans]
            for future in futures:
                future.result()
        except BrokenProcessPool:
            # A worker died.  Drop the pool — the next batch forks fresh
            # workers — and answer this batch in the parent, whose
            # S/T/R views are the very buffers the spans read and write.
            self._shutdown_pool()
            self.respawns += 1
            _eval_span(0, npairs)
        self.pairs_served += npairs
        self.batches_served += 1
        if order is None:
            return self._R[:npairs].copy()
        out = np.empty(npairs, dtype=np.float64)
        out[order] = self._R[:npairs]
        return out

    def _plan(self, S):
        """Evaluation order and worker spans for one batch.

        Sharded stores: pairs are stably grouped by the shard owning
        each source vertex (a worker's probes stay inside one shard's
        pages) and each group is cut so no span exceeds
        ``ceil(npairs / workers)``; the per-shard counts accumulate
        into :attr:`shard_hits`.  Flat stores keep the input order and
        get equal cuts.  Returns ``(order, spans)`` with ``order is
        None`` for the identity.
        """
        npairs = len(S)
        limit = -(-npairs // self.workers)
        if not self._sharded:
            self.shard_hits[0] += npairs
            spans = [
                (lo, min(lo + limit, npairs))
                for lo in range(0, npairs, limit)
            ]
            return None, spans
        sid = np.searchsorted(self._los, S, side="right") - 1
        counts = np.bincount(sid, minlength=self.shard_hits.size)
        self.shard_hits += counts
        order = np.argsort(sid, kind="stable")
        spans = []
        lo = 0
        for end in np.cumsum(counts):
            end = int(end)
            while lo < end:
                hi = min(lo + limit, end)
                spans.append((lo, hi))
                lo = hi
        return order, spans

    # -- load accounting and rebalancing -------------------------------------
    def stats(self) -> dict:
        """Serving counters: batches, pairs, respawns, per-shard hits."""
        return {
            "workers": self.workers,
            "capacity": self._capacity,
            "pairs_served": self.pairs_served,
            "batches_served": self.batches_served,
            "respawns": self.respawns,
            "shard_hits": self.shard_hits.tolist(),
        }

    def rebalance_ranges(
        self, num_shards: int | None = None
    ) -> list[tuple[int, int]]:
        """Load-weighted shard ranges from the observed hit counts.

        The planning half of :meth:`rebalance` — inspect these to see
        how hot ranges would shrink before committing to a re-split.
        """
        if not self._sharded:
            raise FanoutUnavailableError(
                "rebalancing needs a ShardedLabelStore"
            )
        from repro.oracle.sharding import load_balanced_ranges

        return load_balanced_ranges(
            self.store.ranges,
            self.shard_hits.tolist(),
            num_shards if num_shards is not None else self.store.num_shards,
        )

    def rebalance(self, num_shards: int | None = None):
        """Re-split hot vertex ranges so shards carry equal query mass.

        Builds a new :class:`ShardedLabelStore` over
        :meth:`rebalance_ranges`, swaps it in as the serving store
        (the worker pool restarts over the new shards on the next
        batch), and resets the hit counters.  Returns the new store;
        the previous store object is left untouched — the caller that
        opened it still owns (and closes) it.
        """
        from repro.oracle.sharding import ShardedLabelStore

        ranges = self.rebalance_ranges(num_shards)
        new_store = ShardedLabelStore.split(self.store, ranges=ranges)
        self._shutdown_pool()
        if self.kernel != "off":
            _kernel.ensure_sides(new_store)
        self.store = new_store
        self._los = np.asarray(new_store._los, dtype=np.int64)
        self.shard_hits = np.zeros(new_store.num_shards, dtype=np.int64)
        return new_store

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release the shared buffers."""
        self._shutdown_pool()
        self._release_buffers()

    def __enter__(self) -> "SharedMemoryFanout":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedMemoryFanout({self.store!r}, workers={self.workers}, "
            f"capacity={self._capacity}, kernel={self.kernel!r})"
        )


__all__ = (
    "DEFAULT_CAPACITY",
    "FanoutUnavailableError",
    "SharedMemoryFanout",
    "available",
)
