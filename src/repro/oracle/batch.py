"""Batched evaluation of distance queries over a label store.

A batch of ``(s, t)`` pairs is answered in three steps:

1. **dedupe** — identical pairs (after orientation normalisation on
   undirected stores, where ``dist(s, t) == dist(t, s)``) are
   evaluated once and fanned back out to every position;
2. **cache probe** — pairs already in the shared LRU are answered
   without touching the store;
3. **evaluation** — the remaining pairs go through the vectorized
   numpy kernel (:mod:`repro.oracle.kernel`) when the store exposes
   CSR arrays, or otherwise through grouped merge joins: pairs are
   grouped by source vertex so a store that implements
   ``query_group`` (the CSR backend) builds each source's pivot dict
   once and probes every target through it; stores without the hook
   fall back to per-pair ``query``.

Results are bit-identical to calling ``store.query`` per pair
whichever path runs: every path computes the same minimum over the
same float64 sums, and the cache only ever stores values produced by
one of them.  The ``kernel`` knob ("auto"/"on"/"off") exists so
benchmarks can pin a path; "auto" is right everywhere else.  The same
evaluators run on other cores through the shared-memory fan-out of
:mod:`repro.serve.shm`: kernel spans, or scalar spans through
:func:`evaluate_batch` with ``kernel="off"``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.labels import LabelStore
from repro.oracle.cache import LRUCache

_MISS = object()

#: Accepted values of the ``kernel`` knob.
KERNEL_MODES = ("auto", "on", "off")

#: Below this many unique pairs "auto" stays on the scalar path — the
#: kernel's fixed per-call cost (array setup, np.unique) is larger
#: than a handful of dict probes.  Purely a perf cutoff: both paths
#: return bit-identical distances.
MIN_KERNEL_PAIRS = 8


def _use_kernel(store: LabelStore, kernel: str, num_pairs: int) -> bool:
    """Resolve the ``kernel`` knob for this store and batch."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
        )
    if kernel == "off":
        return False
    from repro.oracle import kernel as _kernel

    if kernel == "on":
        if not _kernel.supports(store):
            raise ValueError(
                "kernel='on' but this store has no vectorized path "
                "(a tuple-list backend)"
            )
        return True
    return num_pairs >= MIN_KERNEL_PAIRS and _kernel.supports(store)


def pair_key(store: LabelStore, s: int, t: int) -> tuple[int, int]:
    """Canonical cache/dedupe key for a pair on this store.

    Undirected stores answer ``(s, t)`` and ``(t, s)`` identically, so
    both orientations share one key.
    """
    if not store.directed and s > t:
        return t, s
    return s, t


def evaluate_batch(
    store: LabelStore,
    pairs: Iterable[tuple[int, int]],
    cache: LRUCache | None = None,
    kernel: str = "auto",
) -> list[float]:
    """Distances for every pair, in input order."""
    pairs = list(pairs)
    if cache is None and _use_kernel(store, kernel, len(pairs)):
        # No cache to probe or fill: hand the raw batch straight to
        # the kernel, skipping the per-pair Python dedupe loop.  The
        # kernel groups by source itself, and duplicate pairs just
        # recompute the same float64 minimum — answers are identical.
        from repro.oracle import kernel as _kernel

        return _kernel.batch_eval(store, pairs)
    results: list[float] = [0.0] * len(pairs)
    # key -> positions in `pairs` still awaiting a distance.  The
    # cache is probed once per *unique* key so repeated pairs in one
    # batch count as a single miss, not one per occurrence.
    pending: dict[tuple[int, int], list[int]] = {}
    for pos, (s, t) in enumerate(pairs):
        key = pair_key(store, s, t)
        positions = pending.get(key)
        if positions is not None:
            positions.append(pos)
            continue
        if cache is not None:
            hit = cache.get(key, _MISS)
            if hit is not _MISS:
                results[pos] = hit
                continue
        pending[key] = [pos]

    if not pending:
        return results

    if _use_kernel(store, kernel, len(pending)):
        from repro.oracle import kernel as _kernel

        keys = list(pending)
        for key, d in zip(keys, _kernel.batch_eval(store, keys)):
            if cache is not None:
                cache.put(key, d)
            for pos in pending[key]:
                results[pos] = d
        return results

    by_source: dict[int, list[int]] = {}
    for s, t in pending:
        by_source.setdefault(s, []).append(t)

    query_group = getattr(store, "query_group", None)
    for s, targets in by_source.items():
        if query_group is not None:
            distances = query_group(s, targets)
        else:
            distances = [store.query(s, t) for t in targets]
        for t, d in zip(targets, distances):
            key = pair_key(store, s, t)
            if cache is not None:
                cache.put(key, d)
            for pos in pending[key]:
                results[pos] = d
    return results


def read_pair_file(path) -> list[tuple[int, int]]:
    """Parse a batch workload file: one ``s t`` pair per line.

    Blank lines and ``#``/``%`` comments (whole-line or inline) are
    skipped, and ``.gz`` paths are decompressed transparently, so
    workload files mix freely with edge-list tooling.  Raises
    ``ValueError`` on malformed lines.
    """
    from repro.graphs.io import _open_text

    out: list[tuple[int, int]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].split("%", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 's t', got {line.strip()!r}"
                )
            try:
                out.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected 's t', got {line.strip()!r}"
                ) from exc
    return out
