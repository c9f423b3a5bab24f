"""The vectorized batch query kernel: one numpy pass per batch.

The scalar batch path answers each pair with a Python loop over two
label slices — fast per query, but interpreter overhead caps a whole
batch at ~10^5 pairs/sec.  This module evaluates an entire batch with
a handful of numpy array operations instead:

1. **packed key views** (built once per store, reused by every batch)
   — a label side's CSR arrays are already globally sorted by
   (owner, pivot), so each side gets one flat integer key array
   ``owner * base + pivot``.  The build is a single vectorized pass;
   v3 stores rebuild their delta-encoded pivot ids with one cumulative
   sum here, which is the only time the compact arrays are ever
   expanded (their distance and offset arrays keep serving as-is,
   memory-mapped);
2. **orient and group** — on undirected stores each pair is flipped so
   the *smaller* label is the one expanded (``dist(s, t) ==
   dist(t, s)`` — the same smaller-side trick the scalar dict probe
   uses), then pairs are sorted by source vertex;
3. **gather** — every pair's target-side label slice is pulled into
   one contiguous key array with a vectorized ranges trick and shifted
   by ``(s - t) * base``, turning the per-pair merge join into exact
   key equality against the source side;
4. **join** — either **dense**: walk the source vertices in blocks,
   scatter each block's label entries into a cache-resident
   epoch-stamped table and answer every target entry with O(1)
   gathers (the vectorized twin of the scalar path's dict probe), or
   **sorted**: one global ``np.searchsorted`` of the gathered keys
   into the source side's key array (used when the vertex count makes
   a useful table too large, or the batch too small to amortise the
   scatter);
5. **segment min** — ``np.minimum.reduceat`` reduces the matched
   ``d1 + d2`` sums back to one distance per pair.

Answers are **bit-identical** to the scalar helpers in
:mod:`repro.core.flatstore`: the same float64 sums are formed, and the
minimum of a set of floats does not depend on evaluation order
(``benchmarks/test_query_throughput.py`` enforces both the equality
and a >= 3x throughput floor).

The kernel consumes v2 :class:`~repro.core.flatstore.FlatLabelStore`
and v3 :class:`~repro.core.quantized.QuantizedLabelStore` arrays alike
(quantized distances upcast to float64 exactly during the hit
gathers), and a :class:`~repro.oracle.sharding.ShardedLabelStore`
batch is bucketed by (source shard, target shard) and evaluated per
bucket with the same machinery — pivot ids are global, so only the
key base changes.

This module imports numpy at module level, so nothing on the import
path of ``repro`` itself imports it eagerly: callers reach it lazily,
on their first batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.flatstore import FlatLabelStore

_DTYPES = {
    "b": "int8", "B": "uint8", "h": "int16", "H": "uint16",
    "i": "int32", "I": "uint32", "l": "int64", "L": "uint64",
    "q": "int64", "Q": "uint64", "f": "float32", "d": "float64",
}

#: Elements in the dense join's scatter table (~6 MB of f64+i32) —
#: sized to stay cache-resident; a DRAM-sized table loses to the
#: binary search.  Rows per block is this divided by the key base;
#: below _MIN_DENSE_BLOCK rows per block (or when the batch is too
#: small to amortise scattering the source side) the searchsorted
#: join takes over.
_DENSE_TABLE_ELEMS = 1 << 19
_MIN_DENSE_BLOCK = 8


def supports(store) -> bool:
    """Whether ``store`` exposes arrays the kernel can consume.

    True for the CSR-backed stores — :class:`FlatLabelStore`, its
    quantized v3 subclass, and a
    :class:`~repro.oracle.sharding.ShardedLabelStore` over them.
    Tuple-list indexes have no arrays to vectorize over.
    """
    if isinstance(store, FlatLabelStore):
        return True
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        return all(isinstance(s, FlatLabelStore) for s in store.shards)
    return False


class _Side:
    """Packed numpy view of one label side, keyed for the merge join.

    ``keys[j] = owner(j) * base + pivot(j)`` for the j-th entry of the
    side's entry arrays — int32 whenever the packed range fits (half
    the cache footprint of int64).  ``dists`` stays a zero-copy view
    of the store's (possibly quantized, possibly memory-mapped)
    distance array.
    """

    __slots__ = ("offsets", "dists", "keys", "base")

    def __init__(self, offsets, dists, keys, base: int) -> None:
        self.offsets = offsets
        self.dists = dists
        self.keys = keys
        self.base = base


def _as_np(buf):
    """Zero-copy numpy view of an ``array.array`` or typed memoryview."""
    code = getattr(buf, "typecode", None) or buf.format
    return np.frombuffer(buf, dtype=np.dtype(_DTYPES[code]))


def _build_side(offsets_buf, pivots_buf, dists_buf, delta: bool, base: int):
    """Pack one side's CSR buffers into a keyed :class:`_Side` view.

    ``delta=True`` decodes v3 per-label pivot deltas to absolute ids
    vectorized (one cumsum + one repeat), so quantized stores feed the
    same join paths without a scalar decode pass.
    """
    offsets = _as_np(offsets_buf).astype(np.int64, copy=False)
    lens = np.diff(offsets)
    piv = _as_np(pivots_buf)
    if delta:
        # v3 stores per-label pivot deltas; absolute[j] is the running
        # sum within j's label: global cumsum minus each label's base.
        run = np.cumsum(piv.astype(np.int64, copy=False))
        seg0 = offsets[:-1]
        label_base = np.where(seg0 > 0, run[seg0 - 1], 0)
        piv = run - np.repeat(label_base, lens)
    n_local = lens.size
    kdt = (
        np.int32
        if n_local * base <= np.iinfo(np.int32).max
        else np.int64
    )
    keys = np.repeat(np.arange(n_local, dtype=kdt) * base, lens)
    keys += piv.astype(kdt, copy=False)
    return _Side(offsets, _as_np(dists_buf), keys, base)


def _sides(store: FlatLabelStore, base: int) -> tuple[_Side, _Side]:
    """The (out, in) packed views of a flat store, cached on the store.

    ``base`` must exceed every pivot id — the store's own vertex count
    for a standalone store, the *global* vertex count when the store
    serves as one shard (pivot ids are global inside shards).
    """
    cached = store._np
    if cached is not None and cached[0] == base:
        return cached[1], cached[2]
    from repro.core.quantized import QuantizedLabelStore

    src = store
    if store.has_pending_updates:
        # Fold staged updates into fresh arrays once; apply_updates
        # drops this cache, so the fold cost is paid per update batch,
        # not per query batch.  The merged arrays stay alive through
        # the cache tuple's _Side views.
        src = store.merged()
    delta = isinstance(src, QuantizedLabelStore)
    out = _build_side(
        src.out_offsets, src.out_pivots, src.out_dists, delta, base
    )
    if src.directed:
        inn = _build_side(
            src.in_offsets, src.in_pivots, src.in_dists, delta, base
        )
    else:
        inn = out
    store._np = (base, out, inn)
    return out, inn


def ensure_sides(store) -> None:
    """Build (and cache) the packed key views for ``store`` now.

    Serving frontends call this before forking worker processes: the
    views land on the store (``store._np``) in pages the children then
    inherit copy-on-write, so every worker joins against one physical
    copy of the label arrays instead of rebuilding its own (see
    :mod:`repro.serve.shm`).  A sharded store warms every shard with
    the global key base.  No-op when :func:`supports` is false.
    """
    if not supports(store):
        return
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        for shard in store.shards:
            _sides(shard, store.n)
    else:
        _sides(store, store.n)


def _expand(side: _Side, T):
    """Gather the target vertices' label slices from ``side``.

    Returns ``(idx, lens, seg0)``: each gathered entry's position in
    the side's arrays, per-target slice lengths, and each slice's
    start in the gathered order.
    """
    starts = side.offsets[T]
    lens = side.offsets[T + 1] - starts
    total = int(lens.sum())
    seg0 = np.cumsum(lens) - lens
    # int32 indices halve the memory traffic whenever the side's
    # arrays are small enough to address with them.
    idt = np.int32 if int(side.offsets[-1]) <= 0x7FFFFFFF else np.int64
    idx = np.arange(total, dtype=idt) + np.repeat(
        (starts - seg0).astype(idt, copy=False), lens
    )
    return idx, lens, seg0


def _eval(out_side: _Side, in_side: _Side, S, T, orient: bool):
    """Distances for pairs ``(S[k], T[k])`` (local ids, no s==t pairs).

    ``orient=True`` (undirected single stores) flips pairs so the
    smaller label is the expanded one — valid because the two sides
    alias and ``dist`` is symmetric; the scalar dict probe plays the
    same trick, and both orientations form the identical set of
    ``d1 + d2`` sums.
    """
    base = out_side.base
    if orient:
        off = out_side.offsets
        flip = (off[T + 1] - off[T]) > (off[S + 1] - off[S])
        S, T = np.where(flip, T, S), np.where(flip, S, T)
    order = np.argsort(S)
    S = S[order]
    T = T[order]

    idx, lens, seg0 = _expand(in_side, T)
    # The shifted keys land in the *source* side's key space, so the
    # dtype must hold both sides' ranges (cross-shard joins can pair
    # an int32-keyed shard with an int64-keyed one).
    kdt = np.promote_types(out_side.keys.dtype, in_side.keys.dtype)
    t_keys = in_side.keys[idx].astype(kdt, copy=False) + np.repeat(
        ((S - T) * base).astype(kdt, copy=False), lens
    )

    res = np.full(len(T), np.inf)
    if t_keys.size and out_side.keys.size:
        block = _DENSE_TABLE_ELEMS // max(base, 1)
        # The dense join scatters every source-side entry once; worth
        # it only when the gathered target side is of comparable size.
        if (
            block >= _MIN_DENSE_BLOCK
            and kdt == np.int32
            and t_keys.size * 2 >= out_side.keys.size
        ):
            sums = _join_dense(
                out_side, in_side, S, t_keys, idx, seg0, block
            )
        else:
            sums = _join_sorted(out_side, in_side, t_keys, idx)
        nonempty = lens > 0
        res[nonempty] = np.minimum.reduceat(sums, seg0[nonempty])
    out = np.full(len(T), np.inf)
    out[order] = res
    return out


def _join_dense(out_side: _Side, in_side: _Side, S, t_keys, idx, seg0, block):
    """O(1)-probe join: scatter source entries, gather target entries.

    Walks the source vertex range ``block`` vertices at a time: each
    block's label entries (a contiguous run of the side's arrays) are
    scattered into a flat ``block * base`` table holding the entry
    distances, with a parallel epoch array marking which block wrote a
    cell — stale cells read as "no common pivot" without ever clearing
    the table.  Every gathered target entry then costs two gathers
    instead of a binary search.  Blocks none of the batch's sources
    fall in are skipped entirely.
    """
    base = out_side.base
    off = out_side.offsets
    n_local = off.size - 1
    total = t_keys.size
    src_dists = out_side.dists
    tgt_dists = in_side.dists
    table_d = np.empty(block * base, dtype=np.float64)
    table_e = np.zeros(block * base, dtype=np.int32)
    sums = np.empty(total, dtype=np.float64)
    vedges = np.arange(0, n_local + block, block, dtype=np.int64)
    # Element range of each vertex block in the gathered target order:
    # pairs are sorted by source, so each block's pairs — and with
    # them their gathered entries — form one contiguous run.
    pair_cuts = np.searchsorted(S, vedges)
    elem_starts = np.append(seg0, total)
    for k in range(vedges.size - 1):
        e0 = int(elem_starts[pair_cuts[k]])
        e1 = int(elem_starts[pair_cuts[k + 1]])
        if e0 == e1:
            continue
        b = int(vedges[k])
        shift = np.int32(b * base)
        so, se = int(off[b]), int(off[min(b + block, n_local)])
        epoch = k + 1
        addr = out_side.keys[so:se] - shift
        table_d[addr] = src_dists[so:se]
        table_e[addr] = epoch
        taddr = t_keys[e0:e1] - shift
        hit = np.flatnonzero(table_e[taddr] == epoch)
        sub = sums[e0:e1]
        sub.fill(np.inf)
        # Distances come straight from the stores' arrays for matched
        # entries only (quantized values upcast to float64 exactly).
        sub[hit] = np.add(
            table_d[taddr[hit]],
            tgt_dists[idx[e0:e1][hit]].astype(np.float64, copy=False),
        )
    return sums


def _join_sorted(out_side: _Side, in_side: _Side, t_keys, idx):
    """Merge join via one global searchsorted into the side's keys."""
    s_keys = out_side.keys
    pos = np.searchsorted(s_keys, t_keys)
    np.minimum(pos, s_keys.size - 1, out=pos)
    hit = np.flatnonzero(s_keys[pos] == t_keys)
    sums = np.full(t_keys.size, np.inf)
    # Distances are fetched for matched entries only, straight from
    # the stores' arrays (quantized values upcast to float64 exactly).
    sums[hit] = np.add(
        out_side.dists[pos[hit]].astype(np.float64, copy=False),
        in_side.dists[idx[hit]].astype(np.float64, copy=False),
    )
    return sums


def _eval_sharded(store, S, T):
    """Bucket global pairs by (source shard, target shard) and evaluate."""
    los = np.asarray(store._los, dtype=np.int64)
    sa = np.searchsorted(los, S, side="right") - 1
    sb = np.searchsorted(los, T, side="right") - 1
    res = np.empty(len(S), dtype=np.float64)
    num = store.num_shards
    for key in np.unique(sa * num + sb):
        a, b = int(key) // num, int(key) % num
        mask = (sa == a) & (sb == b)
        out_side, _ = _sides(store.shards[a], store.n)
        _, in_side = _sides(store.shards[b], store.n)
        res[mask] = _eval(
            out_side, in_side, S[mask] - los[a], T[mask] - los[b],
            orient=False,
        )
    return res


def batch_eval_arrays(store, S, T):
    """Array-in/array-out evaluation (the fan-out workers' entry).

    The pair columns arrive as int64 numpy arrays and the distances
    return as one float64 array — the form
    :class:`~repro.serve.shm.SharedMemoryFanout` keeps its shared
    query and result buffers in, so a worker's span needs no
    conversion to or from Python tuples.
    """
    n = store.n
    bad = (S < 0) | (S >= n) | (T < 0) | (T >= n)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise IndexError(
            f"query ({int(S[k])}, {int(T[k])}) out of range [0, {n})"
        )
    res = np.zeros(len(S), dtype=np.float64)
    ne = S != T
    if ne.any():
        from repro.oracle.sharding import ShardedLabelStore

        if isinstance(store, ShardedLabelStore):
            res[ne] = _eval_sharded(store, S[ne], T[ne])
        else:
            out_side, in_side = _sides(store, n)
            res[ne] = _eval(
                out_side, in_side, S[ne], T[ne],
                orient=not store.directed,
            )
    return res


def batch_eval(
    store, pairs: Sequence[tuple[int, int]]
) -> list[float]:
    """Distances for every pair, in order — the kernel entry point.

    ``store`` must satisfy :func:`supports`.  Bit-identical to calling
    ``store.query`` per pair (``inf`` for unreachable, ``0.0`` for
    ``s == t``); raises ``IndexError`` on out-of-range vertices like
    the scalar paths do.
    """
    if not pairs:
        return []
    sq = np.asarray(pairs, dtype=np.int64)
    return batch_eval_arrays(store, sq[:, 0], sq[:, 1]).tolist()
