"""Per-layer metrics derived from a traced run's spans.

Each function takes the span dicts recorded by :mod:`tracing` (and
what the workload measured itself) and returns ``{name: (value,
unit)}``.  Layer names follow the program's modules.
"""

from __future__ import annotations

import math

from common import mean, median

NS = 1e-9

#: Build rounds reported one by one (a 10k-vertex BA build runs 2..8).
ROUNDS = range(2, 9)

#: Every per-layer metric and its unit.  Each workload reports all of
#: them; a layer the workload never calls reads 0.
PER_LAYER = {
    "graphs.read_s": "s",
    "build.ranking_s": "s",
    "build.generate_s": "s",
    "build.admit_prune_s": "s",
    "build.freeze_s": "s",
    "build.rounds": "count",
    **{f"build.r{r}.{stage}_s": "s"
       for r in ROUNDS for stage in ("generate", "admit_prune")},
    "build.candidates": "count",
    "build.admitted": "count",
    "build.pruned": "count",
    "build.survived": "count",
    "build.survive_ratio": "ratio",
    "store.encode_s": "s",
    "store.save_s": "s",
    "store.bytes_per_entry": "B/entry",
    "store.load_s": "s",
    "store.apply_s": "s",
    "dynamic.adopt_s": "s",
    "dynamic.insert_s": "s",
    "dynamic.pop_delta_s": "s",
    "dynamic.changed_labels": "count",
    "oracle.first_query_s": "s",
    "oracle.query_s": "s",
    "kernel.calls": "count",
    "kernel.pairs_per_call": "pairs",
    "kernel.us_per_call": "us",
    "kernel.ns_per_pair": "ns",
    "kernel.sides_s": "s",
    "fanout.calls": "count",
    "fanout.spans_per_call": "count",
    "fanout.us_per_call": "us",
    "fanout.dispatch_us": "us",
    "fanout.warmup_s": "s",
    "batcher.batches": "count",
    "batcher.pairs_per_batch": "pairs",
    "batcher.queue_wait_ms": "ms",
    "batcher.rejected": "count",
    "server.requests": "count",
    "server.rtt_ms": "ms",
    "server.overhead_ms": "ms",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "loadgen.backlog_end": "count",
    "trace.overhead_frac": "ratio",
}


def complete(metrics: dict) -> dict:
    """All of :data:`PER_LAYER`, in its order; layers not called read 0."""
    out = {}
    for name, unit in PER_LAYER.items():
        value = metrics.get(name, (0.0, unit))[0]
        out[name] = (value if math.isfinite(value) else 0.0, unit)
    return out


def mean_of(runs: list[dict]) -> dict:
    """Metric-wise mean over several runs of one layer set (one per graph)."""
    names = [name for name in runs[0] if all(name in r for r in runs)]
    return {name: (mean(r[name][0] for r in runs), runs[0][name][1])
            for name in names}


def _dur(span) -> float:
    return (span["t1"] - span["t0"]) * NS


def _named(spans, name, t_lo=None, t_hi=None):
    out = [s for s in spans if s["name"] == name]
    if t_lo is not None:
        out = [s for s in out if s["t0"] >= t_lo and s["t1"] <= t_hi]
    return sorted(out, key=lambda s: s["t0"])


def _total(spans, name) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def overhead(spans, wrapper_cost_s: float, wall_s: float) -> dict:
    """Estimated share of the traced wall time spent in the wrappers."""
    return {"trace.overhead_frac": (len(spans) * wrapper_cost_s / wall_s, "ratio")}


def build_layers(child: dict) -> dict:
    """Graph read, build stages per round, encode and save (one build)."""
    spans = child["spans"]
    m = {
        "graphs.read_s": (_total(spans, "graphs.read"), "s"),
        "build.ranking_s": (_total(spans, "build.ranking"), "s"),
        "build.rounds": (len(child["iterations"]), "count"),
        "build.generate_s": (_total(spans, "build.generate"), "s"),
        "build.admit_prune_s": (_total(spans, "build.admit_prune"), "s"),
        "build.freeze_s": (_total(spans, "build.freeze"), "s"),
        "store.encode_s": (_total(spans, "store.encode"), "s"),
        "store.save_s": (_total(spans, "store.save"), "s"),
        "store.bytes_per_entry": (
            child["index_bytes"] / max(child["label_entries"], 1), "B/entry"),
    }
    gens = _named(spans, "build.generate")
    admits = _named(spans, "build.admit_prune")
    for it, gen, adm in zip(child["iterations"], gens, admits):
        r = it["iteration"]
        if r in ROUNDS:
            m[f"build.r{r}.generate_s"] = (_dur(gen), "s")
            m[f"build.r{r}.admit_prune_s"] = (_dur(adm), "s")
    its = child["iterations"]
    candidates = sum(it["candidates"] for it in its)
    survived = sum(it["survived"] for it in its)
    m["build.candidates"] = (candidates, "count")
    m["build.admitted"] = (sum(it["admitted"] for it in its), "count")
    m["build.pruned"] = (sum(it["pruned"] for it in its), "count")
    m["build.survived"] = (survived, "count")
    m["build.survive_ratio"] = (survived / max(candidates, 1), "ratio")
    return m


def kernel_layers(spans, t_lo, t_hi) -> dict:
    """Top-level kernel calls inside the window, wherever they ran."""
    calls = [
        s for s in spans
        if s["name"] in ("kernel.batch_eval", "kernel.batch_eval_arrays")
        and s["t0"] >= t_lo and s["t1"] <= t_hi
    ]
    ids = {s["id"] for s in calls if s["id"] >= 0}
    calls = [s for s in calls if s["parent"] not in ids]
    pairs = sum(s["n"] for s in calls)
    busy = sum(_dur(s) for s in calls)
    sides = _named(spans, "kernel.ensure_sides")
    m = {
        "kernel.calls": (len(calls), "count"),
        "kernel.pairs_per_call": (pairs / max(len(calls), 1), "pairs"),
        "kernel.us_per_call": (busy / max(len(calls), 1) * 1e6, "us"),
        "kernel.ns_per_pair": (busy / max(pairs, 1) * 1e9, "ns"),
    }
    if sides:
        m["kernel.sides_s"] = (sum(_dur(s) for s in sides), "s")
    return m


def serve_layers(spans, t_lo, t_hi, client: dict) -> dict:
    """Fan-out, batcher and server metrics for the serving window.

    ``client`` carries what the load generator saw: answered requests,
    round-trip times (send to reply, seconds) and, for the open loop,
    lateness and backlog.
    """
    m = kernel_layers(spans, t_lo, t_hi)
    for s in _named(spans, "store.load"):
        m["store.load_s"] = (_dur(s), "s")
    warm = _named(spans, "fanout.warmup")
    if warm:
        m["fanout.warmup_s"] = (_dur(warm[0]), "s")

    fan = _named(spans, "fanout.query_batch", t_lo, t_hi)
    workers = sorted(
        (s for s in spans if s["name"] == "kernel.batch_eval_arrays"
         and s["id"] < 0 and t_lo <= s["t0"] and s["t1"] <= t_hi),
        key=lambda s: s["t0"],
    )
    spans_per_call, dispatch = [], []
    j = 0
    for call in fan:
        while j < len(workers) and workers[j]["t0"] < call["t0"]:
            j += 1
        inside = []
        k = j
        while k < len(workers) and workers[k]["t0"] <= call["t1"]:
            if workers[k]["t1"] <= call["t1"]:
                inside.append(workers[k])
            k += 1
        spans_per_call.append(len(inside))
        slowest = max((_dur(s) for s in inside), default=0.0)
        dispatch.append(_dur(call) - slowest)
    m["fanout.calls"] = (len(fan), "count")
    m["fanout.spans_per_call"] = (mean(spans_per_call) if fan else 0.0, "count")
    m["fanout.us_per_call"] = (mean(_dur(s) for s in fan) * 1e6 if fan else 0.0, "us")
    m["fanout.dispatch_us"] = (mean(dispatch) * 1e6 if fan else 0.0, "us")

    submits = _named(spans, "batcher.submit", t_lo, t_hi)
    by_id = {s["id"]: s for s in fan}
    waits = [
        _dur(s) - _dur(by_id[s["link"]]) for s in submits if s["link"] in by_id
    ]
    m["batcher.batches"] = (len(fan), "count")
    m["batcher.pairs_per_batch"] = (
        sum(s["n"] for s in fan) / max(len(fan), 1), "pairs")
    m["batcher.queue_wait_ms"] = (mean(waits) * 1e3 if waits else 0.0, "ms")
    m["batcher.rejected"] = (client["rejected"], "count")

    rtts = client["rtts"]
    m["server.requests"] = (len(rtts), "count")
    m["server.rtt_ms"] = (mean(rtts) * 1e3, "ms")
    submit_s = mean(_dur(s) for s in submits) if submits else 0.0
    m["server.overhead_ms"] = ((mean(rtts) - submit_s) * 1e3, "ms")
    if "late" in client:
        m["loadgen.late_p50_ms"] = (median(client["late"]) * 1e3, "ms")
        m["loadgen.late_max_ms"] = (max(client["late"]) * 1e3, "ms")
        m["loadgen.backlog_end"] = (client["backlog_end"], "count")
    return m


def update_layers(spans, t_lo, t_hi) -> dict:
    """Dynamic repair, store overlay and oracle metrics for the stream."""
    inside = [s for s in spans if s["t0"] >= t_lo and s["t1"] <= t_hi]
    m = kernel_layers(spans, t_lo, t_hi)
    adopt = _named(spans, "dynamic.adopt")
    if adopt:
        m["dynamic.adopt_s"] = (median(_dur(s) for s in adopt), "s")
    loads = _named(spans, "store.load")
    if loads:
        m["store.load_s"] = (median(_dur(s) for s in loads), "s")
    m["dynamic.insert_s"] = (_total(inside, "dynamic.insert"), "s")
    m["dynamic.pop_delta_s"] = (_total(inside, "dynamic.pop_delta"), "s")
    m["dynamic.changed_labels"] = (
        sum(s["n"] for s in inside if s["name"] == "dynamic.pop_delta"), "count")
    m["store.apply_s"] = (_total(inside, "store.apply"), "s")

    # The first query_batch after each apply_updates folds the overlay.
    events = sorted(
        (s for s in inside
         if s["name"] in ("oracle.apply_updates", "oracle.query_batch")),
        key=lambda s: s["t0"],
    )
    first, rest = [], []
    after_apply = False
    for s in events:
        if s["name"] == "oracle.apply_updates":
            after_apply = True
        elif after_apply:
            first.append(_dur(s))
            after_apply = False
        else:
            rest.append(_dur(s))
    m["oracle.first_query_s"] = (median(first) if first else 0.0, "s")
    m["oracle.query_s"] = (median(rest) if rest else 0.0, "s")
    return m
