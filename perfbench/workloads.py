"""The four workloads.  Each returns a :class:`Outcome`.

Only the untraced run's numbers are end-to-end metrics; a traced run
repeats the same work with the layer wrappers installed and reports
the per-layer metrics instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import layers
import loadgen
from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    child_env,
    mean,
    median,
    peak_rss_mb,
    percentile,
    run_child,
    run_children,
)

#: Every end-to-end metric and its unit.  Each workload reports all of
#: them (see README.md for what each means per workload).
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "index_bytes": "B",
    "label_entries": "count",
    "peak_rss_mb": "MB",
}
#: Latency limit on serve-small's p99, in seconds: the rate counts as
#: sustained when the p99 meets it and the backlog stays within it.
P99_LIMIT_S = 0.020
#: Server launches per suite graph; setup_s is the median of all.
SERVE_LAUNCHES = 2
#: Store loads + adoptions per suite graph; setup_s is the median of all.
UPDATE_ADOPTIONS = 2
#: Connections the load generators use, and child processes run at
#: once while preparing (no more than the 2 cores).
CONNECTIONS = 2
#: Distinct 2048-pair requests serve-bulk cycles through per graph.
BULK_POOL = 64
#: Requests sent before a serve window opens, so lazy set-up is done.
WARMUP_REQUESTS = 40


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def wrong(self, message: str) -> None:
        self.correct = False
        self.problems.append(message)


@dataclass
class SuiteGraph:
    """One graph of the run's suite, its edge list and its index."""

    graph: inputs.GraphInput
    edges_path: Path
    index_path: Path
    built: dict | None = None  # the build child's report


def _make_suite(seed, scale, workdir: Path) -> list:
    """The run's graphs: one per suite seed, edge lists written out."""
    suite = []
    for i, sub_seed in enumerate(inputs.suite_seeds(seed, scale.suite_graphs)):
        graph = inputs.make_graph(sub_seed, scale)
        edges_path = workdir / f"graph{i}.txt"
        inputs.write_edge_list(graph.base_edges, edges_path)
        suite.append(SuiteGraph(graph, edges_path, workdir / f"graph{i}.idx3"))
    return suite


def _build_args(entry: SuiteGraph, trace: bool) -> list:
    if entry.index_path.exists():
        entry.index_path.unlink()
    args = [str(BENCH_DIR / "build_child.py"), str(entry.edges_path),
            str(entry.index_path)]
    return args + ["--trace"] if trace else args


def _build_suite(suite: list, trace: bool) -> None:
    """Untimed preparation: every graph's index, built in child processes.

    A traced run traces the first graph's build, so the build layers are
    reported on every workload.
    """
    reports = run_children(
        [_build_args(entry, trace and i == 0) for i, entry in enumerate(suite)],
        timeout=600, parallel=CONNECTIONS,
    )
    for entry, report in zip(suite, reports):
        entry.built = report


def _index_metrics(suite: list) -> dict:
    """Size of the suite's indexes, as built (means over the graphs)."""
    return {
        "index_bytes": (mean(e.built["index_bytes"] for e in suite), "B"),
        "label_entries": (mean(e.built["label_entries"] for e in suite), "count"),
    }


def _input_facts(graph) -> dict:
    return {
        "vertices": graph.n,
        "base_edges": len(graph.base_edges),
        "held_out_edges": len(graph.held_edges),
    }


def _check_index(out: Outcome, entry: SuiteGraph, rng, scale) -> None:
    """Sampled pairs of a freshly built index against BFS on its input."""
    from repro.oracle import DistanceOracle

    graph = entry.graph
    if entry.built["vertices"] != graph.n:
        out.wrong(f"edge list read back {entry.built['vertices']} vertices, "
                  f"not {graph.n}")
    sources = [rng.randrange(graph.n) for _ in range(max(1, scale.check_pairs // 20))]
    pairs = [(s, rng.randrange(graph.n)) for s in sources for _ in range(20)]
    oracle = DistanceOracle.open(entry.index_path, use_mmap=True, cache_size=0)
    try:
        answers = oracle.query_batch(pairs)
    finally:
        oracle.close()
    problem = checks.check_against_bfs(
        checks.Adjacency(graph.n, graph.base_edges), pairs, answers)
    if problem:
        out.wrong(problem)


# -- build --------------------------------------------------------------------
def run_build(seed, scale, seconds, trace, workdir) -> Outcome:
    """Fresh-process builds of the suite's graphs, round robin, for the window.

    A graph's figures are medians over its builds; the reported figures
    are means over the suite, which averages out how much one random
    graph's hub structure moves its size and build time.
    """
    out = Outcome()
    suite = _make_suite(seed, scale, workdir)
    out.details.update(_input_facts(suite[0].graph))
    runs = [[] for _ in suite]
    digests = [set() for _ in suite]
    t_end = time.perf_counter() + seconds
    k = 0
    while k < len(suite) or time.perf_counter() < t_end:
        i = k % len(suite)
        report = run_child(_build_args(suite[i], trace), timeout=600)
        runs[i].append(report)
        digests[i].add(hashlib.sha256(suite[i].index_path.read_bytes()).digest())
        k += 1
    out.attempted = k

    # Answer checks: repeated builds agree byte for byte, and sampled
    # pairs match BFS on the input graph.
    rng = random.Random(seed ^ 0xB111D)
    for entry, builds, seen in zip(suite, runs, digests):
        entry.built = builds[0]
        if len(seen) != 1:
            out.wrong("repeated builds of one graph wrote different index files")
        _check_index(out, entry, rng, scale)
    out.details["build_s"] = [[round(b["build_s"], 4) for b in r] for r in runs]

    if trace:
        last = runs[0][-1]
        m = layers.build_layers(last)
        m.update(layers.overhead(
            last["spans"], last["wrapper_cost_s"], last["read_s"] + last["build_s"]))
        out.per_layer = layers.complete(m)
        return out

    def suite_mean(value):
        return mean(median(value(b) for b in builds) for builds in runs)

    out.e2e = {
        # Spawn of `build_child.py` to the graph in memory: interpreter
        # start, the program's imports and read_edge_list.
        "setup_s": (suite_mean(lambda b: b["t_graph"] - b["t_spawn"]), "s"),
        # Graph in memory to the v3 file renamed into place.
        "latency_p50_ms": (suite_mean(lambda b: b["build_s"]) * 1e3, "ms"),
        **_index_metrics(suite),
        "peak_rss_mb": (suite_mean(lambda b: b["peak_rss_mb"]), "MB"),
    }
    return out


# -- serving ------------------------------------------------------------------
_SERVING = re.compile(r" on ([0-9.]+):(\d+) \((?:(\d+) shm workers|inline)")


class ServerProcess:
    """``repro serve`` with default flags, plain or through the traced launcher."""

    def __init__(self, index: Path, workdir: Path, tag: str, trace: bool) -> None:
        self.trace_out = workdir / f"trace-{tag}.json"
        if trace:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   str(self.trace_out), "serve", str(index)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", str(index)]
        self._stderr = open(workdir / f"server-{tag}.err", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        line = self._read_line(timeout=120)
        self.setup_s = time.perf_counter() - t0
        match = _SERVING.search(line)
        if not match:
            self.stop()
            raise BenchError(f"unexpected server banner {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.workers = int(match.group(3)) if match.group(3) else 1

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            self.stop()
            raise BenchError("server did not report its address in time")
        return self.proc.stdout.readline()

    def stop(self) -> float | None:
        """SIGINT the server, wait for it; returns its peak RSS in MB."""
        rss = None
        if self.proc.poll() is None:
            try:
                rss = peak_rss_mb(self.proc.pid)
            except (OSError, BenchError):
                rss = None
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return rss

    def spans(self) -> dict:
        with open(self.trace_out) as handle:
            return json.load(handle)


def _start_server(entry: SuiteGraph, workdir, trace, setups: list) -> ServerProcess:
    """Launch the graph's server several times (setup_s); keep the last."""
    server = None
    for k in range(1 if trace else SERVE_LAUNCHES):
        if server is not None:
            server.stop()
        server = ServerProcess(entry.index_path, workdir,
                               f"{entry.index_path.stem}-{k}", trace)
        setups.append(server.setup_s)
    return server


def _expected(index_path: Path, requests: list) -> list:
    """Each request's distances, computed in process from the same file."""
    from repro.oracle import DistanceOracle

    oracle = DistanceOracle.open(index_path, use_mmap=True, cache_size=0)
    try:
        flat = oracle.query_batch([p for req in requests for p in req])
    finally:
        oracle.close()
    out, lo = [], 0
    for req in requests:
        out.append(flat[lo:lo + len(req)])
        lo += len(req)
    return out


def _warmup(server: ServerProcess, n: int, rng) -> None:
    lines = [loadgen.encode_request(inputs.uniform_pairs(rng, n, 16))
             for _ in range(WARMUP_REQUESTS)]
    res = loadgen.closed_loop(server.host, server.port, lines, 30.0, CONNECTIONS)
    if res["errors"] or any(d is None for d in res["done"]):
        raise BenchError(f"warm-up requests failed: {res['errors']}")


def _score_replies(out: Outcome, res, expected_of) -> list:
    """Check every answer; returns each request's status.

    A status is ``None`` for a good reply, else why the request failed
    (an error code, no reply).  Wrong distances are not failures: they
    make the run incorrect.
    """
    status = []
    for k, raw in enumerate(res["raw"]):
        distances, reason = loadgen.parse_reply(raw)
        status.append(reason)
        if distances is None:
            continue
        want = expected_of(k)
        bad = checks.first_mismatch(distances, want)
        if bad is not None:
            out.wrong(f"request {k}: pair {bad} answered "
                      f"{distances[bad] if bad < len(distances) else None}, "
                      f"expected {want[bad] if bad < len(want) else None}")
    return status


def _serve_suite(seed, scale, seconds, trace, workdir, salt, plan, drive) -> Outcome:
    """Serve each suite graph in turn, for an equal share of the window.

    ``plan(rng, n, share)`` gives the graph's requests (pair lists).
    ``drive(out, server, lines, expected, share)`` sends them, scores
    the replies and returns the graph's latency (seconds), its details,
    the client's view for the traced run, and the window's clock
    readings.  Inputs and expected distances are made before the
    window, replies parsed after it.
    """
    out = Outcome()
    suite = _make_suite(seed, scale, workdir)
    _build_suite(suite, trace)
    out.details.update(_input_facts(suite[0].graph))
    share = seconds / len(suite)
    setups, rss, latencies, traced = [], [], [], []
    for i, entry in enumerate(suite):
        rng = random.Random((seed * 16 + i) ^ salt)
        requests = plan(rng, entry.graph.n, share)
        lines = [loadgen.encode_request(p) for p in requests]
        expected = _expected(entry.index_path, requests)
        server = _start_server(entry, workdir, trace, setups)
        try:
            _warmup(server, entry.graph.n, rng)
            latency, info, client, (t_lo, t_hi) = drive(
                out, server, lines, expected, share)
        finally:
            rss.append(server.stop())
        if rss[-1] is None:
            raise BenchError("the server exited before the benchmark stopped it")
        out.details["fanout_workers"] = server.workers
        out.details[f"graph{i}"] = info
        latencies.append(latency)
        if trace:
            dump = server.spans()
            m = layers.serve_layers(dump["spans"], t_lo, t_hi, client)
            inside = [s for s in dump["spans"] if t_lo <= s["t0"] <= t_hi]
            m.update(layers.overhead(
                inside, dump["wrapper_cost_s"], (t_hi - t_lo) * 1e-9))
            traced.append(m)
    out.details["setup_s"] = [round(s, 4) for s in setups]
    if trace:
        m = layers.mean_of(traced)
        m.update(layers.build_layers(suite[0].built))
        out.per_layer = layers.complete(m)
        return out
    out.e2e = {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (mean(latencies) * 1e3, "ms"),
        **_index_metrics(suite),
        "peak_rss_mb": (mean(rss), "MB"),
    }
    return out


def _plan_small(rate):
    def plan(rng, n, share):
        return [inputs.uniform_pairs(rng, n, size)
                for size in inputs.small_request_sizes(rng, int(rate * share))]
    return plan


def _drive_small(rate):
    """Open loop at ``rate``; latencies are timed from each due time."""
    def drive(out, server, lines, expected, share):
        t_lo = time.perf_counter_ns()
        res = loadgen.open_loop(server.host, server.port, lines, rate, CONNECTIONS)
        t_hi = time.perf_counter_ns()
        status = _score_replies(out, res, expected.__getitem__)
        out.attempted += len(status)
        out.failed += sum(1 for st in status if st is not None)
        # A failed or unanswered request misses any latency limit.
        lat = [res["done"][k] - res["due"][k] if st is None else math.inf
               for k, st in enumerate(status)]
        p99 = percentile(lat, 99)
        info = {
            "rate": rate, "requests": len(lat),
            "p90_ms": round(percentile(lat, 90) * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3), "backlog": res["backlog"],
            "sustained": all(st is None for st in status)
            and p99 <= P99_LIMIT_S
            and res["backlog"] <= rate * P99_LIMIT_S + CONNECTIONS,
        }
        client = {
            "rtts": [d - s for s, d in zip(res["sent"], res["done"])
                     if s is not None and d is not None],
            "late": [s - u for s, u in zip(res["sent"], res["due"])
                     if s is not None],
            "rejected": status.count("error 429"),
            "backlog_end": res["backlog"],
        }
        return percentile(lat, 50), info, client, (t_lo, t_hi)
    return drive


def run_serve_small(seed, scale, seconds, trace, workdir) -> Outcome:
    """Open-loop interactive traffic at a fixed rate over the suite.

    The run also records whether the rate was sustained: a backlog
    beyond what Little's law allows at the p99 limit means the queue
    was growing.
    """
    return _serve_suite(seed, scale, seconds, trace, workdir, 0x5A11,
                        _plan_small(scale.small_rate),
                        _drive_small(scale.small_rate))


def _plan_bulk(size):
    def plan(rng, n, share):
        return [inputs.uniform_pairs(rng, n, size) for _ in range(BULK_POOL)]
    return plan


def _drive_bulk(out, server, pool_lines, expected, share):
    """Closed loop of 2048-pair requests, cycling through the pool."""
    # Far more request slots than any window can use; lines are shared.
    lines = [pool_lines[k % BULK_POOL] for k in range(100_000)]
    t_lo = time.perf_counter_ns()
    res = loadgen.closed_loop(server.host, server.port, lines, share, CONNECTIONS)
    t_hi = time.perf_counter_ns()
    used = [k for k, s in enumerate(res["sent"]) if s is not None]
    status = _score_replies(out, {"raw": [res["raw"][k] for k in used]},
                            lambda j: expected[used[j] % BULK_POOL])
    out.attempted += len(status)
    out.failed += sum(1 for s in status if s is not None)
    rtts = [res["done"][k] - res["sent"][k]
            for k, s in zip(used, status) if s is None]
    if not rtts:
        raise BenchError(f"no bulk request was answered: {set(status)}")
    wall = max(res["done"][k] for k in used if res["done"][k] is not None) - min(
        res["sent"][k] for k in used)
    pairs = len(expected[0])
    info = {
        "requests": len(used),
        "p99_ms": round(percentile(rtts, 99) * 1e3, 3),
        "pairs_per_s": round(len(rtts) * pairs / wall, 1),
    }
    client = {"rtts": rtts, "rejected": status.count("error 429")}
    return percentile(rtts, 50), info, client, (t_lo, t_hi)


def run_serve_bulk(seed, scale, seconds, trace, workdir) -> Outcome:
    """Closed-loop batch traffic over the suite: big requests back to back."""
    return _serve_suite(seed, scale, seconds, trace, workdir, 0xB01C,
                        _plan_bulk(scale.bulk_pairs), _drive_bulk)


# -- live updates -------------------------------------------------------------
def run_update_mixed(seed, scale, seconds, trace, workdir) -> Outcome:
    """Replay held-out edges in batches; query the fixed set after each.

    The stream runs over the suite, each graph for an equal share of
    the window; a graph's figure is the median over its batches, the
    reported figure the mean over the suite.
    """
    out = Outcome()
    suite = _make_suite(seed, scale, workdir)
    _build_suite(suite, trace)
    out.details.update(_input_facts(suite[0].graph))

    tracer = None
    if trace:
        from tracing import Tracer, install, wrapper_cost_s

        tracer = Tracer()
        install(tracer, {"store", "dynamic", "oracle", "kernel"})

    rng = random.Random(seed ^ 0xD1A)
    setups, write_rates, query_rates, visible = [], [], [], []
    inserted = 0
    timed = 0.0
    t_lo = time.perf_counter_ns()
    for i, entry in enumerate(suite):
        stream = _update_stream(entry, scale, rng, out, seconds / len(suite))
        out.details[f"graph{i}_visible_ms"] = [
            round(v * 1e3, 1) for v in stream["visible"]]
        setups += stream["setups"]
        write_rates += stream["write_rates"]
        query_rates += stream["query_rates"]
        visible.append(median(stream["visible"]))
        inserted += stream["inserted"]
        timed += stream["timed"]
    t_hi = time.perf_counter_ns()
    out.details["batches"] = out.attempted
    out.details["edges_inserted"] = inserted
    out.details["setup_s"] = [round(s, 4) for s in setups]
    out.details["edges_per_s"] = round(median(write_rates), 1)
    out.details["query_pairs_per_s"] = round(median(query_rates), 1)

    if tracer is not None:
        spans = tracer.collect()
        m = layers.update_layers(spans, t_lo, t_hi)
        inside = [s for s in spans if t_lo <= s["t0"] <= t_hi]
        m.update(layers.overhead(inside, wrapper_cost_s(), timed))
        m.update(layers.build_layers(suite[0].built))
        out.per_layer = layers.complete(m)
        return out
    out.e2e = {
        "setup_s": (median(setups), "s"),
        # From the insert_edges call to the return of the first
        # query_batch, whose answers reflect the batch.
        "latency_p50_ms": (mean(visible) * 1e3, "ms"),
        **_index_metrics(suite),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return out


def _update_stream(entry: SuiteGraph, scale, rng, out: Outcome, seconds) -> dict:
    """Adopt one graph's index and replay its held-out edges."""
    from repro.core.dynamic import DynamicHopDoublingIndex
    from repro.core.flatstore import load_store
    from repro.oracle import DistanceOracle

    graph = entry.graph
    setups = []
    store = dyn = None
    for _ in range(UPDATE_ADOPTIONS):
        if store is not None:
            del dyn
            store.close()
        t0 = time.perf_counter()
        store = load_store(entry.index_path, prefer_flat=True, use_mmap=True)
        dyn = DynamicHopDoublingIndex.from_store(store, engine="array")
        setups.append(time.perf_counter() - t0)
    oracle = DistanceOracle(store, cache_size=0)

    queries = inputs.uniform_pairs(rng, graph.n, scale.update_queries)
    half = len(queries) // 2
    first_q, second_q = queries[:half], queries[half:]
    adj = checks.Adjacency(graph.n, graph.base_edges)
    oracle.query_batch(queries)  # kernel views built before the stream

    held = graph.held_edges
    batches = [held[i:i + scale.update_batch]
               for i in range(0, len(held), scale.update_batch)]
    write_rates, query_rates, visible = [], [], []
    inserted = 0
    timed = 0.0
    for batch in batches:
        t0 = time.perf_counter()
        added = dyn.insert_edges(batch)
        delta = dyn.pop_label_delta()
        oracle.apply_updates(delta)
        t1 = time.perf_counter()
        got_first = oracle.query_batch(first_q)
        t2 = time.perf_counter()
        # The first query folds the overlay and belongs to visibility;
        # the second half runs on the updated store.
        got_second = oracle.query_batch(second_q)
        t3 = time.perf_counter()
        write_rates.append(added / (t1 - t0))
        query_rates.append(len(second_q) / (t3 - t2))
        visible.append(t2 - t0)
        inserted += added
        timed += t3 - t0
        out.attempted += 1
        if added != len(batch):
            out.wrong(f"insert_edges added {added} of {len(batch)} new edges")
        # Off the clock: sampled answers against the grown graph.
        for u, v in batch:
            adj.add(u, v)
        sample = rng.sample(range(len(queries)), min(scale.check_pairs, len(queries)))
        got = got_first + got_second
        problem = checks.check_against_bidirectional(
            adj, [queries[k] for k in sample], [got[k] for k in sample])
        if problem:
            out.wrong(problem)
        if timed >= seconds:
            break
    oracle.close()
    return {"setups": setups, "write_rates": write_rates,
            "query_rates": query_rates, "visible": visible,
            "inserted": inserted, "timed": timed}


WORKLOADS = {
    "build": run_build,
    "serve-small": run_serve_small,
    "serve-bulk": run_serve_bulk,
    "update-mixed": run_update_mixed,
}
