"""Span tracing for the traced run, installed from the benchmark's side.

Nothing in the program is edited: :func:`install` replaces public
functions and methods of each layer with wrappers that record a span
``(id, name, start, end, parent, pid, count)`` per call and then call
the original.  Spans stay in memory until the run ends.

Forked children (the fan-out workers of ``repro serve``) inherit the
wrappers; their spans go to an anonymous shared mapping created before
the fork, so the parent can read them back after the workers exit.

Times are ``time.perf_counter_ns`` readings, which on Linux come from
the monotonic clock shared by every process on the machine; client
timestamps and server spans are therefore directly comparable.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import mmap
import multiprocessing
import os
import struct
import time

_RECORD = struct.Struct("<qqqqq")  # name code, start, end, pid, count


class Tracer:
    """Collects spans from this process and its forked children."""

    def __init__(self, shared_capacity: int = 0) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._names: list[str] = []
        self._codes: dict[str, int] = {}
        self.last_finished: dict[str, int] = {}
        self._capacity = shared_capacity
        self._shm = mmap.mmap(-1, _RECORD.size * shared_capacity) if shared_capacity else None
        self._used = multiprocessing.Value("q", 0) if shared_capacity else None

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    # -- recording ------------------------------------------------------------
    def _record(self, sid, name, t0, t1, parent, count, link=-1) -> None:
        if os.getpid() == self.pid:
            self.spans.append((sid, name, t0, t1, parent, self.pid, count, link))
            self.last_finished[name] = sid
            return
        if self._shm is None:
            return
        with self._used.get_lock():
            slot = self._used.value
            if slot >= self._capacity:
                return
            self._used.value = slot + 1
        _RECORD.pack_into(
            self._shm, slot * _RECORD.size, self._codes[name], t0, t1,
            os.getpid(), count,
        )

    def wrap(self, name: str, fn, count=None, link: str | None = None):
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``count(args, kwargs, result)`` gives the span's work count
        (pairs, edges, labels).  Coroutine functions get an async
        wrapper, which also records as its ``link`` the id of the last
        ``link``-named span that finished before the call returned.
        """
        self._code(name)
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(tracer._ids)
                parent = tracer._current.get()
                token = tracer._current.set(sid)
                t0 = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter_ns()
                    tracer._current.reset(token)
                    n = count(args, kwargs, None) if count else 0
                    # The batch that answered this call is the last
                    # ``link`` span finished before it resumed.
                    linked = tracer.last_finished.get(link, -1) if link else -1
                    tracer._record(sid, name, t0, t1, parent, n, linked)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                tracer._current.reset(token)
                n = count(args, kwargs, result) if count else 0
                tracer._record(sid, name, t0, t1, parent, n)
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, link=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            setattr(owner, attr, kind(self.wrap(name, raw.__func__, count, link)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count, link))

    # -- read-out -----------------------------------------------------------------
    def collect(self) -> list[dict]:
        """Every span so far, this process's and the forked children's."""
        out = [
            {"id": sid, "name": name, "t0": t0, "t1": t1, "parent": parent,
             "pid": pid, "n": n, "link": link}
            for sid, name, t0, t1, parent, pid, n, link in self.spans
        ]
        if self._shm is not None:
            for slot in range(min(self._used.value, self._capacity)):
                code, t0, t1, pid, n = _RECORD.unpack_from(
                    self._shm, slot * _RECORD.size
                )
                out.append({"id": -1, "name": self._names[code], "t0": t0,
                            "t1": t1, "parent": -1, "pid": pid, "n": n,
                            "link": -1})
        return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured time one wrapper adds to a call, in seconds (best of 3)."""
    def noop():
        return None
    wrapped = Tracer().wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def _len_arg(index):
    return lambda args, kwargs, result: len(args[index])


def _delta_size(args, kwargs, result):
    return len(result.out) + len(getattr(result, "inn", {}) or {})


def install(tracer: Tracer, layers: set[str]) -> None:
    """Wrap the public entry points of the named layers."""
    if "graphs" in layers:
        import repro.graphs.io as gio

        tracer.patch(gio, "read_edge_list", "graphs.read")
    if "build" in layers:
        import repro.core.hop_doubling as hd
        from repro.core.engine import ArrayBuildEngine

        tracer.patch(hd, "make_ranking", "build.ranking")
        tracer.patch(ArrayBuildEngine, "initialize", "build.initialize")
        tracer.patch(ArrayBuildEngine, "generate", "build.generate")
        tracer.patch(ArrayBuildEngine, "admit_and_prune", "build.admit_prune")
        tracer.patch(ArrayBuildEngine, "freeze", "build.freeze")
    if "store" in layers:
        from repro.core.flatstore import FlatLabelStore
        from repro.core.quantized import QuantizedLabelStore

        tracer.patch(QuantizedLabelStore, "from_index", "store.encode")
        tracer.patch(QuantizedLabelStore, "save", "store.save")
        tracer.patch(QuantizedLabelStore, "load", "store.load")
        tracer.patch(FlatLabelStore, "apply_updates", "store.apply")
    if "dynamic" in layers:
        from repro.core.dynamic import DynamicHopDoublingIndex

        tracer.patch(DynamicHopDoublingIndex, "from_store", "dynamic.adopt")
        tracer.patch(DynamicHopDoublingIndex, "insert_edges", "dynamic.insert",
                     _len_arg(1))
        tracer.patch(DynamicHopDoublingIndex, "pop_label_delta",
                     "dynamic.pop_delta", _delta_size)
    if "oracle" in layers:
        from repro.oracle.oracle import DistanceOracle

        tracer.patch(DistanceOracle, "query_batch", "oracle.query_batch",
                     _len_arg(1))
        tracer.patch(DistanceOracle, "apply_updates", "oracle.apply_updates")
    if "kernel" in layers:
        import repro.oracle.kernel as kernel

        tracer.patch(kernel, "batch_eval", "kernel.batch_eval", _len_arg(1))
        tracer.patch(kernel, "batch_eval_arrays", "kernel.batch_eval_arrays",
                     _len_arg(1))
        tracer.patch(kernel, "ensure_sides", "kernel.ensure_sides")
    if "serve" in layers:
        from repro.serve.batcher import AdmissionBatcher
        from repro.serve.shm import SharedMemoryFanout

        tracer.patch(SharedMemoryFanout, "query_batch", "fanout.query_batch",
                     _len_arg(1))
        tracer.patch(SharedMemoryFanout, "warmup", "fanout.warmup")
        tracer.patch(AdmissionBatcher, "submit", "batcher.submit", _len_arg(1),
                     link="fanout.query_batch")
