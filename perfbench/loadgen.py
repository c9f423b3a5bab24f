"""Load generators for the JSON-lines distance server.

Requests are JSON-encoded before the timed window and replies are
parsed after it, so no client-side JSON cost lands inside a measured
latency.  Both loops run in one thread over ``select``: it sleeps
until the next send is due or a reply arrives, so the sender wakes
within tens of microseconds of its schedule (an asyncio timer runs
about a millisecond late) and no client threads compete with the
server for the two cores.

* :func:`open_loop` sends on a fixed schedule regardless of replies
  (independent users) and times each request from its due time, so a
  stall is charged to every request queued behind it;
* :func:`closed_loop` has each connection send its next request as
  soon as the previous reply arrives (callers that wait).
"""

from __future__ import annotations

import json
import math
import select
import socket
import time


def encode_request(pairs) -> bytes:
    return json.dumps({"pairs": [[s, t] for s, t in pairs]},
                      separators=(",", ":")).encode() + b"\n"


class _Conn:
    """One persistent connection; replies arrive in request order."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.order: list[int] = []  # request ids in send order
        self.chunks: list[bytes] = []
        self.error: str | None = None
        self.ndone = 0

    @property
    def outstanding(self) -> int:
        return len(self.order) - self.ndone

    def send(self, rid: int, line: bytes) -> bool:
        self.order.append(rid)
        try:
            self.sock.sendall(line)
        except OSError as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            return False
        return True

    def receive(self, now: float, done: list) -> None:
        """Read what is available; stamp every completed reply ``now``."""
        try:
            chunk = self.sock.recv(1 << 20)
        except OSError as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            return
        if not chunk:
            self.error = "connection closed by server"
            return
        self.chunks.append(chunk)
        for _ in range(chunk.count(b"\n")):
            done[self.order[self.ndone]] = now
            self.ndone += 1

    def replies(self) -> dict[int, bytes]:
        lines = b"".join(self.chunks).split(b"\n")
        return {rid: lines[k] for k, rid in enumerate(self.order[: self.ndone])}


def _poll(conns, timeout: float, done: list) -> None:
    live = {c.sock: c for c in conns if c.error is None}
    if not live:
        time.sleep(max(timeout, 0.0))
        return
    readable, _, _ = select.select(list(live), [], [], max(timeout, 0.0))
    now = time.perf_counter()
    for sock in readable:
        live[sock].receive(now, done)


def parse_reply(raw: bytes | None):
    """``(distances, None)`` for a good reply, ``(None, reason)`` otherwise."""
    if raw is None:
        return None, "no reply"
    try:
        reply = json.loads(raw)
    except ValueError:
        return None, "unparseable reply"
    if not reply.get("ok"):
        return None, f"error {reply.get('code')}"
    return [math.inf if d is None else d for d in reply["distances"]], None


def open_loop(host, port, lines, rate, connections=2, drain_s=10.0):
    """Send ``lines`` at ``rate`` requests/s round-robin over connections.

    Returns a dict of per-request arrays (``due``, ``sent``, ``done``
    with ``None`` for unanswered), the raw replies, the backlog
    (sent minus answered) when the last request went out, and any
    connection errors.
    """
    conns = [_Conn(host, port) for _ in range(connections)]
    count = len(lines)
    t0 = time.perf_counter() + 0.05
    due = [t0 + k / rate for k in range(count)]
    sent = [None] * count
    done = [None] * count
    try:
        k = 0
        while k < count:
            now = time.perf_counter()
            if now < due[k]:
                _poll(conns, due[k] - now, done)
                continue
            conn = conns[k % connections]
            if conn.error is None and conn.send(k, lines[k]):
                sent[k] = now
            k += 1
            _poll(conns, 0.0, done)  # stamp replies that landed meanwhile
        backlog = sum(c.outstanding for c in conns)
        deadline = time.perf_counter() + drain_s
        while time.perf_counter() < deadline and any(
            c.outstanding and c.error is None for c in conns
        ):
            _poll(conns, 0.05, done)
    finally:
        for conn in conns:
            conn.sock.close()
    return _collect(conns, due, sent, done, backlog)


def closed_loop(host, port, lines, seconds, connections=2):
    """Each connection sends its next line when the previous reply lands.

    Connection ``c`` sends ``lines[c::connections]`` in order until
    ``seconds`` have elapsed; ``due`` equals ``sent``.
    """
    conns = [_Conn(host, port) for _ in range(connections)]
    count = len(lines)
    sent = [None] * count
    done = [None] * count
    stop_at = time.perf_counter() + seconds
    nxt = list(range(connections))  # next request id per connection
    try:
        while True:
            now = time.perf_counter()
            for c, conn in enumerate(conns):
                k = nxt[c]
                if (conn.outstanding or conn.error is not None
                        or k >= count or now >= stop_at):
                    continue
                if conn.send(k, lines[k]):
                    sent[k] = now
                nxt[c] = k + connections
            if not any(c.outstanding and c.error is None for c in conns):
                break
            if now > stop_at + 30:
                for conn in conns:
                    if conn.outstanding:
                        conn.error = "reply timeout"
                break
            _poll(conns, 0.05, done)
    finally:
        for conn in conns:
            conn.sock.close()
    return _collect(conns, list(sent), sent, done, 0)


def _collect(conns, due, sent, done, backlog):
    raw = [None] * len(due)
    for conn in conns:
        for rid, line in conn.replies().items():
            raw[rid] = line
    return {
        "due": due,
        "sent": sent,
        "done": done,
        "raw": raw,
        "backlog": backlog,
        "errors": [c.error for c in conns if c.error],
    }
