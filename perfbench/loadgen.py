"""Open-loop load generator for the line protocol, owned by the benchmark.

One thread drives at most two connections.  Send instants are fixed up
front; the generator waits for the next one in ``select.select``, which
sleeps with microsecond resolution (an asyncio loop rounds its timeouts up
to whole milliseconds, which would add up to a millisecond of send lag).
Each request is timed from its *scheduled* send instant, so a server stall
also charges the requests it delayed, and the generator records how late it
sent each request (its send lag) and how much CPU it used.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque

#: Commands answered with exactly one line.
SINGLE_LINE = frozenset(
    ("point", "class", "open", "insert", "delete", "stats", "health"))


def response_done(command: str, lines: list) -> bool:
    """Whether ``lines`` are a whole response to ``command``."""
    if lines[0].startswith("error:") or command in SINGLE_LINE:
        return True
    if command == "iceberg":
        return lines[-1] == "# end"
    return lines[-1].startswith("# ")


class Request:
    """One request: its wire line, when it is due, and what came back."""

    __slots__ = ("due", "conn", "line", "command", "family", "key",
                 "sent", "done", "lines")

    def __init__(self, due: float, conn: int, line: str, family: str, key):
        self.due = due
        self.conn = conn
        self.line = (line + "\n").encode()
        self.command = line.split(None, 1)[0]
        self.family = family
        self.key = key
        self.sent = self.done = None
        self.lines = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """A client socket plus the FIFO of requests awaiting answers."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending: deque = deque()
        self._buf = b""
        self._lines: list = []

    def send(self, request: Request) -> None:
        self.sock.sendall(request.line)
        self.pending.append(request)

    def receive(self, now_fn=time.perf_counter) -> int:
        """Read what the socket holds; returns how many requests completed."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError(
                f"server closed the connection with {len(self.pending)} "
                f"requests unanswered")
        now = now_fn()
        *complete, self._buf = (self._buf + data).split(b"\n")
        finished = 0
        for raw in complete:
            self._lines.append(raw.decode())
            head = self.pending[0]
            if response_done(head.command, self._lines):
                self.pending.popleft()
                head.lines, head.done = self._lines, now
                self._lines = []
                finished += 1
        return finished

    def call(self, request: Request) -> Request:
        """Closed loop: send one request and wait for its answer."""
        request.due = request.sent = time.perf_counter()
        self.send(request)
        while request.done is None:
            self.receive()
        return request

    def close(self) -> None:
        self.sock.close()


def run_open_loop(conns: list, requests: list, drain_s: float = 30.0,
                  stall=None, tick=None) -> dict:
    """Send ``requests`` (sorted by ``due``, seconds from now) on schedule
    and collect every answer.

    ``stall(index)`` is called before each send; the self-tests use it to
    inject a client stall.  ``tick(now)`` is called once a second (the runs
    sample the server's CPU with it).  Returns the generator's own figures:
    send lags (seconds), CPU share of the wall time, the start instant and
    the wall time.
    """
    socks = [c.sock for c in conns]
    by_sock = {c.sock: c for c in conns}
    start = time.perf_counter()
    cpu0 = time.process_time()
    lags = []
    i, n, outstanding = 0, len(requests), 0
    give_up = None
    next_tick = start if tick is not None else float("inf")
    while i < n or outstanding:
        now = time.perf_counter()
        if now >= next_tick:
            tick(now)
            next_tick += 1.0
        if i < n:
            request = requests[i]
            due = start + request.due
            if now >= due:
                if stall is not None:
                    stall(i)
                conn = conns[request.conn]
                request.due = due
                conn.send(request)
                request.sent = time.perf_counter()
                lags.append(request.sent - due)
                i += 1
                outstanding += 1
                continue
            timeout = min(due, next_tick) - now
        else:
            if give_up is None:
                give_up = now + drain_s
            timeout = give_up - now
            if timeout <= 0:
                raise TimeoutError(
                    f"{outstanding} requests unanswered {drain_s:.0f}s "
                    f"after the last send")
        readable, _, _ = select.select(socks, [], [], timeout)
        for sock in readable:
            outstanding -= by_sock[sock].receive()
    wall = time.perf_counter() - start
    if tick is not None:
        tick(time.perf_counter())
    return {
        "lags": lags,
        "cpu_frac": (time.process_time() - cpu0) / wall,
        "start": start,
        "wall_s": wall,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(0, min(len(ordered) - 1, int(round(q / 100 * len(ordered))) - 1))
    return ordered[rank]


def lag_ok(lags, bound_s: float) -> bool:
    """The run is valid only if the generator kept pace at the median."""
    return percentile(lags, 50) <= bound_s
