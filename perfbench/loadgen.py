"""Load generation: seeded open-loop arrivals, a closed loop of futures,
and a closed loop over persistent keep-alive HTTP/1.1 connections.

The load comes from the benchmark process itself, from at most
``os.cpu_count()`` generator threads and at most two connections;
:func:`check_limits` enforces both before any load starts.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field

MAX_CONNECTIONS = 2


def generator_threads_allowed() -> int:
    return max(1, os.cpu_count() or 1)


def check_limits(threads: int, connections: int) -> None:
    """Refuse a load shape that would measure the load generator."""
    if not 1 <= threads <= generator_threads_allowed():
        raise RuntimeError(
            f"{threads} generator threads exceed the {generator_threads_allowed()}"
            " this host's processors allow")
    if not 0 <= connections <= MAX_CONNECTIONS:
        raise RuntimeError(
            f"{connections} connections exceed the limit of {MAX_CONNECTIONS}")


@dataclass
class Op:
    """One operation: when it was due, sent and done, and its outcome."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    result: object = None
    error: str = ""
    tag: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class Phase:
    """One timed phase of a workload and the operations it issued."""

    name: str
    start: float
    end: float
    ops: list[Op] = field(default_factory=list)
    rate: float = 0.0

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def latencies_ms(self, tag: str | None = None) -> list[float]:
        return [1e3 * op.latency for op in self.ops
                if op.ok and (tag is None or op.tag == tag)]


def _finish(op: Op, future, on_done=None) -> None:
    op.done = time.perf_counter()
    error = future.exception()
    if error is None:
        op.ok, op.result = True, future.result()
    else:
        op.error = f"{type(error).__name__}: {error}"
    if on_done is not None:
        on_done()


def _submit(op: Op, issue, payload, on_done=None) -> None:
    op.sent = time.perf_counter()
    try:
        future = issue(payload)
    except Exception as exc:  # noqa: BLE001 -- a refused op is a failed op
        op.done, op.error = time.perf_counter(), f"{type(exc).__name__}: {exc}"
        if on_done is not None:
            on_done()
        return
    future.add_done_callback(lambda f: _finish(op, f, on_done))


def wait_done(ops: list[Op], timeout: float) -> None:
    """Block until every op has an outcome, or fail after ``timeout``."""
    limit = time.perf_counter() + timeout
    while any(op.done == 0.0 for op in ops):
        if time.perf_counter() > limit:
            raise RuntimeError("operations still outstanding after "
                               f"{timeout:.0f} s")
        time.sleep(0.002)


def open_loop(name: str, issue, payloads, rate: float, seconds: float,
              rng: random.Random) -> Phase:
    """Poisson arrivals at ``rate``/s for ``seconds``, from this thread.

    ``issue(payload)`` returns a future; each op is timed from its due
    time, so a stall in the generator or the system is charged to every
    request it delays.  ``payloads`` yields ``(tag, payload)`` pairs.
    """
    start = time.perf_counter() + 0.001
    phase = Phase(name, start, start + seconds, rate=rate)
    due = start
    while True:
        due += rng.expovariate(rate)
        if due >= phase.end:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        tag, payload = next(payloads)
        op = Op(due=due, tag=tag)
        phase.ops.append(op)
        _submit(op, issue, payload)
    return phase


def closed_loop_futures(name: str, issue, payloads, outstanding: int,
                        seconds: float) -> Phase:
    """Keep ``outstanding`` futures in flight for ``seconds``.

    Throughput is what completes inside the window; ops still in
    flight at its end finish before this returns but do not count.
    """
    slots = threading.Semaphore(outstanding)
    start = time.perf_counter()
    phase = Phase(name, start, start + seconds)
    while True:
        slots.acquire()
        now = time.perf_counter()
        if now >= phase.end:
            break
        tag, payload = next(payloads)
        op = Op(due=now, tag=tag)
        phase.ops.append(op)
        _submit(op, issue, payload, slots.release)
    return phase


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, reused for every request."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.conn.connect()

    def post(self, path: str, body: dict,
             headers: dict | None = None) -> tuple[int, dict]:
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        self.conn.request("POST", path, body=data, headers={
            "Content-Type": "application/json", **(headers or {})})
        response = self.conn.getresponse()
        raw = response.read()
        if response.getheader("Connection", "").lower() == "close":
            raise RuntimeError(f"{path}: server closed the keep-alive "
                               f"connection (status {response.status})")
        return response.status, json.loads(raw.decode("utf-8"))

    def close(self) -> None:
        self.conn.close()


def closed_loop_http(name: str, clients: list[KeepAliveClient], streams,
                     seconds: float) -> Phase:
    """One generator thread per connection, each sending its own seeded
    request stream back to back for ``seconds``."""
    check_limits(len(clients), len(clients))
    start = time.perf_counter()
    phase = Phase(name, start, start + seconds)
    per_thread: list[list[Op]] = [[] for _ in clients]

    def drive(index: int) -> None:
        client, stream, ops = clients[index], streams[index], per_thread[index]
        while True:
            now = time.perf_counter()
            if now >= phase.end:
                return
            trace_id, path, body = stream.next()
            op = Op(due=now, sent=now, tag=path)
            ops.append(op)
            try:
                status, reply = client.post(path, body,
                                            {"X-Repro-Trace": trace_id})
            except (OSError, http.client.HTTPException, RuntimeError,
                    ValueError) as exc:
                op.done, op.error = time.perf_counter(), repr(exc)
                return
            op.done = time.perf_counter()
            op.ok, op.result = status == 200, (trace_id, body, reply)
            if not op.ok:
                op.error = f"HTTP {status}: {reply}"

    threads = [threading.Thread(target=drive, args=(index,),
                                name=f"loadgen-{index}")
               for index in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 120)
        if thread.is_alive():
            raise RuntimeError("an HTTP generator thread did not finish")
    phase.ops = sorted((op for ops in per_thread for op in ops),
                       key=lambda op: op.due)
    return phase
