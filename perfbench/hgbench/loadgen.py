"""Open-loop HTTP load generator owned by the benchmark.

Each stream is a pre-built schedule served by one or more threads, each
thread holding one keep-alive connection.  A request is timed from its
due time, so a stall that delays later requests is counted against them;
the time a free thread woke up late is recorded separately as the
generator's own lag.  Every request carries an ``X-Bench-Request-Id``
header (the server ignores it) so a traced run can join client and
server spans.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from hgbench.schedule import Arrival

REQUEST_ID_HEADER = "X-Bench-Request-Id"
#: A free thread that starts a request later than this after it was due
#: counts as generator lag, not program latency.
LAG_LIMIT_S = 0.005
#: The generator's threads hand the interpreter lock over this often, so
#: a thread woken for a due request does not wait out the default 5 ms.
#: The cyclic garbage collector is off while they run: a full collection
#: of the benchmark process's reference engine pauses both threads.
SWITCH_INTERVAL_S = 0.0005
TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One attempted request, with monotonic timestamps in seconds."""

    rid: int
    op: str
    due: float
    ready: float
    send: float
    end: float
    status: int
    code: str | None = None
    body: Any = None
    request: Any = None

    @property
    def ok(self) -> bool:
        return self.code is None

    @property
    def latency(self) -> float:
        """Due to completion; infinite when the request failed."""
        return self.end - self.due if self.ok else float("inf")

    @property
    def service(self) -> float:
        """Send to completion, the interval a server span can cover."""
        return self.end - self.send

    @property
    def lag(self) -> float:
        return self.send - max(self.due, self.ready)


class Client:
    """One keep-alive connection to the service."""

    def __init__(self, port: int, *, close_each: bool = False) -> None:
        self.port = port
        self.close_each = close_each
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=TIMEOUT_S
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def call(
        self, method: str, path: str, body: Any = None, rid: int | None = None
    ) -> tuple[int, str | None, Any]:
        """``(status, failure code or None, parsed body)``; never raises."""
        headers = {"Content-Type": "application/json"}
        if rid is not None:
            headers[REQUEST_ID_HEADER] = str(rid)
        if self.close_each:
            headers["Connection"] = "close"
        data = None if body is None else json.dumps(body).encode("utf-8")
        try:
            conn = self._connection()
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, "transport", None
        if self.close_each:
            self.close()
        try:
            parsed = json.loads(raw) if raw else None
        except ValueError:
            parsed = None
        if status < 400:
            return status, None, parsed
        error = parsed.get("error") if isinstance(parsed, dict) else None
        if isinstance(error, dict) and isinstance(error.get("code"), str):
            return status, error["code"], parsed
        return status, f"http_{status}", parsed


def call_once(port: int, method: str, path: str, body: Any = None) -> Any:
    """One request on a fresh connection; raises on any failure."""
    status, code, parsed = Client(port, close_each=True).call(method, path, body)
    if code is not None:
        raise RuntimeError(f"{method} {path} failed: {code} (HTTP {status})")
    return parsed


class _Stream:
    def __init__(self, schedule: Sequence[Arrival]) -> None:
        self.schedule = list(schedule)
        self.next = 0
        self.lock = threading.Lock()

    def take(self) -> int | None:
        with self.lock:
            if self.next >= len(self.schedule):
                return None
            index, self.next = self.next, self.next + 1
            return index


def run_open_loop(
    port: int,
    streams: Sequence[tuple[Sequence[Arrival], int]],
    *,
    start_delay: float = 0.05,
) -> tuple[float, list[Outcome]]:
    """Drive every ``(schedule, threads)`` stream; returns ``(t0, outcomes)``.

    Due offsets are relative to ``t0``, the shared start time.  At most
    one connection per thread; the caller keeps the thread total within
    the machine's core count.
    """
    t0 = time.monotonic() + start_delay
    ids = itertools.count()
    id_lock = threading.Lock()
    outcomes: list[Outcome] = []
    out_lock = threading.Lock()

    def worker(stream: _Stream) -> None:
        client = Client(port)
        local: list[Outcome] = []
        try:
            while True:
                ready = time.monotonic()
                index = stream.take()
                if index is None:
                    break
                arrival = stream.schedule[index]
                due = t0 + arrival.due
                wait = due - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                with id_lock:
                    rid = next(ids)
                send = time.monotonic()
                status, code, body = client.call(
                    arrival.method, arrival.path, arrival.body, rid
                )
                end = time.monotonic()
                local.append(
                    Outcome(rid, arrival.op, due, ready, send, end, status, code,
                            body, arrival.body)
                )
        finally:
            client.close()
            with out_lock:
                outcomes.extend(local)

    threads = []
    for schedule, count in streams:
        stream = _Stream(schedule)
        threads.extend(
            threading.Thread(target=worker, args=(stream,), daemon=True)
            for _ in range(count)
        )
    default_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
        sys.setswitchinterval(default_interval)
    outcomes.sort(key=lambda outcome: outcome.due)
    return t0, outcomes


@dataclass
class Accounting:
    """Attempted / succeeded / failed-by-code, plus the generator's lag."""

    attempted: int = 0
    succeeded: int = 0
    failed_by_code: dict[str, int] = field(default_factory=dict)
    late: int = 0
    max_lag_ms: float = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    @property
    def generator_behind(self) -> bool:
        """True when the generator, not the program, delayed >1% of sends."""
        return self.attempted > 0 and self.late > 0.01 * self.attempted

    def add(self, outcomes: Sequence[Outcome]) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if outcome.ok:
                self.succeeded += 1
            else:
                self.failed_by_code[outcome.code] = (
                    self.failed_by_code.get(outcome.code, 0) + 1
                )
            if outcome.lag > LAG_LIMIT_S:
                self.late += 1
            self.max_lag_ms = max(self.max_lag_ms, outcome.lag * 1000.0)

    def add_result(self, ok: bool, code: str | None = None) -> None:
        """Count one operation attempted outside an open-loop stream."""
        self.attempted += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed_by_code[code or "error"] = (
                self.failed_by_code.get(code or "error", 0) + 1
            )

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failed_by_code": dict(sorted(self.failed_by_code.items())),
            "generator_late": self.late,
            "generator_max_lag_ms": round(self.max_lag_ms, 3),
            "generator_behind": self.generator_behind,
        }
