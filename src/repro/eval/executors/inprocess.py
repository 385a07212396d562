"""The in-process backend: serial, deterministic, zero pickling.

``InprocessAsyncExecutor`` queues submissions and runs them one at a
time *inside* :meth:`next_event` — execution is deferred to the drain
loop, not performed at submit time, which is what makes cancellation of
queued units meaningful on a serial backend.  Units run on the caller's
thread in submission order, so behaviour (and every timing counter) is
bit-identical to the pre-executor serial loop: no worker processes, no
pickling, metrics accrue directly in the calling process instead of
round-tripping through a snapshot merge.

This is the backend ``run_grid`` picks for ``jobs=1`` (the reference
every parallel backend must match byte-for-byte) and the one the
conformance suite uses to pin expected semantics.
"""

from __future__ import annotations

import time
from collections import deque

from repro.errors import error_payload
from repro.eval.executors.base import (
    Executor,
    ExecutorProbe,
    UnitEvent,
    unit_deadline,
)


class InprocessAsyncExecutor(Executor):
    backend = "inprocess"

    def __init__(self):
        self._queue: deque = deque()
        self._attempts: dict[str, int] = {}  # key -> queued-copy dispatches

    def submit(self, task, timeout: float | None = None) -> str:
        self._queue.append((task, timeout))
        self._attempts[task.key] = self._attempts.get(task.key, 0) + 1
        return task.key

    def _take_attempts(self, key: str) -> int:
        attempts = self._attempts.get(key, 1)
        if not any(item[0].key == key for item in self._queue):
            self._attempts.pop(key, None)
        return attempts

    def next_event(self, timeout: float | None = None) -> UnitEvent | None:
        if not self._queue:
            return None
        task, deadline = self._queue.popleft()
        attempts = self._take_attempts(task.key)
        start = time.perf_counter()
        try:
            with unit_deadline(deadline):
                value = task.run()
        except Exception as exc:  # noqa: BLE001 — containment is the contract
            return UnitEvent(
                task.key, "err", error_payload(exc),
                time.perf_counter() - start, attempts=attempts,
            )
        return UnitEvent(
            task.key, "ok", value, time.perf_counter() - start,
            attempts=attempts,
        )

    def cancel(self, key: str) -> bool:
        kept = deque(item for item in self._queue if item[0].key != key)
        dropped = len(self._queue) - len(kept)
        self._queue = kept
        if dropped and not any(item[0].key == key for item in kept):
            self._attempts.pop(key, None)
        return dropped > 0

    def probe(self) -> ExecutorProbe:
        # idle=0 always: the caller's thread is the only worker
        return ExecutorProbe(
            backend=self.backend,
            workers=1,
            idle=0,
            queued=len(self._queue),
            in_flight=0,
        )

    def close(self) -> None:
        self._queue.clear()
        self._attempts.clear()
