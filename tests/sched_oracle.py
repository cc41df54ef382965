"""The reference scheduler: a binary heap of ``(when, seq)`` records.

This is the dispatch-order *specification* ``repro.net.events.Simulator``
is held to: virtual time first, schedule order as the tie-break,
cancelled records skipped, ``run(until)`` never consuming a later event
(``until=inf`` leaves the clock at the last event).  The simulator is a
binary heap too; this copy stays the plain one, without the fast and
instrumented run loops or the refusal of non-finite times.
API-compatible with ``Simulator`` as far as the fabric and libncrt use
it, so whole workloads can run on it (tests/test_sched_differential.py);
it takes no profiler or sampler.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.net.events import Timer
from repro.obs.context import NULL_OBS


class HeapSimulator:
    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._cancelled = 0
        self.events_processed = 0
        self.obs = NULL_OBS
        self._queue: list = []

    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return self._seq - self.events_processed - self._cancelled

    def schedule_at(self, when, callback, label=None) -> Timer:
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        self._seq += 1
        rec = [when, self._seq, label, callback]
        heappush(self._queue, rec)
        return Timer(self, rec)

    def schedule(self, delay, callback, label=None) -> Timer:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, label)

    schedule_cancellable = schedule

    def step(self, until=None) -> bool:
        """Dispatch the next live event at or before *until*."""
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            when, _seq, _label, callback = rec = heappop(queue)
            if callback is None:
                continue
            rec[3] = None  # fired: a Timer held past here is dead
            self._now = when
            self.events_processed += 1  # popped to run, before it can raise
            callback()
            return True
        return False

    def run(self, until=None, max_events=10_000_000) -> float:
        processed = 0
        while self.step(until):
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events (livelock?)"
                )
        if until is not None and self._now < until < float("inf"):
            self._now = until
        if self.obs.enabled:
            self.obs.tracer.flush()
        return self._now
