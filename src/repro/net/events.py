"""Discrete-event simulation core.

:class:`Simulator` is one :mod:`heapq` of ``[when, seq, label, callback]``
records, dispatched in ``(when, seq)`` order: virtual time first,
schedule order as the tie-break (``seq`` is unique, so comparisons never
reach the label).  ``tests/sched_oracle.py`` is the same heap written
plainly, the specification the test suite holds this one to.  A few to a
few hundred events are pending at once on the benchmark workloads;
``docs/SIMULATOR.md`` "The event core" gives what a far larger resident
population costs.

A time in the past or not finite is refused with
:class:`~repro.errors.SimulationError` before anything changes.
Cancellation is lazy: a :class:`Timer` nulls its record's callback and
every pop path skips such tombstones; a record's callback is nulled when
it fires too, so a :class:`Timer` held past its event is dead.  An event
counts as processed once it is popped to run, so a callback that raises
leaves :attr:`Simulator.pending` right.

:attr:`Simulator.obs` is the run's observability context (default
:data:`~repro.obs.context.NULL_OBS`), whose traces read the virtual clock.
With a profiler or a time-series sampler the run loop dispatches through
:meth:`Simulator._dispatch_next` (the body of :meth:`Simulator.step`);
without them it is a tight uninstrumented loop, so disabled-observability
numbers stay the real numbers.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.obs.context import NULL_OBS

_INF = float("inf")
Callback = Callable[[], None]
Label = Optional[str]


class Timer:
    """A cancellation handle for one scheduled event."""

    __slots__ = ("_sim", "_rec")

    def __init__(self, sim: "Simulator", rec: List[object]) -> None:
        self._sim = sim
        self._rec = rec

    @property
    def active(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return self._rec[3] is not None

    def cancel(self) -> bool:
        """Lazily cancel the event: the record stays queued as a
        tombstone that every pop path skips.  False (a no-op) if the
        event already fired or was already cancelled."""
        rec = self._rec
        if rec[3] is None:
            return False
        rec[3] = None
        self._sim._cancelled += 1
        return True

    def __repr__(self) -> str:
        state = "active" if self.active else "dead"
        return f"Timer(seq={self._rec[1]}, {state})"


class Simulator:
    """A deterministic discrete-event scheduler.  An event's *label*
    (optional, ``"component;instance;handler"``) is what the continuous
    profiler attributes wall time to."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._cancelled = 0
        self.events_processed = 0
        self.obs = NULL_OBS
        self._queue: List[List[object]] = []

    def now(self) -> float:
        return self._now

    # -- scheduling ---------------------------------------------------------

    def _refuse_delay(self, delay: float) -> SimulationError:
        why = "in the past" if delay < 0 else "ahead: the time is not finite"
        return SimulationError(f"cannot schedule {delay}s {why}")

    def schedule(self, delay: float, callback: Callback, label: Label = None) -> None:
        when = self._now + delay
        if not (delay >= 0 and when < _INF):
            raise self._refuse_delay(delay)
        self._seq += 1
        heappush(self._queue, [when, self._seq, label, callback])

    def schedule_at(self, when: float, callback: Callback, label: Label = None) -> None:
        if not (self._now <= when < _INF):
            if when < self._now:
                raise SimulationError(f"cannot schedule at {when} < now {self._now}")
            raise SimulationError(f"cannot schedule at non-finite time {when}")
        self._seq += 1
        heappush(self._queue, [when, self._seq, label, callback])

    def schedule_cancellable(
        self, delay: float, callback: Callback, label: Label = None
    ) -> Timer:
        """Like :meth:`schedule`, returning a :class:`Timer` handle that
        can lazily cancel the event (used for timeouts that are almost
        always cancelled)."""
        when = self._now + delay
        if not (delay >= 0 and when < _INF):
            raise self._refuse_delay(delay)
        self._seq += 1
        rec = [when, self._seq, label, callback]
        heappush(self._queue, rec)
        return Timer(self, rec)

    @property
    def pending(self) -> int:
        """Live (scheduled, not yet fired, not cancelled) events."""
        return self._seq - self.events_processed - self._cancelled

    # -- run loops ----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the queue (optionally up to simulated time *until*;
        ``until=inf`` is the same as none, NaN is refused).

        Returns the simulation time when processing stopped.
        """
        if until is not None and until != until:
            raise SimulationError(f"cannot run until {until}")
        obs = self.obs
        profiler = obs.profiler if obs.enabled else None
        sampler = obs.sampler if obs.enabled else None
        if profiler is None and sampler is None:
            self._run_fast(until, max_events)
        else:
            self._run_instrumented(until, max_events, profiler, sampler)
        if until is not None and self._now < until < _INF:
            self._now = until
        if obs.enabled:
            # IO-only flush at every run boundary; never drains the trace
            # sampler, as a caller may run() again (retransmits) and
            # in-flight windows must stay promotable.
            obs.tracer.flush()
        return self._now

    def _run_fast(self, until: Optional[float], max_events: int) -> None:
        queue = self._queue
        limit = _INF if until is None else until
        processed = 0
        while queue:
            rec = queue[0]
            when = rec[0]
            if when > limit:  # type: ignore[operator]
                return
            heappop(queue)
            callback = rec[3]
            if callback is None:
                continue
            rec[3] = None
            self._now = when  # type: ignore[assignment]
            self.events_processed += 1
            callback()  # type: ignore[operator]
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events (livelock?)"
                )

    def _dispatch_next(self, until: Optional[float], profiler, sampler) -> bool:
        """Dispatch the next live event, skipping cancelled tombstones,
        with wall-time attribution (profiler) and virtual-clock boundary
        sampling (time-series sampler) when given.  False when the queue
        is empty or its next record is later than *until*."""
        queue = self._queue
        while queue:
            rec = queue[0]
            when: float = rec[0]  # type: ignore[assignment]
            if until is not None and when > until:
                return False
            callback = rec[3]
            if callback is not None and sampler is not None:
                # Boundaries at or before this event's time sample the
                # state *before* the event runs, so identical runs
                # sample identical states; a boundary that raises
                # leaves the event queued.
                sampler.advance(when)
            heappop(queue)
            if callback is None:
                continue
            rec[3] = None
            self._now = when
            self.events_processed += 1
            if profiler is not None:
                t0 = perf_counter()
                callback()  # type: ignore[operator]
                profiler.record(rec[2], callback, when, perf_counter() - t0)
            else:
                callback()  # type: ignore[operator]
            return True
        return False

    def _run_instrumented(
        self, until: Optional[float], max_events: int, profiler, sampler
    ) -> None:
        """The same dispatch order, one :meth:`_dispatch_next` at a time."""
        processed = 0
        loop_t0 = perf_counter()
        try:
            while self._dispatch_next(until, profiler, sampler):
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events (livelock?)"
                    )
        finally:
            if profiler is not None:
                profiler.add_loop_wall(perf_counter() - loop_t0)

    def step(self) -> bool:
        """Process exactly one live event, skipping cancelled
        tombstones. Returns False when the queue holds no live events
        (used by blocking host APIs that co-simulate the network)."""
        obs = self.obs
        if obs.enabled:
            return self._dispatch_next(None, obs.profiler, obs.sampler)
        return self._dispatch_next(None, None, None)
