"""Discrete-event simulation core.

:class:`Simulator` is a calendar queue / timing wheel tuned for
datacenter-scale runs with very large pending-event populations.
Events are hashed into fixed-width time slots; each slot's bucket is
kept sorted by C-level :func:`bisect.insort`, the set of occupied
slots is a small heap of slot numbers, and events beyond the wheel
horizon wait in an overflow heap that is drained bucket by bucket.
Every operation touches a tiny, cache-resident bucket instead of a
multi-megabyte binary heap, which is where the measured speedup at
1M+ pending events comes from (see ``docs/SIMULATOR.md``).

An event record is a slab-recycled 4-slot list ``[when, seq, label,
callback]`` and the dispatch order is total: ``(when, seq)``.  The
monotone slot function can never reorder records across slots, and
records that share a slot are kept ``(when, seq)``-sorted, so the wheel
dispatches exactly as a binary heap of the same records would --
``tests/sched_oracle.py`` is that heap, and the test suite holds the
wheel to it.  ``seq`` is unique per record, so comparisons never reach
the label/callback fields.

Cancellation is lazy: :meth:`Simulator.schedule_cancellable` returns a
:class:`Timer` whose :meth:`~Timer.cancel` nulls the record's callback
in place; both pop paths (``run``, ``step``) skip such tombstones
without dispatching them.  Records are recycled through a bounded
freelist after they are consumed; a :class:`Timer` validates the
record's sequence number before cancelling, so a stale handle to a
recycled record is a safe no-op.

The simulator also carries the run's observability context
(:attr:`obs`, default :data:`~repro.obs.context.NULL_OBS`): every
component that can reach the simulator reaches tracing and metrics the
same way, and the virtual clock is the one clock traces use.  When the
context carries a profiler or a time-series sampler, the run loop
dispatches through the instrumented :meth:`Simulator._dispatch_next`
(the body :meth:`Simulator.step` runs once); without them it is a tight
uninstrumented loop, so disabled-observability numbers stay the real
numbers.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.obs.context import NULL_OBS

#: wheel geometry defaults: 256 ns slots x 32768 slots = an 8.4 ms
#: horizon.  Narrower than any modelled delay (the smallest standing
#: delay in the simulator is the 1 us switch pipeline), so a callback
#: almost never schedules into the slot being drained; wide enough that
#: microsecond-spaced packet events share buckets.
DEFAULT_SLOT_WIDTH = 256e-9
DEFAULT_WHEEL_SLOTS = 32768

#: consumed event records kept for reuse (the "slab"); bounds retained
#: memory after a burst while still absorbing steady-state churn
_FREELIST_MAX = 65536


class Timer:
    """A cancellation handle for one scheduled event.

    Holds the live record plus the sequence number it was issued for;
    cancelling is a no-op once the event has fired (or if the record
    slab has already recycled the record for a newer event).
    """

    __slots__ = ("_sim", "_rec", "_seq")

    def __init__(self, sim: "Simulator", rec: List[object], seq: int) -> None:
        self._sim = sim
        self._rec = rec
        self._seq = seq

    @property
    def active(self) -> bool:
        """True while the event is still pending (not fired, not
        cancelled)."""
        rec = self._rec
        return rec[1] == self._seq and rec[3] is not None

    def cancel(self) -> bool:
        """Lazily cancel the event: the record stays queued as a
        tombstone and is skipped (never dispatched) by every pop path.
        Returns True if this call cancelled it, False if the event
        already fired or was already cancelled."""
        rec = self._rec
        if rec[1] != self._seq or rec[3] is None:
            return False
        rec[3] = None
        self._sim._cancelled += 1
        return True

    def __repr__(self) -> str:
        state = "active" if self.active else "dead"
        return f"Timer(seq={self._seq}, {state})"


class Simulator:
    """A deterministic discrete-event scheduler.

    Events are ``[time, tiebreak-seq, label, callback]`` records; the
    tiebreak keeps simultaneous events in schedule order, which makes
    runs fully deterministic.  The *label* (optional, supplied by the
    scheduling site as ``"component;instance;handler"``) is what the
    continuous profiler attributes wall time to.
    """

    def __init__(
        self,
        slot_width: float = DEFAULT_SLOT_WIDTH,
        wheel_slots: int = DEFAULT_WHEEL_SLOTS,
    ) -> None:
        if slot_width <= 0:
            raise SimulationError("slot_width must be positive")
        if wheel_slots < 2 or wheel_slots & (wheel_slots - 1):
            raise SimulationError("wheel_slots must be a power of two >= 2")
        self._now = 0.0
        self._seq = 0
        self._cancelled = 0
        self.events_processed = 0
        self.obs = NULL_OBS
        #: slab of consumed records available for reuse
        self._free: List[List[object]] = []
        self._inv_width = 1.0 / slot_width
        self._nslots = wheel_slots
        self._mask = wheel_slots - 1
        self._buckets: List[List[List[object]]] = [
            [] for _ in range(wheel_slots)
        ]
        #: occupied absolute slot numbers (min-heap)
        self._slot_heap: List[int] = []
        #: records at or beyond the horizon (min-heap)
        self._overflow: List[List[object]] = []
        #: slots < horizon live in the wheel, the rest overflow
        self._horizon = wheel_slots
        #: the bucket currently being drained, consumed by index so
        #: same-slot arrivals can be merged in front of the cursor
        self._cur: List[List[object]] = []
        self._cur_i = 0
        self._cur_slot = -1

    def now(self) -> float:
        return self._now

    # -- scheduling ---------------------------------------------------------

    def _record(
        self, when: float, label: Optional[str], callback: Callable[[], None]
    ) -> List[object]:
        self._seq += 1
        free = self._free
        if free:
            rec = free.pop()
            rec[0] = when
            rec[1] = self._seq
            rec[2] = label
            rec[3] = callback
            return rec
        return [when, self._seq, label, callback]

    def _enqueue(self, rec: List[object]) -> None:
        when: float = rec[0]  # type: ignore[assignment]
        slot = int(when * self._inv_width)
        if slot <= self._cur_slot:
            # Lands in (or before) the slot being drained: merge ahead
            # of the cursor so it still dispatches in (when, seq) order.
            insort(self._cur, rec, lo=self._cur_i)
        elif slot < self._horizon:
            bucket = self._buckets[slot & self._mask]
            if bucket:
                insort(bucket, rec)
            else:
                heappush(self._slot_heap, slot)
                bucket.append(rec)
        else:
            heappush(self._overflow, rec)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._enqueue(self._record(self._now + delay, label, callback))

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
    ) -> None:
        if when < self._now:
            raise SimulationError(f"cannot schedule at {when} < now {self._now}")
        self._enqueue(self._record(when, label, callback))

    def schedule_cancellable(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
    ) -> Timer:
        """Like :meth:`schedule`, returning a :class:`Timer` handle that
        can lazily cancel the event (used for timeouts that are almost
        always cancelled)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        rec = self._record(self._now + delay, label, callback)
        self._enqueue(rec)
        return Timer(self, rec, rec[1])  # type: ignore[arg-type]

    # -- bookkeeping --------------------------------------------------------

    def _retire(self, rec: List[object]) -> None:
        """Return a consumed record to the slab.  The callback slot is
        nulled so a stale :class:`Timer` sees the event as dead (and so
        the slab does not pin closures or frame payloads alive)."""
        free = self._free
        if len(free) < _FREELIST_MAX:
            rec[3] = None
            free.append(rec)

    @property
    def pending(self) -> int:
        """Live (scheduled, not yet fired, not cancelled) events."""
        return self._seq - self.events_processed - self._cancelled

    # -- wheel internals ----------------------------------------------------

    def _pull_overflow(self, horizon: int) -> None:
        """Move overflow records whose slot is below *horizon* into the
        wheel (heap order makes the pull deterministic)."""
        overflow = self._overflow
        inv = self._inv_width
        buckets = self._buckets
        mask = self._mask
        slot_heap = self._slot_heap
        while overflow and int(overflow[0][0] * inv) < horizon:  # type: ignore[operator]
            rec = heappop(overflow)
            slot = int(rec[0] * inv)  # type: ignore[operator]
            bucket = buckets[slot & mask]
            if bucket:
                insort(bucket, rec)
            else:
                heappush(slot_heap, slot)
                bucket.append(rec)
        self._horizon = horizon

    def _load_next_bucket(self) -> bool:
        """Make the next occupied bucket current; False when the wheel
        (including overflow) is empty."""
        slot_heap = self._slot_heap
        buckets = self._buckets
        mask = self._mask
        while True:
            while slot_heap:
                slot = slot_heap[0]
                bucket = buckets[slot & mask]
                if not bucket:
                    heappop(slot_heap)
                    continue
                heappop(slot_heap)
                # The just-drained current bucket (emptied by
                # _finish_bucket) becomes the wheel's replacement list:
                # bucket containers recycle with zero allocation.
                buckets[slot & mask] = self._cur
                self._cur = bucket
                self._cur_i = 0
                self._cur_slot = slot
                new_horizon = slot + self._nslots
                if self._overflow and int(
                    self._overflow[0][0] * self._inv_width  # type: ignore[operator]
                ) < new_horizon:
                    self._pull_overflow(new_horizon)
                else:
                    self._horizon = new_horizon
                return True
            if not self._overflow:
                return False
            # Only far-future events remain: re-base the wheel on the
            # earliest of them and pull a horizon's worth in.
            base = int(self._overflow[0][0] * self._inv_width)  # type: ignore[operator]
            self._pull_overflow(base + self._nslots)

    def _finish_bucket(self, cur: List[List[object]]) -> None:
        del cur[:]
        self._cur_i = 0

    # -- run loops ----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the queue (optionally up to simulated time *until*).

        Returns the simulation time when processing stopped.
        """
        obs = self.obs
        profiler = obs.profiler if obs.enabled else None
        sampler = obs.sampler if obs.enabled else None
        if profiler is None and sampler is None:
            self._run_fast(until, max_events)
        else:
            self._run_instrumented(until, max_events, profiler, sampler)
        if until is not None and until > self._now:
            self._now = until
        if obs.enabled:
            # IO-only flush: streamed trace shards are durable at every
            # run boundary. Never drains the trace sampler -- a caller
            # may run() again (retransmits) and in-flight windows must
            # stay promotable.
            obs.tracer.flush()
        return self._now

    def _run_fast(self, until: Optional[float], max_events: int) -> None:
        processed = 0
        retire = self._retire
        limit = float("inf") if until is None else until
        while True:
            cur = self._cur
            i = self._cur_i
            while i < len(cur):
                rec = cur[i]
                if rec[0] > limit:  # type: ignore[operator]
                    self._cur_i = i
                    return
                i += 1
                self._cur_i = i
                callback = rec[3]
                if callback is None:
                    retire(rec)
                    continue
                self._now = rec[0]  # type: ignore[assignment]
                retire(rec)
                callback()  # type: ignore[operator]
                processed += 1
                self.events_processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events (livelock?)"
                    )
            self._finish_bucket(cur)
            if not self._load_next_bucket():
                return

    def _dispatch_next(self, until: Optional[float], profiler, sampler) -> bool:
        """Dispatch the next live event, skipping cancelled tombstones,
        with wall-time attribution (profiler) and virtual-clock boundary
        sampling (time-series sampler) when given.  False when the queue
        is empty or its next record is later than *until*."""
        while True:
            cur = self._cur
            i = self._cur_i
            if i >= len(cur):
                self._finish_bucket(cur)
                if not self._load_next_bucket():
                    return False
                continue
            rec = cur[i]
            when: float = rec[0]  # type: ignore[assignment]
            if until is not None and when > until:
                return False
            self._cur_i = i + 1
            callback = rec[3]
            if callback is None:
                self._retire(rec)
                continue
            label = rec[2]
            if sampler is not None:
                # Boundaries at or before this event's time sample the
                # state *before* the event runs, so identical runs
                # sample identical states.
                sampler.advance(when)
            self._now = when
            self._retire(rec)
            if profiler is not None:
                t0 = perf_counter()
                callback()  # type: ignore[operator]
                profiler.record(label, callback, when, perf_counter() - t0)
            else:
                callback()  # type: ignore[operator]
            self.events_processed += 1
            return True

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
