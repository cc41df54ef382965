"""Continuous low-overhead profiling of the discrete-event core.

The :class:`Profiler` hangs off the run's :class:`~repro.obs.context.
Observability` (``obs.profiler``); when present, the simulator's
instrumented run loop times every event callback with the wall clock and
hands the measurement here, attributed to the *schedule label* the
scheduling site supplied (``"component;instance;handler"`` -- e.g.
``"switch;s1;rx"`` or ``"ctrl;controller;apply"``). Events scheduled
without a label fall back to the callback's qualified name under the
``other`` component, so 100% of callback time is always accounted for
and the *named* fraction is an honest coverage number. What an
instrumented run loop spends outside callbacks -- popping the queue,
retiring records, this profiler's own bookkeeping, a time-series
sampler's bucket boundaries -- is reported too, as the entry
:data:`LOOP_LABEL`, so the entries sum to the loop's wall.

Unlike every other part of ``repro.obs``, profiles are inherently
wall-clock data (they answer "where does the *real* time go"), so their
output is not byte-deterministic across runs -- only across exports of
the same run.

Outputs:

* :meth:`Profiler.report` -- the ``repro.profile/1`` JSON: per-label
  wall time/count/average, attribution fraction, and the throughput
  meters (events/sec, packets/sec);
* :meth:`Profiler.collapsed` -- collapsed-stack lines
  (``sim;switch;s1;rx 1234``) for any flamegraph renderer;
* :meth:`Profiler.chrome_dict` -- an aggregate Chrome trace-event JSON
  (one span per label, grouped by component instance) that loads in
  ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Tuple

from repro.obs.trace import chrome_threads

PROFILE_SCHEMA = "repro.profile/1"

#: labels use this separator: component;instance;handler
LABEL_SEP = ";"

#: handler name the net layer uses for frame-arrival events; the count
#: of these is the run's delivered-frame count, which is what the
#: packets/sec meter divides by wall time
RX_HANDLER = "rx"

#: the run loop's self time (loop wall minus callback time), as an entry
LOOP_LABEL = "sim;loop;dispatch"


def split_label(label: str) -> Tuple[str, str, str]:
    """``"switch;s1;rx"`` -> ("switch", "s1", "rx")."""
    parts = label.split(LABEL_SEP)
    while len(parts) < 3:
        parts.append("")
    return parts[0], parts[1], parts[2]


class Profiler:
    """Per-label wall-time and event-count accumulator.

    The hot-path surface is exactly one method (:meth:`record`, a dict
    upsert); everything else runs at report time. ``keep_samples``
    optionally retains the last N (label, virtual_ts, wall_dur) samples
    for fine-grained exports -- off by default to keep memory flat on
    million-event runs.
    """

    def __init__(self, keep_samples: int = 0) -> None:
        #: label -> [count, wall_seconds]
        self._entries: Dict[str, List[float]] = {}
        #: wall time spent inside instrumented run loops (includes the
        #: scheduler's own heap work, so attribution has a denominator)
        self.loop_wall = 0.0
        self.events = 0
        self._keep = keep_samples
        self.samples: List[Tuple[str, float, float]] = []

    # -- hot path --------------------------------------------------------------

    def record(self, label: Optional[str], callback, virtual_ts: float,
               wall_dur: float) -> None:
        """Attribute one event callback's execution (simulator-internal)."""
        if label is None:
            label = "other;;" + getattr(
                callback, "__qualname__", type(callback).__name__
            )
        entry = self._entries.get(label)
        if entry is None:
            entry = [0, 0.0]
            self._entries[label] = entry
        entry[0] += 1
        entry[1] += wall_dur
        self.events += 1
        if self._keep:
            self.samples.append((label, virtual_ts, wall_dur))
            if len(self.samples) > self._keep:
                del self.samples[: len(self.samples) - self._keep]

    def add_loop_wall(self, wall: float) -> None:
        self.loop_wall += wall

    # -- derived numbers -------------------------------------------------------

    @property
    def attributed_wall(self) -> float:
        return sum(e[1] for e in self._entries.values())

    @property
    def named_wall(self) -> float:
        """Wall time attributed to *named* components (labelled schedule
        sites), excluding the ``other;;<qualname>`` fallback bucket."""
        return sum(
            e[1] for label, e in self._entries.items()
            if not label.startswith("other" + LABEL_SEP)
        )

    @property
    def loop_self_wall(self) -> float:
        """Wall time the instrumented run loops spent outside callbacks
        (0 for a step-driven simulation, which times no loop)."""
        return max(0.0, self.loop_wall - self.attributed_wall)

    def _rows(self) -> List[Tuple[str, int, float]]:
        """``(label, count, wall seconds)`` of every entry, the loop's
        own (one dispatch per event) included where a loop was timed."""
        rows = [(label, int(e[0]), e[1]) for label, e in self._entries.items()]
        if self.loop_wall > 0:
            rows.append((LOOP_LABEL, self.events, self.loop_self_wall))
        return rows

    @property
    def total_wall(self) -> float:
        """The attribution denominator: loop wall time when a run loop
        was instrumented, else the attributed sum (step-driven sims)."""
        return self.loop_wall if self.loop_wall > 0 else self.attributed_wall

    def attributed_fraction(self) -> float:
        total = self.total_wall
        return self.named_wall / total if total > 0 else 0.0

    def events_per_sec(self) -> float:
        total = self.total_wall
        return self.events / total if total > 0 else 0.0

    def packets_per_sec(self) -> float:
        total = self.total_wall
        if total <= 0:
            return 0.0
        rx = sum(
            e[0] for label, e in self._entries.items()
            if split_label(label)[2] == RX_HANDLER
        )
        return rx / total

    # -- exports ---------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """The ``repro.profile/1`` document (pure data, JSON-ready)."""
        total = self.total_wall
        entries = []
        for label, count, wall in sorted(
            self._rows(), key=lambda row: (-row[2], row[0])
        ):
            component, instance, handler = split_label(label)
            entries.append(
                {
                    "label": label,
                    "component": component,
                    "instance": instance,
                    "handler": handler,
                    "count": count,
                    "wall_s": wall,
                    "wall_pct": 100.0 * wall / total if total > 0 else 0.0,
                    "avg_us": wall / count * 1e6 if count else 0.0,
                }
            )
        return {
            "schema": PROFILE_SCHEMA,
            "total_wall_s": total,
            "attributed_wall_s": self.attributed_wall,
            "named_wall_s": self.named_wall,
            "attributed_fraction": self.attributed_fraction(),
            "events": self.events,
            "events_per_sec": self.events_per_sec(),
            "packets_per_sec": self.packets_per_sec(),
            "entries": entries,
        }

    def write_json(self, fp: IO[str]) -> None:
        json.dump(self.report(), fp, sort_keys=True)
        fp.write("\n")

    def collapsed(self) -> str:
        """Collapsed-stack lines (``sim;switch;s1;rx 1234``): one
        line per label, value = integer microseconds of wall time, the
        input format of every flamegraph renderer."""
        lines = [
            f"sim{LABEL_SEP}{label} {max(1, int(round(wall * 1e6)))}"
            for label, _, wall in sorted(self._rows())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, fp: IO[str]) -> None:
        fp.write(self.collapsed())

    def chrome_dict(self, process_name: str = "repro-profile") -> Dict[str, object]:
        """An aggregate Chrome trace: one complete (``X``) span per
        label, laid out sequentially on one thread per component
        instance, with count/average in args. Not a per-event timeline
        (the profiler aggregates on the hot path); it loads in any
        trace viewer as a proportional where-does-the-time-go view."""
        def thread_of(label: str) -> str:
            component, instance, _ = split_label(label)
            return f"{component} {instance}".strip()

        rows = self._rows()
        tids, trace_events = chrome_threads(
            process_name, (thread_of(label) for label, _, _ in sorted(rows))
        )
        cursors: Dict[int, float] = {}
        for label, count, wall in sorted(rows, key=lambda row: (-row[2], row[0])):
            component, _, handler = split_label(label)
            tid = tids[thread_of(label)]
            start = cursors.get(tid, 0.0)
            dur = round(wall * 1e6, 3)
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round(start, 3),
                    "dur": dur,
                    "name": handler or label,
                    "cat": component,
                    "args": {
                        "count": count,
                        "avg_us": round(wall / count * 1e6, 3) if count else 0.0,
                    },
                }
            )
            cursors[tid] = start + dur
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, fp: IO[str], process_name: str = "repro-profile") -> None:
        json.dump(self.chrome_dict(process_name), fp, sort_keys=True)
        fp.write("\n")
