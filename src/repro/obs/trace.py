"""Structured tracing: spans and packet-scoped events.

The tracer records what happened to every frame as it crosses the stack
-- host emit, link queue/serialize, switch parser, each pipeline stage's
matched table and action, delivery -- against the **simulator's virtual
clock**, so two identical runs produce byte-identical traces. Wall-clock
time never enters a simulation trace; the compiler's
:class:`~repro.obs.compiler.CompileTrace` takes a caller-supplied clock
for the same determinism on the build side.

Events live on *tracks* (one per host, link direction, or switch) and
carry free-form ``args``; NCP-decodable frames are annotated with
``kernel``/``seq``/``from`` so one window can be followed hop-by-hop
with a text grep or in a trace viewer.

Three exporters:

* :meth:`Tracer.write_jsonl` -- one JSON object per line, grep-friendly;
* :meth:`Tracer.timeline` -- a human-readable time-ordered listing;
* :meth:`Tracer.write_chrome` -- Chrome trace-event format (the
  ``chrome://tracing`` / Perfetto JSON schema): complete events (``X``)
  for spans, instant events (``i``) for points, with thread-name
  metadata so tracks show up labelled.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import IO, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: simulated seconds -> trace microseconds (the chrome schema's unit)
_US = 1e6


class TraceEvent:
    """``args`` is the dict the site passed or, from a hot site, a payload
    ``(formatter, *scalars)`` that becomes ``formatter(*scalars)`` on first
    read; a payload holds nothing that changes after the event."""

    __slots__ = ("ts", "dur", "name", "cat", "track", "_args")

    def __init__(
        self,
        ts: float,
        dur: Optional[float],
        name: str,
        cat: str,
        track: str,
        args: Union[Dict, Tuple, None] = None,
    ):
        self.ts = ts
        self.dur = dur  # None -> instant event
        self.name = name
        self.cat = cat
        self.track = track
        self._args = args or {}

    @property
    def args(self) -> Dict:
        args = self._args
        if args.__class__ is tuple:
            args = self._args = args[0](*args[1:])
        return args

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "ts": self.ts,
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
        }
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d


def fields(names: Sequence[str], *values) -> Dict:
    """The formatter of a payload whose scalars are its args: *names*
    onto *values*, in order (a value past the last name is left out)."""
    return dict(zip(names, values))


def chrome_threads(
    process_name: str, threads: Iterable[str]
) -> Tuple[Dict[str, int], List[Dict[str, object]]]:
    """``(thread -> tid, metadata events)`` opening a Chrome trace:
    threads numbered from 1 in first-appearance order (deterministic),
    the process and each thread named by an ``M`` event."""
    tids: Dict[str, int] = {}
    for thread in threads:
        tids.setdefault(thread, len(tids) + 1)
    named = [(0, "process_name", process_name)]
    named += [(tid, "thread_name", thread) for thread, tid in tids.items()]
    return tids, [
        {"ph": "M", "pid": 1, "tid": tid, "name": key, "args": {"name": value}}
        for tid, key, value in named
    ]


class Tracer:
    """An append-only event log with optional sampling and streaming.

    Two subscriber lists bracket the sampling stage:

    * *sinks* (:meth:`add_sink`) see the **pre-sampling** stream --
      every recorded event. The crash flight recorder rides here, so
      its last-N ring stays complete even under aggressive sampling;
    * *streams* (:meth:`add_stream`) see the **post-sampling** stream
      -- what the :class:`~repro.obs.sinks.TraceSampler` keeps (or
      everything, when no sampler is configured). Streaming sinks
      (:class:`~repro.obs.sinks.JsonlSink`) ride here.

    ``retain`` controls the in-memory ``events``: ``True`` keeps every
    kept event in a list (the historical behaviour), an integer keeps
    that many in a ring whose oldest event falls off as a new one
    arrives, ``False`` (or 0) keeps none (stream-only runs). The tracer
    self-accounts (:meth:`stats`): events recorded vs emitted vs
    sampled out, bytes written by streams, and the peak number of
    events resident in memory -- the observer reports its own overhead.
    """

    def __init__(self, sampler=None, retain: Union[bool, int] = True) -> None:
        self._ring: Union[List, Deque] = (
            [] if retain is True else deque(maxlen=int(retain))
        )
        self._keep = self._ring.append
        self._sinks: List = []
        self._streams: List = []
        self._sampler = sampler
        if sampler is not None:
            sampler.bind(self._emit)
        #: a sink, a sampler or a stream stands between span()/instant()
        #: and the ring: such events go the long way, through _tap()
        self._tapped = sampler is not None
        # -- self-accounting
        self.events_recorded = 0
        self._peak_resident = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def events(self) -> Union[List[TraceEvent], Deque[TraceEvent]]:
        """What is retained, oldest first: one list (``retain=True``) or
        ring, the same object at every read. Untapped, :meth:`span` and
        :meth:`instant` append an event's bare fields, and those appended
        since the last read become :class:`TraceEvent` objects here, in
        place -- most leave a ring unread, never having been one. (A
        reference kept while more is recorded shows the new entries as
        field tuples until this is read again.)"""
        self._make_events()
        return self._ring

    def _make_events(self) -> None:
        ring, fresh = self._ring, []
        while ring and ring[-1].__class__ is tuple:  # only ever the tail end
            fresh.append(ring.pop())
        ring.extend(TraceEvent(*raw) for raw in reversed(fresh))

    def add_sink(self, fn) -> None:
        """``fn(event)`` runs for every recorded event, *before*
        sampling (the flight recorder's full-fidelity tap)."""
        self._make_events()  # objects follow: no field tuple may precede one
        self._sinks.append(fn)
        self._tapped = True

    def add_stream(self, sink) -> None:
        """A streaming sink (``write(event)``/``flush()``/``close()``)
        fed the post-sampling stream."""
        self._make_events()
        self._streams.append(sink)
        self._tapped = True

    # -- recording -------------------------------------------------------------

    def span(
        self,
        name: str,
        ts: float,
        dur: float,
        track: str,
        cat: str = "sim",
        args: Union[Dict, Tuple, None] = None,
    ) -> None:
        """A duration event: [ts, ts+dur) in simulated seconds."""
        self.events_recorded += 1
        if self._tapped:
            self._tap(TraceEvent(ts, dur, name, cat, track, args))
        else:
            self._keep((ts, dur, name, cat, track, args))

    def instant(
        self,
        name: str,
        ts: float,
        track: str,
        cat: str = "sim",
        args: Union[Dict, Tuple, None] = None,
    ) -> None:
        self.events_recorded += 1
        if self._tapped:
            self._tap(TraceEvent(ts, None, name, cat, track, args))
        else:
            self._keep((ts, None, name, cat, track, args))

    def _tap(self, event: TraceEvent) -> None:
        """One event through whatever is attached: sinks, then the
        sampler where there is one, then :meth:`_emit`."""
        for sink in self._sinks:
            sink(event)
        sampler = self._sampler
        if sampler is None:
            self._emit(event)
            return
        sampler.feed(event)
        # events held back for a promotion come and go: watch the peak
        resident = len(self._ring) + sampler.pending_events
        if resident > self._peak_resident:
            self._peak_resident = resident

    def _emit(self, event: TraceEvent) -> None:
        """One event past the sampling stage: retained + streamed."""
        self._keep(event)
        for stream in self._streams:
            stream.write(event)

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Flush streaming sinks to disk (pending sampler state is kept:
        in-flight windows may still be promoted). The simulator calls
        this when a run loop drains, so shards are durable at every run
        boundary."""
        for stream in self._streams:
            stream.flush()

    def close(self) -> None:
        """Finalize: drain the sampler (windows still pending count as
        sampled out) and close every streaming sink (writing shard
        manifests). Call once, at end of run, before reading stats."""
        if self._sampler is not None:
            self._sampler.drain()
        for stream in self._streams:
            stream.close()

    # -- self-accounting -------------------------------------------------------

    @property
    def bytes_written(self) -> int:
        return sum(getattr(s, "bytes_written", 0) for s in self._streams)

    @property
    def events_emitted(self) -> int:
        """Events past the sampling stage (all of them without a sampler)."""
        return self._sampler.events_kept if self._sampler else self.events_recorded

    @property
    def peak_resident_events(self) -> int:
        """Most events ever held at once (retained + sampler-pending).
        Retained events only accumulate (one leaves the ring as another
        arrives), so without a sampler the peak is what is held now."""
        return max(self._peak_resident, len(self._ring))

    @property
    def events_sampled_out(self) -> int:
        """Events dropped by sampling so far (events still pending in
        the sampler's buffer are counted only after :meth:`close`)."""
        if self._sampler is None:
            return 0
        return self._sampler.events_sampled_out

    def resident_events(self) -> int:
        pending = self._sampler.pending_events if self._sampler else 0
        return len(self._ring) + pending

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "events_recorded": self.events_recorded,
            "events_emitted": self.events_emitted,
            "events_sampled_out": self.events_sampled_out,
            "bytes_written": self.bytes_written,
            "resident_events": self.resident_events(),
            "peak_resident_events": self.peak_resident_events,
        }
        if self._sampler is not None:
            out["sampler"] = self._sampler.stats()
        return out

    # -- queries (mostly for tests and the timeline) ---------------------------

    def on_track(self, track: str) -> List[TraceEvent]:
        return [e for e in self.events if e.track == track]

    def named(self, name: str) -> List[TraceEvent]:
        return [e for e in self.events if e.name == name]

    def tracks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    # -- exporters -------------------------------------------------------------

    def write_jsonl(self, fp: IO[str]) -> None:
        """One event per line, in recording order."""
        for event in self.events:
            fp.write(json.dumps(event.as_dict(), sort_keys=True))
            fp.write("\n")

    def ordered_events(self) -> Sequence[TraceEvent]:
        """Events in time order. The sim clock is monotonic, so events
        almost always lie in ``events`` already sorted, and then this
        returns ``events`` itself (checked here, once per export, not
        tracked per event: an event falling off the ring cannot break
        the order, a sampler promotion flushing buffered events late
        can); otherwise a stable sort, which keeps simultaneous events
        in recording order."""
        stamps = [event.ts for event in self.events]
        if stamps == sorted(stamps):
            return self.events
        return sorted(self.events, key=lambda e: e.ts)

    def timeline(self, limit: Optional[int] = None) -> str:
        """Human-readable, time-ordered (see :meth:`ordered_events`)."""
        lines = []
        for event in islice(self.ordered_events(), limit):
            dur = f" +{event.dur * _US:.3f}us" if event.dur is not None else ""
            args = ""
            if event.args:
                inner = " ".join(
                    f"{k}={event.args[k]}" for k in sorted(event.args)
                )
                args = f"  [{inner}]"
            lines.append(
                f"{event.ts * _US:12.3f}us{dur:>12}  {event.track:<24} "
                f"{event.name}{args}"
            )
        return "\n".join(lines)

    def chrome_dict(self, process_name: str = "repro-sim") -> Dict[str, object]:
        """The trace as a chrome://tracing / Perfetto JSON object."""
        ordered = self.ordered_events()
        tids, trace_events = chrome_threads(process_name, (e.track for e in ordered))
        for event in ordered:
            entry: Dict[str, object] = {
                "name": event.name,
                "cat": event.cat,
                "pid": 1,
                "tid": tids[event.track],
                "ts": round(event.ts * _US, 6),
            }
            if event.dur is None:
                entry["ph"] = "i"
                entry["s"] = "t"
            else:
                entry["ph"] = "X"
                entry["dur"] = round(event.dur * _US, 6)
            if event.args:
                entry["args"] = event.args
            trace_events.append(entry)
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def write_chrome(self, fp: IO[str], process_name: str = "repro-sim") -> None:
        json.dump(self.chrome_dict(process_name), fp, sort_keys=True)
        fp.write("\n")
