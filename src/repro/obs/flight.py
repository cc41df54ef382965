"""The crash flight recorder: last-N events + metrics, dumped on failure.

Full traces of million-packet runs are too big to keep, and end-of-run
snapshots are too late to explain a crash. The :class:`FlightRecorder`
is the middle ground: a bounded ring of the most recent trace events
(it subscribes to the run's :class:`~repro.obs.trace.Tracer` as a
*sink*, the pre-sampling stream -- so the ring stays complete even when
a :class:`~repro.obs.sinks.TraceSampler` is dropping most events from
the exported trace, and it works even when nothing ever exports the
full trace), plus
whatever else the observability context knows -- registry snapshot
and the time-series curves with their alerts -- bundled into one
self-contained ``repro.flight/2`` JSON document the moment something
goes wrong.

Two triggers:

* **alert escalation** -- a ``!critical`` rule of the run's
  :class:`~repro.obs.timeseries.TimeSeriesSampler` firing calls
  :meth:`trigger`;
* **unhandled failure** -- wrap the run in :func:`flight_guard`; an
  escaping exception dumps a bundle and re-raises.

``python -m repro.obs.query alerts --flight bundle.json`` reconstructs
the firing alerts and their triggering time-series windows from the
bundle alone.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.timeseries import TIMESERIES_SCHEMA

FLIGHT_SCHEMA = "repro.flight/2"


class FlightRecorder:
    """Bounded ring of recent trace events + bundle dumping.

    ``capacity`` bounds retained events; ``out_dir`` (optional) is where
    triggered bundles are written as ``flight-<n>.json``. Memory stays
    flat no matter how long the run is.
    """

    def __init__(self, capacity: int = 256,
                 out_dir: Optional[str] = None) -> None:
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.events_seen = 0
        #: every dumped bundle, in trigger order: (reason, dict, path)
        self.bundles: List = []
        self._obs = None

    def bind(self, obs) -> None:
        """Back-reference to the run's context, so a bundle can include
        the registry snapshot and the time series (wired by
        :class:`~repro.obs.context.Observability`)."""
        self._obs = obs

    # -- tracer sink (hot when tracing is on) ----------------------------------

    def record(self, event) -> None:
        self._ring.append(event)
        self.events_seen += 1

    def recent(self) -> List[Dict[str, object]]:
        return [event.as_dict() for event in self._ring]

    # -- bundling --------------------------------------------------------------

    def bundle(self, reason: str, now: Optional[float] = None) -> Dict[str, object]:
        """The self-contained diagnostic document."""
        obs = self._obs
        out: Dict[str, object] = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "virtual_time": now,
            "capacity": self.capacity,
            "events_seen": self.events_seen,
            "events": self.recent(),
            "metrics": obs.snapshot() if obs is not None else {},
            "timeseries": None,
        }
        if obs is not None and obs.sampler is not None:
            out["timeseries"] = obs.sampler.dump()
        return out

    def trigger(self, reason: str, now: Optional[float] = None) -> Dict[str, object]:
        """Dump a bundle (called on alert escalation or by
        :func:`flight_guard`); returns the bundle dict. When ``out_dir``
        is set, also writes ``flight-<n>.json`` there."""
        data = self.bundle(reason, now)
        path = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.out_dir / f"flight-{len(self.bundles)}.json"
            with open(path, "w") as fp:
                json.dump(data, fp, sort_keys=True, indent=1)
                fp.write("\n")
        self.bundles.append((reason, data, path))
        return data


@contextmanager
def flight_guard(obs, clock=None, reason: str = "exception"):
    """Dump a flight bundle when an exception escapes the block, then
    re-raise. ``clock`` (optional callable) stamps the bundle's virtual
    time -- pass ``sim.now``."""
    try:
        yield
    except BaseException as exc:
        flight = getattr(obs, "flight", None)
        if flight is not None:
            now = clock() if clock is not None else None
            flight.trigger(f"{reason}:{type(exc).__name__}", now)
        raise


_REQUIRED_KEYS = (
    "schema", "reason", "virtual_time", "capacity", "events_seen",
    "events", "metrics", "timeseries",
)


def validate_bundle(data: Dict[str, object]) -> List[str]:
    """Structural check of a ``repro.flight/2`` bundle; returns the list
    of problems (empty means valid). Used by tests and the CI gate."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["bundle is not an object"]
    if data.get("schema") != FLIGHT_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {FLIGHT_SCHEMA!r}"
        )
    for key in _REQUIRED_KEYS:
        if key not in data:
            problems.append(f"missing key {key!r}")
    events = data.get("events")
    if not isinstance(events, list):
        problems.append("events is not a list")
    else:
        if isinstance(data.get("capacity"), int) and \
                len(events) > data["capacity"]:
            problems.append(
                f"{len(events)} events exceed capacity {data['capacity']}"
            )
        for i, event in enumerate(events):
            if not isinstance(event, dict) or "ts" not in event \
                    or "name" not in event or "track" not in event:
                problems.append(f"event {i} lacks ts/name/track")
                break
    if not isinstance(data.get("metrics"), dict):
        problems.append("metrics is not an object")
    ts = data.get("timeseries")
    if ts is not None:
        if not isinstance(ts, dict) or ts.get("schema") != TIMESERIES_SCHEMA:
            problems.append(f"timeseries is not a {TIMESERIES_SCHEMA} document")
    return problems
