"""Virtual-clock time series: windowed aggregation of run metrics.

End-of-run registry snapshots answer "how much, in total"; for
million-packet runs the interesting questions are curves -- *when* did
the drop rate spike, how did the queue depth evolve, did retransmits
cluster around the link failure. The :class:`TimeSeriesSampler` turns
the simulator's always-on component stats into those curves:

* the simulator's instrumented run loop calls :meth:`advance` before
  processing each event, so samples land exactly on fixed-width bucket
  boundaries of the **virtual clock** -- identical seeded runs produce
  byte-identical ``repro.timeseries/1`` JSON;
* *probes* are cheap callables read at each boundary: counter probes
  record the cumulative value (rates are derived as deltas / interval),
  gauge probes record the instantaneous value;
* observers (the :mod:`repro.obs.health` alert engine) are notified
  after every completed boundary, which is what makes alerting
  *continuous* rather than post-hoc.

:func:`attach_network_probes` and :func:`attach_cluster_probes` wire the
standard curves (per-link drops by cause, frames, bytes, queue depth;
NCP windows sent/received/retransmitted) without touching the hot path.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, IO, List, Optional, Tuple

from repro.obs.registry import ObservabilityError

TIMESERIES_SCHEMA = "repro.timeseries/1"


class _Series:
    __slots__ = ("name", "labels", "kind", "fn", "points")

    def __init__(self, name: str, labels: Dict[str, str], kind: str,
                 fn: Callable[[], float]):
        self.name = name
        self.labels = labels
        self.kind = kind
        self.fn = fn
        #: [(bucket_index, value), ...] in sampling order
        self.points: List[Tuple[int, float]] = []

    def key(self) -> Tuple:
        return (self.name, tuple(sorted(self.labels.items())))


class TimeSeriesSampler:
    """Fixed-width bucket sampling over the simulator's virtual clock.

    ``interval`` is in simulated seconds. Bucket *k* covers
    ``[k*interval, (k+1)*interval)``; the sample recorded at boundary
    ``k`` reflects the state after every event strictly before that
    boundary (events scheduled exactly on a boundary land in the bucket
    it opens). ``max_samples`` bounds per-series memory and trips an
    :class:`~repro.obs.registry.ObservabilityError` on runaway
    configurations (tiny interval against a long run).
    """

    def __init__(self, interval: float, max_samples: int = 200_000) -> None:
        if interval <= 0:
            raise ObservabilityError("sampling interval must be positive")
        self.interval = interval
        self.max_samples = max_samples
        self._series: List[_Series] = []
        self._next_idx = 0
        self._observers: List[Callable[["TimeSeriesSampler", float, int], None]] = []
        self.end_time: Optional[float] = None

    # -- configuration ---------------------------------------------------------

    def add_probe(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Optional[Dict[str, str]] = None,
        kind: str = "counter",
    ) -> None:
        """Register one probed series. ``kind`` is ``"counter"`` (probe
        returns a cumulative value; rates derive from deltas) or
        ``"gauge"`` (instantaneous)."""
        if kind not in ("counter", "gauge"):
            raise ObservabilityError(f"unknown series kind {kind!r}")
        series = _Series(name, dict(labels or {}), kind, fn)
        if any(s.key() == series.key() for s in self._series):
            raise ObservabilityError(
                f"duplicate time series {name!r} labels {series.labels}"
            )
        self._series.append(series)

    def on_bucket(
        self, fn: Callable[["TimeSeriesSampler", float, int], None]
    ) -> None:
        """Run ``fn(sampler, boundary_time, bucket_index)`` after every
        completed boundary (the alert engine's evaluation hook)."""
        self._observers.append(fn)

    # -- sampling (simulator-facing) -------------------------------------------

    def advance(self, when: float) -> None:
        """Sample every boundary at or before virtual time ``when``
        (called by the instrumented run loop before each event)."""
        while self._next_idx * self.interval <= when:
            self._sample(self._next_idx)
            self._next_idx += 1

    def finish(self, now: float) -> None:
        """Record one trailing sample at the next boundary so the final
        partial bucket's end state is captured, and stamp the run's end
        time. Idempotent: the first call wins."""
        if self.end_time is not None:
            return
        self.advance(now)
        self._sample(self._next_idx)
        self._next_idx += 1
        self.end_time = now

    def _sample(self, idx: int) -> None:
        for series in self._series:
            if len(series.points) >= self.max_samples:
                raise ObservabilityError(
                    f"time series {series.name!r} exceeded {self.max_samples} "
                    "samples; raise the interval or max_samples"
                )
            series.points.append((idx, series.fn()))
        t = idx * self.interval
        for observer in self._observers:
            observer(self, t, idx)

    # -- queries ---------------------------------------------------------------

    def series_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for series in sorted(self._series, key=_Series.key):
            seen.setdefault(series.name, None)
        return list(seen)

    def matching(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> List[_Series]:
        """Every series with ``name`` whose labels include ``labels``."""
        want = labels or {}
        return [
            s for s in sorted(self._series, key=_Series.key)
            if s.name == name
            and all(s.labels.get(k) == v for k, v in want.items())
        ]

    def summed(self, name: str, labels: Optional[Dict[str, str]] = None,
               ) -> List[Tuple[int, float]]:
        """Matching series pointwise-summed by bucket index (the shape
        alert rules evaluate against)."""
        acc: Dict[int, float] = {}
        for series in self.matching(name, labels):
            for idx, value in series.points:
                acc[idx] = acc.get(idx, 0.0) + value
        return sorted(acc.items())

    # -- export ----------------------------------------------------------------

    def dump(self) -> Dict[str, object]:
        """The ``repro.timeseries/1`` document: pure data, series sorted
        by (name, labels), byte-identical across identical runs."""
        series_out = []
        for series in sorted(self._series, key=_Series.key):
            series_out.append(
                {
                    "name": series.name,
                    "labels": dict(sorted(series.labels.items())),
                    "kind": series.kind,
                    "points": [[idx, value] for idx, value in series.points],
                }
            )
        return {
            "schema": TIMESERIES_SCHEMA,
            "interval": self.interval,
            "buckets": self._next_idx,
            "end_time": self.end_time,
            "series": series_out,
        }

    def write_json(self, fp: IO[str]) -> None:
        json.dump(self.dump(), fp, sort_keys=True)
        fp.write("\n")


def rates(points: List[Tuple[int, float]], interval: float,
          ) -> List[Tuple[int, float]]:
    """Per-bucket rate curve from cumulative counter samples: entry at
    bucket ``k`` is ``(v_k - v_prev) / ((k - k_prev) * interval)``."""
    out: List[Tuple[int, float]] = []
    prev: Optional[Tuple[int, float]] = None
    for idx, value in points:
        if prev is not None and idx > prev[0]:
            out.append((idx, (value - prev[1]) / ((idx - prev[0]) * interval)))
        prev = (idx, value)
    return out


# -- standard probe sets -------------------------------------------------------


def attach_network_probes(sampler: TimeSeriesSampler, net) -> None:
    """Wire the standard network curves of a :class:`repro.net.network.
    Network`: per-link frames/bytes/drops-by-cause (counters), per-link
    directional queue depth (gauges), aggregate drop and event counters.
    """
    for link in net.links:
        name = f"{link.a.name}<->{link.b.name}"
        stats = link.stats
        sampler.add_probe(
            "link.frames", (lambda s=stats: s.frames), {"link": name}
        )
        sampler.add_probe(
            "link.bytes", (lambda s=stats: s.bytes), {"link": name}
        )
        for cause in ("loss", "overflow", "down"):
            sampler.add_probe(
                "link.drops",
                (lambda s=stats, c=cause: getattr(s, f"drops_{c}")),
                {"link": name, "cause": cause},
            )
        for endpoint in (link.a, link.b):
            sampler.add_probe(
                "link.qdepth_bytes",
                (lambda lk=link, ep=endpoint: lk.backlog_bytes(
                    ep, ep.sim.now()
                )),
                {"link": name, "dir": f"{endpoint.name}->"},
                kind="gauge",
            )
    sampler.add_probe(
        "net.drops",
        lambda: sum(lk.stats.drops for lk in net.links),
    )
    sampler.add_probe("sim.events", lambda: net.sim.events_processed)


def attach_cluster_probes(sampler: TimeSeriesSampler, cluster) -> None:
    """Wire the NCP curves of a :class:`repro.runtime.cluster.Cluster`:
    windows sent/received/retransmitted summed over all hosts (the
    ``ncp.retransmits`` stream health rules watch)."""
    hosts = list(cluster.hosts.values())
    sampler.add_probe(
        "ncp.windows_sent", lambda: sum(h.windows_sent for h in hosts)
    )
    sampler.add_probe(
        "ncp.windows_received", lambda: sum(h.windows_received for h in hosts)
    )
    sampler.add_probe(
        "ncp.retransmits",
        lambda: sum(h.windows_retransmitted for h in hosts),
    )
