"""The metrics registry: counters, gauges and histograms with labels.

Every layer of the stack publishes into one :class:`MetricsRegistry` --
the net simulator, links, the PISA pipeline, the NCP windower and the
host runtime -- so a benchmark can snapshot a single object and get the
whole per-layer breakdown (bytes on the wire vs. bytes aggregated
in-switch, per-stage occupancy, drop causes) instead of scraping each
module's private stats.

Model
-----
A *family* is declared once per registry (``registry.counter("link.bytes",
labels=("link",))``) and fans out into one *series* per distinct label
assignment (``family.labels(link="h0<->s1").inc(n)``). Label names are
fixed at declaration; every ``labels()`` call must bind exactly that set.
A family declared with no labels is used directly (``family.inc()``).

Snapshots are pure data (nested dicts, deterministically ordered) so
they serialize to JSON byte-identically across identical runs.

*Collectors* bridge the always-on ad-hoc stats the simulator keeps
(``Link.stats``, ``Pipeline.stats`` ...) into the registry: a collector
is a callback run at snapshot time that sets gauges from those structs.
This keeps the packet hot path free of registry lookups while still
surfacing everything through one schema.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError


class ObservabilityError(ReproError):
    """Misuse of the metrics/trace API (wrong labels, kind clash ...)."""


#: default histogram bucket upper bounds (seconds-ish scale; callers
#: pass their own for byte- or count-valued histograms)
DEFAULT_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2, 1e-1, 1.0,
)


class Counter:
    """A monotonically increasing series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A point-in-time series (set/add freely)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def add(self, amount) -> None:
        self.value += amount


class Histogram:
    """A distribution series.

    Keeps exact observations as value -> count (virtual-clock latencies
    take a handful of distinct values, so memory follows the number of
    distinct values, not of observations), so percentiles are computed
    by linear interpolation over the sorted sample, plus cumulative
    bucket counts for the snapshot.
    """

    __slots__ = ("counts", "count", "total", "buckets")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.counts: Dict[float, int] = {}
        self.count = 0
        self.total = 0.0
        self.buckets = tuple(buckets)

    def observe(self, value) -> None:
        self.counts[value] = self.counts.get(value, 0) + 1
        self.count += 1
        self.total += value

    def _ranked(self, *ranks: int) -> List[float]:
        """The observations at the given ascending 0-based ranks of the
        sorted sample."""
        out: List[float] = []
        seen = 0
        for value, n in sorted(self.counts.items()):
            seen += n
            while len(out) < len(ranks) and ranks[len(out)] < seen:
                out.append(value)
        return out

    def percentile(self, p: float) -> float:
        """Exact percentile (0 <= p <= 100) with linear interpolation.

        The extremes short-circuit to min/max so p=0 and p=100 never go
        through rank arithmetic (float rounding there could otherwise
        index past the sample or interpolate the endpoints)."""
        if not 0 <= p <= 100:
            raise ObservabilityError(f"percentile {p} outside [0, 100]")
        if not self.count:
            raise ObservabilityError("percentile of an empty histogram")
        if p == 0:
            return float(min(self.counts))
        if p == 100 or self.count == 1:
            return float(max(self.counts))
        rank = (p / 100.0) * (self.count - 1)
        lo = math.floor(rank)
        hi = min(math.ceil(rank), self.count - 1)
        at_lo, at_hi = self._ranked(lo, hi)
        if lo == hi:
            return float(at_lo)
        frac = rank - lo
        return float(at_lo * (1 - frac) + at_hi * frac)

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative counts per upper bound, Prometheus-style, with a
        trailing ``+Inf`` bucket."""
        ordered = sorted(self.counts.items())
        out: Dict[str, int] = {}
        i = below = 0
        for bound in self.buckets:
            while i < len(ordered) and ordered[i][0] <= bound:
                below += ordered[i][1]
                i += 1
            out[repr(bound)] = below
        out["+Inf"] = self.count
        return out

    def summary(self) -> Dict[str, object]:
        if not self.count:
            return {"count": 0, "sum": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": float(min(self.counts)),
            "max": float(max(self.counts)),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": self.bucket_counts(),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


#: label value every over-cap series collapses into (all positions)
OVERFLOW_LABEL = "__overflow__"


class MetricFamily:
    """One named metric and all its labelled series.

    ``max_series`` caps cardinality: once that many *distinct* label
    assignments exist, further new assignments collapse into a single
    ``__overflow__`` series (every label position set to
    :data:`OVERFLOW_LABEL`) instead of growing the map -- at fat-tree
    scale a per-link family would otherwise hold thousands of series.
    Existing series keep updating; only *new* keys are routed, and
    ``overflow_routed`` counts how many distinct keys were collapsed so
    the snapshot says what it lost."""

    def __init__(
        self,
        kind: str,
        name: str,
        description: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_series: Optional[int] = None,
    ):
        self.kind = kind
        self.name = name
        self.description = description
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self.max_series = max_series
        self._series: Dict[Tuple, object] = {}
        self._overflow_keys: set = set()
        self.overflow_routed = 0

    def labels(self, **label_values):
        """The series for one label assignment (created on first use;
        over-cap assignments land on the ``__overflow__`` series)."""
        if set(label_values) != set(self.label_names):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(label_values)}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        series = self._series.get(key)
        if series is None:
            if (
                self.max_series is not None
                and self.label_names
                and len(self._series) >= self.max_series
            ):
                if key not in self._overflow_keys:
                    self._overflow_keys.add(key)
                    self.overflow_routed += 1
                key = (OVERFLOW_LABEL,) * len(self.label_names)
                series = self._series.get(key)
                if series is None:
                    series = self._make_series()
                    self._series[key] = series
                return series
            series = self._make_series()
            self._series[key] = series
        return series

    def series_count(self) -> int:
        return len(self._series)

    def _make_series(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    # -- label-free convenience ------------------------------------------------

    def _sole(self):
        if self.label_names:
            raise ObservabilityError(
                f"metric {self.name!r} has labels {list(self.label_names)}; "
                "use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: int = 1) -> None:
        self._sole().inc(amount)

    def set(self, value) -> None:
        self._sole().set(value)

    def add(self, amount) -> None:
        self._sole().add(amount)

    def observe(self, value) -> None:
        self._sole().observe(value)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        series = []
        for key in sorted(self._series):
            metric = self._series[key]
            value = (
                metric.summary()
                if isinstance(metric, Histogram)
                else metric.value
            )
            series.append(
                {"labels": dict(zip(self.label_names, key)), "value": value}
            )
        out: Dict[str, object] = {
            "kind": self.kind,
            "description": self.description,
            "label_names": list(self.label_names),
            "series": series,
        }
        # Only when the cap actually bit -- uncapped registries keep
        # producing byte-identical snapshots to previous releases.
        if self.overflow_routed:
            out["overflow_routed"] = self.overflow_routed
        return out


class FamilySpec(NamedTuple):
    """One family's declaration, spelled once, at module level, by the
    code that publishes into it."""

    kind: str
    name: str
    description: str
    label_names: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


class BoundSeries(dict):
    """The series one component publishes into, each resolved once per
    registry instead of once per packet: ``series[obs.registry, SPEC,
    *label_values].inc()``, a miss declaring the family and binding the
    child. The registry is part of the key because ``sim.obs`` can be
    swapped mid-life, and a child bound in the old run's registry would
    count there in silence; the old run's children go when the new
    one's first arrives."""

    def __missing__(self, key: Tuple):
        registry, spec = key[:2]
        if self and next(iter(self))[0] is not registry:
            self.clear()
        labels = dict(zip(spec.label_names, key[2:]))
        series = self[key] = registry._family(*spec).labels(**labels)
        return series


class MetricsRegistry:
    """All metric families of one run, plus snapshot-time collectors.

    ``max_series_per_family`` is the registry-wide cardinality default
    (see :class:`MetricFamily`); per-family ``max_series`` overrides it.
    ``None`` (the default) keeps families unbounded, matching the
    historical behaviour."""

    def __init__(self, max_series_per_family: Optional[int] = None) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self.max_series_per_family = max_series_per_family

    # -- declaration -----------------------------------------------------------

    def _family(
        self,
        kind: str,
        name: str,
        description: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
        max_series: Optional[int] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(labels):
                raise ObservabilityError(
                    f"metric {name!r} already declared as {existing.kind} with "
                    f"labels {list(existing.label_names)}"
                )
            if max_series is not None:
                existing.max_series = max_series
            return existing
        if max_series is None:
            max_series = self.max_series_per_family
        family = MetricFamily(kind, name, description, labels, buckets, max_series)
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        description: str = "",
        labels: Sequence[str] = (),
        max_series: Optional[int] = None,
    ) -> MetricFamily:
        return self._family(
            "counter", name, description, labels, max_series=max_series
        )

    def gauge(
        self,
        name: str,
        description: str = "",
        labels: Sequence[str] = (),
        max_series: Optional[int] = None,
    ) -> MetricFamily:
        return self._family(
            "gauge", name, description, labels, max_series=max_series
        )

    def histogram(
        self,
        name: str,
        description: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_series: Optional[int] = None,
    ) -> MetricFamily:
        return self._family(
            "histogram", name, description, labels, buckets, max_series
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    def total_series(self) -> int:
        """Distinct series across every family (the observer's own
        metric-memory footprint, surfaced as ``obs.metric_series``)."""
        return sum(f.series_count() for f in self._families.values())

    # -- collectors ------------------------------------------------------------

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at every :meth:`snapshot` to fold a
        component's ad-hoc stats into registry series."""
        self._collectors.append(fn)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Run collectors, then return all families as pure data,
        deterministically ordered (byte-identical JSON across identical
        runs)."""
        for collector in self._collectors:
            collector(self)
        return {
            name: self._families[name].snapshot()
            for name in sorted(self._families)
        }
