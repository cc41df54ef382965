"""Virtual-clock time series of the metrics registry, and health alerts.

End-of-run registry snapshots answer "how much, in total"; for
million-packet runs the interesting questions are curves -- *when* did
the drop rate spike, how did the queue depth evolve, did retransmits
cluster around the link failure. The :class:`TimeSeriesSampler` turns
the registry into those curves:

* the simulator's instrumented run loop calls :meth:`advance` before
  dispatching each event, so samples land exactly on fixed-width bucket
  boundaries of the **virtual clock** -- identical seeded runs produce
  byte-identical ``repro.timeseries/2`` JSON;
* at each boundary it takes one registry snapshot and records every
  counter and gauge series in it (histograms are not curves); rates are
  derived from the deltas of cumulative values;
* it evaluates its alert rules at every boundary, which is what makes
  alerting *continuous* rather than post-hoc.

An :class:`AlertRule` watches one registry family (summed over the
series whose labels match its filter; a series the registry has not
created yet reads 0) and fires when its condition holds:

* **threshold** -- the sampled value itself: ``link.qdepth_bytes > 4096``;
* **rate** -- the windowed rate of a cumulative counter:
  ``ncp.windows{event=retransmit} rate > 100000 over 10us``;
* **absence** -- a counter made no progress over the window:
  ``ncp.windows{event=recv} absent over 20us`` (a heartbeat rule).

Rules are plain constructor calls or the one-line string form parsed by
:func:`parse_rule`::

    stalled: ncp.windows{event=recv} absent over 20us
    drops: link.drops{cause=down} rate > 0 over 2us !critical

(an optional leading ``name:``, an optional ``{k=v,...}`` label filter,
an optional trailing ``!critical`` escalation marker). Firing and
resolving are ``alert:firing`` / ``alert:resolved`` instants on the
``health`` trace track and :class:`Alert` records in the dump; a
``!critical`` firing triggers the run's flight recorder, if it has one.
"""

from __future__ import annotations

import json
import operator
import re
from collections import deque
from typing import Dict, IO, List, Optional, Sequence, Tuple

from repro.obs.registry import ObservabilityError

TIMESERIES_SCHEMA = "repro.timeseries/2"

#: the sampled values a threshold rule's evidence window shows
_VALUE_EVIDENCE = 8

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le, "==": operator.eq, "!=": operator.ne}

_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def parse_duration(text: str) -> float:
    """``"10us"`` -> 1e-5 (simulated seconds)."""
    m = re.fullmatch(r"\s*([0-9.]+)\s*(s|ms|us|ns)\s*", text)
    if not m:
        raise ObservabilityError(
            f"bad duration {text!r}; expected e.g. 10us, 1.5ms, 2s"
        )
    return float(m.group(1)) * _UNITS[m.group(2)]


class AlertRule:
    """One declarative rule over one (label-filtered) series stream."""

    def __init__(
        self,
        name: str,
        series: str,
        mode: str = "value",
        op: str = ">",
        threshold: float = 0.0,
        over: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
        severity: str = "warning",
    ):
        if mode not in ("value", "rate", "absent"):
            raise ObservabilityError(f"unknown alert mode {mode!r}")
        if op not in _OPS:
            raise ObservabilityError(f"unknown alert comparison {op!r}")
        if mode in ("rate", "absent") and over is None:
            raise ObservabilityError(
                f"alert {name!r}: {mode} rules need an 'over' window"
            )
        if severity not in ("warning", "critical"):
            raise ObservabilityError(f"unknown severity {severity!r}")
        self.name = name
        self.series = series
        self.mode = mode
        self.op = op
        self.threshold = threshold
        self.over = over
        self.labels = dict(labels or {})
        self.severity = severity

    @property
    def escalates(self) -> bool:
        return self.severity == "critical"

    def text(self) -> str:
        """The canonical one-line form (parse_rule round-trips it)."""
        sel = self.series
        if self.labels:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
            sel += "{" + inner + "}"
        if self.mode == "absent":
            body = f"{sel} absent over {self.over * 1e6:g}us"
        else:
            body = f"{sel}{' rate' if self.mode == 'rate' else ''} " \
                   f"{self.op} {self.threshold:g}"
            if self.over is not None:
                body += f" over {self.over * 1e6:g}us"
        tail = " !critical" if self.severity == "critical" else ""
        return f"{self.name}: {body}{tail}"

    def __repr__(self) -> str:
        return f"AlertRule({self.text()!r})"


_RULE_RE = re.compile(
    r"^\s*(?:(?P<name>[\w.-]+)\s*:)?\s*"
    r"(?P<series>[\w.]+)\s*(?:\{(?P<labels>[^}]*)\})?\s*"
    r"(?:(?P<absent>absent)|(?P<rate>rate)?\s*"
    r"(?P<op>>=|<=|==|!=|>|<)\s*(?P<threshold>-?[0-9.eE+]+))"
    r"(?:\s+over\s+(?P<over>[0-9.]+\s*(?:s|ms|us|ns)))?"
    r"\s*(?P<crit>!critical)?\s*$"
)


def parse_rule(text: str) -> AlertRule:
    """Parse the one-line rule form (see the module docstring)."""
    m = _RULE_RE.match(text)
    if not m:
        raise ObservabilityError(
            f"bad alert rule {text!r}; expected e.g. "
            "'drops: link.drops rate > 0 over 2us !critical'"
        )
    labels: Dict[str, str] = {}
    if m.group("labels"):
        for part in m.group("labels").split(","):
            if "=" not in part:
                raise ObservabilityError(
                    f"bad label filter {part!r} in alert rule {text!r}"
                )
            k, v = part.split("=", 1)
            labels[k.strip()] = v.strip()
    if m.group("absent"):
        mode = "absent"
        op, threshold = "==", 0.0
    else:
        mode = "rate" if m.group("rate") else "value"
        op = m.group("op")
        threshold = float(m.group("threshold"))
    over = parse_duration(m.group("over")) if m.group("over") else None
    return AlertRule(
        name=m.group("name") or m.group("series"),
        series=m.group("series"),
        mode=mode,
        op=op,
        threshold=threshold,
        over=over,
        labels=labels,
        severity="critical" if m.group("crit") else "warning",
    )


class Alert:
    """One firing (and possibly resolved) instance of a rule."""

    def __init__(self, rule: AlertRule, fired_at: float, value: float,
                 window: List[List[float]]):
        self.rule = rule
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.value = value
        #: the triggering evidence: [t, signal value] pairs over the
        #: rule's window ending at the firing boundary
        self.window = window

    @property
    def state(self) -> str:
        return "resolved" if self.resolved_at is not None else "firing"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.rule.name,
            "rule": self.rule.text(),
            "series": self.rule.series,
            "severity": self.rule.severity,
            "state": self.state,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value": self.value,
            "threshold": self.rule.threshold,
            "window": self.window,
        }


class TimeSeriesSampler:
    """Fixed-width bucket sampling of the registry over the simulator's
    virtual clock, plus continuous evaluation of ``rules``.

    ``interval`` is in simulated seconds. Bucket *k* covers
    ``[k*interval, (k+1)*interval)``; the sample recorded at boundary
    ``k`` reflects the state after every event strictly before that
    boundary (events scheduled exactly on a boundary land in the bucket
    it opens). ``max_samples`` bounds the number of boundaries and trips
    an :class:`~repro.obs.registry.ObservabilityError` on runaway
    configurations (tiny interval against a long run). ``rules`` are
    :class:`AlertRule` objects or their one-line text.

    The sampler reads the registry of the
    :class:`~repro.obs.context.Observability` it is passed to.
    """

    def __init__(self, interval: float, max_samples: int = 200_000,
                 rules: Sequence = ()) -> None:
        if interval <= 0:
            raise ObservabilityError("sampling interval must be positive")
        self.interval = interval
        self.max_samples = max_samples
        self.rules: List[AlertRule] = []
        #: per rule, its last summed values: [(bucket_index, value)]
        self._recent: List[deque] = []
        for rule in rules:
            if isinstance(rule, str):
                rule = parse_rule(rule)
            if any(r.name == rule.name for r in self.rules):
                raise ObservabilityError(f"duplicate alert rule name {rule.name!r}")
            self.rules.append(rule)
            kept = _VALUE_EVIDENCE if rule.mode == "value" else \
                max(1, int(round(rule.over / interval))) + 1
            self._recent.append(deque(maxlen=kept))
        self.alerts: List[Alert] = []
        self._active: Dict[str, Alert] = {}
        #: (name, labels) -> (kind, [(bucket_index, value)]) from the
        #: boundary the series first appeared
        self._series: Dict[Tuple, Tuple[str, List]] = {}
        self._next_idx = 0
        self.end_time: Optional[float] = None
        self._obs = None

    def bind(self, obs) -> None:
        """The run's context: its registry is sampled, its tracer gets
        the alert instants, its flight recorder the escalations (wired
        by :class:`~repro.obs.context.Observability`)."""
        self._obs = obs

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
        if idx >= self.max_samples:
            raise ObservabilityError(
                f"time series exceeded {self.max_samples} samples; "
                "raise the interval or max_samples"
            )
        snapshot = self._obs.registry.snapshot()
        for name, family in snapshot.items():
            kind = family["kind"]
            if kind == "histogram":
                continue
            for entry in family["series"]:
                key = (name, tuple(entry["labels"].items()))
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = (kind, [])
                series[1].append((idx, entry["value"]))
        t = idx * self.interval
        for rule, recent in zip(self.rules, self._recent):
            recent.append((idx, _summed_value(snapshot, rule)))
            self._evaluate(rule, recent, t)

    # -- alerting --------------------------------------------------------------

    def _evaluate(self, rule: AlertRule, recent: deque, t: float) -> None:
        if rule.mode == "value":
            value = recent[-1][1]
        elif len(recent) < recent.maxlen:
            return  # not yet a whole window of history
        else:
            (i0, v0), (i1, v1) = recent[0], recent[-1]
            value = v1 - v0
            if rule.mode == "rate":
                value /= (i1 - i0) * self.interval
        firing = _OPS[rule.op](value, rule.threshold)
        active = self._active.get(rule.name)
        if firing and active is None:
            alert = Alert(rule, t, value, self._evidence(rule, recent))
            self._active[rule.name] = alert
            self.alerts.append(alert)
            self._emit("alert:firing", t, alert)
            flight = self._obs.flight
            if rule.escalates and flight is not None:
                flight.trigger(f"alert:{rule.name}", t)
        elif not firing and active is not None:
            active.resolved_at = t
            del self._active[rule.name]
            self._emit("alert:resolved", t, active)

    def _evidence(self, rule: AlertRule, recent: deque) -> List[List[float]]:
        """The triggering window: ``[t, signal]`` pairs ending at the
        firing boundary (the rate curve for a rate rule)."""
        points = rates(list(recent), self.interval) if rule.mode == "rate" \
            else recent
        return [[i * self.interval, v] for i, v in points]

    def _emit(self, name: str, t: float, alert: Alert) -> None:
        self._obs.tracer.instant(
            name, t, track="health", cat="alert",
            args={
                "alert": alert.rule.name,
                "rule": alert.rule.text(),
                "severity": alert.rule.severity,
                "value": alert.value,
                "threshold": alert.rule.threshold,
            },
        )

    def firing(self) -> List[Alert]:
        return [a for a in self.alerts if a.state == "firing"]

    # -- export ----------------------------------------------------------------

    def dump(self) -> Dict[str, object]:
        """The ``repro.timeseries/2`` document: pure data, series sorted
        by (name, labels), then the rules and every alert with its
        evidence window; byte-identical across identical runs."""
        series_out = [
            {"name": name, "labels": dict(sorted(labels)), "kind": kind,
             "points": [list(point) for point in points]}
            for (name, labels), (kind, points) in sorted(
                self._series.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
            )
        ]
        return {
            "schema": TIMESERIES_SCHEMA,
            "interval": self.interval,
            "buckets": self._next_idx,
            "end_time": self.end_time,
            "series": series_out,
            "rules": [r.text() for r in self.rules],
            "alerts": [a.as_dict() for a in self.alerts],
        }

    def write_json(self, fp: IO[str]) -> None:
        json.dump(self.dump(), fp, sort_keys=True)
        fp.write("\n")


def _summed_value(snapshot: Dict[str, Dict], rule: AlertRule) -> float:
    """The rule's family in ``snapshot``, summed over the series its
    label filter matches (0 while the registry has none)."""
    total = 0.0
    family = snapshot.get(rule.series)
    if family is not None and family["kind"] != "histogram":
        for entry in family["series"]:
            labels = entry["labels"]
            if all(labels.get(k) == v for k, v in rule.labels.items()):
                total += entry["value"]
    return total


def matching(doc: Dict, name: str,
             labels: Optional[Dict[str, str]] = None) -> List[Dict]:
    """The series of a ``repro.timeseries/2`` document named ``name``
    whose labels include ``labels``."""
    want = labels or {}
    return [
        s for s in doc["series"]
        if s["name"] == name
        and all(s["labels"].get(k) == v for k, v in want.items())
    ]


def summed(series: List[Dict]) -> List[Tuple[int, float]]:
    """Dumped series pointwise-summed by bucket index (a series reads 0
    before its first point: the shape alert rules evaluate against)."""
    acc: Dict[int, float] = {}
    for s in series:
        for idx, value in s["points"]:
            acc[idx] = acc.get(idx, 0.0) + value
    return sorted(acc.items())


def rates(points: Sequence[Tuple[int, float]], interval: float,
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
