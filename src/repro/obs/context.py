"""The observability context threaded through a simulation.

One :class:`Observability` bundles the metrics registry and the tracer
for a run. It hangs off the :class:`~repro.net.events.Simulator`
(``sim.obs``), so every component that can reach the simulator --
links, nodes, switches, the host runtime -- reaches observability the
same way.

**Disabled must cost (almost) nothing.** The default is the module-level
:data:`NULL_OBS` singleton whose ``enabled`` is ``False``; every
instrumentation site is written as::

    obs = self.sim.obs
    if obs.enabled:
        ...build args, emit events...

so the disabled fast path is one attribute load and a branch -- no
allocation, no string formatting, no registry lookups. A micro-benchmark
in the test suite asserts this stays sub-microsecond.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer


class Observability:
    """Registry + tracer for one run. Simulation traces only ever use the
    simulator's virtual clock, so they stay deterministic; components
    that genuinely need wall time (the compiler) receive a clock
    explicitly."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        int_config=None,
        profiler=None,
        sampler=None,
        flight=None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        #: an :class:`repro.obs.int.IntConfig` turns on in-band telemetry
        #: stamping for the run; None keeps the data plane untouched
        self.int_config = int_config
        #: a :class:`repro.obs.profile.Profiler` switches the simulator
        #: onto the instrumented run loop and attributes wall time
        self.profiler = profiler
        #: a :class:`repro.obs.timeseries.TimeSeriesSampler` samples the
        #: registry and evaluates its alert rules on virtual-clock bucket
        #: boundaries during the run
        self.sampler = sampler
        #: a :class:`repro.obs.flight.FlightRecorder`; rides the tracer
        #: as a sink and dumps bundles on escalation/failure
        self.flight = flight
        if sampler is not None:
            sampler.bind(self)
        if flight is not None:
            flight.bind(self)
            self.tracer.add_sink(flight.record)
        # Self-accounting: the observer reports its own overhead as
        # obs.* gauges at snapshot time (events recorded vs sampled
        # out, bytes streamed to disk, peak resident events, metric
        # cardinality) so the cost of watching is itself watched.
        self.registry.register_collector(self._collect_self)

    def _collect_self(self, registry: MetricsRegistry) -> None:
        stats = self.tracer.stats()
        registry.gauge(
            "obs.events_recorded", "trace events recorded (pre-sampling)"
        ).set(stats["events_recorded"])
        registry.gauge(
            "obs.events_sampled_out", "trace events dropped by sampling"
        ).set(stats["events_sampled_out"])
        registry.gauge(
            "obs.bytes_written", "bytes written by streaming trace sinks"
        ).set(stats["bytes_written"])
        registry.gauge(
            "obs.peak_resident_events",
            "peak trace events held in memory (retained + sampler-pending)",
        ).set(stats["peak_resident_events"])
        registry.gauge(
            "obs.metric_series", "distinct metric series in the registry"
        ).set(registry.total_series())

    def snapshot(self):
        """Registry snapshot (runs collectors)."""
        return self.registry.snapshot()


class _NullObservability:
    """The disabled singleton: a falsy ``enabled`` and no state.

    Instrumented code never calls anything else on it -- every site
    guards on ``enabled`` first -- but ``snapshot`` exists so generic
    reporting code need not special-case the disabled run.
    """

    enabled = False
    registry = None
    tracer = None
    int_config = None
    profiler = None
    sampler = None
    flight = None

    def snapshot(self):
        return {}

    def __repr__(self) -> str:
        return "NULL_OBS"


#: the process-wide disabled context (do not mutate)
NULL_OBS = _NullObservability()
