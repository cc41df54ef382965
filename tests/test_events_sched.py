"""The event core against the reference heap.

``Simulator`` must be *observably identical* to
``tests/sched_oracle.py``'s plain binary heap -- same dispatch order
(including (when, seq) tie-breaks), same ``run(until)`` stopping
behavior, same cancellation semantics.  These tests drive both through
the same programs and compare.  ``Simulator`` alone also refuses a
non-finite time before anything changes.
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.net.events import Simulator
from repro.obs import NULL_OBS, Observability, ObservabilityError, TimeSeriesSampler
from tests.sched_oracle import HeapSimulator

#: the simulator and the oracle: every semantic below holds on both
SIMULATORS = {
    "sim": Simulator,
    "oracle": HeapSimulator,
}


def record_run(make_sim, program) -> list:
    """Run *program* (sim, log) on a fresh simulator, return the log."""
    log = []
    program(make_sim(), log)
    return log


class TestDifferentialOrder:
    """Same schedule sequence => byte-identical dispatch order."""

    def _compare(self, program):
        expected = record_run(HeapSimulator, program)
        assert expected, "program dispatched nothing"
        assert record_run(Simulator, program) == expected

    def test_random_delays_identical_order(self):
        def program(sim, log):
            rng = random.Random(11)
            for i in range(2000):
                delay = rng.random() * 1e-3
                sim.schedule(delay, lambda i=i: log.append((sim.now(), i)))
            sim.run()

        self._compare(program)

    def test_equal_times_tie_break_by_seq(self):
        def program(sim, log):
            # Many events at exactly the same instant: dispatch must be
            # schedule order (the seq tie-break).
            for round_at in (0.0, 1e-6, 5e-5, 1.0):
                for i in range(50):
                    sim.schedule_at(
                        round_at, lambda i=i: log.append((sim.now(), i))
                    )
            sim.run()

        self._compare(program)

    def test_reschedule_from_callbacks(self):
        def program(sim, log):
            rng = random.Random(3)

            def make(tag):
                def fire():
                    log.append((sim.now(), tag))
                    if tag < 3000:
                        sim.schedule((tag % 17) * 1e-7 + 1e-9, make(tag + 500))
                return fire

            for i in range(500):
                sim.schedule(rng.random() * 2e-5, make(i))
            sim.run()

        self._compare(program)

    def test_far_future_overflow_events(self):
        def program(sim, log):
            # Mix near events with far-future ones (seconds out, nine
            # decades of delay in one queue).
            rng = random.Random(5)
            for i in range(800):
                delay = 10.0 ** rng.uniform(-7, 1)
                sim.schedule(delay, lambda i=i: log.append((round(sim.now(), 12), i)))
            sim.run()

        self._compare(program)

    def test_run_until_stop_and_resume(self):
        def program(sim, log):
            rng = random.Random(9)
            for i in range(500):
                sim.schedule(rng.random() * 1e-2, lambda i=i: log.append((sim.now(), i)))
            # stop mid-stream several times; schedule *earlier* events
            # between segments (they land among the events still queued)
            for until in (1e-3, 2.5e-3, 7e-3):
                sim.run(until=until)
                log.append(("stopped", sim.now()))
                for j in range(20):
                    sim.schedule(
                        rng.random() * 1e-4,
                        lambda j=j: log.append((sim.now(), "late", j)),
                    )
            sim.run()

        self._compare(program)

    def test_cancellations_identical(self):
        def program(sim, log):
            rng = random.Random(13)
            timers = []
            for i in range(1000):
                timers.append(
                    sim.schedule_cancellable(
                        rng.random() * 1e-3,
                        lambda i=i: log.append((sim.now(), i)),
                    )
                )
            for i in range(0, 1000, 3):
                timers[i].cancel()
            sim.run()

        self._compare(program)


class TestRunSemantics:
    @pytest.fixture(params=sorted(SIMULATORS))
    def sim(self, request):
        return SIMULATORS[request.param]()

    def test_run_until_sets_now_even_when_idle(self, sim):
        sim.run(until=0.5)
        assert sim.now() == 0.5

    def test_run_until_does_not_consume_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(until=0.5)
        assert fired == [] and sim.now() == 0.5
        sim.run()
        assert fired == [1] and sim.now() == 1.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule(-1e-9, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1e-6, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule at"):
            sim.schedule_at(0.0, lambda: None)

    def test_max_events_livelock_guard(self, sim):
        def again():
            sim.schedule(1e-9, again)

        sim.schedule(1e-9, again)
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=1000)

    def test_step_dispatches_one_event(self, sim):
        fired = []
        sim.schedule(1e-6, lambda: fired.append("a"))
        sim.schedule(2e-6, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert fired == ["a", "b"]
        assert sim.step() is False

    def test_events_processed_counts(self, sim):
        for _ in range(7):
            sim.schedule(1e-6, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    @pytest.mark.parametrize("how", ["run", "step"])
    def test_a_callback_that_raises_counts_as_processed(self, sim, how):
        def boom():
            raise ValueError("boom")

        sim.schedule(1e-6, boom)
        with pytest.raises(ValueError, match="boom"):
            getattr(sim, how)()
        assert sim.events_processed == 1 and sim.pending == 0
        assert sim.step() is False


class TestCancellation:
    @pytest.fixture(params=sorted(SIMULATORS))
    def sim(self, request):
        return SIMULATORS[request.param]()

    def test_cancelled_event_never_fires(self, sim):
        fired = []
        timer = sim.schedule_cancellable(1e-6, lambda: fired.append(1))
        assert timer.active
        timer.cancel()
        assert not timer.active
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_run_skips_cancelled(self, sim):
        fired = []
        timer = sim.schedule_cancellable(1e-6, lambda: fired.append("dead"))
        sim.schedule(2e-6, lambda: fired.append("live"))
        timer.cancel()
        sim.run()
        assert fired == ["live"]

    def test_step_skips_cancelled(self, sim):
        fired = []
        timer = sim.schedule_cancellable(1e-6, lambda: fired.append("dead"))
        sim.schedule(2e-6, lambda: fired.append("live"))
        timer.cancel()
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.step() is False

    def test_cancel_is_idempotent(self, sim):
        timer = sim.schedule_cancellable(1e-6, lambda: None)
        timer.cancel()
        timer.cancel()  # no error, no double counting
        assert sim.pending == 0

    def test_pending_tracks_cancellations(self, sim):
        timers = [
            sim.schedule_cancellable(1e-6 * (i + 1), lambda: None)
            for i in range(10)
        ]
        assert sim.pending == 10
        for t in timers[:4]:
            t.cancel()
        assert sim.pending == 6
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 6

    def test_stale_timer_after_record_reuse(self, sim):
        """A Timer held past its event's dispatch stays dead: cancelling
        it touches neither a later event nor the counts."""
        timer = sim.schedule_cancellable(1e-6, lambda: None)
        sim.run()
        assert not timer.active
        fired = []
        sim.schedule(1e-6, lambda: fired.append(1))
        assert timer.cancel() is False
        assert sim.pending == 1
        sim.run()
        assert fired == [1]

    def test_run_until_inf_drains_and_keeps_the_clock(self, sim):
        sim.schedule(1e-6, lambda: None)
        assert sim.run(until=math.inf) == 1e-6
        sim.schedule(1e-6, lambda: None)  # the clock is still usable
        assert sim.run() == 2e-6


class TestNonFiniteTimes:
    """NaN or infinity is refused before anything changes: an unchecked
    NaN breaks the heap's order, and a counted event that is never
    queued leaves ``pending`` wrong forever."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("how", ["schedule", "schedule_cancellable"])
    def test_a_non_finite_delay_is_refused(self, how, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="not finite"):
            getattr(sim, how)(bad, lambda: None)
        assert sim.pending == 0 and sim.step() is False

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_time_is_refused(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending == 0 and sim.step() is False

    @pytest.mark.parametrize("how", ["schedule", "schedule_cancellable", "schedule_at"])
    def test_minus_inf_is_in_the_past(self, how):
        sim = Simulator()
        with pytest.raises(SimulationError, match="in the past|cannot schedule at"):
            getattr(sim, how)(-math.inf, lambda: None)
        assert sim.pending == 0

    def test_a_later_event_still_runs_after_a_refusal(self):
        sim = Simulator()
        fired = []
        sim.schedule(2e-6, lambda: fired.append("b"))
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: fired.append("nan"))
        sim.schedule(1e-6, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"] and sim.pending == 0

    def test_run_until_nan_is_refused_and_runs_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1e-6, lambda: fired.append(1))
        with pytest.raises(SimulationError, match="cannot run until nan"):
            sim.run(until=math.nan)
        assert fired == [] and sim.now() == 0.0 and sim.pending == 1


class TestSampledDispatch:
    def test_a_boundary_that_raises_leaves_the_event_queued(self):
        """The sampler runs before the event is popped: a boundary that
        raises (here ``max_samples``) loses no event."""
        sim = Simulator()
        sim.obs = Observability(sampler=TimeSeriesSampler(1e-6, max_samples=3))
        ran = []
        sim.schedule(5e-6, lambda: ran.append(1))
        with pytest.raises(ObservabilityError, match="exceeded 3"):
            sim.run()
        assert ran == [] and sim.pending == 1 and sim.events_processed == 0
        sim.obs = NULL_OBS
        assert sim.step() is True and ran == [1] and sim.pending == 0


class TestConfiguration:
    def test_no_scheduler_option(self):
        for option in ({"scheduler": "heap"}, {"slot_width": 256e-9}, {"wheel_slots": 2}):
            with pytest.raises(TypeError):
                Simulator(**option)
