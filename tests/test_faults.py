"""Faults as data: a :class:`FaultPlan` is the one way a fault enters the
simulation (``Network.inject``), and a Fig 4 round under any plan ends
in the oracle's sum or in an error that names the missing windows."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.allreduce import AllReduceJob
from repro.errors import RuntimeApiError, SimulationError
from repro.net import FaultPlan
from repro.obs import Observability, Profiler

from tests.test_topo import frame_to, two_host_line


def send(net, n):
    h1 = net.host("h1").node_id
    for seq in range(n):
        net.host("h0").transmit(frame_to(h1, seq), h1)
    net.run()


class TestPlanChecks:
    @pytest.mark.parametrize("loss", [-0.1, 1.5, math.nan, math.inf])
    def test_a_loss_outside_0_1_is_refused(self, loss):
        """Before plans, ``loss=-0.1`` and NaN both ran loss-free."""
        with pytest.raises(SimulationError, match="loss must be in"):
            FaultPlan(loss=loss)

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(SimulationError, match="unknown fault kind 'flap'"):
            FaultPlan(events=((0.0, "flap", "s"),))

    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_is_refused_when_built(self, at):
        """Before, a NaN ``at`` built fine; ``inject`` then armed every
        link's loss draw and scheduled the first event before it raised a
        raw ValueError, and the NaN left the sort order undefined."""
        with pytest.raises(SimulationError, match="must be finite"):
            FaultPlan(loss=0.1, events=((1e-6, "down", "s"), (at, "up", "s")))

    def test_a_target_that_names_nothing_is_refused_before_anything_changes(self):
        net, _ = two_host_line()
        with pytest.raises(SimulationError, match="no link between"):
            net.inject(FaultPlan(events=((0.0, "down", "s"), (0.0, "down", ("h0", "h1")))))
        with pytest.raises(SimulationError, match="no node named 'ghost'"):
            net.inject(FaultPlan(loss=0.5, events=((0.0, "down", "ghost"),)))
        assert net.nodes["s"].up
        assert all(link.loss_draw is None for link in net.links)

    def test_events_are_kept_sorted_by_time_and_stably(self):
        plan = FaultPlan(events=((2.0, "up", "s"), (1.0, "down", "s"), (1.0, "up", "h0")))
        assert plan.events == ((1.0, "down", "s"), (1.0, "up", "h0"), (2.0, "up", "s"))


class TestInject:
    def test_link_i_draws_from_seed_plus_i(self):
        """One stream per link, shared by both directions: a frame that
        survives link 0's draw takes one from link 1's."""
        net, got = two_host_line()
        net.inject(FaultPlan(loss=0.5, seed=3))
        send(net, 40)
        first, second = random.Random(3), random.Random(4)
        h1 = net.host("h1").node_id
        expected = [
            frame_to(h1, seq) for seq in range(40)
            if first.random() >= 0.5 and second.random() >= 0.5
        ]
        assert got == expected
        drops = [link.stats.drops_loss for link in net.links]
        assert sum(drops) == 40 - len(got) and all(drops)

    def test_a_loss_free_plan_arms_no_draw(self):
        net, _ = two_host_line()
        net.inject(FaultPlan(events=((0.0, "down", ("h0", "s")),)))
        assert all(link.loss_draw is None for link in net.links)

    def test_a_later_event_is_scheduled_under_the_failure_labels(self):
        profiler = Profiler()
        net, _ = two_host_line(Observability(profiler=profiler))
        net.inject(FaultPlan(events=(
            (1e-6, "down", ("h0", "s")), (2e-6, "down", "s"), (3e-6, "up", "s"),
        )))
        link, switch = net.link_between("h0", "s"), net.nodes["s"]
        assert link.up and switch.up  # nothing happens before its time
        net.run(until=2.5e-6)
        assert not link.up and not switch.up
        net.run()
        assert switch.up
        labels = {entry["label"] for entry in profiler.report()["entries"]}
        assert {"link;h0<->s;fail", "node;s;fail", "node;s;heal"} <= labels

    def test_an_event_already_due_applies_at_once(self):
        net, got = two_host_line()
        send(net, 1)
        net.inject(FaultPlan(events=((net.sim.now(), "down", ("s", "h1")),)))
        send(net, 1)
        net.inject(FaultPlan(events=((0.0, "up", ("h1", "s")),)))
        send(net, 1)
        assert len(got) == 2
        assert net.link_between("s", "h1").stats.drops_down == 1


def fig4_arrays(seed, n_workers, data_len):
    rng = random.Random(seed)
    return [[rng.randrange(-2**31, 2**31) for _ in range(data_len)] for _ in range(n_workers)]


@pytest.fixture(scope="module")
def fig4_programs():
    return {
        (n, multiround): AllReduceJob.compile_program(n, 64, 8, multiround)
        for n in (2, 3, 4) for multiround in (False, True)
    }


class TestLossyFig4NeverReturnsAWrongSum:
    def test_one_percent_loss_names_the_missing_windows(self):
        """w0 loses result windows 8 and 13, the others 13. Every ``done``
        is set all the same (it only means the window marked last came),
        so without the completeness check this round returns 16, 8, 8
        and 8 of 256 elements wrong."""
        job = AllReduceJob(4, 256, 8)
        job.cluster.network.inject(FaultPlan(loss=0.01))
        with pytest.raises(RuntimeApiError) as err:
            job.run_round(fig4_arrays(1, 4, 256))
        assert str(err.value) == (
            "AllReduce did not complete: w0 lacks seqs [8, 13]; "
            "w1 lacks seqs [13]; w2 lacks seqs [13]; w3 lacks seqs [13]"
        )

    @given(
        loss=st.floats(0.005, 0.2),
        seed=st.integers(0, 2**16),
        n_workers=st.integers(2, 4),
        multiround=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_round_is_the_oracle_or_the_error(
        self, fig4_programs, loss, seed, n_workers, multiround
    ):
        """Three rounds of the multiround kernel, going on past a failed
        one (the next round resets the switch), and one of the one-shot
        (its slots are never cleared)."""
        job = AllReduceJob(n_workers, 64, 8, program=fig4_programs[n_workers, multiround])
        job.cluster.network.inject(FaultPlan(loss=loss, seed=seed))
        for round_ in range(3 if multiround else 1):
            arrays = fig4_arrays(seed + round_, n_workers, 64)
            try:
                results, _ = job.run_round(arrays)
            except RuntimeApiError as exc:
                assert str(exc).startswith("AllReduce did not complete: w")
                continue
            assert results == [AllReduceJob.expected(arrays)] * n_workers

    def test_a_failed_round_does_not_poison_the_next(self):
        """Round 1 loses seq 13 at 1 % loss; with the loss then cleared,
        round 2 used to return 8 wrong elements per worker: ``s1`` still
        held round 1's partial sums and counts in slot 13."""
        job = AllReduceJob(4, 256, 8)
        net = job.cluster.network
        net.inject(FaultPlan(loss=0.01))
        with pytest.raises(RuntimeApiError, match=r"w1 lacks seqs \[13\]"):
            job.run_round(fig4_arrays(1, 4, 256))
        s1 = job.cluster.switches["s1"].switch
        assert s1.registers.arrays["reg_count"][13]  # kept for a retransmission
        for link in net.links:
            link.loss_draw = None
        arrays = fig4_arrays(2, 4, 256)
        results, _ = job.run_round(arrays)
        assert results == [AllReduceJob.expected(arrays)] * 4
        assert job.cluster.controller.ctrl_rd("nworkers") == 4


class TestADownedNodeActsOnNothing:
    def test_a_switch_that_fails_with_frames_inside_runs_none_of_them(self):
        """Both of w0's windows reach ``s1`` before it fails at 1.5 us
        (the first at 1.07 us), inside its 1 us pipeline delay. Handling
        used to start at arrival: ``s1`` ran its kernel on both and wrote
        the registers of a dead device."""
        job = AllReduceJob(2, 16, 8)
        job.cluster.host("w0").out("allreduce", [list(range(16))])
        net = job.cluster.network
        net.inject(FaultPlan(events=((1.5e-6, "down", "s1"),)))
        net.run()
        s1 = job.cluster.switches["s1"]
        assert s1.stats.processed == 0
        assert s1.switch.registers.arrays == {
            "reg_accum": [0] * 16, "reg_count": [0, 0], "reg_nworkers": [2],
        }
        assert net.link_between("w0", "s1").stats.drops_down == 2

    def test_a_frame_that_arrives_in_an_outage_ending_within_delay_is_handled(self):
        """The other side of the rule: a node acts on a frame iff it is up
        ``DELAY`` after the frame arrived."""
        net, got = two_host_line()
        switch = net.nodes["s"]
        # h0 -> s takes 1 us of latency plus serialization: s is down when
        # the frame arrives and up again before the frame is due
        net.inject(FaultPlan(events=((5e-7, "down", "s"), (1.2e-6, "up", "s"))))
        send(net, 1)
        assert switch.DELAY == 1e-6 and len(got) == 1
        assert switch.stats.processed == 1
