"""The host's leg of a window's trip: a byte is moved once, and only
when someone reads it -- who owns a window's lists, and a deparser that
runs when the packet's bytes are read."""

import json
from pathlib import Path

import pytest

from repro.apps.allreduce import AllReduceJob, star_and
from repro.nclc import Compiler, WindowConfig
from repro.ncp.wire import encode_frame
from repro.obs import IntConfig, Observability, Profiler, Tracer
from repro.obs.int import peek_stack
from repro.pisa.parser import Deparser
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime import Cluster

from tests.conftest import ALLREDUCE_DEFINES, ALLREDUCE_SRC

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "ncp_frames.json").read_text()
)


@pytest.fixture(scope="module")
def star3():
    return Compiler().compile(
        ALLREDUCE_SRC,
        and_text=star_and(3),
        windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
        defines=ALLREDUCE_DEFINES,
    )


@pytest.fixture
def deparse_calls(monkeypatch):
    """Counts ``Deparser.deparse`` calls at the seam ``bench/spans.py``
    patches: the class attribute, looked up at call time."""
    calls = []
    real = Deparser.deparse

    def counted(self, phv):
        calls.append(phv)
        return real(self, phv)

    monkeypatch.setattr(Deparser, "deparse", counted)
    return calls


class TestLazyDeparse:
    def window(self, program, seq, values):
        return encode_frame(
            program.layouts["allreduce"], 0, 3, seq, [values], {"len": 4}, from_node=0
        )

    def test_a_dropped_packet_never_reaches_the_deparser(self, star3, deparse_calls):
        switch = PisaSwitch(star3.switch_programs["s1"])
        switch.ctrl_register_write("reg_nworkers", 2)
        dropped = switch.process(self.window(star3, 0, [1, 2, 3, 4]))
        assert dropped.verdict == "drop" and deparse_calls == []
        sent = switch.process(self.window(star3, 0, [10, 20, 30, 40]))
        assert sent.verdict == "bcast" and deparse_calls == []
        first = sent.data
        assert sent.data is first and sent.data is first
        assert len(deparse_calls) == 1  # however often .data is read
        assert first == self.window(star3, 0, [11, 22, 33, 44])
        # the drop's bytes are there for whoever does ask
        assert dropped.data == self.window(star3, 0, [1, 2, 3, 4])
        assert len(deparse_calls) == 2

    def test_in_the_fabric_one_call_per_packet_that_leaves(self, deparse_calls):
        job = AllReduceJob(2, 8, 4, multiround=True)
        results, _ = job.run_round([[1] * 8, [2] * 8])
        assert results == [[3] * 8] * 2
        stats = job.cluster.switches["s1"].stats
        # four packets: two aggregated and dropped, two broadcast (to two
        # ports each, from one deparse)
        assert (stats.processed, stats.drops, len(deparse_calls)) == (4, 2, 2)

    def test_an_absorbed_drop_records_the_stack_the_parent_stamped(
        self, deparse_calls
    ):
        """A packet the kernel consumed is neither deparsed nor stamped:
        its ``int:stack`` event carries the stack the frames the parent
        stamped (pinned as bytes in the golden) would decode to."""
        obs = Observability(int_config=IntConfig(max_hops=8))
        job = AllReduceJob(2, 8, 4, multiround=True, obs=obs)
        job.run_round([[1, 2, 3, 4, 5, 6, 7, 8], [10, 20, 30, 40, 50, 60, 70, 80]])
        absorbed = [
            event.args for event in obs.tracer.named("int:stack")
            if event.args["outcome"] == "drop:switch"
        ]
        stamped = [peek_stack(bytes.fromhex(h)) for h in GOLDEN["int_absorbed_drops"]]
        assert [(a["attempt"], a["hops"]) for a in absorbed] == [
            (stack.attempt, [dict(hop, node="s1") for hop in stack.hops])
            for stack in stamped
        ]
        assert len(deparse_calls) == 2  # the two that left; the drops' bytes are unread


    def test_with_the_observer_on_still_one_call_per_packet_that_leaves(
        self, deparse_calls
    ):
        """The bench's observed configuration: of a batch's 128 packets
        32 are broadcast, and those are the 32 deparsed (at cb58053 INT
        read the bytes of the 96 aggregated away too: 128)."""
        obs = Observability(
            tracer=Tracer(retain=4096), int_config=IntConfig(max_hops=8),
            profiler=Profiler(),
        )
        job = AllReduceJob(4, 256, 8, multiround=True, obs=obs)
        job.run_round([[i] * 256 for i in range(4)])
        stats = job.cluster.switches["s1"].stats
        assert (stats.processed, stats.drops, len(deparse_calls)) == (128, 96, 32)


class TestWhoOwnsAWindowsLists:
    def deliver_everywhere(self, star3, data):
        """One window from w0, broadcast back to w0 (incoming kernel +
        ``on_window``), w1 (raw handler) and w2 (inbox)."""
        cluster = Cluster.from_program(star3)
        cluster.controller.ctrl_wr("nworkers", 1)
        hdata, done, seen, raw = [0] * 64, [0], [], []
        w0, w1, w2 = (cluster.hosts[name] for name in ("w0", "w1", "w2"))
        w0.register_in("result", [hdata, done], on_window=lambda w, h: seen.append(w))
        w1.on_raw_window("allreduce", lambda w, h: raw.append(w))
        w0.out("allreduce", [data])
        return cluster, hdata, (seen, raw, w2.inbox.setdefault("allreduce", []))

    def test_delivered_windows_share_no_list(self, star3):
        data = [5, 6, 7, 8]
        cluster, hdata, sinks = self.deliver_everywhere(star3, data)
        cluster.run()
        windows = [sink[0] for sink in sinks]
        assert [len(sink) for sink in sinks] == [1, 1, 1]
        for i, window in enumerate(windows):
            assert window.chunks == [[5, 6, 7, 8]] and window.ext == {"len": 4}
            window.chunks[0][0] = 100 + i
            window.chunks.append([0])
            window.ext["len"] = 100 + i
            for other in windows[i + 1:]:
                assert other.chunks == [[5, 6, 7, 8]] and other.ext == {"len": 4}
        assert data == [5, 6, 7, 8] and hdata[:4] == [5, 6, 7, 8]
        assert star3.window_configs["allreduce"].ext == {"len": 4}

    def test_the_array_given_to_out_is_read_before_out_returns(self, star3):
        data = [5, 6, 7, 8]
        cluster, hdata, (seen, raw, inbox) = self.deliver_everywhere(star3, data)
        data[:] = [0, 0, 0, 0]  # after out(), before run(): the frame is bytes already
        cluster.run()
        assert hdata[:4] == [5, 6, 7, 8]
        assert [w.chunks for w in (seen[0], raw[0], inbox[0])] == [[[5, 6, 7, 8]]] * 3

    def test_out_window_reads_its_chunks_before_it_returns(self, star3):
        cluster = Cluster.from_program(star3)
        cluster.controller.ctrl_wr("nworkers", 1)
        chunks = [[9, 9, 9, 9]]
        cluster.hosts["w0"].out_window("allreduce", 2, chunks, dst="s1")
        chunks[0][0] = 0
        cluster.run()
        assert cluster.hosts["w1"].inbox["allreduce"][0].chunks == [[9, 9, 9, 9]]


class TestWindowsSentCountsWhatIsOnTheWire:
    def test_a_send_that_raises_part_way_leaves_the_sent_windows_counted(self, star3):
        cluster = Cluster.from_program(star3)
        host = cluster.hosts["w0"]
        real, calls = host.node.transmit, []

        def transmit(data, dst):
            calls.append(dst)
            if len(calls) == 3:
                raise RuntimeError("route gone")
            real(data, dst)

        host.node.transmit = transmit
        with pytest.raises(RuntimeError, match="route gone"):
            host.out("allreduce", [list(range(64))])
        assert host.windows_sent == 2 == host.node.links[0].stats.frames
