"""Every event kind on a window's trip, pinned against the parent.

``tests/golden/obs_allreduce_observed.json`` covers a loss-free Fig 4
round. The scenarios here reach the kinds that round never records --
table hit/miss spans and ``reflect``, every ``drop`` cause a link and a
node can name, ``window:retransmit``, fragments, the ``int:stack`` a
link emits for a frame that dies on it, ``_int_absorb``'s route-miss /
kernel-drop / truncated branches, and the ``meta is None`` shape of
every frame-naming event -- and digest the trace JSONL, the lineage
JSON and the registry snapshot of each.

The digests in ``tests/golden/obs_event_kinds.json`` were first captured
at cb58053, the commit before trace events kept their args as
``(formatter, *scalars)`` and before a dropped packet's INT stack
stopped going through the deparser, and re-captured on top of 6504618
when a hop became one scheduler event (a node acts on a frame, and is
checked to be up, ``DELAY`` after it arrives): in every scenario that
moved the order a run records its events in and ``sim.events_processed``,
and some ``deliver`` spans' starts by one ulp; the failed switch of
``failures_mid_flight`` no longer runs the two windows inside it; and
``frames_nobody_names`` stamps its node drops and reads its overflow
backlog when the node acts, and loses a 1 us ``queue`` span. The
registry digests alone were re-captured on top of 35329d4 when the
snapshot gained the ``link.qdepth_bytes`` family (the time series read
queue depth from the registry since): every other digest and count is
the one taken at 6504618, and each snapshot without that family hashes
to the digest pinned there. To re-capture (only for a deliberate change
to trace *content*)::

    PYTHONPATH=src python -m tests.test_obs_event_goldens --capture
"""

from __future__ import annotations

import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.apps.kvs_cache import KvsCluster
from repro.errors import RuntimeApiError
from repro.ncp.window import Window
from repro.ncp.wire import encode_frame, node_ip
from repro.nclc import Compiler, WindowConfig
from repro.net.network import FaultPlan, Network
from repro.obs import IntConfig, Observability, Tracer
from repro.obs.int import attach_tail
from repro.obs.lineage import LineageIndex
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime import Cluster

from tests.test_obs_bindonce import sha256

UDP_DPORT_OFF = 14 + 20 + 2

GOLDEN = Path(__file__).resolve().parent / "golden" / "obs_event_kinds.json"

PROBE_SRC = (
    "_net_ unsigned seen[1] = {0};\n"
    "_net_ _out_ void probe(unsigned *d) { seen[0] += d[0]; }\n"
)

#: location-less: both switches count, the second one drops on a zero
GATE_SRC = r"""
_net_ unsigned seen[1] = {0};
_net_ _out_ void gate(unsigned *d) {
  seen[0] += 1;
  if (location.id == _locid("s2")) { if (d[0] == 0) _drop(); }
}
"""
GATE_AND = "host a\nhost b\nswitch s1\nswitch s2\nlink a s1\nlink s1 s2\nlink s2 b\n"


def observed(max_hops: int = 8) -> Observability:
    return Observability(tracer=Tracer(), int_config=IntConfig(max_hops=max_hops))


def arrays_for(seed: int, n_workers: int, data_len: int):
    rng = random.Random(seed)
    return [
        [rng.randrange(-2**31, 2**31) for _ in range(data_len)]
        for _ in range(n_workers)
    ]


def run_round_that_may_not_finish(job, arrays) -> None:
    """``run_round`` raises when the window marked last never came home;
    the trace of the attempt is what the scenario is after."""
    try:
        job.run_round(arrays)
    except RuntimeApiError:
        pass


# -- the scenarios ---------------------------------------------------------------


def kvs_mix() -> Observability:
    """(a) Fig 5: GET hits reflected at the switch, misses and PUTs that
    reach the server, server updates absorbed."""
    obs = observed()
    kvs = KvsCluster(n_clients=2, cache_size=8, val_words=4, n_keys=32, obs=obs)
    kvs.install_hot_keys([0, 1, 2, 3])
    kvs.run_workload(0, [0, 1, 9, 2, 0, 17, 3, 1], put_every=4)
    kvs.run_workload(1, [3, 3, 20, 0], put_every=3)
    return obs


def lossy_allreduce() -> Observability:
    """(b) Fig 4 on lossy links: a window lost on its way up is sent
    again (read off the trace, as a transport would read its timers)
    until nothing new is lost; what the way down loses stays lost."""
    obs = observed()
    job = AllReduceJob(2, 64, 8, multiround=True, obs=obs)
    job.cluster.network.inject(FaultPlan(loss=0.2))
    arrays = arrays_for(24, 2, 64)
    run_round_that_may_not_finish(job, arrays)
    retried = 0
    for _ in range(6):
        lost = [
            e.args for e in obs.tracer.events
            if e.name == "drop" and e.args.get("cause") == "loss"
            and e.args["dir"].endswith("->s1")
        ][retried:]
        if not lost:
            break
        retried += len(lost)
        for args in lost:
            worker, seq = args["from"], args["seq"]
            host = job.cluster.host(f"w{worker}")
            chunk = arrays[worker][seq * 8:(seq + 1) * 8]
            window = Window(seq, [chunk], ext={"len": 8}, last=seq == 7,
                            from_node=host.node_id)
            host.retransmit_window("allreduce", window, "s1")
        job.cluster.run()
    assert retried
    return obs


def probe_cluster(obs, mtu=None, mask=(1,)):
    program = Compiler().compile(PROBE_SRC, windows={"probe": WindowConfig(mask=mask)})
    cluster = Cluster.from_program(program, obs=obs)
    for host in cluster.hosts.values():
        host.mtu = mtu
    return cluster


def over_mtu_window() -> Observability:
    """(c) host to host, 64 B of payload over an 80 B MTU: fragments,
    each with its own stack, then one more attempt."""
    obs = observed()
    cluster = probe_cluster(obs, mtu=80, mask=(16,))
    h0 = cluster.host("h0")
    h0.out("probe", [list(range(1, 17))], dst="h1")
    cluster.run()
    window = Window(0, [list(range(1, 17))], ext={}, last=True, from_node=h0.node_id)
    h0.retransmit_window("probe", window, "h1")
    cluster.run()
    return obs


def failures_mid_flight() -> Observability:
    """(d) a link, then the switch, fail with INT frames in flight; then,
    on a two-switch path under ``max_hops=1``, a kernel ``_drop()`` at
    the second switch (truncated), a window that gets through
    (truncated) and a route miss at each."""
    obs = observed(max_hops=1)
    job = AllReduceJob(2, 64, 8, multiround=True, obs=obs)
    net = job.cluster.network
    job.run_round(arrays_for(1, 2, 64))
    net.inject(FaultPlan(events=((job.cluster.now() + 1.5e-6, "down", ("w0", "s1")),)))
    run_round_that_may_not_finish(job, arrays_for(2, 2, 64))
    net.inject(FaultPlan(events=(
        (job.cluster.now(), "up", ("w0", "s1")),
        (job.cluster.now() + 2.5e-6, "down", "s1"),
    )))
    run_round_that_may_not_finish(job, arrays_for(3, 2, 64))

    program = Compiler().compile(
        GATE_SRC, and_text=GATE_AND, windows={"gate": WindowConfig(mask=(1,))}
    )
    gate = Cluster.from_program(program, obs=obs)
    a = gate.host("a")
    a.out_window("gate", 0, [[0]], "b")   # dropped by the kernel at s2
    a.out_window("gate", 1, [[5]], "b")   # delivered, one record short
    # a route that names a port the switch does not have: the pipeline
    # says pass, the node finds nowhere to send (``drop:route-miss``)
    s1, s2 = gate.switches["s1"], gate.switches["s2"]
    s1.switch.table_insert("ipv4_route", [node_ip(99)], "ipv4_forward", [7])
    s1.install_route(98, s1.routes[gate.host("b").node_id])
    s2.switch.table_insert("ipv4_route", [node_ip(98)], "ipv4_forward", [7])
    a.out_window("gate", 2, [[5]], 99)    # ends at s1, its record stamped
    a.out_window("gate", 3, [[5]], 98)    # ends at s2, one record short
    gate.run()
    assert (s1.stats.drops, s2.stats.drops) == (1, 2)
    return obs


def frames_nobody_names() -> Observability:
    """(e) ``meta is None``: bytes that are not NCP through a
    PisaSwitchNode and up to a host -- one with a plain receiver, one
    with none -- and an NCP frame, INT-armed, to the host with none."""
    obs = observed()
    program = Compiler().compile(PROBE_SRC, windows={"probe": WindowConfig(mask=(1,))})
    net = Network(obs=obs)
    hosts = [net.add_host(f"h{i}", node_id=i) for i in range(3)]
    net.add_pisa_switch("s1", PisaSwitch(program.switch_programs["s1"], "s1"), node_id=3)
    for host in hosts:
        net.add_link(host.name, "s1")
    net.compute_routes()
    hosts[1].receiver = lambda data: None
    layout = program.layouts["probe"]
    for dst in (1, 2):  # the same datagram to another UDP port: IPv4, routed, not NCP
        other = bytearray(encode_frame(layout, 0, dst, 0, [[7]]))
        other[UDP_DPORT_OFF:UDP_DPORT_OFF + 2] = b"\x12\x34"
        hosts[0].transmit(bytes(other), dst)
    hosts[0].transmit(attach_tail(encode_frame(layout, 0, 2, 1, [[7]])), 2)
    hosts[0].transmit(encode_frame(layout, 0, 1, 2, [[7]]), 1)
    net.run()

    # a plain forwarder with a shallow egress queue: route misses with
    # and without a destination to name, overflow, a dead link
    fabric = Network(obs=obs)
    x, y = fabric.add_host("x", node_id=10), fabric.add_host("y", node_id=11)
    fabric.add_forwarding_switch("f", node_id=12)
    fabric.add_link("x", "f")
    fabric.add_link("f", "y", bandwidth=1e8, queue_limit_bytes=150)
    fabric.compute_routes()
    y.receiver = lambda data: None
    not_ncp = bytearray(encode_frame(layout, 10, 11, 0, [[7]]))
    not_ncp[UDP_DPORT_OFF:UDP_DPORT_OFF + 2] = b"\x12\x34"
    x.transmit(encode_frame(layout, 10, 77, 0, [[7]]), 77)
    x.transmit(bytes(not_ncp), 11)
    for seq in range(4):
        x.transmit(encode_frame(layout, 10, 11, seq, [[7]]), 11)
    fabric.run()
    fabric.inject(FaultPlan(events=((fabric.sim.now(), "down", ("x", "f")),)))
    x.transmit(bytes(not_ncp), 11)
    x.transmit(attach_tail(encode_frame(layout, 10, 11, 9, [[7]])), 11)
    fabric.run()
    return obs


SCENARIOS = {
    "kvs_mix": kvs_mix,
    "lossy_allreduce": lossy_allreduce,
    "over_mtu_window": over_mtu_window,
    "failures_mid_flight": failures_mid_flight,
    "frames_nobody_names": frames_nobody_names,
}

#: what each scenario is there to reach: ``name`` or ``name/arg=value``
REACHES = {
    "kvs_mix": ["table:", "verdict/verdict=reflect", "verdict/verdict=drop",
                "int:stack/outcome=drop:switch", "int:stack/outcome=delivered"],
    "lossy_allreduce": ["drop/cause=loss", "window:retransmit",
                        "int:stack/outcome=drop:loss", "queue"],
    "over_mtu_window": ["int:stack/frag=1", "window:retransmit"],
    "failures_mid_flight": ["drop/cause=down", "int:stack/outcome=drop:down",
                            "int:stack/outcome=drop:route-miss",
                            "int:stack/outcome=drop:switch", "int:stack/truncated=1"],
    "frames_nobody_names": ["drop/cause=no-receiver", "drop/cause=route-miss",
                            "drop/cause=overflow", "drop/cause=down", "drop/dst=77",
                            "int:stack/outcome=drop:down", "deliver", "parse:parser",
                            "verdict"],
}


# -- digests ---------------------------------------------------------------------


def digests(obs) -> dict:
    trace = io.StringIO()
    obs.tracer.write_jsonl(trace)
    lineage = io.StringIO()
    LineageIndex.from_events(obs.tracer.events).write_json(lineage)
    kinds = Counter(e.name.split(":")[0] if e.name.startswith(("table:", "action:"))
                    else e.name for e in obs.tracer.events)
    return {
        "events": obs.tracer.events_recorded,
        "kinds": dict(sorted(kinds.items())),
        "trace_jsonl": sha256(trace.getvalue()),
        "lineage_json": sha256(lineage.getvalue()),
        "registry_snapshot": sha256(json.dumps(obs.snapshot(), sort_keys=True)),
    }


def reached(obs, what: str) -> bool:
    name, _, arg = what.partition("/")
    key, _, value = arg.partition("=")
    for event in obs.tracer.events:
        if not (event.name.startswith(name) if name.endswith(":") else event.name == name):
            continue
        if not arg or str(event.args.get(key)) == value:
            return True
    return False


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_records_what_the_parent_recorded(name):
    golden = json.loads(GOLDEN.read_text())
    assert golden["captured_at"] == "35329d4"
    obs = SCENARIOS[name]()
    assert digests(obs) == golden["scenarios"][name]
    missing = [what for what in REACHES[name] if not reached(obs, what)]
    assert not missing, missing


def test_frames_nobody_names_has_events_with_no_window_identity():
    obs = frames_nobody_names()
    for name in ("serialize", "deliver", "parse:parser", "verdict", "drop"):
        assert any("kernel" not in e.args for e in obs.tracer.named(name)), name
        assert any("kernel" in e.args for e in obs.tracer.named(name)), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    import subprocess

    commit = subprocess.run(
        ["git", "-C", str(Path(sys.modules["repro"].__file__).parent), "rev-parse",
         "--short", "HEAD"], capture_output=True, text=True, check=True,
    ).stdout.strip()
    captured = {"captured_at": commit, "scenarios": {}}
    for scenario, build in SCENARIOS.items():
        captured["scenarios"][scenario] = digests(build())
    GOLDEN.write_text(json.dumps(captured, indent=2, sort_keys=True) + "\n")
    print(json.dumps(captured, indent=2, sort_keys=True))
