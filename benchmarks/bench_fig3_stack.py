"""Fig 3a/3b -- the NCL software stack and switch behaviour.

Fig 3b shows the per-packet decision a deployed switch makes: NCP
recognized -> execute the kernel; otherwise -> plain forwarding. This
bench measures both paths on the same compiled program and sweeps the
NCP share of a mixed traffic stream, demonstrating that the INC program
coexists with ordinary traffic (a core property of the template merge).
"""

import pytest

from repro.nclc import Compiler, WindowConfig
from repro.ncp.wire import (
    ETH_FIELDS,
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    IPV4_FIELDS,
    UDP_FIELDS,
    encode_frame,
    node_ip,
)
from repro.pisa.switch_dev import PisaSwitch
from repro.util.bits import FieldLayout

from benchmarks._util import print_table, record_once

COUNTER_NCL = r"""
_net_ _at_("s1") unsigned windows_seen[1] = {0};

_net_ _out_ void tally(unsigned *d) {
  windows_seen[0] += 1;
  d[0] = windows_seen[0];
}
"""


@pytest.fixture(scope="module")
def deployed_switch():
    program = Compiler().compile(
        COUNTER_NCL,
        windows={"tally": WindowConfig(mask=(1,))},
    )
    sw = PisaSwitch(program.switch_programs["s1"])
    for node in (0, 1, 2):
        sw.table_insert("ipv4_route", [node_ip(node)], "ipv4_forward", [node % 2])
    return program, sw


def plain_udp_frame(dst=2, dport=9999):
    eth = FieldLayout(ETH_FIELDS).pack({"dst": 1, "src": 2, "ethertype": ETHERTYPE_IPV4})
    ipv4 = FieldLayout(IPV4_FIELDS).pack(
        {
            "version_ihl": 0x45,
            "total_len": 28,
            "ttl": 64,
            "proto": IP_PROTO_UDP,
            "src": node_ip(0),
            "dst": node_ip(dst),
        },
    )
    udp = FieldLayout(UDP_FIELDS).pack({"sport": 1000, "dport": dport, "length": 8})
    return eth + ipv4 + udp


def test_fig3_ncp_path(benchmark, deployed_switch):
    program, sw = deployed_switch
    layout = program.layouts["tally"]
    frames = [
        encode_frame(layout, 0, 2, seq=i, chunks=[[0]]) for i in range(32)
    ]

    def run():
        for frame in frames:
            sw.process(frame)

    benchmark(run)
    assert sw.registers.read("reg_windows_seen", 0) > 0


def test_fig3_plain_forwarding_path(benchmark, deployed_switch):
    _, sw = deployed_switch
    frames = [plain_udp_frame() for _ in range(32)]
    before = sw.registers.read("reg_windows_seen", 0)

    def run():
        for frame in frames:
            assert sw.process(frame).verdict == "pass"

    benchmark(run)
    # plain traffic must NOT execute the kernel
    assert sw.registers.read("reg_windows_seen", 0) == before


def test_fig3_mixed_traffic_sweep(benchmark, deployed_switch):
    program, sw = deployed_switch
    layout = program.layouts["tally"]
    rows = []

    def sweep():
        import time

        for ncp_share in (0.0, 0.25, 0.5, 0.75, 1.0):
            n = 200
            n_ncp = int(n * ncp_share)
            frames = [
                encode_frame(layout, 0, 2, seq=i, chunks=[[0]])
                for i in range(n_ncp)
            ] + [plain_udp_frame() for _ in range(n - n_ncp)]
            before = sw.registers.read("reg_windows_seen", 0)
            t0 = time.perf_counter()
            for frame in frames:
                sw.process(frame)
            elapsed = time.perf_counter() - t0
            executed = sw.registers.read("reg_windows_seen", 0) - before
            assert executed == n_ncp  # exactly the NCP share ran the kernel
            rows.append(
                [f"{ncp_share:.0%}", n, executed, f"{n / elapsed:,.0f}"]
            )

    record_once(benchmark, sweep)
    print_table(
        "Fig 3b: NCP recognition on mixed traffic",
        ["NCP share", "frames", "kernel runs", "frames/s (sim CPU)"],
        rows,
    )
