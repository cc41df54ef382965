"""Build and simulation determinism.

A reproducible-research artifact must produce identical outputs across
runs: the generated P4 text, the backend reports, and the discrete-event
simulation results are all checked for run-to-run stability.
"""


from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays
from repro.nclc import Compiler, WindowConfig

from tests.conftest import ALLREDUCE_DEFINES, ALLREDUCE_SRC, KVS_AND, KVS_DEFINES, KVS_SRC, STAR_AND


def compile_twice(source, and_text, windows, defines, profile=None):
    outs = []
    for _ in range(2):
        program = Compiler(profile=profile).compile(
            source, and_text=and_text, windows=windows, defines=defines
        )
        outs.append(program)
    return outs


class TestCompileDeterminism:
    def test_p4_text_identical_across_compiles(self):
        a, b = compile_twice(
            ALLREDUCE_SRC,
            STAR_AND,
            {"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            ALLREDUCE_DEFINES,
        )
        assert a.switch_sources["s1"] == b.switch_sources["s1"]

    def test_kvs_p4_text_identical(self):
        a, b = compile_twice(
            KVS_SRC,
            KVS_AND,
            {"query": WindowConfig(mask=(1, 4, 1))},
            KVS_DEFINES,
        )
        assert a.switch_sources["s1"] == b.switch_sources["s1"]

    def test_reports_identical(self):
        a, b = compile_twice(
            ALLREDUCE_SRC,
            STAR_AND,
            {"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            ALLREDUCE_DEFINES,
            profile="tofino-like",
        )
        assert a.reports["s1"].as_dict() == b.reports["s1"].as_dict()

    def test_split_plan_identical(self):
        a, b = compile_twice(
            ALLREDUCE_SRC,
            STAR_AND,
            {"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            ALLREDUCE_DEFINES,
            profile="tofino-like",
        )
        plan_a = [(s.name, s.stride, s.part_names) for s in a.split_info["s1"]]
        plan_b = [(s.name, s.stride, s.part_names) for s in b.split_info["s1"]]
        assert plan_a == plan_b


class TestSimulationDeterminism:
    def test_allreduce_timing_repeatable(self):
        times = []
        for _ in range(2):
            job = AllReduceJob(3, 64, 8)
            arrays = random_arrays(3, 64, seed=9)
            _, elapsed = job.run_round(arrays)
            times.append(elapsed)
        assert times[0] == times[1]

    def test_lossy_link_repeatable(self):
        """Loss uses a seeded RNG: two runs drop the same frames."""
        from repro.net.network import FaultPlan, Network

        def run():
            net = Network()
            a = net.add_host("a")
            b = net.add_host("b")
            net.add_link("a", "b")
            net.compute_routes()
            net.inject(FaultPlan(loss=0.5, seed=7))
            got = []
            b.receiver = lambda data: got.append(data)
            for i in range(20):
                a.transmit(bytes([i]) * 8, b.node_id)
            net.run()
            return got

        assert run() == run()
