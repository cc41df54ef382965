"""libncrt: host runtime, controller, cluster deployment."""

import pytest

from repro.errors import RuntimeApiError
from repro.nclc import Compiler, WindowConfig
from repro.runtime import Cluster

from tests.conftest import (
    ALLREDUCE_DEFINES,
    ALLREDUCE_SRC,
    KVS_AND,
    KVS_DEFINES,
    KVS_SRC,
    STAR_AND,
)


@pytest.fixture(scope="module")
def deployed():
    program = Compiler().compile(
        ALLREDUCE_SRC,
        and_text=STAR_AND,
        windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
        defines=ALLREDUCE_DEFINES,
    )
    return program


def fresh_cluster(program):
    cluster = Cluster.from_program(program)
    cluster.controller.ctrl_wr("nworkers", 2)
    return cluster


class TestCluster:
    def test_deploys_all_and_nodes(self, deployed):
        cluster = fresh_cluster(deployed)
        assert set(cluster.hosts) == {"w0", "w1"}
        assert set(cluster.switches) == {"s1"}

    def test_node_ids_match_and(self, deployed):
        cluster = fresh_cluster(deployed)
        assert cluster.host("w0").node_id == deployed.and_spec.node("w0").node_id

    def test_unknown_host_raises(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(Exception):
            cluster.host("nope")


class TestController:
    def test_ctrl_wr_reaches_register(self, deployed):
        cluster = fresh_cluster(deployed)
        cluster.controller.ctrl_wr("nworkers", 7)
        assert cluster.controller.ctrl_rd("nworkers") == 7

    def test_ctrl_wr_unknown_var(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(RuntimeApiError):
            cluster.controller.ctrl_wr("bogus", 1)

    def test_register_dump(self, deployed):
        cluster = fresh_cluster(deployed)
        dump = cluster.controller.register_dump("accum")
        assert dump == [0] * ALLREDUCE_DEFINES["DATA_LEN"]

    def test_delayed_ctrl_write(self, deployed):
        cluster = Cluster.from_program(deployed, ctrl_delay=1e-3)
        cluster.controller.ctrl_wr("nworkers", 9)
        assert cluster.controller.ctrl_rd("nworkers") == 0  # not yet applied
        cluster.run()
        assert cluster.controller.ctrl_rd("nworkers") == 9

    def test_map_ops(self):
        program = Compiler().compile(
            KVS_SRC,
            and_text=KVS_AND,
            windows={"query": WindowConfig(mask=(1, 4, 1))},
            defines=KVS_DEFINES,
        )
        cluster = Cluster.from_program(program)
        cluster.controller.map_insert("Idx", 5, 2)
        assert cluster.controller.map_entries("Idx") == {5: 2}
        cluster.controller.map_insert("Idx", 5, 3)  # replace
        assert cluster.controller.map_entries("Idx") == {5: 3}
        cluster.controller.map_erase("Idx", 5)
        assert cluster.controller.map_entries("Idx") == {}


class TestHostApi:
    def test_out_window_count(self, deployed):
        cluster = fresh_cluster(deployed)
        host = cluster.host("w0")
        n = host.out("allreduce", [list(range(64))])
        assert n == 16  # 64 elems / window of 4

    def test_mask_mismatch_rejected(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(Exception):
            cluster.host("w0").out("allreduce", [list(range(10))])  # not /4

    def test_unknown_kernel_rejected(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(RuntimeApiError):
            cluster.host("w0").out("nope", [[1]])

    def test_ext_override_must_match_compiled(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(RuntimeApiError, match="specialized"):
            cluster.host("w0").out("allreduce", [[1, 2, 3, 4]], ext={"len": 8})

    def test_register_in_validates_kernel(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(RuntimeApiError):
            cluster.host("w0").register_in("allreduce")  # that's an out kernel

    def test_register_in_ext_arity(self, deployed):
        cluster = fresh_cluster(deployed)
        with pytest.raises(RuntimeApiError, match="_ext_"):
            cluster.host("w0").register_in("result", [[0] * 64])  # needs 2

    def test_inbox_when_no_handler(self, deployed):
        cluster = fresh_cluster(deployed)
        cluster.controller.ctrl_wr("nworkers", 1)  # every window broadcasts
        cluster.host("w0").out("allreduce", [[1, 2, 3, 4]])
        cluster.run()
        # both workers got the result window into their inbox
        assert len(cluster.host("w1").inbox.get("allreduce", [])) == 1

    def test_on_window_callback_fires(self, deployed):
        cluster = fresh_cluster(deployed)
        cluster.controller.ctrl_wr("nworkers", 1)
        seen = []
        out = [0] * 64
        done = [0]
        cluster.host("w1").register_in(
            "result", [out, done], on_window=lambda w, h: seen.append(w.seq)
        )
        cluster.host("w0").out("allreduce", [list(range(4))])
        cluster.run()
        assert seen == [0]

    def test_out_window_fine_grained(self, deployed):
        cluster = fresh_cluster(deployed)
        cluster.controller.ctrl_wr("nworkers", 1)
        got = []
        cluster.host("w1").on_raw_window("allreduce", lambda w, h: got.append(w.chunks))
        cluster.host("w0").out_window("allreduce", seq=2, chunks=[[9, 9, 9, 9]], dst="s1")
        cluster.run()
        assert got == [[[9, 9, 9, 9]]]
        # seq 2 accumulated at slot 2 (elements 8..11)
        assert cluster.controller.register_dump("accum")[8:12] == [9, 9, 9, 9]


class TestLossyDeploy:
    def test_loss_surfaces_as_incomplete(self, deployed):
        from repro.apps.allreduce import AllReduceJob
        from repro.net import FaultPlan

        job = AllReduceJob(2, 32, 4)
        job.cluster.network.inject(FaultPlan(loss=1.0))
        with pytest.raises(RuntimeApiError, match="did not complete"):
            job.run_round([[1] * 32, [2] * 32])
