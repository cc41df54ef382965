"""Baselines: host-only AllReduce schemes, host-only KVS, hand-written P4."""

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays, value_words, zipf_keys
from repro.baselines.host_allreduce import ParameterServerAllReduce, RingAllReduce
from repro.baselines.host_kvs import HostOnlyKvs
from repro.baselines.p4_netcache import build_netcache_program, handwritten_p4_source
from repro.ncp.wire import encode_frame
from repro.pisa.switch_dev import PisaSwitch


class TestParameterServer:
    def test_correctness(self):
        n, length, w = 3, 48, 8
        arrays = random_arrays(n, length, seed=1)
        ps = ParameterServerAllReduce(n, length, w)
        results, elapsed = ps.run(arrays)
        expected = AllReduceJob.expected(arrays)
        assert all(r == expected for r in results)
        assert elapsed > 0

    def test_ps_link_is_bottleneck(self):
        # The PS uplink carries ~2*n*size; each worker link ~2*size.
        n, length, w = 4, 64, 8
        ps = ParameterServerAllReduce(n, length, w)
        ps.run(random_arrays(n, length, seed=2))
        link_bytes = {
            frozenset((lk.a.name, lk.b.name)): lk.stats.bytes for lk in ps.net.links
        }
        ps_bytes = link_bytes[frozenset(("ps", "tor"))]
        worker_bytes = link_bytes[frozenset(("w0", "tor"))]
        assert ps_bytes >= worker_bytes * (n - 1)


class TestRing:
    def test_correctness(self):
        n, w = 4, 4
        length = n * w * 2
        arrays = random_arrays(n, length, seed=3)
        ring = RingAllReduce(n, length, w)
        results, _ = ring.run(arrays)
        expected = AllReduceJob.expected(arrays)
        assert all(r == expected for r in results)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_various_worker_counts(self, n):
        w = 2
        length = n * w * 3
        arrays = random_arrays(n, length, seed=n)
        ring = RingAllReduce(n, length, w)
        results, _ = ring.run(arrays)
        assert results[0] == AllReduceJob.expected(arrays)

    def test_rejects_single_worker(self):
        with pytest.raises(Exception):
            RingAllReduce(1, 8, 2)

    def test_alignment_requirement(self):
        with pytest.raises(Exception):
            RingAllReduce(3, 10, 2)  # 10 not divisible by 3*2


class TestHostKvs:
    def test_all_gets_hit_server(self):
        kvs = HostOnlyKvs(n_clients=1, val_words=4, n_keys=32)
        keys = zipf_keys(50, 32, 1.0, seed=1)
        records = kvs.run_workload(0, keys)
        assert len(records) == 50
        assert kvs.server_ops == 50
        for record, key in zip(records, keys):
            assert record.value == value_words(key, 4)

    def test_put_updates_store(self):
        kvs = HostOnlyKvs(n_clients=1, val_words=4)
        kvs.put(0, 5, [9, 9, 9, 9])
        kvs.net.run()
        kvs.get(0, 5)
        kvs.net.run()
        assert kvs.records[-1].value == [9, 9, 9, 9]

    def test_latency_includes_server_delay(self):
        kvs = HostOnlyKvs(n_clients=1, val_words=4, server_delay=100e-6)
        kvs.get(0, 1)
        kvs.net.run()
        assert kvs.records[-1].latency > 100e-6


class TestPinnedToParentCommit:
    """The three baselines that ran on a ``PythonSwitchNode`` ToR, on a
    ``ForwardingSwitchNode`` now: results, completion time and per-link
    bytes equal what commit b42f7ed produced.  Only the event count
    moved: one fewer scheduler event per frame through the ToR, then
    one per link frame (a hop is one event since the link charges each
    node's ``DELAY``), plus the host KVS server's four work timers."""

    def test_parameter_server(self):
        arrays = random_arrays(4, 64, seed=5)
        ps = ParameterServerAllReduce(4, 64, window_len=8)
        results, elapsed = ps.run(arrays)
        assert all(r == AllReduceJob.expected(arrays) for r in results)
        assert elapsed == ps.net.sim.now() == 1.2736000000000012e-05
        assert [lk.stats.bytes for lk in ps.net.links] == [1440] * 4 + [5760]
        assert ps.net.nodes["tor"].stats.rx_frames == 64
        assert ps.net.sim.events_processed == 128 == sum(lk.stats.frames for lk in ps.net.links)

    def test_ring(self):
        arrays = random_arrays(4, 64, seed=5)
        ring = RingAllReduce(4, 64, window_len=8)
        results, elapsed = ring.run(arrays)
        assert all(r == AllReduceJob.expected(arrays) for r in results)
        assert elapsed == ring.net.sim.now() == 3.1296e-05
        assert [lk.stats.bytes for lk in ring.net.links] == [2160] * 4
        assert ring.net.nodes["tor"].stats.rx_frames == 48
        assert ring.net.sim.events_processed == 96 == sum(lk.stats.frames for lk in ring.net.links)

    def test_host_kvs(self):
        kvs = HostOnlyKvs(n_clients=2, val_words=4, n_keys=64)
        kvs.get(0, 1)
        kvs.get(1, 40)
        kvs.put(0, 2, [9, 9, 9, 9])
        kvs.get(1, 2)
        kvs.net.run()
        assert [(r.op, r.key, r.completed, r.value) for r in kvs.records] == [
            ("GET", 1, 7.62528e-05, value_words(1, 4)),
            ("GET", 40, 7.6316e-05, value_words(40, 4)),
            ("PUT", 2, 7.637920000000001e-05, [9, 9, 9, 9]),
            ("GET", 2, 7.644240000000001e-05, [9, 9, 9, 9]),
        ]
        assert kvs.net.sim.now() == 7.644240000000001e-05
        assert [lk.stats.bytes for lk in kvs.net.links] == [316, 316, 632]
        assert kvs.net.nodes["tor"].stats.rx_frames == 8
        assert kvs.net.sim.events_processed == 16 + 4


class TestHandwrittenNetcache:
    def make(self, cache_size=8, val_words=4):

        program = build_netcache_program(cache_size, val_words, server_id=1)
        sw = PisaSwitch(program)
        from repro.ncp.wire import ChunkLayout, KernelLayout

        layout = KernelLayout(
            1,
            "kv",
            [
                ChunkLayout("key", 1, 64, False),
                ChunkLayout("val", val_words, 32, False),
                ChunkLayout("update", 1, 8, False),
            ],
        )
        from repro.ncp.wire import node_ip

        sw.table_insert("ipv4_route", [node_ip(0)], "ipv4_forward", [0])
        sw.table_insert("ipv4_route", [node_ip(1)], "ipv4_forward", [1])
        return sw, layout

    def test_get_miss_passes(self):
        sw, layout = self.make()
        frame = encode_frame(layout, 0, 1, seq=0, chunks=[[5], [0, 0, 0, 0], [0]])
        assert sw.process(frame).verdict == "pass"

    def test_populate_then_hit(self):
        sw, layout = self.make()
        sw.table_insert("CacheLookup", [5], "CacheHit", [2])
        update = encode_frame(
            layout, 1, 0, seq=0, chunks=[[5], [7, 8, 9, 10], [1]], from_node=1
        )
        assert sw.process(update).verdict == "drop"
        get = encode_frame(layout, 0, 1, seq=1, chunks=[[5], [0, 0, 0, 0], [0]])
        result = sw.process(get)
        assert result.verdict == "reflect"
        from repro.ncp.wire import decode_frame

        decoded = decode_frame(result.data, {1: layout})
        assert decoded.chunks[1] == [7, 8, 9, 10]

    def test_put_invalidates(self):
        sw, layout = self.make()
        sw.table_insert("CacheLookup", [5], "CacheHit", [2])
        sw.process(
            encode_frame(layout, 1, 0, seq=0, chunks=[[5], [7, 8, 9, 10], [1]], from_node=1)
        )
        put = encode_frame(layout, 0, 1, seq=1, chunks=[[5], [1, 1, 1, 1], [1]])
        assert sw.process(put).verdict == "pass"  # to server
        get = encode_frame(layout, 0, 1, seq=2, chunks=[[5], [0, 0, 0, 0], [0]])
        assert sw.process(get).verdict == "pass"  # invalid -> miss

    def test_source_is_much_longer_than_ncl(self):
        from repro.apps.kvs_cache import KVS_NCL

        hand_loc = len([ln for ln in handwritten_p4_source(256, 8).splitlines() if ln.strip()])
        ncl_loc = len(
            [ln for ln in KVS_NCL.splitlines()
             if ln.strip() and not ln.strip().startswith("//")]
        )
        assert hand_loc > 5 * ncl_loc  # the S2 motivation, quantified
