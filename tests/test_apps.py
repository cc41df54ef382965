"""The paper's use-case applications, end to end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.allreduce import AllReduceJob
from repro.apps.dedup import DedupCluster
from repro.apps.kvs_cache import KvsCluster
from repro.apps.workloads import hot_fraction, random_arrays, value_words, zipf_keys


class TestAllReduce:
    def test_basic_correctness(self):
        job = AllReduceJob(3, 64, 8)
        arrays = random_arrays(3, 64, seed=1)
        results, elapsed = job.run_round(arrays)
        expected = AllReduceJob.expected(arrays)
        assert all(r == expected for r in results)
        assert elapsed > 0

    def test_multiple_rounds_on_one_deployment(self):
        job = AllReduceJob(2, 32, 4, multiround=True)
        for seed in range(3):
            arrays = random_arrays(2, 32, seed=seed)
            results, _ = job.run_round(arrays)
            assert results[0] == AllReduceJob.expected(arrays)

    def test_single_shot_kernel_accumulates_forever(self):
        # The paper-faithful Fig 4 kernel does NOT clear accum: a second
        # round on the same deployment double-counts. Documented behaviour.
        job = AllReduceJob(2, 16, 4, multiround=False)
        arrays = [[1] * 16, [1] * 16]
        first, _ = job.run_round(arrays)
        assert first[0] == [2] * 16
        second, _ = job.run_round(arrays)
        assert second[0] == [4] * 16  # old sums still in accum

    def test_window_len_one(self):
        job = AllReduceJob(2, 8, 1)
        arrays = random_arrays(2, 8, seed=2)
        results, _ = job.run_round(arrays)
        assert results[0] == AllReduceJob.expected(arrays)

    def test_int32_wraparound(self):
        job = AllReduceJob(2, 4, 4)
        big = 2**31 - 1
        results, _ = job.run_round([[big] * 4, [1] * 4])
        assert results[0] == [-(2**31)] * 4

    def test_bytes_scale_with_workers_not_quadratic(self):
        # Each worker link carries ~2x its array; the switch absorbs the
        # n-way aggregation. Total link bytes grow linearly in n.
        sizes = {}
        for n in (2, 4):
            job = AllReduceJob(n, 64, 8)
            job.run_round(random_arrays(n, 64, seed=0))
            sizes[n] = job.cluster.network.total_bytes_on_links()
        assert sizes[4] < sizes[2] * 3  # linear-ish, not n^2

    @given(
        st.integers(min_value=2, max_value=4),
        st.sampled_from([4, 8]),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=6, deadline=None)
    def test_property_matches_reference_sum(self, n_workers, window_len, n_windows):
        data_len = window_len * n_windows
        job = AllReduceJob(n_workers, data_len, window_len)
        arrays = random_arrays(n_workers, data_len, seed=n_workers)
        results, _ = job.run_round(arrays)
        expected = AllReduceJob.expected(arrays)
        assert all(r == expected for r in results)

    def test_validation_errors(self):
        with pytest.raises(Exception):
            AllReduceJob(2, 10, 4)  # not window-aligned
        job = AllReduceJob(2, 8, 4)
        with pytest.raises(Exception):
            job.run_round([[1] * 8])  # wrong worker count


class TestKvs:
    @pytest.fixture()
    def kvs(self):
        kvs = KvsCluster(n_clients=2, cache_size=8, val_words=4, n_keys=64)
        kvs.install_hot_keys([1, 2, 3])
        return kvs

    def test_hit_served_by_cache(self, kvs):
        kvs.get(0, 1)
        kvs.run()
        record = kvs.records[-1]
        assert record.served_by_cache
        assert record.value == value_words(1, 4)

    def test_miss_served_by_server(self, kvs):
        kvs.get(0, 40)
        kvs.run()
        record = kvs.records[-1]
        assert not record.served_by_cache
        assert record.value == value_words(40, 4)

    def test_hit_latency_below_miss_latency(self, kvs):
        kvs.get(0, 1)
        kvs.get(0, 40)
        kvs.run()
        hit, miss = kvs.records[-2], kvs.records[-1]
        if not hit.served_by_cache:
            hit, miss = miss, hit
        assert hit.latency < miss.latency / 2

    def test_put_then_get_sees_new_value(self, kvs):
        new_value = value_words(777, 4)
        kvs.put(0, 2, new_value)
        kvs.run()
        kvs.get(1, 2)
        kvs.run()
        assert kvs.records[-1].value == new_value

    def test_coherence_under_mixed_workload(self, kvs):
        """The cache NEVER returns a stale value (the NetCache invariant)."""
        shadow = {k: value_words(k, 4) for k in range(64)}
        rng_keys = zipf_keys(60, 16, 1.0, seed=3)
        for i, key in enumerate(rng_keys):
            if i % 5 == 4:
                new = value_words(key * 131 + i, 4)
                shadow[key] = new
                kvs.put(0, key, new)
                kvs.run()
            else:
                kvs.get(i % 2, key)
                kvs.run()
                record = kvs.records[-1]
                assert record.value == shadow[key], (
                    f"stale read for key {key} at op {i} "
                    f"(served_by_cache={record.served_by_cache})"
                )

    def test_eviction_sends_key_back_to_server(self, kvs):
        kvs.get(0, 1)
        kvs.run()
        assert kvs.records[-1].served_by_cache
        kvs.evict(1)
        kvs.get(0, 1)
        kvs.run()
        assert not kvs.records[-1].served_by_cache
        assert kvs.records[-1].value == value_words(1, 4)

    def test_server_load_drops_with_cache(self, kvs):
        keys = zipf_keys(100, 64, 1.3, seed=5)
        kvs.run_workload(0, keys)
        served_by_cache = sum(1 for r in kvs.records if r.served_by_cache)
        assert kvs.server_ops < len(keys)
        assert served_by_cache == len(keys) - kvs.server_ops

    def test_hit_ratio_tracks_hot_set(self, kvs):
        keys = zipf_keys(200, 64, 1.2, seed=9)
        kvs.run_workload(0, keys)
        expected = hot_fraction(keys, [1, 2, 3])
        assert abs(kvs.hit_ratio() - expected) < 0.02

    def test_cache_capacity_enforced(self):
        kvs = KvsCluster(n_clients=1, cache_size=2, val_words=4)
        kvs.install_hot_keys([1, 2])
        with pytest.raises(Exception, match="full"):
            kvs.install_hot_keys([3])


class TestDedup:
    def test_exact_duplicates_dropped(self):
        d = DedupCluster(filter_bits=4096, payload_words=2)
        d.send_stream([1, 2, 1, 3, 2, 1])
        assert d.delivered == 3
        total, dups = d.switch_counters()
        assert total == 6 and dups == 3

    def test_unique_stream_all_delivered(self):
        d = DedupCluster(filter_bits=1 << 14, payload_words=2)
        ids = [i * 7919 for i in range(100)]
        d.send_stream(ids)
        assert d.delivered == 100

    def test_downstream_link_saved(self):
        d = DedupCluster(filter_bits=4096, payload_words=2)
        d.send_stream([5] * 50)
        downstream = next(
            lk for lk in d.cluster.network.links
            if {lk.a.name, lk.b.name} == {"s1", "sink"}
        )
        upstream = next(
            lk for lk in d.cluster.network.links
            if {lk.a.name, lk.b.name} == {"sender", "s1"}
        )
        assert upstream.stats.frames == 50
        assert downstream.stats.frames == 1


class TestWorkloads:
    def test_zipf_skew_concentrates(self):
        uniform = zipf_keys(2000, 100, 0.0, seed=1)
        skewed = zipf_keys(2000, 100, 1.5, seed=1)
        top10 = set(range(10))
        assert hot_fraction(skewed, top10) > hot_fraction(uniform, top10) + 0.3

    def test_zipf_deterministic_per_seed(self):
        assert zipf_keys(50, 10, 1.0, seed=4) == zipf_keys(50, 10, 1.0, seed=4)
        assert zipf_keys(50, 10, 1.0, seed=4) != zipf_keys(50, 10, 1.0, seed=5)

    def test_value_words_deterministic(self):
        assert value_words(5, 4) == value_words(5, 4)
        assert value_words(5, 4) != value_words(6, 4)

    def test_random_arrays_shape(self):
        arrays = random_arrays(3, 16)
        assert len(arrays) == 3 and all(len(a) == 16 for a in arrays)
