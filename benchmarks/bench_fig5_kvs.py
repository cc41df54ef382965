"""Fig 5 -- the in-network KVS cache vs a host-only deployment.

NetCache's evaluation shape, regenerated on our substrate: sweep the
workload skew and report hit ratio, server load, and GET latency for the
cached and uncached systems. Expected shape:

* hit latency ~= client<->ToR RTT; miss latency adds the server RTT and
  service time (several x higher);
* server load drops with skew once the hot set is cached;
* with no skew (uniform keys over a large keyspace) the cache barely
  helps -- the crossover the paper's motivation relies on.
"""


from repro.apps.kvs_cache import KvsCluster
from repro.apps.workloads import zipf_keys
from repro.baselines.host_kvs import HostOnlyKvs

from benchmarks._util import print_table, record_once

N_KEYS = 256
CACHE = 24
OPS = 200


def cached_run(skew: float):
    from collections import Counter

    keys = zipf_keys(OPS, N_KEYS, skew, seed=13)
    kvs = KvsCluster(n_clients=1, cache_size=CACHE, val_words=4, n_keys=N_KEYS)
    hot = [k for k, _ in Counter(keys).most_common(CACHE)]
    kvs.install_hot_keys(hot)
    kvs.run_workload(0, keys)
    return kvs, keys


def test_fig5_skew_sweep(benchmark):
    rows = []
    shapes = {}

    def sweep():
        for skew in (0.0, 0.6, 0.9, 1.2):
            kvs, keys = cached_run(skew)
            base = HostOnlyKvs(n_clients=1, val_words=4, n_keys=N_KEYS)
            base.run_workload(0, keys)
            hit_lat = kvs.mean_latency("GET", cache_only=True)
            miss_lat = kvs.mean_latency("GET", cache_only=False)
            rows.append(
                [
                    skew,
                    f"{kvs.hit_ratio():.1%}",
                    kvs.server_ops,
                    base.server_ops,
                    f"{hit_lat * 1e6:.1f}" if hit_lat else "-",
                    f"{miss_lat * 1e6:.1f}" if miss_lat else "-",
                    f"{base.mean_latency() * 1e6:.1f}",
                ]
            )
            shapes[skew] = kvs.hit_ratio()

    record_once(benchmark, sweep)
    print_table(
        f"Fig 5: KVS cache vs no cache ({OPS} GETs, {N_KEYS} keys, cache={CACHE})",
        [
            "zipf skew",
            "hit ratio",
            "server ops (cached)",
            "server ops (none)",
            "hit us",
            "miss us",
            "no-cache us",
        ],
        rows,
    )
    # Shape: hit ratio grows with skew; server load strictly below baseline.
    assert shapes[1.2] > shapes[0.0]


def test_fig5_latency_split(benchmark):
    """Hit latency must sit near the client<->switch RTT, far below the
    server path -- the NetCache headline."""

    def run():
        kvs = KvsCluster(n_clients=1, cache_size=8, val_words=4, n_keys=64)
        kvs.install_hot_keys([0, 1, 2, 3])
        for key in (0, 1, 2, 3, 40, 41, 42, 43):
            kvs.get(0, key)
            kvs.run()
        return kvs

    kvs = record_once(benchmark, run)
    hit = kvs.mean_latency("GET", cache_only=True)
    miss = kvs.mean_latency("GET", cache_only=False)
    print(f"\nhit latency  : {hit * 1e6:.1f} us")
    print(f"miss latency : {miss * 1e6:.1f} us  ({miss / hit:.1f}x)")
    assert miss > 3 * hit


def test_fig5_get_path_throughput(benchmark):
    """Microbenchmark: sustained GET processing through the full stack
    (client runtime -> wire -> PISA pipeline -> reflect -> client)."""
    kvs = KvsCluster(n_clients=1, cache_size=8, val_words=4, n_keys=64)
    kvs.install_hot_keys(list(range(8)))

    counter = [0]

    def burst():
        base = counter[0]
        for i in range(32):
            kvs.get(0, (base + i) % 8)
        kvs.run()
        counter[0] += 32

    benchmark(burst)
    assert kvs.hit_ratio() == 1.0
