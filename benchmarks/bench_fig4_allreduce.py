"""Fig 4 -- in-network AllReduce vs host-only baselines.

The headline experiment: synchronous AllReduce on a star topology,
in-network aggregation vs a parameter server vs ring all-reduce, sweeping
the worker count and the array size. Expected *shape* (from SwitchML/ATP
and bandwidth arithmetic; the paper has no numbers of its own):

* INC sends each gradient over each worker link exactly twice (up +
  broadcast) -- completion time roughly flat in n for fixed per-worker
  data;
* the parameter server funnels 2*n*size bytes through one link --
  completion degrades linearly in n;
* ring is bandwidth-optimal but needs 2(n-1) serialized steps -- it
  loses to INC on latency, and the INC/ring gap widens with n.
"""


from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays
from repro.baselines.host_allreduce import ParameterServerAllReduce, RingAllReduce

from benchmarks._util import (
    print_table,
    record_once,
    registry_snapshot,
    throughput_summary,
)

WINDOW = 8


def one_round(n_workers: int, data_len: int):
    arrays = random_arrays(n_workers, data_len, seed=n_workers)
    expected = AllReduceJob.expected(arrays)

    inc = AllReduceJob(n_workers, data_len, WINDOW)
    inc_res, inc_t = inc.run_round(arrays)
    assert inc_res[0] == expected

    ps = ParameterServerAllReduce(n_workers, data_len, WINDOW)
    ps_res, ps_t = ps.run(arrays)
    assert ps_res[0] == expected

    ring_len = data_len
    if ring_len % (n_workers * WINDOW):
        ring_len = (data_len // (n_workers * WINDOW) + 1) * n_workers * WINDOW
    ring = RingAllReduce(n_workers, ring_len, WINDOW)
    ring_res, ring_t = ring.run(random_arrays(n_workers, ring_len, seed=n_workers))

    return inc, inc_t, ps_t, ring_t


def test_fig4_worker_scaling(benchmark):
    rows = []
    metrics = {}

    def sweep():
        for n in (2, 4, 8):
            inc, inc_t, ps_t, ring_t = one_round(n, 512)
            # Per-layer breakdown into the results JSON.
            metrics[f"workers={n}"] = registry_snapshot(inc.cluster.network)
            rows.append(
                [
                    n,
                    f"{inc_t * 1e6:.1f}",
                    f"{ps_t * 1e6:.1f}",
                    f"{ring_t * 1e6:.1f}",
                    f"{ps_t / inc_t:.2f}x",
                    f"{ring_t / inc_t:.2f}x",
                ]
            )

    record_once(benchmark, sweep)
    benchmark.extra_info["metrics"] = metrics
    print_table(
        "Fig 4: AllReduce completion time vs workers (512 int32)",
        ["workers", "INC us", "PS us", "ring us", "INC vs PS", "INC vs ring"],
        rows,
    )
    # Shape assertions: INC wins everywhere; the PS gap grows with n.
    gaps = [float(r[4][:-1]) for r in rows]
    assert all(g > 1.0 for g in gaps)
    assert gaps[-1] > gaps[0]


def test_fig4_data_scaling(benchmark):
    rows = []

    def sweep():
        for data_len in (128, 512, 2048):
            _, inc_t, ps_t, ring_t = one_round(4, data_len)
            rows.append(
                [
                    data_len,
                    f"{inc_t * 1e6:.1f}",
                    f"{ps_t * 1e6:.1f}",
                    f"{ring_t * 1e6:.1f}",
                ]
            )

    record_once(benchmark, sweep)
    print_table(
        "Fig 4: AllReduce completion time vs gradient size (4 workers)",
        ["int32 elems", "INC us", "PS us", "ring us"],
        rows,
    )


def test_fig4_link_bytes_accounting(benchmark):
    """INC's bandwidth win, measured at the links rather than the clock."""
    rows = []

    def sweep():
        for n in (2, 4, 8):
            data_len = 512
            arrays = random_arrays(n, data_len, seed=1)
            inc = AllReduceJob(n, data_len, WINDOW)
            inc.run_round(arrays)
            inc_bytes = inc.cluster.network.total_bytes_on_links()

            ps = ParameterServerAllReduce(n, data_len, WINDOW)
            ps.run(arrays)
            ps_bytes = ps.net.total_bytes_on_links()
            ps_bottleneck = max(lk.stats.bytes for lk in ps.net.links)
            inc_bottleneck = max(lk.stats.bytes for lk in inc.cluster.network.links)
            rows.append(
                [n, inc_bytes, ps_bytes, inc_bottleneck, ps_bottleneck]
            )

    record_once(benchmark, sweep)
    print_table(
        "Fig 4: bytes on the wire (512 int32)",
        ["workers", "INC total", "PS total", "INC max/link", "PS max/link"],
        rows,
    )
    # The PS bottleneck link grows ~linearly with n; INC's per-link load
    # stays flat.
    assert rows[-1][4] > rows[0][4] * 2
    assert rows[-1][3] <= rows[0][3] * 2


def test_fig4_single_round_latency(benchmark):
    """pytest-benchmark micro view: one INC round, wall-clock (simulator
    execution cost, not simulated time)."""
    job = AllReduceJob(4, 256, WINDOW)
    arrays = random_arrays(4, 256, seed=3)

    def run():
        results, _ = job.run_round(arrays)
        return results

    results = benchmark(run)
    # The timing loop above runs untraced (disabled fast path); the
    # registry snapshot is collected post-hoc from the component stats.
    benchmark.extra_info["metrics"] = registry_snapshot(job.cluster.network)
    assert results[0] == AllReduceJob.expected(arrays)

    # One profiled round for the throughput meters: events/sec and
    # packets/sec land in the results JSON (and the budget gate keeps
    # loose floors on them via check_budget.py).
    from repro.obs import Observability, Profiler

    profiler = Profiler()
    job_prof = AllReduceJob(4, 256, WINDOW, obs=Observability(profiler=profiler))
    prof_results, _ = job_prof.run_round(arrays)
    assert prof_results[0] == AllReduceJob.expected(arrays)
    benchmark.extra_info["throughput"] = throughput_summary(profiler)

    # One sampled + streamed round for the observer-overhead meters:
    # nothing retained in memory, the trace sampled at 10% and streamed
    # to sharded JSONL. The resulting self-accounting (events recorded /
    # sampled out / bytes written / peak resident) is deterministic and
    # budget-gated (fig4_allreduce_obs.* in budgets.json).
    import tempfile
    from pathlib import Path

    from repro.obs import JsonlSink, Tracer, TraceSampler

    from benchmarks._util import obs_summary

    with tempfile.TemporaryDirectory() as tmp:
        tracer = Tracer(
            sampler=TraceSampler(rate=0.1, max_pending=256), retain=False
        )
        tracer.add_stream(
            JsonlSink(str(Path(tmp) / "fig4.trace.jsonl"), shard_events=2000)
        )
        obs = Observability(tracer=tracer)
        job_obs = AllReduceJob(4, 256, WINDOW, obs=obs)
        obs_results, _ = job_obs.run_round(arrays)
        assert obs_results[0] == AllReduceJob.expected(arrays)
        tracer.close()
        benchmark.extra_info["obs"] = obs_summary(obs)
