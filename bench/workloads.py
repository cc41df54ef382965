"""The five benchmark workloads and their oracles.

A workload's constructor *is* its set-up (compile with no artifact
cache, deploy, control-plane install, input generation from the seed);
``batch(i)`` is the timed unit; ``check(i)`` compares what the batch
produced with an oracle this file owns and returns the number of failed
ops.  Inputs come in a pool of :data:`POOL` seeded batches that the
timed loop replays in order, so a run of any length uses the same
generated inputs.

Only ``repro.*`` and the standard library are imported.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict, deque
from pathlib import Path

from repro.analysis import lint_source
from repro.analysis.deploy import check_deployment, parse_deployment
from repro.analysis.deploy import render_report_json as render_deploy_report
from repro.analysis.proto import ProtoContext, render_report_json, run_checks
from repro.apps.allreduce import AllReduceJob
from repro.apps.kvs_cache import KvsCluster
from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
from repro.nclc.driver import CompiledProgram, Compiler, WindowConfig
from repro.net.topo import fat_tree
from repro.obs import IntConfig, Observability, Profiler, Tracer
from repro.obs.compiler import ir_size

BENCH = Path(__file__).resolve().parent
INPUTS = BENCH / "inputs"

#: distinct input batches generated per set-up; batch i replays i % POOL
POOL = 16


class Workload:
    name = ""
    #: ops one batch attempts
    ops_per_batch = 0
    #: virtual-time budget of one batch; a batch past it is late and all
    #: its ops fail (None: the workload has no simulated network)
    watchdog_us: float | None = None

    def batch(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> int:
        """Failed ops of batch *i* (called once, right after it)."""
        raise NotImplementedError

    #: the simulated repro.net.network.Network / repro.runtime.Cluster /
    #: repro.obs.Observability the workload runs on, where it has one
    net = None
    cluster = None
    obs = None
    #: CompiledProgram.stage_times summed over the compiles checked
    stage_s: dict = {}
    compiles = 0

    def counters(self) -> dict:
        """Cumulative exact counts read from the layers' public stats."""
        net = self.net
        out = dict.fromkeys(COUNTERS, 0)
        if net is None:
            return out
        out["sim_time_us"] = net.sim.now() * 1e6
        out["net.events"] = net.sim.events_processed
        for link in net.links:
            out["net.link_frames"] += link.stats.frames
            out["net.link_bytes"] += link.stats.bytes
            out["net.link_drops"] += link.stats.drops
        cluster = self.cluster
        for host in cluster.hosts.values() if cluster else ():
            out["runtime.windows_sent"] += host.windows_sent
            out["runtime.windows_received"] += host.windows_received
            out["runtime.rx_drops"] += host.node.stats.drops
        for node in cluster.switches.values() if cluster else ():
            stats = node.switch.stats
            hits = sum(stats.table_hits.values())
            out["pisa.packets"] += stats.packets
            out["pisa.table_hits"] += hits
            out["pisa.table_lookups"] += hits + sum(stats.table_misses.values())
            out["pisa.action_runs"] += sum(stats.action_runs.values())
            out["pisa.register_ops"] += stats.register_reads + stats.register_writes
        if self.obs is not None:
            out["obs.trace_events"] = self.obs.tracer.events_recorded
            records = self.obs.registry.get("int.records")
            if records is not None:
                out["obs.int_records"] = sum(
                    s["value"] for s in records.snapshot()["series"]
                )
        return out


#: keys of :meth:`Workload.counters`
COUNTERS = (
    "sim_time_us", "net.events", "net.link_frames", "net.link_bytes",
    "net.link_drops", "runtime.windows_sent", "runtime.windows_received",
    "runtime.rx_drops", "pisa.packets", "pisa.table_hits",
    "pisa.table_lookups", "pisa.action_runs", "pisa.register_ops",
    "obs.trace_events", "obs.int_records", "analysis.proto_states",
    "nir.instrs_o2", "p4.tables", "p4.actions",
)


# -- allreduce_star / allreduce_observed -----------------------------------


def int32_column_sums(arrays):
    """The AllReduce oracle: per-column sums wrapped to int32."""
    return [((sum(col) + 2**31) % 2**32) - 2**31 for col in zip(*arrays)]


class AllReduceStar(Workload):
    """Fig 4: four workers around one ToR, multiround kernel, -O2."""

    name = "allreduce_star"
    WORKERS, DATA_LEN, WINDOW = 4, 256, 8
    ops_per_batch = WORKERS * DATA_LEN // WINDOW  # result windows delivered
    watchdog_us = 100.0

    def make_obs(self):
        return None

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.obs = self.make_obs()
        self.job = AllReduceJob(
            self.WORKERS, self.DATA_LEN, self.WINDOW, multiround=True, obs=self.obs
        )
        self.cluster = self.job.cluster
        self.net = self.cluster.network
        self.pool = [
            [
                [rng.randrange(-2**31, 2**31) for _ in range(self.DATA_LEN)]
                for _ in range(self.WORKERS)
            ]
            for _ in range(POOL)
        ]
        self.expected = [int32_column_sums(arrays) for arrays in self.pool]
        self.results = None

    def batch(self, i: int) -> None:
        self.results, _ = self.job.run_round(self.pool[i % POOL])

    def check(self, i: int) -> int:
        expected = self.expected[i % POOL]
        w = self.WINDOW
        return sum(
            result[s:s + w] != expected[s:s + w]
            for result in self.results
            for s in range(0, self.DATA_LEN, w)
        )


class AllReduceObserved(AllReduceStar):
    """allreduce_star with the observer on: bounded tracer, INT, profiler."""

    name = "allreduce_observed"

    def make_obs(self):
        return Observability(
            tracer=Tracer(retain=4096),
            int_config=IntConfig(max_hops=8),
            profiler=Profiler(),
        )


# -- kvs_mixed -------------------------------------------------------------


def zipf_counts(n_ranks: int, skew: float, total: int):
    """How often each popularity rank occurs in *total* draws of a
    Zipf(skew) stream, rounded by largest remainder so the counts sum
    to *total* exactly."""
    weights = [rank ** -skew for rank in range(1, n_ranks + 1)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(
        range(n_ranks), key=lambda r: counts[r] - weights[r] * scale
    )
    for r in by_remainder[: total - sum(counts)]:
        counts[r] += 1
    return counts


class KvsMixed(Workload):
    """Fig 5: two clients, a 24-slot cache over 256 keys, zipf 0.9 key
    popularity, every 10th op a PUT, the 24 most popular keys cached.

    The *mix* is the same for every seed -- the pool holds each
    popularity rank exactly as often as Zipf(0.9) expects, dealt evenly
    over the batches and put in one fixed order, with the PUTs at fixed
    places (a GET that follows a PUT of its key in the same batch
    misses the cache, so order is work) -- so every seed does the same
    amount of work; the seed picks which key has which rank, and the
    values.

    Keys are split between the clients by parity, so every op on a key
    travels one FIFO path and the reply order per key is the issue
    order; that is what lets a plain dict replay be the oracle.
    """

    name = "kvs_mixed"
    CLIENTS, CACHE, VAL_WORDS, KEYS, SKEW = 2, 24, 4, 256, 0.9
    ops_per_batch = 128
    watchdog_us = 1000.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.kvs = KvsCluster(
            n_clients=self.CLIENTS, cache_size=self.CACHE,
            val_words=self.VAL_WORDS, n_keys=self.KEYS,
        )
        self.cluster = self.kvs.cluster
        self.net = self.cluster.network

        def words():
            return [rng.getrandbits(32) for _ in range(self.VAL_WORDS)]

        #: the oracle: key -> last value PUT (or the seeded initial value)
        self.model = {key: words() for key in range(self.KEYS)}
        self.kvs.store = {key: list(value) for key, value in self.model.items()}
        key_of_rank = rng.sample(range(self.KEYS), self.KEYS)
        self.kvs.install_hot_keys(key_of_rank[: self.CACHE])
        counts = zipf_counts(self.KEYS, self.SKEW, POOL * self.ops_per_batch)
        ranks = [rank for rank, count in enumerate(counts) for _ in range(count)]
        #: per batch: (key, value to PUT or None for a GET)
        self.pool = []
        order = random.Random(0)  # not the seed: the mix is fixed
        for b in range(POOL):
            batch_ranks = ranks[b::POOL]
            order.shuffle(batch_ranks)
            self.pool.append([
                (key_of_rank[rank], words() if j % 10 == 9 else None)
                for j, rank in enumerate(batch_ranks)
            ])

    def batch(self, i: int) -> None:
        kvs = self.kvs
        for key, value in self.pool[i % POOL]:
            if value is None:
                kvs.get(key & 1, key)
            else:
                kvs.put(key & 1, key, value)
        kvs.run()

    def check(self, i: int) -> int:
        completed = defaultdict(deque)
        for record in self.kvs.records:
            completed[record.key].append(record)
        self.kvs.records.clear()
        failed = 0
        for key, value in self.pool[i % POOL]:
            if value is not None:
                self.model[key] = value
            record = completed[key].popleft() if completed[key] else None
            if (
                record is None
                or record.op != ("GET" if value is None else "PUT")
                or record.value != self.model[key]
                or record.latency * 1e6 > self.watchdog_us
            ):
                failed += 1
        return failed + sum(len(extra) for extra in completed.values())


# -- fattree_forward -------------------------------------------------------


def derangement(rng: random.Random, n: int):
    while True:
        perm = rng.sample(range(n), n)
        if all(perm[i] != i for i in range(n)):
            return perm


class FattreeForward(Workload):
    """Bare forwarding on a k=8 fat-tree: every host paces 32
    minimum-size NCP frames at its partner in another pod, so every
    packet crosses 6 links and 5 switches whatever the seed; the seed
    picks which pod sends to which and pairs the hosts."""

    name = "fattree_forward"
    K, PACKETS_PER_HOST, INTERVAL = 8, 32, 2e-6
    ops_per_batch = (K**3 // 4) * PACKETS_PER_HOST
    watchdog_us = 1000.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        topo = fat_tree(self.K)
        self.net = topo.build()
        self.hosts = [self.net.host(name) for name in topo.hosts]
        # One 55-byte frame per destination, encoded once: the forwarding
        # tier routes on the header dst, the codec stays out of the batch.
        layout = KernelLayout(1, "push", [ChunkLayout("x", 1, 8, False)])
        self.frames = [
            encode_frame(layout, 0, host.node_id, 0, [[7]]) for host in self.hosts
        ]
        self.delivered = [0] * len(self.hosts)
        for index, host in enumerate(self.hosts):
            host.receiver = self._receiver(index)
        #: per batch: destination host index of every source host
        self.pool = [self._inter_pod_permutation(rng) for _ in range(POOL)]

    def _inter_pod_permutation(self, rng: random.Random):
        per_pod = len(self.hosts) // self.K  # hosts are in pod-major order
        perm = []
        for dst_pod in derangement(rng, self.K):
            perm.extend(rng.sample(range(dst_pod * per_pod, (dst_pod + 1) * per_pod), per_pod))
        return perm

    def _receiver(self, index: int):
        delivered = self.delivered

        def receive(_data: bytes) -> None:
            delivered[index] += 1

        return receive

    def _sender(self, host, frame: bytes, dst_id: int):
        left = self.PACKETS_PER_HOST
        schedule, interval = self.net.sim.schedule, self.INTERVAL

        def send() -> None:
            nonlocal left
            host.transmit(frame, dst_id)
            left -= 1
            if left:
                schedule(interval, send, label="bench;inject")

        return send

    def batch(self, i: int) -> None:
        hosts, n = self.hosts, len(self.hosts)
        schedule = self.net.sim.schedule
        for src, dst in enumerate(self.pool[i % POOL]):
            # staggered starts, so injectors do not fire in lockstep
            schedule(
                src * (self.INTERVAL / n),
                self._sender(hosts[src], self.frames[dst], hosts[dst].node_id),
                label="bench;inject",
            )
        self.net.run()

    def check(self, i: int) -> int:
        # a permutation: every destination is owed exactly one sender's quota
        failed = sum(abs(self.PACKETS_PER_HOST - got) for got in self.delivered)
        self.delivered[:] = [0] * len(self.delivered)
        return failed


# -- toolchain -------------------------------------------------------------

#: (frozen source, defines, windows, AND spec) -- the deploy programs use
#: the configurations multi_tenant.deploy maps onto the fabric
PROGRAMS = (
    ("parity.ncl", None, None, None),
    ("stats.ncl", None, None, None),
    ("fig4_allreduce.ncl", None, None, None),
    ("fig5_kvs.ncl", None, None, None),
    (
        "deploy/allreduce.ncl",
        {"DATA_LEN": 64, "WIN_LEN": 8},
        {"allreduce": WindowConfig(mask=(8,), ext={"len": 8})},
        "deploy/allreduce.and",
    ),
    (
        "deploy/kvs.ncl",
        {"CACHE_SIZE": 64, "VAL_WORDS": 4, "SERVER": 1},
        {"query": WindowConfig(mask=(1, 4, 1))},
        "deploy/kvs.and",
    ),
    (
        "deploy/dedup.ncl",
        {"FILTER_BITS": 1024},
        {"dedup": WindowConfig(mask=(1, 4))},
        "deploy/dedup.and",
    ),
)


class Toolchain(Workload):
    """One sweep takes each frozen program from source to verdicts
    (compile -O2, lint, check-proto, artifact round trip), then checks
    the frozen multi-tenant deployment.  The seed orders the sweep."""

    name = "toolchain"
    ops_per_batch = len(PROGRAMS)

    def __init__(self, seed: int):
        self.expected = json.loads((BENCH / "expected" / "toolchain.json").read_text())
        self.programs = [
            (
                name,
                (INPUTS / name).read_text(),
                defines,
                windows,
                (INPUTS / and_name).read_text() if and_name else None,
            )
            for name, defines, windows, and_name in PROGRAMS
        ]
        random.Random(seed).shuffle(self.programs)
        manifest = INPUTS / self.expected["deployment"]["manifest"]
        # parsing the manifest compiles its tenants: the deploy step
        self.deployment = parse_deployment(
            manifest.read_text(), manifest.name, base_dir=str(manifest.parent)
        )
        self.outputs = []
        self.deploy_report = None
        self.counts = dict.fromkeys(
            ("analysis.proto_states", "nir.instrs_o2", "p4.tables", "p4.actions"), 0
        )
        self.stage_s = Counter()
        self.compiles = 0

    def batch(self, i: int) -> None:
        self.outputs = []
        for name, source, defines, windows, and_text in self.programs:
            program = Compiler(opt_level=2).compile(
                source, and_text=and_text, windows=windows, defines=defines,
                filename=name,
            )
            lint = lint_source(source, name, defines=defines, and_text=and_text)
            proto = ProtoContext(program)
            run_checks(proto)
            render_report_json(proto)
            artifact = program.to_json()
            loaded = CompiledProgram.from_json(artifact)
            self.outputs.append((name, program, lint, proto, artifact, loaded))
        self.deploy_report = render_deploy_report(check_deployment(self.deployment))

    def check(self, i: int) -> int:
        failed = 0
        for name, program, lint, proto, artifact, loaded in self.outputs:
            want = self.expected["programs"][name]
            results = proto.model_results()
            verdicts = {
                f"{kernel}@{label}": result.verdict
                for (label, kernel), result in results.items()
            }
            if (
                len(lint.sink) != want["lint_diagnostics"]
                or len(proto.sink) != want["proto_diagnostics"]
                or verdicts != want["verdicts"]
                or loaded.to_json() != artifact
            ):
                failed += 1
            self.counts["analysis.proto_states"] += sum(
                r.states_explored for r in results.values()
            )
            for module in program.switch_modules.values():
                self.counts["nir.instrs_o2"] += sum(
                    ir_size(fn) for fn in module.functions.values()
                )
            for p4 in program.switch_programs.values():
                self.counts["p4.tables"] += len(p4.tables)
                self.counts["p4.actions"] += len(p4.actions)
            self.stage_s.update(program.stage_times)
            self.compiles += 1
        want = self.expected["deployment"]
        report = json.loads(self.deploy_report)
        if (
            report["admissible"] != want["admissible"]
            or len(report["diagnostics"]) != want["diagnostics"]
            or {t["name"]: t["replay_safety"] for t in report["tenants"]}
            != want["replay_safety"]
        ):
            # an inadmissible fabric voids every program of the sweep
            failed = self.ops_per_batch
        return failed

    def counters(self) -> dict:
        return {**super().counters(), **self.counts}


WORKLOADS = {
    cls.name: cls
    for cls in (AllReduceStar, KvsMixed, FattreeForward, Toolchain, AllReduceObserved)
}
