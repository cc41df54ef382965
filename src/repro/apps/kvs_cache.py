"""In-network KVS cache (the paper's Fig 5 use case, NetCache-style).

A ToR switch between clients and a storage server caches hot items:

* client **GET**: on a valid cache hit the switch writes the value into
  the window and ``_reflect()``\\ s it straight back -- the request never
  reaches the server; misses pass through to the server, which answers
  with a response window the switch forwards untouched (Fig 5 line 15);
* client **PUT**: the switch invalidates the cached copy and the window
  continues to the server (write-through invalidation);
* **server update**: the server re-populates a cache slot with the same
  kernel (``update`` windows from the server are absorbed by the
  switch);
* the ``Idx`` Map is control-plane managed: the server assigns cache
  slots and installs key->slot entries through ``ncl::map_insert``
  (paper: "the map is implemented as a MAT under the hood, which is
  only managed by the control plane").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeApiError
from repro.apps.workloads import value_words
from repro.ncp.window import Window
from repro.nclc import Compiler, WindowConfig
from repro.runtime import Cluster
from repro.runtime.host_rt import NclHost

KVS_NCL = r"""
// In-network KVS cache -- paper Fig 5 (GET, PUT), parameterized.
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, CACHE_SIZE> Idx;
_net_ _at_("s1") unsigned Cache[CACHE_SIZE][VAL_WORDS] = {{0}};
_net_ _at_("s1") bool Valid[CACHE_SIZE] = {false};

_net_ _out_ void query(uint64_t key, unsigned *val, bool update) {
  if (window.from != SERVER && update) {            // client PUT
    if (auto *idx = Idx[key]) Valid[*idx] = false;
  } else if (window.from != SERVER) {               // client GET
    if (auto *idx = Idx[key]) {
      if (Valid[*idx]) {                            // hit
        memcpy(val, Cache[*idx], VAL_WORDS * 4); _reflect(); } }
  } else if (update) {                              // server update
    if (auto *idx = Idx[key]) {
      memcpy(Cache[*idx], val, VAL_WORDS * 4);
      Valid[idx] = true; }
    _drop();
  } else { }                                        // server GET response
}
"""


def kvs_and(n_clients: int) -> str:
    lines = [f"host c{i}" for i in range(n_clients)]
    lines.append("host server")
    lines.append("switch s1")
    lines.extend(f"link c{i} s1" for i in range(n_clients))
    lines.append("link server s1")
    return "\n".join(lines)


class OpRecord:
    """One completed client operation."""

    __slots__ = ("op", "key", "issued", "completed", "served_by_cache", "value")

    def __init__(self, op: str, key: int, issued: float):
        self.op = op
        self.key = key
        self.issued = issued
        self.completed: Optional[float] = None
        self.served_by_cache = False
        self.value: Optional[List[int]] = None

    @property
    def latency(self) -> float:
        if self.completed is None:
            raise RuntimeApiError(f"{self.op}({self.key}) never completed")
        return self.completed - self.issued

    def __repr__(self) -> str:
        where = "cache" if self.served_by_cache else "server"
        return f"OpRecord({self.op} {self.key} via {where})"


class KvsCluster:
    """Deployed in-network KVS: clients, storage server, caching ToR."""

    def __init__(
        self,
        n_clients: int = 1,
        cache_size: int = 256,
        val_words: int = 8,
        n_keys: int = 1024,
        profile: Optional[str] = None,
        bandwidth: float = 10e9,
        latency: float = 5e-6,
        server_delay: float = 50e-6,
        program=None,
        obs=None,
    ):
        self.n_clients = n_clients
        self.cache_size = cache_size
        self.val_words = val_words
        self.server_delay = server_delay
        server_id = n_clients  # AND ids assign in declaration order
        # A precompiled program (e.g. loaded from a repro.nclc/2
        # artifact) skips the frontend and the NIR pipeline.
        self.program = program or self.compile_program(
            n_clients, cache_size, val_words, profile=profile
        )
        self.cluster = Cluster.from_program(
            self.program, bandwidth=bandwidth, latency=latency, obs=obs
        )
        self.server_id = server_id
        self.server = self.cluster.host("server")
        self.clients = [self.cluster.host(f"c{i}") for i in range(n_clients)]
        # Server-side store and cache bookkeeping.
        self.store: Dict[int, List[int]] = {
            k: value_words(k, val_words) for k in range(n_keys)
        }
        self.cached_slots: Dict[int, int] = {}  # key -> cache index
        self._next_slot = 0
        self.server_ops = 0
        self._pending: Dict[Tuple[int, int], OpRecord] = {}  # (client, seq) -> op
        self._client_seq = [0] * n_clients
        self.records: List[OpRecord] = []
        self.server.on_raw_window("query", self._server_window)
        for i, client in enumerate(self.clients):
            client.on_raw_window("query", self._make_client_handler(i))

    @staticmethod
    def compile_program(
        n_clients: int = 1,
        cache_size: int = 256,
        val_words: int = 8,
        profile: Optional[str] = None,
        opt_level: int = 2,
        cache=None,
    ):
        """The Fig 5 :class:`~repro.nclc.driver.CompiledProgram`, standalone
        -- save it as an artifact and feed it back via ``program=``."""
        compiler = Compiler(profile=profile, opt_level=opt_level, cache=cache)
        return compiler.compile(
            KVS_NCL,
            and_text=kvs_and(n_clients),
            windows={"query": WindowConfig(mask=(1, val_words, 1))},
            defines={
                "CACHE_SIZE": cache_size,
                "VAL_WORDS": val_words,
                "SERVER": n_clients,
            },
        )

    # -- cache management (control plane + server updates) --------------------

    def install_hot_keys(self, keys: Sequence[int]) -> None:
        """Admit *keys* into the cache: Map entries via the control plane,
        values via server update windows."""
        for key in keys:
            if key in self.cached_slots:
                continue
            if len(self.cached_slots) >= self.cache_size:
                raise RuntimeApiError("cache is full")
            slot = self._next_slot
            self._next_slot += 1
            self.cached_slots[key] = slot
            self.cluster.controller.map_insert("Idx", key, slot)
            self._push_value(key)
        self.cluster.run()

    def evict(self, key: int) -> None:
        """Paper S4.3: "for a cache eviction, the storage server just
        removes an item from the Idx map"."""
        if key in self.cached_slots:
            self.cluster.controller.map_erase("Idx", key)
            del self.cached_slots[key]

    def _push_value(self, key: int) -> None:
        """Server update window re-populating the cache slot for *key*."""
        self.server.out_window(
            "query",
            seq=0,
            chunks=[[key], list(self.store[key]), [1]],
            dst="s1",
        )

    # -- server role ----------------------------------------------------------------

    def _server_window(self, window: Window, host: NclHost) -> None:
        key = window.chunks[0][0]
        update = bool(window.chunks[2][0])
        client_id = window.from_node
        self.server_ops += 1

        def respond(value: List[int]) -> None:
            host.out_window(
                "query",
                seq=window.seq,
                chunks=[[key], value, [0]],
                dst=client_id,
            )

        def work() -> None:
            if update:
                self.store[key] = list(window.chunks[1])
                if key in self.cached_slots:
                    self._push_value(key)  # write-through re-population
                respond(self.store[key])
            else:
                respond(self.store.get(key, [0] * self.val_words))

        host.node.sim.schedule(
            self.server_delay, work,
            label=f"host;{host.node.name};kvs-server",
        )

    # -- client role ------------------------------------------------------------------

    def _make_client_handler(self, client_index: int):
        def handler(window: Window, host: NclHost) -> None:
            record = self._pending.pop((client_index, window.seq), None)
            if record is None:
                return
            record.completed = self.cluster.now()
            # Reflected hits still carry the client's own id in `from`.
            record.served_by_cache = window.from_node != self.server_id
            record.value = list(window.chunks[1])
            self.records.append(record)

        return handler

    def get(self, client: int, key: int) -> None:
        self._issue(client, key, update=False, value=[0] * self.val_words)

    def put(self, client: int, key: int, value: Sequence[int]) -> None:
        self._issue(client, key, update=True, value=list(value))

    def _issue(self, client: int, key: int, update: bool, value: List[int]) -> None:
        seq = self._client_seq[client]
        self._client_seq[client] = (seq + 1) & 0xFFFFFFFF
        record = OpRecord("PUT" if update else "GET", key, self.cluster.now())
        self._pending[(client, seq)] = record
        self.clients[client].out_window(
            "query",
            seq=seq,
            chunks=[[key], value, [1 if update else 0]],
            dst="server",
        )

    # -- driving ----------------------------------------------------------------------

    def run(self) -> None:
        self.cluster.run()

    def run_workload(
        self, client: int, keys: Sequence[int], put_every: int = 0
    ) -> List[OpRecord]:
        """Issue a key sequence from one client (GETs, with an optional PUT
        every *put_every* ops) and drive the simulation to completion."""
        start = len(self.records)
        for i, key in enumerate(keys):
            if put_every and i % put_every == put_every - 1:
                self.put(client, key, value_words(key ^ 0xDEAD, self.val_words))
            else:
                self.get(client, key)
        self.run()
        return self.records[start:]

    # -- metrics ---------------------------------------------------------------------

    def hit_ratio(self) -> float:
        gets = [r for r in self.records if r.op == "GET"]
        if not gets:
            return 0.0
        return sum(1 for r in gets if r.served_by_cache) / len(gets)

    def mean_latency(self, op: Optional[str] = None, cache_only: Optional[bool] = None):
        records = [
            r
            for r in self.records
            if (op is None or r.op == op)
            and (cache_only is None or r.served_by_cache == cache_only)
        ]
        if not records:
            return None
        return sum(r.latency for r in records) / len(records)
