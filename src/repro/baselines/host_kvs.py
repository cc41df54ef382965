"""Host-only KVS baseline: every query goes to the storage server.

Same topology and wire format as :class:`repro.apps.kvs_cache.KvsCluster`
but the ToR is a plain forwarding switch -- no in-network cache. This is
the system NetCache (and Fig 5) improves on: all load lands on the
server, and every GET pays the full client->server RTT plus the server's
service time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.kvs_cache import OpRecord
from repro.apps.workloads import value_words
from repro.ncp.wire import ChunkLayout, KernelLayout, decode_frame, encode_frame
from repro.net.network import Network

KVS_XFER_ID = 0x7F01


class HostOnlyKvs:
    def __init__(
        self,
        n_clients: int = 1,
        val_words: int = 8,
        n_keys: int = 1024,
        bandwidth: float = 10e9,
        latency: float = 5e-6,
        server_delay: float = 50e-6,
    ):
        self.val_words = val_words
        self.server_delay = server_delay
        self.net = Network()
        self.clients = [self.net.add_host(f"c{i}") for i in range(n_clients)]
        self.server = self.net.add_host("server")
        self.net.add_forwarding_switch("tor")
        for host in self.clients + [self.server]:
            self.net.add_link(host.name, "tor", latency=latency, bandwidth=bandwidth)
        self.net.compute_routes()
        self.layout = KernelLayout(
            KVS_XFER_ID,
            "kv_xfer",
            [
                ChunkLayout("key", 1, 64, signed=False),
                ChunkLayout("val", val_words, 32, signed=False),
                ChunkLayout("update", 1, 8, signed=False),
            ],
        )
        self.store: Dict[int, List[int]] = {
            k: value_words(k, val_words) for k in range(n_keys)
        }
        self.server_ops = 0
        self.records: List[OpRecord] = []
        self._pending: Dict[Tuple[int, int], OpRecord] = {}
        self._client_seq = [0] * n_clients
        self.server.receiver = self._server_frame
        for i, client in enumerate(self.clients):
            client.receiver = self._make_client_receiver(i)

    # -- server -----------------------------------------------------------------

    def _server_frame(self, data: bytes) -> None:
        frame = decode_frame(data, {KVS_XFER_ID: self.layout})
        self.server_ops += 1
        key = frame.chunks[0][0]
        update = bool(frame.chunks[2][0])
        client_node = frame.from_node

        def work() -> None:
            if update:
                self.store[key] = list(frame.chunks[1])
            value = self.store.get(key, [0] * self.val_words)
            response = encode_frame(
                self.layout,
                src_node=self.server.node_id,
                dst_node=client_node,
                seq=frame.seq,
                chunks=[[key], value, [0]],
            )
            self.server.transmit(response, client_node)

        self.net.sim.schedule(
            self.server_delay, work, label=f"host;{self.server.name};kvs-server"
        )

    # -- clients -----------------------------------------------------------------

    def _make_client_receiver(self, index: int):
        def receive(data: bytes) -> None:
            frame = decode_frame(data, {KVS_XFER_ID: self.layout})
            record = self._pending.pop((index, frame.seq), None)
            if record is None:
                return
            record.completed = self.net.sim.now()
            record.served_by_cache = False
            record.value = list(frame.chunks[1])
            self.records.append(record)

        return receive

    def get(self, client: int, key: int) -> None:
        self._issue(client, key, False, [0] * self.val_words)

    def put(self, client: int, key: int, value: Sequence[int]) -> None:
        self._issue(client, key, True, list(value))

    def _issue(self, client: int, key: int, update: bool, value: List[int]) -> None:
        seq = self._client_seq[client]
        self._client_seq[client] = (seq + 1) & 0xFFFFFFFF
        record = OpRecord("PUT" if update else "GET", key, self.net.sim.now())
        self._pending[(client, seq)] = record
        frame = encode_frame(
            self.layout,
            src_node=self.clients[client].node_id,
            dst_node=self.server.node_id,
            seq=seq,
            chunks=[[key], value, [1 if update else 0]],
        )
        self.clients[client].transmit(frame, self.server.node_id)

    # -- driving / metrics ----------------------------------------------------------

    def run_workload(self, client: int, keys: Sequence[int]) -> List[OpRecord]:
        start = len(self.records)
        for key in keys:
            self.get(client, key)
        self.net.run()
        return self.records[start:]

    def mean_latency(self) -> Optional[float]:
        if not self.records:
            return None
        return sum(r.latency for r in self.records) / len(self.records)
