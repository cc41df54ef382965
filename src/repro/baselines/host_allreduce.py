"""Host-only AllReduce baselines (no in-network compute).

Two classical schemes run over the same simulated star topology, with
the ToR switch doing plain L3 forwarding (a
:class:`~repro.net.node.ForwardingSwitchNode`):

* **parameter server** -- every worker ships its array to one PS host,
  which sums and unicasts the result back to each worker. The PS's
  single link carries ~2*N*size bytes: the incast bottleneck in-network
  aggregation removes.
* **ring all-reduce** -- bandwidth-optimal host-side scheme: 2(N-1)
  chunked steps around a logical ring; each worker link carries
  ~2*size bytes, but the scheme needs 2(N-1) serialized steps, so
  latency grows with N.

Both reuse the NCP frame codec purely as a convenient chunked wire
format (a standalone transfer layout with its own kernel id); the switch
executes nothing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.ncp.wire import ChunkLayout, KernelLayout, decode_frame, encode_frame
from repro.net.network import Network
from repro.net.node import HostNode

#: pseudo kernel id for plain (non-INC) transfers
XFER_KERNEL_ID = 0x7F00


def transfer_layout(window_len: int) -> KernelLayout:
    return KernelLayout(
        XFER_KERNEL_ID,
        "xfer",
        [ChunkLayout("data", window_len, 32, signed=True)],
        ext_fields=[("tag", 32, False)],
    )


class _Endpoint:
    """A host endpoint exchanging chunked int32 arrays."""

    def __init__(self, node: HostNode, layout: KernelLayout):
        self.node = node
        self.layout = layout
        self.on_window = None
        node.receiver = self._receive

    def _receive(self, data: bytes) -> None:
        frame = decode_frame(data, {self.layout.kernel_id: self.layout})
        if self.on_window is not None:
            self.on_window(frame)

    def send_array(self, array: Sequence[int], dst: int, tag: int = 0) -> None:
        w = self.layout.chunks[0].count
        if len(array) % w:
            raise SimulationError("array not window-aligned")
        total = len(array) // w
        for seq in range(total):
            self.send_window(array[seq * w : (seq + 1) * w], dst, seq, tag, seq == total - 1)

    def send_window(
        self, chunk: Sequence[int], dst: int, seq: int, tag: int = 0, last: bool = False
    ) -> None:
        frame = encode_frame(
            self.layout,
            src_node=self.node.node_id,
            dst_node=dst,
            seq=seq,
            chunks=[list(chunk)],
            ext_values={"tag": tag},
            last=last,
        )
        self.node.transmit(frame, dst)


def _wrap32(v: int) -> int:
    return ((v + 2**31) % 2**32) - 2**31


class ParameterServerAllReduce:
    """N workers + 1 PS behind a plain forwarding ToR."""

    def __init__(
        self,
        n_workers: int,
        data_len: int,
        window_len: int = 8,
        bandwidth: float = 10e9,
        latency: float = 1e-6,
    ):
        if data_len % window_len:
            raise SimulationError("data_len must be a multiple of window_len")
        self.n_workers = n_workers
        self.data_len = data_len
        self.window_len = window_len
        self.net = Network()
        self.workers = [self.net.add_host(f"w{i}") for i in range(n_workers)]
        self.ps = self.net.add_host("ps")
        self.net.add_forwarding_switch("tor")
        for host in self.workers + [self.ps]:
            self.net.add_link(host.name, "tor", latency=latency, bandwidth=bandwidth)
        self.net.compute_routes()
        self.layout = transfer_layout(window_len)
        self.worker_eps = [_Endpoint(w, self.layout) for w in self.workers]
        self.ps_ep = _Endpoint(self.ps, self.layout)

    def run(self, arrays: Sequence[Sequence[int]]) -> Tuple[List[List[int]], float]:
        n, length, w = self.n_workers, self.data_len, self.window_len
        slots = length // w
        sums = [0] * length
        contrib = [0] * slots
        results = [[0] * length for _ in range(n)]
        done = [0] * n

        def ps_window(frame) -> None:
            base = frame.seq * w
            for i, v in enumerate(frame.chunks[0]):
                sums[base + i] = _wrap32(sums[base + i] + v)
            contrib[frame.seq] += 1
            if contrib[frame.seq] == n:
                for worker in range(n):
                    self.ps_ep.send_window(
                        sums[base : base + w],
                        self.workers[worker].node_id,
                        frame.seq,
                        last=frame.seq == slots - 1,
                    )

        def make_worker_handler(idx: int):
            def handler(frame) -> None:
                base = frame.seq * w
                results[idx][base : base + w] = frame.chunks[0]
                if frame.last:
                    done[idx] = 1

            return handler

        self.ps_ep.on_window = ps_window
        for i, ep in enumerate(self.worker_eps):
            ep.on_window = make_worker_handler(i)

        start = self.net.sim.now()
        for i, array in enumerate(arrays):
            self.worker_eps[i].send_array(list(array), self.ps.node_id)
        self.net.run()
        if not all(done):
            raise SimulationError("parameter-server all-reduce did not complete")
        return results, self.net.sim.now() - start


class RingAllReduce:
    """Bandwidth-optimal host ring all-reduce behind a plain ToR.

    Classic two-phase schedule: N-1 reduce-scatter steps then N-1
    all-gather steps, each worker exchanging one 1/N-sized segment per
    step with its ring neighbor. Steps are synchronized per segment via
    window tags.
    """

    def __init__(
        self,
        n_workers: int,
        data_len: int,
        window_len: int = 8,
        bandwidth: float = 10e9,
        latency: float = 1e-6,
    ):
        if n_workers < 2:
            raise SimulationError("ring all-reduce needs >= 2 workers")
        if data_len % (n_workers * window_len):
            raise SimulationError(
                "data_len must be a multiple of n_workers * window_len"
            )
        self.n = n_workers
        self.data_len = data_len
        self.window_len = window_len
        self.net = Network()
        self.workers = [self.net.add_host(f"w{i}") for i in range(n_workers)]
        self.net.add_forwarding_switch("tor")
        for host in self.workers:
            self.net.add_link(host.name, "tor", latency=latency, bandwidth=bandwidth)
        self.net.compute_routes()
        self.layout = transfer_layout(window_len)
        self.eps = [_Endpoint(w, self.layout) for w in self.workers]

    def run(self, arrays: Sequence[Sequence[int]]) -> Tuple[List[List[int]], float]:
        n, w = self.n, self.window_len
        seg_len = self.data_len // n
        seg_windows = seg_len // w
        buffers = [list(map(int, a)) for a in arrays]
        # step state per worker: how many steps completed
        steps_done = [0] * n
        total_steps = 2 * (n - 1)
        pending_windows = [0] * n

        def segment_of(step: int, rank: int, gather: bool) -> int:
            # standard ring schedule
            if not gather:
                return (rank - step + n) % n
            return (rank - step + 1 + n) % n

        def send_step(rank: int) -> None:
            step = steps_done[rank]
            if step >= total_steps:
                return
            gather = step >= n - 1
            local_step = step if not gather else step - (n - 1)
            seg = segment_of(local_step, rank, gather)
            base = seg * seg_len
            dst = self.workers[(rank + 1) % n].node_id
            pending_windows[(rank + 1) % n] += seg_windows
            for i in range(seg_windows):
                chunk = buffers[rank][base + i * w : base + (i + 1) * w]
                # tag encodes (step, segment) so the receiver can fold it in
                tag = (step << 16) | seg
                self.eps[rank].send_window(
                    chunk, dst, seq=base // w + i, tag=tag, last=i == seg_windows - 1
                )

        def make_handler(rank: int):
            def handler(frame) -> None:
                step = frame.ext["tag"] >> 16
                gather = step >= n - 1
                base = frame.seq * w
                if not gather:
                    for i, v in enumerate(frame.chunks[0]):
                        buffers[rank][base + i] = _wrap32(buffers[rank][base + i] + v)
                else:
                    buffers[rank][base : base + w] = frame.chunks[0]
                pending_windows[rank] -= 1
                if frame.last:
                    steps_done[rank] = step + 1
                    send_step(rank)

            return handler

        for rank, ep in enumerate(self.eps):
            ep.on_window = make_handler(rank)
        start = self.net.sim.now()
        for rank in range(n):
            send_step(rank)
        self.net.run()
        if any(s != total_steps for s in steps_done):
            raise SimulationError(
                f"ring all-reduce incomplete: steps {steps_done}"
            )
        return buffers, self.net.sim.now() - start
