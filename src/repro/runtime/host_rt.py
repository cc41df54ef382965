"""libncrt's host side: kernel invocation, windowing, and delivery.

This implements the paper's two host APIs (S4.1):

* the **data-centric** API -- :meth:`NclHost.out` consumes whole arrays,
  splitting them into windows per the kernel's compiled mask and putting
  every window on the wire ("resembling a send() in a loop");
* the **window-level** API -- :meth:`NclHost.out_window` sends one
  window, "a building block for richer interfaces".

On the receive path, incoming windows are matched to the outgoing kernel
that produced them (NCP carries the kernel id) and dispatched to the
paired ``_net_ _in_`` kernel registered via :meth:`NclHost.register_in`;
the incoming kernel runs in the NIR interpreter with the window chunks
and the caller's ``_ext_`` buffers as arguments. Raw window handlers are
available for application roles that are not plain receivers (e.g. the
KVS storage server answering GET misses).

:class:`HostProgram` is the host binary on top: the program's own host
code (``main()``) driving an :class:`NclHost` through the ``ncl::`` calls.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ReproError, RuntimeApiError
from repro.ncl.types import PointerType
from repro.nclc.driver import CompiledProgram
from repro.ncp.fragment import (
    FRAG_KERNEL_BIT,
    Reassembler,
    fragment_frame,
    fragment_index,
    is_fragment,
)
from repro.ncp.window import Window, Windower
from repro.ncp.wire import decode_frame, encode_frame
from repro.net.frame import Frame
from repro.net.node import HostNode
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.obs.int import (
    IntError,
    attach_tail,
    carries_int,
    record_stack_metrics,
    stack_event_args,
    strip_stack,
)
from repro.obs.registry import BoundSeries, FamilySpec
from repro.obs.trace import fields

WindowHandler = Callable[[Window, "NclHost"], None]

_WINDOWS = FamilySpec(
    "counter", "ncp.windows", "window lifecycle events, by kernel",
    ("host", "kernel", "event"),
)
_RETX_TRACKED = FamilySpec(
    "gauge", "ncp.retx_tracked",
    "in-flight (kernel, seq) retransmission attempt entries", ("host",),
)
_FRAGMENTS = FamilySpec(
    "counter", "ncp.fragments", "NCP fragments, by direction", ("host", "event")
)
_RX_DROPS = FamilySpec(
    "counter", "ncp.rx_drops", "frames dropped at delivery, by cause",
    ("host", "cause"),
)

#: the args of a host's window events, in order (obs.trace.fields)
_SEND_ARGS = ("kernel", "kernel_id", "seq", "from", "attempt", "dst", "bytes", "last")
_RECV_ARGS = ("kernel", "kernel_id", "seq", "from", "last")
_RUN_ARGS = ("kernel", "seq")


class _InRegistration:
    def __init__(
        self, kernel: ir.Function, by_ref: List[bool], ext_args: List,
        on_window: Optional[WindowHandler],
    ):
        self.kernel = kernel
        #: per data parameter: a pointer takes its chunk, a scalar the one element
        self.by_ref = by_ref
        self.ext_args = ext_args
        self.on_window = on_window
        self.windows_received = 0


class NclHost:
    """One application endpoint, bound to a simulated host node."""

    def __init__(
        self,
        node: HostNode,
        program: CompiledProgram,
        and_node_id: Optional[int] = None,
        mtu: Optional[int] = None,
    ):
        self.node = node
        self.program = program
        # Multi-packet windows (S6 future work): frames above the MTU are
        # fragmented; switches forward fragments without executing kernels.
        self.mtu = mtu
        self._reassembler = Reassembler()
        # When deployed onto a mapped physical network, the runtime speaks
        # with its AND (overlay) identity rather than the physical node id.
        self._and_node_id = and_node_id
        self.layout_by_id = {
            layout.kernel_id: layout for layout in program.layouts.values()
        }
        # Host-side memory: host globals of the translation unit.
        self.state = DeviceState()
        for ref in program.ref_module.globals.values():
            if ref.space == "host":
                init = ref.init if ref.init is not None else [0] * ref.total_elements
                values = list(init)
                if len(values) < ref.total_elements:
                    values.extend([0] * (ref.total_elements - len(values)))
                self.state.arrays[ref.name] = values
        self._interp = Interpreter(program.ref_module, self.state, program.lowered)
        self._in_regs: Dict[str, _InRegistration] = {}
        self._raw_handlers: Dict[str, WindowHandler] = {}
        self.inbox: Dict[str, List[Window]] = {}
        self.windows_sent = 0
        self.windows_received = 0
        self.windows_retransmitted = 0
        #: retransmission attempt counters by (kernel, seq)
        self._retx_attempts: Dict[tuple, int] = {}
        #: the registry series this host publishes into, bound on first use
        self._series = BoundSeries()
        # The Frame object carries the header parse cached along the
        # packet path, so delivery re-parses nothing the network already
        # looked at.
        node.frame_receiver = self._on_frame

    # -- observability ----------------------------------------------------------

    @property
    def _obs(self):
        return self.node.sim.obs

    def _window_count(self, obs, event: str, kernel: str) -> None:
        """Window lifecycle counter: open (cut from an array by the
        windower), flush (framed and put on the wire), recv (decoded at
        a host), retransmit (re-flushed by :meth:`retransmit_window`)."""
        self._series[obs.registry, _WINDOWS, self.node.name, kernel, event].inc()

    def _retx_gauge(self, obs) -> None:
        """Live size of the retransmission-attempt table. Entries are
        evicted when a window of the same (kernel, seq) is delivered
        back, so a steadily climbing gauge means responses are not
        coming home (or the transport never completes its windows)."""
        self._series[obs.registry, _RETX_TRACKED, self.node.name].set(
            len(self._retx_attempts)
        )

    @cached_property
    def _node_labels(self) -> Dict[int, str]:
        """AND node id -> label, for annotating INT hop records."""
        return {
            node.node_id: label for label, node in self.program.and_spec.nodes.items()
        }

    # -- address helpers --------------------------------------------------------

    def _node_id_of(self, dst: Union[str, int]) -> int:
        if isinstance(dst, int):
            return dst
        return self.program.and_spec.node(dst).node_id

    @property
    def node_id(self) -> int:
        if self._and_node_id is not None:
            return self._and_node_id
        return self.node.node_id

    # -- outgoing path ---------------------------------------------------------------

    def out(
        self,
        kernel: str,
        arrays: Sequence[Sequence[int]],
        dst: Union[str, int, None] = None,
        ext: Optional[Mapping[str, int]] = None,
    ) -> int:
        """Invoke an outgoing kernel on whole arrays (data-centric API).

        ``dst`` may be omitted when the kernel is pinned with ``_at_`` --
        windows are then addressed to that switch and the kernel's own
        forwarding decisions take over (Fig 4's ``ncl::out`` passes no
        destination). Returns the number of windows sent.
        """
        dst = self._resolve_dst(kernel, dst)
        config = self._config(kernel)
        ext_values = self._ext_values(kernel, ext)
        windower = Windower(config.mask)
        before = self.windows_sent
        obs = self._obs
        for window in windower.split(arrays, ext=ext_values, from_node=self.node_id):
            if obs.enabled:
                self._window_count(obs, "open", kernel)
            self._send_window(kernel, window, dst)
            self.windows_sent += 1  # per window: a later one may raise
        return self.windows_sent - before

    def out_window(
        self,
        kernel: str,
        seq: int,
        chunks: Sequence[Sequence[int]],
        dst: Union[str, int],
        ext: Optional[Mapping[str, int]] = None,
        last: bool = False,
    ) -> None:
        """Send a single window (the finer-grained invocation API)."""
        ext_values = self._ext_values(kernel, ext)
        window = Window(seq, chunks, ext=ext_values, last=last, from_node=self.node_id)
        self._send_window(kernel, window, dst)
        self.windows_sent += 1

    def _resolve_dst(self, kernel: str, dst: Union[str, int, None]) -> Union[str, int]:
        if dst is not None:
            return dst
        fn = self.program.ref_module.functions.get(kernel)
        if fn is not None and fn.kind is ir.FunctionKind.OUT_KERNEL and fn.at_label is not None:
            return fn.at_label
        # Fig 4's ncl::out passes no destination: windows are addressed to
        # the first-hop switch and the kernel's forwarding takes over.
        label = self._node_labels.get(self.node_id)
        if label is not None:
            neighbors = self.program.and_spec.neighbors(label)
            switch_neighbors = [
                n for n in neighbors if self.program.and_spec.node(n).is_switch
            ]
            if len(switch_neighbors) == 1:
                return switch_neighbors[0]
        raise RuntimeApiError(
            f"kernel {kernel!r} has no unambiguous destination; pass dst "
            "explicitly (a host label for end-to-end transfers, or a switch)"
        )

    def _config(self, kernel: str):
        config = self.program.window_configs.get(kernel)
        if config is None:
            raise RuntimeApiError(f"{kernel!r} is not a compiled outgoing kernel")
        return config

    def _ext_values(self, kernel: str, ext: Optional[Mapping[str, int]]) -> Dict[str, int]:
        config = self._config(kernel)
        values = dict(config.ext)
        for name, value in (ext or {}).items():
            if name not in values:
                raise RuntimeApiError(
                    f"unknown window extension field {name!r} for kernel {kernel!r}"
                )
            if value != values[name]:
                raise RuntimeApiError(
                    f"window field {name!r}={value} differs from the compiled "
                    f"value {values[name]}; switch code was specialized for the "
                    "compiled window geometry"
                )
        return values

    def retransmit_window(
        self,
        kernel: str,
        window: Window,
        dst: Union[str, int],
    ) -> int:
        """Re-send a window that is presumed lost (the building block for
        reliable transports layered over NCP). Each retransmission of a
        (kernel, seq) gets an increasing attempt number, which rides in
        the INT trailer so the lineage index shows every attempt as a
        distinct branch with its own per-hop records. Returns the attempt
        number used."""
        key = (kernel, window.seq)
        attempt = self._retx_attempts.get(key, 0) + 1
        self._retx_attempts[key] = attempt
        obs = self._obs
        if obs.enabled:
            self._window_count(obs, "retransmit", kernel)
            self._retx_gauge(obs)
        self._send_window(kernel, window, dst, attempt=attempt)
        self.windows_retransmitted += 1
        return attempt

    def _send_window(
        self,
        kernel: str,
        window: Window,
        dst: Union[str, int],
        attempt: int = 0,
    ) -> None:
        layout = self.program.layouts[kernel]
        dst_node = self._node_id_of(dst)
        frame = encode_frame(
            layout, self.node_id, dst_node, window.seq, window.chunks, window.ext,
            window.last, window.from_node,
        )
        obs = self._obs
        int_cfg = obs.int_config
        if obs.enabled:
            self._window_count(obs, "flush", kernel)
            obs.tracer.instant(
                "window:send" if attempt == 0 else "window:retransmit",
                self.node.sim.now(), self.node.track, "ncp",
                (
                    fields, _SEND_ARGS, kernel, layout.kernel_id, window.seq,
                    window.from_node, attempt, dst if dst.__class__ is str else str(dst),
                    len(frame), int(window.last),
                ),
            )
        if self.mtu is not None and len(frame) > self.mtu:
            pieces = fragment_frame(frame, self.mtu)
            if obs.enabled:
                sent = self._series[obs.registry, _FRAGMENTS, self.node.name, "sent"]
                sent.inc(len(pieces))
            if int_cfg is not None:
                # Fragment first, then arm: every fragment travels alone,
                # so every fragment collects its own per-hop stack.
                pieces = [attach_tail(p, attempt) for p in pieces]
            for piece in pieces:
                self.node.transmit(piece, dst_node)
            return
        if int_cfg is not None:
            frame = attach_tail(frame, attempt)
        self.node.transmit(frame, dst_node)

    # -- incoming path ------------------------------------------------------------------

    def register_in(
        self,
        in_kernel: str,
        ext_args: Sequence = (),
        on_window: Optional[WindowHandler] = None,
    ) -> None:
        """Arm an incoming kernel (``ncl::in``). ``ext_args`` bind the
        kernel's ``_ext_`` parameters: pass mutable sequences (lists,
        numpy arrays) for pointers."""
        functions = self.program.ref_module.functions
        fn = functions.get(in_kernel)
        if fn is None or fn.kind is not ir.FunctionKind.IN_KERNEL:
            raise RuntimeApiError(f"{in_kernel!r} is not an incoming kernel")
        paired = self.program.pairs.get(in_kernel)
        if paired is None:
            raise RuntimeApiError(f"{in_kernel!r} has no paired outgoing kernel")
        n_ext = sum(param.ext for param in fn.params)
        if len(ext_args) != n_ext:
            raise RuntimeApiError(
                f"{in_kernel!r} takes {n_ext} _ext_ arguments, got {len(ext_args)}"
            )
        by_ref = [
            isinstance(param.ty, PointerType)
            for param in functions[paired].params if not param.ext
        ]
        self._in_regs[paired] = _InRegistration(fn, by_ref, list(ext_args), on_window)

    def on_raw_window(self, out_kernel: str, handler: WindowHandler) -> None:
        """Receive raw windows of an outgoing kernel (application roles
        that are not simple receivers -- e.g. a storage server)."""
        if out_kernel not in self.program.layouts:
            raise RuntimeApiError(f"{out_kernel!r} is not a compiled kernel")
        self._raw_handlers[out_kernel] = handler

    def _on_frame(self, frame: Frame) -> None:
        """Delivery (bound to ``node.frame_receiver``).  The decoder's
        lists become the window's as they are."""
        data = frame.data
        obs = self._obs
        if carries_int(data):
            try:
                data = self._strip_int(obs, frame)
            except IntError:
                self._rx_drop(obs, "int", len(data))
                return
        if is_fragment(data):
            reassembler = self._reassembler
            evicted, held = reassembler.evicted, reassembler.evicted_bytes
            try:
                complete = reassembler.feed(data)
            except ReproError:
                self._rx_drop(obs, "reassembly", len(data))
                return
            if reassembler.evicted != evicted:  # a pending window made room for this one
                self._rx_drop(obs, "reassembly", reassembler.evicted_bytes - held)
            if complete is None:
                return
            if obs.enabled:
                self._series[obs.registry, _FRAGMENTS, self.node.name, "reassembled"].inc()
            data = complete
        try:
            frame = decode_frame(data, self.layout_by_id)
        except ReproError:
            self._rx_drop(obs, "decode", len(data))
            return
        self.windows_received += 1
        kernel_name = self.program.kernel_by_id[frame.kernel_id]
        # A window of this (kernel, seq) made it back: the exchange is
        # complete, so drop its retransmission-attempt entry. Without
        # this the table grows one entry per retransmitted window for
        # the lifetime of the host.
        if self._retx_attempts.pop((kernel_name, frame.seq), None) is not None:
            if obs.enabled:
                self._retx_gauge(obs)
        if obs.enabled:
            self._window_count(obs, "recv", kernel_name)
            obs.tracer.instant(
                "window:recv", self.node.sim.now(), self.node.track, "ncp",
                (
                    fields, _RECV_ARGS, kernel_name, frame.kernel_id, frame.seq,
                    frame.from_node, int(frame.last),
                ),
            )
        window = Window(frame.seq, frame.chunks, frame.ext, frame.last, frame.from_node)
        raw = self._raw_handlers.get(kernel_name)
        if raw is not None:
            raw(window, self)
            return
        reg = self._in_regs.get(kernel_name)
        if reg is not None:
            self._run_in_kernel(reg, window)
            return
        self.inbox.setdefault(kernel_name, []).append(window)

    def _strip_int(self, obs, frame: Frame) -> bytes:
        """Strip the INT trailer at delivery: emit the per-hop stack as
        an ``int:stack`` trace event (the lineage index's raw material)
        and fold it into the registry.  The header peek is read off the
        in-flight Frame (the trailer sits after the payload, so it is
        the bare frame's too), and only when there is a stack to name."""
        bare, stack = strip_stack(frame.data)
        meta = frame.meta if stack is not None and obs.enabled else None
        if meta is None:
            return bare
        frag = None
        kernel_id = meta["kernel"]
        if kernel_id & FRAG_KERNEL_BIT:
            kernel_id &= ~FRAG_KERNEL_BIT
            frag = fragment_index(bare)
        now = self.node.sim.now()
        obs.tracer.instant(
            "int:stack", now, self.node.track, "int",
            (
                stack_event_args, stack, kernel_id, meta["seq"], meta["from"],
                "delivered", frag, self._node_labels,
            ),
        )
        record_stack_metrics(self._series, obs.registry, self.node.name, stack, now)
        return bare

    def _run_in_kernel(self, reg: _InRegistration, window: Window) -> None:
        args = [c if by_ref else c[0] for by_ref, c in zip(reg.by_ref, window.chunks)]
        args += reg.ext_args
        ctx = WindowContext(window.meta(), args, self.node_id)
        obs = self._obs
        if obs.enabled:
            obs.tracer.instant(
                "kernel:run", self.node.sim.now(), self.node.track, "ncp",
                (fields, _RUN_ARGS, reg.kernel.name, window.seq),
            )
        self._interp.run(reg.kernel, ctx)
        reg.windows_received += 1
        if reg.on_window is not None:
            reg.on_window(window, self)

    def _rx_drop(self, obs, cause: str, nbytes: int) -> None:
        """A delivered frame this host cannot use -- a malformed INT
        trailer (``int``), a fragment that does not reassemble or whose
        window was evicted incomplete (``reassembly``), bytes that do not
        decode (``decode``) -- ends here as one counted, cause-labelled drop."""
        self.node.stats.drops += 1
        if obs.enabled:
            self._series[obs.registry, _RX_DROPS, self.node.name, cause].inc()
        self.node.trace_drop("ncp", cause, nbytes)

    def received_count(self, in_kernel: str) -> int:
        reg = self._in_regs.get(self.program.pairs.get(in_kernel))
        return reg.windows_received if reg else 0


class HostProgram:
    """The host binary of the paper's dual pipeline (Fig 4: one NCL file
    holds the kernels and ``main()``): runs a function of the program's
    host module on the generated NIR executor against one deployed
    host's memory, with the runtime calls bound to the live cluster:

    * ``ncl::ctrl_wr(&var, value [, index])``, ``ncl::map_insert(&map,
      k, v)``, ``ncl::map_erase(&map, k)`` -> the controller;
    * ``ncl::out(kernel, {arrays...} [, "dst"])`` -> :meth:`NclHost.out`,
      a scalar standing for a one-element array; returns the windows sent;
    * ``ncl::in(kernel, {args...})`` -> arms the incoming kernel on first
      use (the trailing arguments bind its ``_ext_`` parameters), then
      co-simulates until its next window has been handled; returns the
      windows received so far, and raises when the network goes idle first.

    ``program`` may be replaced (e.g. by a per-rank compile) between runs.
    """

    def __init__(self, cluster, host_label: str):
        self.cluster = cluster
        self.program: CompiledProgram = cluster.program
        self.host: NclHost = cluster.host(host_label)
        self._interp: Optional[Interpreter] = None
        self._registered_in: set = set()

    def run(self, fn_name: str = "main", args: Optional[Sequence] = None):
        error = self.program.host_errors.get(fn_name)
        if error is not None:
            raise RuntimeApiError(f"host function {fn_name!r} does not run: {error}")
        module = self.program.host_module
        fn = module.functions.get(fn_name) if module is not None else None
        if fn is None or not fn.blocks:
            raise RuntimeApiError(f"no host function {fn_name!r} to run")
        if self._interp is None or self._interp.module is not module:
            lowered = {
                extern: self._bind(*extern.name.split(" ", 2))
                for extern in module.functions.values()
                if not extern.blocks
            }
            self._interp = Interpreter(module, self.host.state, lowered)
        return self._interp.run(fn, WindowContext({}, list(args or []))).ret

    def _bind(self, call: str, kernel: str = "", dst: Optional[str] = None):
        """The executor-shaped function a runtime call's extern stands for."""
        host, sim, controller = self.host, self.cluster.sim, self.cluster.controller
        if call in ("ncl::ctrl_wr", "ncl::map_insert", "ncl::map_erase"):
            method = getattr(controller, call[len("ncl::"):])

            def control(state, meta, args, loc, labels):
                method(*args)
                return ir.FwdKind.PASS, None, None

            return control
        if call == "ncl::out":

            def out(state, meta, args, loc, labels):
                arrays = [[a] if isinstance(a, int) else a for a in args]
                return ir.FwdKind.PASS, None, host.out(kernel, arrays, dst=dst)

            return out
        if call != "ncl::in":
            raise RuntimeApiError(f"unknown runtime call {call!r}")

        def in_(state, meta, args, loc, labels):
            if kernel not in self._registered_in:  # (register_in vets the kernel)
                fn = self.program.ref_module.functions.get(kernel)
                n_ext = sum(param.ext for param in fn.params) if fn is not None else 0
                host.register_in(kernel, args[-n_ext:] if n_ext else [])
                self._registered_in.add(kernel)
            before = host.received_count(kernel)
            while host.received_count(kernel) == before:
                if not sim.step():
                    raise RuntimeApiError(
                        f"ncl::in({kernel}): the network is idle and no window is "
                        f"coming ({before} received so far)"
                    )
            return ir.FwdKind.PASS, None, host.received_count(kernel)

        return in_
