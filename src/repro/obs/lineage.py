"""Causal packet lineage: every window's life, reconstructed per hop.

The trace (:mod:`repro.obs.trace`) is a flat event log; the INT stacks
(:mod:`repro.obs.int`) are per-packet hop records scattered across it.
This module folds both into a **lineage index**: for every
``(kernel_id, seq)`` window it reconstructs the causal graph

    emit -> [fragments ->] per-hop INT records -> delivery at a host
         -> retransmit attempts (distinct branches)
         -> or a drop, with the cause and the partial stack at death

keyed the way an operator asks questions ("what happened to window 3 of
the aggregate kernel?"). A window has one **branch** per ``from_node``
(an AllReduce window exists once per worker plus once as the broadcast
result) and one **attempt** per (re)transmission of that branch; INT
stacks carry the attempt number on the wire, so a retransmission's hop
records never blur into the original's.

Everything is plain data built from the virtual clock, so
:meth:`LineageIndex.to_json` is byte-identical across identical runs;
:meth:`LineageIndex.from_json` round-trips it for offline querying
(``python -m repro.obs.query``).
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError

#: kernel-id bit marking NCP fragments (mirrors repro.ncp.fragment,
#: duplicated here so lineage can read traces without the transport)
_FRAG_KERNEL_BIT = 0x8000

_NS = 1e9

#: the event kinds the index folds; no other event's args are read
_FOLDED = frozenset(
    ("window:send", "window:retransmit", "int:stack", "window:recv", "drop")
)


class LineageError(ReproError):
    """Malformed lineage input (unknown window, bad JSON schema ...)."""


class Attempt:
    """One (re)transmission of a window branch.

    ``number`` 0 is the original send; retransmissions count up. The
    attempt collects every observation made of its packets: the send
    event, INT stacks surfaced at delivery or at a drop site, plain
    window:recv deliveries, and non-INT drop events attributed by time.
    """

    __slots__ = ("number", "kind", "sent_ts", "dst", "bytes", "stacks",
                 "deliveries", "drops")

    def __init__(self, number: int, kind: str = "send",
                 sent_ts: Optional[float] = None,
                 dst: Optional[str] = None, nbytes: Optional[int] = None):
        self.number = number
        self.kind = kind  # 'send' | 'retransmit'
        self.sent_ts = sent_ts
        self.dst = dst
        self.bytes = nbytes
        #: INT stacks observed for this attempt: dicts with ts, site,
        #: outcome, hops, and optional frag/truncated
        self.stacks: List[Dict[str, object]] = []
        #: window:recv events (post-reassembly decode at a host)
        self.deliveries: List[Dict[str, object]] = []
        #: drops without an INT stack (non-INT runs), by cause
        self.drops: List[Dict[str, object]] = []

    @property
    def outcome(self) -> str:
        """``delivered``, ``drop:<cause>``, or ``in-flight``."""
        if self.deliveries or any(
            s["outcome"] == "delivered" for s in self.stacks
        ):
            return "delivered"
        for stack in self.stacks:
            outcome = str(stack["outcome"])
            if outcome.startswith("drop:"):
                return outcome
        if self.drops:
            return f"drop:{self.drops[0]['cause']}"
        return "in-flight"

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "attempt": self.number,
            "kind": self.kind,
            "outcome": self.outcome,
        }
        if self.sent_ts is not None:
            d["sent_ts"] = self.sent_ts
        if self.dst is not None:
            d["dst"] = self.dst
        if self.bytes is not None:
            d["bytes"] = self.bytes
        if self.stacks:
            d["stacks"] = self.stacks
        if self.deliveries:
            d["deliveries"] = self.deliveries
        if self.drops:
            d["drops"] = self.drops
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Attempt":
        attempt = cls(
            int(d["attempt"]), str(d.get("kind", "send")),
            d.get("sent_ts"), d.get("dst"), d.get("bytes"),
        )
        attempt.stacks = list(d.get("stacks", ()))
        attempt.deliveries = list(d.get("deliveries", ()))
        attempt.drops = list(d.get("drops", ()))
        return attempt


class Branch:
    """All attempts of one ``from_node``'s copy of a window."""

    __slots__ = ("from_node", "label", "attempts")

    def __init__(self, from_node: int, label: Optional[str] = None):
        self.from_node = from_node
        self.label = label
        self.attempts: Dict[int, Attempt] = {}

    def attempt(self, number: int) -> Attempt:
        a = self.attempts.get(number)
        if a is None:
            a = Attempt(number, "send" if number == 0 else "retransmit")
            self.attempts[number] = a
        return a

    def latest_sent_before(self, ts: float) -> Attempt:
        """The attempt a timestamp-only observation belongs to: the last
        one put on the wire at or before ``ts`` (attempt 0 if none has a
        send event -- the trace may predate attempt tracking)."""
        best: Optional[Attempt] = None
        for a in self.attempts.values():
            if a.sent_ts is not None and a.sent_ts <= ts:
                if best is None or a.sent_ts > best.sent_ts:  # type: ignore[operator]
                    best = a
        return best if best is not None else self.attempt(0)

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "from": self.from_node,
            "attempts": [
                self.attempts[n].as_dict() for n in sorted(self.attempts)
            ],
        }
        if self.label is not None:
            d["label"] = self.label
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Branch":
        branch = cls(int(d["from"]), d.get("label"))
        for ad in d.get("attempts", ()):
            attempt = Attempt.from_dict(ad)
            branch.attempts[attempt.number] = attempt
        return branch


class WindowLineage:
    """The full causal record of one ``(kernel_id, seq)`` window."""

    __slots__ = ("kernel_id", "kernel", "seq", "branches")

    def __init__(self, kernel_id: int, seq: int, kernel: Optional[str] = None):
        self.kernel_id = kernel_id
        self.kernel = kernel  # source-level kernel name, when known
        self.seq = seq
        self.branches: Dict[int, Branch] = {}

    def branch(self, from_node: int) -> Branch:
        b = self.branches.get(from_node)
        if b is None:
            b = Branch(from_node)
            self.branches[from_node] = b
        return b

    # -- derived views ---------------------------------------------------------

    def first_sent_ts(self) -> Optional[float]:
        times = [
            a.sent_ts
            for b in self.branches.values()
            for a in b.attempts.values()
            if a.sent_ts is not None
        ]
        return min(times) if times else None

    def last_delivery_ts(self) -> Optional[float]:
        times: List[float] = []
        for b in self.branches.values():
            for a in b.attempts.values():
                times.extend(float(d["ts"]) for d in a.deliveries)
                times.extend(
                    float(s["ts"]) for s in a.stacks
                    if s["outcome"] == "delivered"
                )
        return max(times) if times else None

    def latency(self) -> Optional[float]:
        """First emit to last delivery (None until delivered)."""
        start, end = self.first_sent_ts(), self.last_delivery_ts()
        if start is None or end is None:
            return None
        return end - start

    def drop_records(self) -> List[Tuple[Branch, Attempt, Dict[str, object]]]:
        out = []
        for fn in sorted(self.branches):
            branch = self.branches[fn]
            for n in sorted(branch.attempts):
                attempt = branch.attempts[n]
                for stack in attempt.stacks:
                    if str(stack["outcome"]).startswith("drop:"):
                        out.append((branch, attempt, stack))
                for drop in attempt.drops:
                    out.append((branch, attempt, drop))
        return out

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "kernel_id": self.kernel_id,
            "seq": self.seq,
            "branches": [
                self.branches[fn].as_dict() for fn in sorted(self.branches)
            ],
        }
        if self.kernel is not None:
            d["kernel"] = self.kernel
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "WindowLineage":
        window = cls(int(d["kernel_id"]), int(d["seq"]), d.get("kernel"))
        for bd in d.get("branches", ()):
            branch = Branch.from_dict(bd)
            window.branches[branch.from_node] = branch
        return window


class LineageIndex:
    """Every window of a run, queryable by (kernel, seq).

    Build from a live tracer (:meth:`from_events`), from a saved trace
    JSONL, or from a previously written lineage JSON.
    """

    SCHEMA = "repro.lineage/1"

    def __init__(self) -> None:
        self.windows: Dict[Tuple[int, int], WindowLineage] = {}
        #: hop id -> human label, merged from every annotated event
        self.node_names: Dict[int, str] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable) -> "LineageIndex":
        """Fold trace events (TraceEvent objects or their JSONL dicts)
        into a lineage index. Events without a window identity are
        ignored; fragment kernel ids are mapped back to their kernel."""
        index = cls()
        for event in events:
            is_dict = isinstance(event, dict)
            name = event.get("name") if is_dict else event.name
            if name not in _FOLDED:
                continue  # and its args stay unread (unformatted, in a live trace)
            if is_dict:
                ts = event.get("ts")
                track = event.get("track", "")
                args = event.get("args") or {}
            else:
                ts = event.ts
                track = event.track
                args = event.args or {}
            if name == "int:stack":
                index._fold_stack(float(ts), track, args)
            elif name == "window:recv":
                index._fold_recv(float(ts), track, args)
            elif name == "drop":
                index._fold_drop(float(ts), track, args)
            else:  # window:send / window:retransmit
                index._fold_send(name, float(ts), track, args)
        return index

    @classmethod
    def from_jsonl(cls, spec) -> "LineageIndex":
        """Fold a trace straight off disk, streaming line by line --
        ``spec`` is a trace file, a shard directory, a shard manifest,
        or a sharded sink's base path (anything
        :func:`repro.obs.sinks.resolve_trace_paths` accepts). Memory
        stays O(windows), never O(events): no shard is loaded whole."""
        from repro.obs.sinks import iter_trace_events

        return cls.from_events(iter_trace_events(spec))

    def _window(self, kernel_id: int, seq: int,
                kernel: Optional[str] = None) -> WindowLineage:
        key = (kernel_id, seq)
        window = self.windows.get(key)
        if window is None:
            window = WindowLineage(kernel_id, seq, kernel)
            self.windows[key] = window
        elif window.kernel is None and kernel is not None:
            window.kernel = kernel
        return window

    @staticmethod
    def _host_label(track: str) -> Optional[str]:
        return track[5:] if track.startswith("host ") else None

    def _fold_send(self, name: str, ts: float, track: str, args: Dict) -> None:
        kernel_id = args.get("kernel_id")
        if kernel_id is None or "seq" not in args or "from" not in args:
            return
        window = self._window(int(kernel_id), int(args["seq"]),
                              kernel=args.get("kernel"))
        branch = window.branch(int(args["from"]))
        if branch.label is None:
            branch.label = self._host_label(track)
        attempt = branch.attempt(int(args.get("attempt", 0)))
        attempt.kind = "send" if name == "window:send" else "retransmit"
        attempt.sent_ts = ts
        attempt.dst = args.get("dst")
        attempt.bytes = args.get("bytes")

    def _fold_stack(self, ts: float, track: str, args: Dict) -> None:
        # int:stack carries the *numeric* kernel id in "kernel".
        kernel_id = int(args["kernel"]) & ~_FRAG_KERNEL_BIT
        window = self._window(kernel_id, int(args["seq"]))
        branch = window.branch(int(args["from"]))
        attempt = branch.attempt(int(args.get("attempt", 0)))
        record: Dict[str, object] = {
            "ts": ts,
            "site": track,
            "outcome": args["outcome"],
            "hops": list(args.get("hops", ())),
        }
        if args.get("truncated"):
            record["truncated"] = 1
        if "frag" in args:
            record["frag"] = args["frag"]
        attempt.stacks.append(record)
        for hop in record["hops"]:  # type: ignore[union-attr]
            if "node" in hop:
                self.node_names[int(hop["hop"])] = str(hop["node"])

    def _fold_recv(self, ts: float, track: str, args: Dict) -> None:
        kernel_id = args.get("kernel_id")
        if kernel_id is None or "seq" not in args or "from" not in args:
            return
        window = self._window(int(kernel_id), int(args["seq"]),
                              kernel=args.get("kernel"))
        branch = window.branch(int(args["from"]))
        attempt = branch.latest_sent_before(ts)
        host = self._host_label(track) or track
        attempt.deliveries.append({"ts": ts, "host": host})

    def _fold_drop(self, ts: float, track: str, args: Dict) -> None:
        # Link/host drop instants; INT-carrying frames also emit an
        # int:stack at the drop site, so only keep stack-less drops.
        if "kernel" not in args or "seq" not in args or "from" not in args:
            return
        kernel = args["kernel"]
        if not isinstance(kernel, int):
            return
        window = self._window(kernel & ~_FRAG_KERNEL_BIT, int(args["seq"]))
        branch = window.branch(int(args["from"]))
        attempt = branch.latest_sent_before(ts)
        if any(str(s["outcome"]).startswith("drop:") for s in attempt.stacks):
            return
        attempt.drops.append({
            "ts": ts,
            "site": track,
            "cause": args.get("cause", "unknown"),
        })

    # -- queries ---------------------------------------------------------------

    def window(self, kernel: Union[int, str], seq: int) -> WindowLineage:
        """Look up one window; ``kernel`` is a numeric id or a name."""
        if isinstance(kernel, str) and kernel.isdigit():
            kernel = int(kernel)
        if isinstance(kernel, int):
            found = self.windows.get((kernel, seq))
        else:
            found = next(
                (w for w in self.windows.values()
                 if w.kernel == kernel and w.seq == seq),
                None,
            )
        if found is None:
            known = ", ".join(
                f"{k}:{s}" for k, s in sorted(self.windows)
            ) or "(none)"
            raise LineageError(
                f"no lineage for window {kernel}:{seq}; known windows: {known}"
            )
        return found

    def slowest(self, top: int = 10) -> List[WindowLineage]:
        """Delivered windows by emit-to-delivery latency, worst first."""
        timed = [
            (w.latency(), key) for key, w in self.windows.items()
            if w.latency() is not None
        ]
        timed.sort(key=lambda t: (-t[0], t[1]))
        return [self.windows[key] for _, key in timed[:top]]

    def drops(self) -> List[Tuple[WindowLineage, Branch, Attempt, Dict]]:
        """Every drop in the run, in (kernel, seq) order."""
        out = []
        for key in sorted(self.windows):
            window = self.windows[key]
            for branch, attempt, record in window.drop_records():
                out.append((window, branch, attempt, record))
        return out

    def hop_latencies(self) -> List[Dict[str, object]]:
        """Per-hop-record latencies (ns) across all delivered stacks --
        hop *i* is ingress-to-next-ingress; the last hop runs to the
        stack's delivery timestamp (matching ``int.hop_latency_ns``)."""
        out: List[Dict[str, object]] = []
        for key in sorted(self.windows):
            window = self.windows[key]
            for fn in sorted(window.branches):
                branch = window.branches[fn]
                for n in sorted(branch.attempts):
                    attempt = branch.attempts[n]
                    for stack in attempt.stacks:
                        if stack["outcome"] != "delivered":
                            continue
                        hops = stack["hops"]
                        if not hops:
                            continue
                        deliver_ns = int(round(float(stack["ts"]) * _NS))
                        for rec, nxt in zip(hops, hops[1:]):
                            out.append(self._hop_entry(
                                window, attempt, rec,
                                int(nxt["ingress_ns"]) - int(rec["ingress_ns"]),
                            ))
                        last = hops[-1]
                        out.append(self._hop_entry(
                            window, attempt, last,
                            deliver_ns - int(last["ingress_ns"]),
                        ))
        return out

    def _hop_entry(self, window: WindowLineage, attempt: Attempt,
                   rec: Dict, latency_ns: int) -> Dict[str, object]:
        return {
            "kernel_id": window.kernel_id,
            "kernel": window.kernel,
            "seq": window.seq,
            "attempt": attempt.number,
            "hop": rec["hop"],
            "node": self.node_names.get(int(rec["hop"])),
            "qdepth": rec["qdepth"],
            "latency_ns": latency_ns,
        }

    # -- human-readable explanation --------------------------------------------

    def node_label(self, node_id: int) -> str:
        name = self.node_names.get(node_id)
        return f"{name} (#{node_id})" if name else f"#{node_id}"

    def explain(self, kernel: Union[int, str], seq: int) -> str:
        """The full causal story of one window, as indented text."""
        window = self.window(kernel, seq)
        kname = window.kernel or f"#{window.kernel_id}"
        lines = [f"window {kname}:{window.seq} (kernel_id={window.kernel_id})"]
        for fn in sorted(window.branches):
            branch = window.branches[fn]
            origin = branch.label or self.node_names.get(fn)
            origin = f"{origin} (node {fn})" if origin else f"node {fn}"
            lines.append(f"  branch from {origin}")
            for n in sorted(branch.attempts):
                lines.extend(self._explain_attempt(branch.attempts[n]))
        return "\n".join(lines)

    def _explain_attempt(self, attempt: Attempt) -> List[str]:
        head = f"    attempt {attempt.number} ({attempt.kind})"
        if attempt.sent_ts is not None:
            head += f"  emit t={attempt.sent_ts * 1e6:.3f}us"
        if attempt.dst is not None:
            head += f" -> {attempt.dst}"
        if attempt.bytes is not None:
            head += f"  {attempt.bytes}B"
        lines = [head]
        for stack in sorted(attempt.stacks,
                            key=lambda s: (s["ts"], str(s.get("frag", "")))):
            frag = f" frag {stack['frag']}" if "frag" in stack else ""
            for hop in stack["hops"]:
                label = self.node_label(int(hop["hop"]))
                dropped = " DROPPED" if int(hop.get("flags", 0)) & 0x01 else ""
                lines.append(
                    f"      hop {label}:{frag} ingress={hop['ingress_ns']}ns "
                    f"egress={hop['egress_ns']}ns qdepth={hop['qdepth']}B "
                    f"tables={hop['tables']}{dropped}"
                )
            outcome = str(stack["outcome"])
            ts_us = float(stack["ts"]) * 1e6
            if outcome == "delivered":
                lines.append(
                    f"      delivered at {stack['site']}{frag} t={ts_us:.3f}us"
                )
            elif outcome == "drop:switch":
                lines.append(
                    f"      consumed at {stack['site']}{frag} t={ts_us:.3f}us "
                    "(kernel verdict: drop -- e.g. aggregated in-network)"
                )
            else:
                lines.append(
                    f"      dropped at {stack['site']}{frag} t={ts_us:.3f}us "
                    f"({outcome})"
                )
            if stack.get("truncated"):
                lines.append("      (stack truncated: hop cap/byte budget hit)")
        for drop in attempt.drops:
            lines.append(
                f"      dropped at {drop['site']} "
                f"t={float(drop['ts']) * 1e6:.3f}us (cause: {drop['cause']})"
            )
        for delivery in attempt.deliveries:
            lines.append(
                f"      window decoded at host {delivery['host']} "
                f"t={float(delivery['ts']) * 1e6:.3f}us"
            )
        if attempt.outcome == "in-flight":
            lines.append("      (no delivery or drop observed: in flight "
                         "at end of trace)")
        return lines

    # -- (de)serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Pure data, deterministically ordered: byte-identical across
        identical runs once serialized with sorted keys."""
        return {
            "schema": self.SCHEMA,
            "nodes": {
                str(k): self.node_names[k] for k in sorted(self.node_names)
            },
            "windows": [
                self.windows[key].as_dict() for key in sorted(self.windows)
            ],
        }

    def write_json(self, fp: IO[str]) -> None:
        json.dump(self.to_json(), fp, sort_keys=True, indent=1)
        fp.write("\n")

    @classmethod
    def from_json(cls, obj: Dict[str, object]) -> "LineageIndex":
        if obj.get("schema") != cls.SCHEMA:
            raise LineageError(
                f"unsupported lineage schema {obj.get('schema')!r} "
                f"(expected {cls.SCHEMA!r})"
            )
        index = cls()
        for k, name in obj.get("nodes", {}).items():  # type: ignore[union-attr]
            index.node_names[int(k)] = str(name)
        for wd in obj.get("windows", ()):  # type: ignore[union-attr]
            window = WindowLineage.from_dict(wd)
            index.windows[(window.kernel_id, window.seq)] = window
        return index
