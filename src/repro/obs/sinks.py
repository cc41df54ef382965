"""Streaming trace sinks and deterministic sampling policies.

PR 1's tracer keeps every event in one Python list, which is fine for a
benchmark round and fatal for a fat-tree run pushing millions of
packets: the observer OOMs before the simulator does. This module is
observability phase 3's memory discipline:

* :class:`JsonlSink` -- an incremental JSONL writer that streams each
  event to disk the moment it is recorded, optionally rolling to a new
  shard every N events (plus a ``repro.tracemanifest/1`` index so
  readers find the shards); memory stays flat no matter how long the
  run is, and the sink self-accounts ``bytes_written``/
  ``events_written`` so the observer can report its own overhead;
* :class:`TraceSampler` -- deterministic **head sampling** keyed on a
  stable hash of the window identity ``(kernel, seq)`` (identical runs
  keep identical windows -- no RNG, no wall clock), composed with
  **anomaly retention**: a bounded pending buffer holds the events of
  sampled-out windows just long enough that a drop, a retransmit, or a
  slowest-percentile delivery can *promote* the window, flushing its
  full history to the output. ``query explain`` therefore still
  reconstructs every anomalous window at any sampling rate.

Sampling sits *between* the tracer's two subscriber lists: pre-sampling
sinks (``Tracer.add_sink`` -- the flight recorder) see every event;
post-sampling streams (``Tracer.add_stream`` -- these sinks) see only
what the policy keeps.

Readers: :func:`resolve_trace_paths` turns a file, shard base, manifest
or directory into the ordered shard list, and :func:`iter_jsonl` yields
parsed events line by line so lineage and the query CLI never hold a
full trace in memory.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.registry import ObservabilityError

MANIFEST_SCHEMA = "repro.tracemanifest/1"

#: kernel-id bit marking NCP fragments (mirrors repro.ncp.fragment);
#: masked off so a fragment samples with its parent window
_FRAG_KERNEL_BIT = 0x8000

#: head-sampling hash space; rate quantizes to 1/HASH_SPACE steps
_HASH_SPACE = 1_000_000

#: latency histogram bucket bounds (simulated seconds) for the
#: slowest-percentile promotion -- log-spaced from 1us to 1s
_SLOW_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 1e-1, 1.0,
)


def stable_hash(text: str) -> int:
    """64-bit FNV-1a: stable across processes, platforms and Python
    versions (``hash()`` is salted per process, so it would break the
    byte-identical-traces guarantee)."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _event_fields(event) -> Tuple[str, float, Dict]:
    """(name, ts, args) from a TraceEvent or its JSONL dict."""
    if isinstance(event, dict):
        return event.get("name", ""), event.get("ts", 0.0), event.get("args") or {}
    return event.name, event.ts, event.args or {}


def window_key(event) -> Optional[Tuple[str, int]]:
    """The sampling identity of an event: ``(kernel, seq)``.

    Numeric kernel ids are preferred (hosts carry ``kernel_id``, the
    link/switch layers carry the raw id in ``kernel``) and the fragment
    bit is masked so every fragment samples with its window. Events
    without a window identity (health alerts, decode drops, bare spans)
    return None and are never sampled out.
    """
    _, _, args = _event_fields(event)
    if "seq" not in args:
        return None
    kernel = args.get("kernel_id", args.get("kernel"))
    if kernel is None:
        return None
    if isinstance(kernel, int):
        kernel &= ~_FRAG_KERNEL_BIT
    return (str(kernel), int(args["seq"]))


class TraceSampler:
    """Deterministic head sampling + anomaly/tail retention.

    ``rate`` is the head-kept fraction of windows: a window is kept iff
    ``stable_hash(salt:kernel:seq) % 1e6 < rate * 1e6``, so identical
    runs keep identical windows and two trace consumers configured the
    same way agree without coordination.

    Sampled-out windows are not discarded immediately: their events sit
    in a FIFO **pending buffer** (bounded by ``max_pending`` windows) so
    that an anomaly can still promote the whole window:

    * a ``drop`` event or an ``int:stack`` whose outcome is a real drop
      (``drop:switch`` is in-network consumption, not an anomaly);
    * a ``window:retransmit``;
    * a delivery whose emit-to-recv latency lands in the slowest
      ``slow_percentile`` bucket of the run so far (tail sampling; the
      bucket histogram evolves identically in identical runs, so the
      promotion set is deterministic).

    Promotion flushes the buffered history and keeps every later event
    of that window. Windows that age out of the pending buffer, or are
    still pending at :meth:`drain`, count as sampled out.
    """

    def __init__(
        self,
        rate: float = 0.01,
        keep_anomalies: bool = True,
        slow_percentile: Optional[float] = None,
        max_pending: int = 4096,
        salt: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ObservabilityError(f"sampling rate {rate} outside [0, 1]")
        if slow_percentile is not None and not 0 < slow_percentile < 100:
            raise ObservabilityError(
                f"slow percentile {slow_percentile} outside (0, 100)"
            )
        if max_pending < 1:
            raise ObservabilityError("max_pending must be at least 1")
        self.rate = rate
        self.keep_anomalies = keep_anomalies
        self.slow_percentile = slow_percentile
        self.max_pending = max_pending
        self.salt = salt
        self._threshold = int(rate * _HASH_SPACE)
        self._emit = None
        #: key -> {"events": [..] or None (decided: kept), "first_ts": t}
        self._pending: "OrderedDict[Tuple[str, int], Dict]" = OrderedDict()
        self.pending_events = 0
        self._promoted: set = set()
        self._latency_counts = [0] * (len(_SLOW_BUCKETS) + 1)
        self._latency_total = 0
        # -- self-accounting
        self.events_seen = 0
        self.events_kept = 0
        self.events_sampled_out = 0
        self.windows_promoted = 0
        self.windows_sampled_out = 0
        self.late_anomalies = 0

    def bind(self, emit) -> None:
        """``emit(event)`` receives every kept event (tracer-internal)."""
        self._emit = emit

    # -- decisions -------------------------------------------------------------

    def head_keep(self, key: Tuple[str, int]) -> bool:
        """The stateless head decision for a window key."""
        if self._threshold >= _HASH_SPACE:
            return True
        if self._threshold <= 0:
            return False
        h = stable_hash(f"{self.salt}:{key[0]}:{key[1]}")
        return h % _HASH_SPACE < self._threshold

    @staticmethod
    def _is_anomaly(name: str, args: Dict) -> bool:
        if name == "drop" or name == "window:retransmit":
            return True
        if name == "int:stack":
            outcome = str(args.get("outcome", ""))
            # drop:switch is the kernel's own verdict (e.g. a window
            # aggregated in-network) -- expected, not anomalous
            return outcome.startswith("drop:") and outcome != "drop:switch"
        return False

    def _is_slow(self, latency: float) -> bool:
        """Does this delivery land in the slowest-percentile bucket set?

        Graded against the run-so-far latency histogram *before* this
        observation is folded in; needs a few observations before it can
        fire, which is the standard warm-up of any tail sampler."""
        idx = self._bucket(latency)
        self._latency_counts[idx] += 1
        self._latency_total += 1
        prior = self._latency_total - 1  # observations before this one
        if self.slow_percentile is None or prior < 8:
            return False
        # strictly-faster deliveries seen so far (the fold-in above put
        # this one in bucket idx, which is not counted as "below")
        below = sum(self._latency_counts[:idx])
        return below >= prior * self.slow_percentile / 100.0

    @staticmethod
    def _bucket(latency: float) -> int:
        for i, bound in enumerate(_SLOW_BUCKETS):
            if latency <= bound:
                return i
        return len(_SLOW_BUCKETS)

    # -- the tracer-facing hot path --------------------------------------------

    def feed(self, event) -> None:
        self.events_seen += 1
        name, ts, args = _event_fields(event)
        key = window_key(event)
        if key is None:
            # no window identity: always keep (low-volume by nature --
            # health instants, decode drops, unannotated spans)
            self._out(event)
            return
        anomaly = self.keep_anomalies and self._is_anomaly(name, args)
        entry = self._pending.get(key)
        if key in self._promoted or self.head_keep(key):
            self._out(event)
            return
        fresh = entry is None
        if fresh:
            entry = {"events": [], "first_ts": ts}
            self._pending[key] = entry
            self._evict()
        slow = (
            name == "window:recv"
            and entry["events"] is not None
            and self._is_slow(ts - entry["first_ts"])
        )
        if anomaly or slow:
            if anomaly and fresh:
                # the window's earlier events were already evicted (a
                # real trace always opens with a send): the promotion
                # keeps everything from here on, but the head is gone
                self.late_anomalies += 1
            self._promote(key, entry)
            self._out(event)
            return
        if entry["events"] is None:  # already promoted and re-buffered
            self._out(event)
            return
        entry["events"].append(event)
        self.pending_events += 1

    def _out(self, event) -> None:
        self.events_kept += 1
        if self._emit is not None:
            self._emit(event)

    def _promote(self, key: Tuple[str, int], entry: Dict) -> None:
        buffered = entry["events"]
        if buffered:
            self.pending_events -= len(buffered)
            for event in buffered:
                self._out(event)
        entry["events"] = None
        self._promoted.add(key)
        self.windows_promoted += 1

    def _evict(self) -> None:
        while len(self._pending) > self.max_pending:
            _, entry = self._pending.popitem(last=False)
            events = entry["events"]
            if events:
                self.pending_events -= len(events)
                self.events_sampled_out += len(events)
                self.windows_sampled_out += 1

    # -- end of run ------------------------------------------------------------

    def drain(self) -> None:
        """Finalize: windows still pending are sampled out for good."""
        for entry in self._pending.values():
            events = entry["events"]
            if events:
                self.pending_events -= len(events)
                self.events_sampled_out += len(events)
                self.windows_sampled_out += 1
        self._pending.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "events_seen": self.events_seen,
            "events_kept": self.events_kept,
            "events_sampled_out": self.events_sampled_out,
            "events_pending": self.pending_events,
            "windows_promoted": self.windows_promoted,
            "windows_sampled_out": self.windows_sampled_out,
            "late_anomalies": self.late_anomalies,
        }


# -- sinks ---------------------------------------------------------------------


class JsonlSink:
    """Incremental JSONL writer, optionally rolling to sharded files.

    ``JsonlSink("run.trace.jsonl")`` streams one file;
    ``JsonlSink("run.trace.jsonl", shard_events=100_000)`` writes
    ``run.trace-00000.jsonl``, ``run.trace-00001.jsonl``, ... rolling
    every ``shard_events`` events, and :meth:`close` drops a
    ``run.trace.manifest.json`` (``repro.tracemanifest/1``) listing the
    shards so readers reassemble the stream in order.

    Self-accounts ``events_written`` and ``bytes_written`` -- the
    observer's own overhead is itself observable (and budget-gated).
    """

    def __init__(self, path: Union[str, Path],
                 shard_events: Optional[int] = None) -> None:
        if shard_events is not None and shard_events < 1:
            raise ObservabilityError("shard_events must be at least 1")
        self.base = Path(path)
        self.shard_events = shard_events
        self.events_written = 0
        self.bytes_written = 0
        self._fp = None
        self._shard_idx = 0
        self._shard_count = 0
        #: [(path, events, bytes)] per closed-or-open shard, in order
        self.shards: List[List] = []
        self._closed = False

    # -- paths -----------------------------------------------------------------

    def _stem(self) -> str:
        name = self.base.name
        return name[: -len(".jsonl")] if name.endswith(".jsonl") else name

    def shard_path(self, idx: int) -> Path:
        return self.base.with_name(f"{self._stem()}-{idx:05d}.jsonl")

    def manifest_path(self) -> Path:
        return self.base.with_name(f"{self._stem()}.manifest.json")

    def paths(self) -> List[Path]:
        return [Path(s[0]) for s in self.shards]

    # -- writing ---------------------------------------------------------------

    def _roll(self) -> None:
        if self._fp is not None:
            self._fp.close()
        path = (
            self.base if self.shard_events is None
            else self.shard_path(self._shard_idx)
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fp = open(path, "w")
        self._shard_idx += 1
        self._shard_count = 0
        self.shards.append([str(path), 0, 0])

    def write(self, event) -> None:
        if self._closed:
            raise ObservabilityError("write to a closed JsonlSink")
        if self._fp is None or (
            self.shard_events is not None
            and self._shard_count >= self.shard_events
        ):
            self._roll()
        record = event if isinstance(event, dict) else event.as_dict()
        line = json.dumps(record, sort_keys=True)
        self._fp.write(line)
        self._fp.write("\n")
        nbytes = len(line) + 1
        self.events_written += 1
        self.bytes_written += nbytes
        self._shard_count += 1
        self.shards[-1][1] += 1
        self.shards[-1][2] += nbytes

    # sinks are callables too, so one can ride Tracer.add_sink directly
    __call__ = write

    def flush(self) -> None:
        if self._fp is not None:
            self._fp.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._fp is not None:
            self._fp.close()
            self._fp = None
        if self.shard_events is not None and self.shards:
            manifest = {
                "schema": MANIFEST_SCHEMA,
                "events": self.events_written,
                "bytes": self.bytes_written,
                "shards": [
                    {"path": Path(p).name, "events": ev, "bytes": by}
                    for p, ev, by in self.shards
                ],
            }
            with open(self.manifest_path(), "w") as fp:
                json.dump(manifest, fp, sort_keys=True, indent=1)
                fp.write("\n")

    def stats(self) -> Dict[str, int]:
        return {
            "events_written": self.events_written,
            "bytes_written": self.bytes_written,
            "shards": len(self.shards),
        }


# -- streaming readers ---------------------------------------------------------


def resolve_trace_paths(spec: Union[str, Path]) -> List[Path]:
    """The ordered file list behind a trace spec: a plain JSONL file, a
    shard-set base path (``run.trace.jsonl`` written with sharding), a
    ``*.manifest.json``, or a directory of shards."""
    p = Path(spec)
    if p.is_dir():
        paths = sorted(p.glob("*.jsonl"))
        if not paths:
            raise FileNotFoundError(f"no *.jsonl files in directory {p}")
        return paths
    if p.name.endswith(".manifest.json") and p.exists():
        return _manifest_shards(p)
    if p.exists():
        return [p]
    # the base path of a sharded sink: look for its manifest, then for
    # bare shards matching the naming scheme
    stem = p.name[: -len(".jsonl")] if p.name.endswith(".jsonl") else p.name
    manifest = p.with_name(f"{stem}.manifest.json")
    if manifest.exists():
        return _manifest_shards(manifest)
    shards = sorted(p.parent.glob(f"{stem}-[0-9][0-9][0-9][0-9][0-9].jsonl"))
    if shards:
        return shards
    raise FileNotFoundError(f"no trace at {p} (nor shards/manifest for it)")


def _manifest_shards(manifest: Path) -> List[Path]:
    with open(manifest) as fp:
        data = json.load(fp)
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"{manifest} is not a {MANIFEST_SCHEMA} manifest "
            f"(schema={data.get('schema')!r})"
        )
    return [manifest.parent / shard["path"] for shard in data["shards"]]


def iter_jsonl(paths: Iterable[Union[str, Path]]) -> Iterator[Dict]:
    """Parsed events, one at a time, across a shard list -- the
    streaming reader lineage and the query CLI fold from, so a sharded
    multi-gigabyte trace is never resident in memory."""
    for path in paths:
        with open(path) as fp:
            for line in fp:
                line = line.strip()
                if line:
                    yield json.loads(line)


def iter_trace_events(spec: Union[str, Path]) -> Iterator[Dict]:
    """:func:`resolve_trace_paths` + :func:`iter_jsonl` in one call."""
    return iter_jsonl(resolve_trace_paths(spec))
