"""Span recording from outside the program: timing wrappers around the
layers' public entry points, installed by the harness for the traced
pass only (nothing under ``src/`` is edited).

A span is (name, start, end, parent, batch).  Spans are appended in
start order on one thread, so a span's children are exactly the spans
that name it as parent, they never overlap each other, and

    self time = duration - sum(child durations).

Span names are ``<layer>.<entry point>``; the layer is the part before
the first dot and is one of this repo's packages (plus ``harness`` for
the per-batch root span).
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

#: (module, class, method, span name)
METHOD_SEAMS = (
    ("repro.runtime.host_rt", "NclHost", "out", "runtime.out"),
    ("repro.runtime.host_rt", "NclHost", "out_window", "runtime.out_window"),
    ("repro.net.events", "Simulator", "run", "net.dispatch"),
    ("repro.net.link", "Link", "transmit", "net.transmit"),
    ("repro.net.pisanode", "PisaSwitchNode", "handle_frame", "net.node_pisa"),
    ("repro.net.node", "ForwardingSwitchNode", "handle_frame", "net.node_forward"),
    ("repro.net.node", "HostNode", "handle_frame", "net.node_host"),
    ("repro.pisa.switch_dev", "PisaSwitch", "process", "pisa.process"),
    ("repro.pisa.parser", "PacketParser", "parse", "pisa.parse"),
    ("repro.pisa.pipeline", "Pipeline", "run", "pisa.pipeline"),
    ("repro.pisa.parser", "Deparser", "deparse", "pisa.deparse"),
    ("repro.nir.interp", "Interpreter", "run", "nir.interp"),
    ("repro.nclc.driver", "Compiler", "compile", "nclc.compile"),
    ("repro.nclc.driver", "CompiledProgram", "to_json", "nclc.to_json"),
    ("repro.nclc.driver", "CompiledProgram", "from_json", "nclc.from_json"),
)

#: (defining module, function, span name); every module-level binding
#: of the function is replaced, so callers that did ``from x import f``
#: reach the wrapper the way they look the function up
FUNCTION_SEAMS = (
    ("repro.ncp.wire", "encode_frame", "ncp.encode"),
    ("repro.ncp.wire", "decode_frame", "ncp.decode"),
    ("repro.ncp.wire", "peek_frame", "ncp.peek"),
    ("repro.obs.int", "attach_tail", "obs.attach_tail"),
    ("repro.obs.int", "stamp_hop", "obs.stamp_hop"),
    ("repro.obs.int", "strip_stack", "obs.strip_stack"),
    ("repro.analysis.linter", "lint_source", "analysis.lint"),
    ("repro.analysis.proto", "run_checks", "analysis.proto_checks"),
    ("repro.analysis.proto", "render_report_json", "analysis.proto_report"),
    ("repro.analysis.deploy", "check_deployment", "analysis.deploy_checks"),
    ("repro.analysis.deploy.report", "render_report_json", "analysis.deploy_report"),
)

#: batch id of spans recorded outside any batch (set-up, oracle checks)
NO_BATCH = -1000
ROOT = "harness.batch"


class SpanRecorder:
    """Spans in memory, as parallel arrays (a traced fat-tree pass
    records ~1.5M of them)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.batch = array("i")
        self._stack = [-1]
        self._batch = NO_BATCH

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.batch.append(self._batch)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """*fn* timed as one span per call."""
        nid = self._intern(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    @contextmanager
    def batch_span(self, batch: int):
        """The root span of one batch; spans opened inside carry its id."""
        self._batch = batch
        idx = self._open(self._intern(ROOT))
        try:
            yield
        finally:
            self._close(idx)
            self._batch = NO_BATCH

    def wrap_receivers(self, host_nodes) -> None:
        """Time the callable libncrt binds on each host to take frames
        (an instance attribute, so it is wrapped per deployed host).  A
        plain ``receiver`` is the harness's own sink and is left alone."""
        for node in host_nodes:
            if node.frame_receiver is not None:
                node.frame_receiver = self.wrap(node.frame_receiver, "runtime.rx")

    # -- reading the spans back ---------------------------------------------

    def self_times(self) -> array:
        """Self time of every span: duration minus child durations."""
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (end[i] - start[i] for i in range(len(start))))
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def aggregate(self, own, first_batch: int = 0, last_batch: int | None = None):
        """``{name: [calls, self seconds, total seconds]}`` over the
        spans of batches ``first_batch <= b < last_batch``; *own* is
        :meth:`self_times` (computed once by the caller)."""
        rows = [[0, 0.0, 0.0] for _ in self.names]
        start, end, batch, name_id = self.start, self.end, self.batch, self.name_id
        for i in range(len(start)):
            b = batch[i]
            if b < first_batch or (last_batch is not None and b >= last_batch):
                continue
            row = rows[name_id[i]]
            row[0] += 1
            row[1] += own[i]
            row[2] += end[i] - start[i]
        return dict(zip(self.names, rows))

    def write_jsonl(self, path, last_batch: int) -> int:
        """One span per line for batches below *last_batch* (set-up
        spans included); times are seconds since the first span."""
        if not len(self.start):
            return 0
        t0 = self.start[0]
        written = 0
        with open(path, "w") as fp:
            for i in range(len(self.start)):
                if self.batch[i] >= last_batch:
                    continue
                fp.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i] - t0,
                    "end": self.end[i] - t0,
                    "parent": self.parent[i],
                    "batch": self.batch[i] if self.batch[i] != NO_BATCH else None,
                }))
                fp.write("\n")
                written += 1
        return written


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install the timing wrappers around every seam; restore on exit."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module, cls_name, method, name in METHOD_SEAMS:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(raw.__func__, name))
            else:
                new = recorder.wrap(raw, name)
            patch(cls, method, new)
        for module, func, name in FUNCTION_SEAMS:
            original = getattr(importlib.import_module(module), func)
            wrapper = recorder.wrap(original, name)
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        patch(mod, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
