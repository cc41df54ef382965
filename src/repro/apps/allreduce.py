"""In-network AllReduce (the paper's Fig 4 use case).

Workers hang off one ToR switch labelled ``s1``; the switch aggregates
windows in the ``accum`` register array, counts contributions per window
slot in ``count``, and broadcasts a slot once ``nworkers`` windows have
been folded in. Workers receive results through the paired incoming
kernel.

Two kernel variants ship:

* :data:`ALLREDUCE_NCL` -- verbatim the paper's Fig 4 logic (one-shot:
  accumulator slots are not cleared);
* :data:`ALLREDUCE_MULTIROUND_NCL` -- clears each slot after broadcast,
  enabling repeated rounds (how SwitchML-style training loops run).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import RuntimeApiError
from repro.nclc import Compiler, WindowConfig
from repro.runtime import Cluster

ALLREDUCE_NCL = r"""
// In-network AllReduce -- paper Fig 4.
struct window { unsigned len; };

_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN / WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
  unsigned base = window.seq * window.len;
  for (unsigned i = 0; i < window.len; ++i)
    accum[base + i] += data[i];
  if (++count[window.seq] == nworkers) {
    memcpy(data, &accum[base], window.len * 4);
    count[window.seq] = 0; _bcast();
  } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
  for (unsigned i = 0; i < window.len; ++i)
    hdata[window.seq * window.len + i] = data[i];
  if (window.last) *done = true;
}
"""

ALLREDUCE_MULTIROUND_NCL = r"""
// Multi-round AllReduce: slots are cleared after broadcast so the same
// deployment serves every training iteration.
struct window { unsigned len; };

_net_ _at_("s1") int accum[DATA_LEN] = {0};
_net_ _at_("s1") unsigned count[DATA_LEN / WIN_LEN] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

_net_ _out_ void allreduce(int *data) {
  unsigned base = window.seq * window.len;
  for (unsigned i = 0; i < window.len; ++i)
    accum[base + i] += data[i];
  if (++count[window.seq] == nworkers) {
    memcpy(data, &accum[base], window.len * 4);
    for (unsigned i = 0; i < window.len; ++i)
      accum[base + i] = 0;
    count[window.seq] = 0; _bcast();
  } else { _drop(); }
}

_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
  for (unsigned i = 0; i < window.len; ++i)
    hdata[window.seq * window.len + i] = data[i];
  if (window.last) *done = true;
}
"""


def star_and(n_workers: int, switch_label: str = "s1") -> str:
    """The Fig 4 overlay: n workers around one ToR switch."""
    lines = [f"host w{i}" for i in range(n_workers)]
    lines.append(f"switch {switch_label}")
    lines.extend(f"link w{i} {switch_label}" for i in range(n_workers))
    return "\n".join(lines)


class AllReduceJob:
    """Compile + deploy an in-network AllReduce and drive rounds of it."""

    def __init__(
        self,
        n_workers: int,
        data_len: int,
        window_len: int = 8,
        multiround: bool = True,
        profile: Optional[str] = None,
        bandwidth: float = 10e9,
        latency: float = 1e-6,
        obs=None,
        program=None,
    ):
        if data_len % window_len != 0:
            raise RuntimeApiError("data_len must be a multiple of window_len")
        self.n_workers = n_workers
        self.data_len = data_len
        self.window_len = window_len
        # A precompiled program (e.g. one loaded from a repro.nclc/2
        # artifact via CompiledProgram.load) skips the frontend and the
        # NIR pipeline.
        self.program = program or self.compile_program(
            n_workers,
            data_len,
            window_len,
            multiround=multiround,
            profile=profile,
        )
        self.cluster = Cluster.from_program(
            self.program, bandwidth=bandwidth, latency=latency, obs=obs
        )
        self.cluster.controller.ctrl_wr("nworkers", n_workers)
        #: the last round failed, so s1 may hold its partial slots
        self._failed = False

    @staticmethod
    def compile_program(
        n_workers: int,
        data_len: int,
        window_len: int = 8,
        multiround: bool = True,
        profile: Optional[str] = None,
        opt_level: int = 2,
        cache=None,
    ):
        """The Fig 4 :class:`~repro.nclc.driver.CompiledProgram`, standalone
        -- save it as an artifact and feed it back via ``program=``."""
        source = ALLREDUCE_MULTIROUND_NCL if multiround else ALLREDUCE_NCL
        compiler = Compiler(profile=profile, opt_level=opt_level, cache=cache)
        return compiler.compile(
            source,
            and_text=star_and(n_workers),
            windows={
                "allreduce": WindowConfig(mask=(window_len,), ext={"len": window_len})
            },
            defines={"DATA_LEN": data_len, "WIN_LEN": window_len},
        )

    def run_round(
        self, worker_arrays: Sequence[Sequence[int]]
    ) -> Tuple[List[List[int]], float]:
        """One synchronous AllReduce over the workers' arrays: (per-worker
        result arrays, elapsed simulated seconds), or a RuntimeApiError
        naming each worker's missing result windows (``done`` says only
        that the one marked last came). A failed round's partial slots
        stay on ``s1`` (a caller may still complete it by retransmitting)
        until the next round, which first puts ``s1`` back as deployed:
        registers reset, ``nworkers`` rewritten."""
        if len(worker_arrays) != self.n_workers:
            raise RuntimeApiError(
                f"need {self.n_workers} arrays, got {len(worker_arrays)}"
            )
        if self._failed:
            self.cluster.switches["s1"].switch.reset_registers()
            self.cluster.controller.ctrl_wr("nworkers", self.n_workers)
            self._failed = False
        results = [[0] * self.data_len for _ in range(self.n_workers)]
        arrived: List[set] = [set() for _ in range(self.n_workers)]
        for i, (out, seqs) in enumerate(zip(results, arrived)):
            self.cluster.host(f"w{i}").register_in(
                "result", [out, [0]], on_window=lambda w, _h, seqs=seqs: seqs.add(w.seq)
            )
        start = self.cluster.now()
        for i, array in enumerate(worker_arrays):
            self.cluster.host(f"w{i}").out("allreduce", [list(array)])
        self.cluster.run()
        elapsed = self.cluster.now() - start
        every = set(range(self.data_len // self.window_len))
        missing = [f"w{i} lacks seqs {sorted(every - seqs)}"
                   for i, seqs in enumerate(arrived) if seqs != every]
        if missing:
            self._failed = True
            raise RuntimeApiError("AllReduce did not complete: " + "; ".join(missing))
        return results, elapsed

    @staticmethod
    def expected(worker_arrays: Sequence[Sequence[int]]) -> List[int]:
        n = len(worker_arrays[0])
        total = [0] * n
        for array in worker_arrays:
            for j, v in enumerate(array):
                total[j] += int(v)
        # int32 wrap, matching the switch's arithmetic
        return [((v + 2**31) % 2**32) - 2**31 for v in total]
