"""The reference fixed point: plain round-robin abstract interpretation.

``repro.analysis.absint._Analyzer.run`` skips an instruction whose
operands' facts have not moved since it was last evaluated.  This is the
loop it replaced (commit 46853cb), kept as the *specification*: every
round re-runs the transfer function and ``_update`` on every reachable
instruction, and the last round exists only to see that nothing changed.
Everything else -- transfer functions, ``_update``, widening,
reachability, the non-convergence error, ``_finalize`` -- is inherited, so the two differ in nothing
but which evaluations they make (tests/test_absint_differential.py holds
them to identical facts, including ``rounds`` and dict insertion order);
nothing under ``src/`` imports this file.
"""

from __future__ import annotations

from repro.analysis.absint import MAX_ROUNDS, FunctionFacts, _Analyzer
from repro.nir import ir
from repro.nir.cfg import reverse_postorder


class OracleAnalyzer(_Analyzer):
    #: transfer evaluations made, for the evaluations-saved pin
    transfers = 0

    def _transfer(self, instr):
        self.transfers += 1
        return super()._transfer(instr)

    def run(self) -> FunctionFacts:
        if not self.fn.blocks:
            return self.facts
        rpo = reverse_postorder(self.fn)
        for round_no in range(1, MAX_ROUNDS + 1):
            self.facts.rounds = round_no
            reachable, feasible = self._reachability()
            changed = False
            for block in rpo:
                if block not in reachable:
                    continue
                for instr in block.instrs:
                    if isinstance(instr, ir.Phi):
                        new = self._eval_phi(instr, block, reachable, feasible)
                    else:
                        new = self._transfer(instr)
                    if new is None:
                        continue
                    changed |= self._update(instr, new)
            if not changed:
                break
        else:
            self._unconverged()
        self._finalize()
        return self.facts


def oracle_analyze_function(fn, label_ids=None, win_ext=None) -> FunctionFacts:
    return OracleAnalyzer(fn, label_ids, win_ext).run()
