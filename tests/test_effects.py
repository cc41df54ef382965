"""Unit + golden tests for the kernel effect-summary analysis.

Three layers:

* site classification -- where each store shape lands in the effect
  lattice (idempotent / monoid / unsafe), with absint-backed grading;
* guard recognition -- the seq-dedup and bloom-dedup idioms, their
  proved/possible grades, and partial-coverage detection;
* golden dump -- ``nclc build --emit effects`` output for the Fig 4 /
  Fig 5 examples is byte-stable across compiles and matches
  tests/golden/fig4_effects.txt / fig5_effects.txt.
"""

from pathlib import Path

import pytest

from repro.analysis.effects import (
    KIND_IDEMPOTENT,
    KIND_MONOID,
    KIND_UNSAFE,
)
from repro.nclc import Compiler

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

HEADER = '_net_ _at_("s1") unsigned acc[8] = {0};\n'


def effects_of(body, extra_decls="", opt_level=2):
    src = HEADER + extra_decls + (
        "_net_ _out_ void k(unsigned *v) {\n" + body + "\n}\n"
    )
    program = Compiler(opt_level=opt_level).compile(src, filename="<test>")
    return program.effect_summaries()["s1"]["k"]


def lone_symbol(eff, name="acc"):
    assert name in eff.symbols, sorted(eff.symbols)
    return eff.symbols[name]


class TestStoreClassification:
    def test_overwrite_with_window_data_is_idempotent_proved(self):
        sym = lone_symbol(effects_of("acc[window.seq & 7] = v[0];"))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.grade == "proved"
        assert sym.sites[0].op == "store"

    def test_overwrite_with_constant_is_idempotent_proved(self):
        sym = lone_symbol(effects_of("acc[0] = 7;"))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.grade == "proved"

    def test_monoid_fold_with_proved_nonzero_delta(self):
        sym = lone_symbol(effects_of("acc[0] += 1;"))
        assert sym.kind == KIND_MONOID
        assert sym.sites[0].fold == "add"
        # the constant delta 1 is proved non-zero: replays provably
        # change the register
        assert sym.grade == "proved"

    def test_monoid_fold_with_window_delta_is_possible(self):
        sym = lone_symbol(effects_of("acc[0] += v[0];"))
        assert sym.kind == KIND_MONOID
        assert sym.grade == "possible"  # v[0] may be zero

    def test_xor_and_sub_are_monoid(self):
        for fold, stmt in (
            ("xor", "acc[0] ^= v[0];"),
            ("sub", "acc[0] -= v[0];"),
        ):
            sym = lone_symbol(effects_of(stmt))
            assert sym.kind == KIND_MONOID
            assert sym.sites[0].fold == fold

    def test_or_fold_is_idempotent(self):
        sym = lone_symbol(effects_of("acc[0] |= v[0];"))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.sites[0].fold == "or"
        assert sym.grade == "proved"

    def test_and_fold_is_idempotent(self):
        sym = lone_symbol(effects_of("acc[0] &= v[0];"))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.sites[0].fold == "and"

    def test_max_clamp_select_is_idempotent(self):
        sym = lone_symbol(effects_of(
            "acc[0] = acc[0] > v[0] ? acc[0] : v[0];"
        ))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.sites[0].fold == "select"

    def test_unrecognized_rmw_is_unsafe(self):
        sym = lone_symbol(effects_of("acc[0] = acc[0] * 2 + v[0];"))
        assert sym.kind == KIND_UNSAFE

    def test_store_of_other_mutable_state_is_unsafe(self):
        sym = lone_symbol(effects_of(
            "acc[0] = other[0];",
            extra_decls='_net_ _at_("s1") unsigned other[1] = {0};\n',
        ))
        assert sym.kind == KIND_UNSAFE
        assert "net:other" in sym.sites[0].deps

    def test_ctrl_dependent_overwrite_is_idempotent_possible(self):
        """Control-plane reads are stable unless the operator intervenes
        between attempts: idempotent, but only 'possible'."""
        sym = lone_symbol(effects_of(
            "acc[0] = limit;",
            extra_decls='_net_ _at_("s1") _ctrl_ unsigned limit;\n',
        ))
        assert sym.kind == KIND_IDEMPOTENT
        assert sym.grade == "possible"
        assert "ctrl:limit" in sym.sites[0].deps

    def test_verdicts(self):
        assert effects_of("acc[0] = v[0];").verdict == "exactly-once"
        assert effects_of("acc[0] += v[0];").verdict == "unsafe"
        assert effects_of("acc[0] += v[0];").replay_safe is False


def test_abstract_interpreter_bug_is_not_swallowed(monkeypatch):
    """A defect in the abstract interpreter surfaces from
    ``effect_summaries()``; it used to be caught and read as "no facts",
    silently downgrading every grade to ``possible``."""

    program = Compiler().compile(
        HEADER + "_net_ _out_ void k(unsigned *v) { acc[0] += 1; }\n"
    )

    def broken(*args, **kwargs):
        raise TypeError("injected absint bug")

    monkeypatch.setattr("repro.analysis.absint.analyze_function", broken)
    with pytest.raises(TypeError, match="injected absint bug"):
        program.effect_summaries()


class TestGuardRecognition:
    GUARDED = """
      if (mark[window.seq & 63] == 0) {
        mark[window.seq & 63] = 1;
        acc[0] += v[0];
      }
    """
    MARK = '_net_ _at_("s1") unsigned mark[64] = {0};\n'

    def test_seq_dedup_guard_is_recognized_and_proved(self):
        eff = effects_of(self.GUARDED, extra_decls=self.MARK)
        [guard] = eff.guards
        assert guard.style == "seq-dedup"
        assert guard.symbol == "mark"
        # the mark is stored as 1 and compared against 0: once marked,
        # the miss edge can never re-fire
        assert guard.grade == "proved"
        sym = lone_symbol(eff)
        assert sym.kind == KIND_MONOID
        assert sym.guarded
        assert eff.verdict == "at-most-once"
        assert eff.replay_safe

    def test_guard_survives_every_opt_level(self):
        for opt_level in (0, 1, 2):
            eff = effects_of(
                self.GUARDED, extra_decls=self.MARK, opt_level=opt_level
            )
            assert eff.verdict == "at-most-once", opt_level

    def test_mark_bookkeeping_is_not_an_effect(self):
        eff = effects_of(self.GUARDED, extra_decls=self.MARK)
        assert "mark" not in eff.symbols

    def test_partial_guard_is_flagged(self):
        eff = effects_of(
            self.GUARDED + "\n  acc[0] += 1;", extra_decls=self.MARK
        )
        sym = lone_symbol(eff)
        assert sym.partial_guard
        assert not sym.guarded
        assert eff.verdict == "unsafe"

    def test_mutable_mark_index_is_not_a_guard(self):
        """A mark indexed by mutable state is not replay-stable: the
        retransmit may probe a different slot."""
        eff = effects_of(
            """
            if (mark[cursor[0] & 63] == 0) {
              mark[cursor[0] & 63] = 1;
              acc[0] += v[0];
            }
            """,
            extra_decls=self.MARK
            + '_net_ _at_("s1") unsigned cursor[1] = {0};\n',
        )
        assert eff.guards == []
        assert eff.verdict == "unsafe"

    def test_bloom_dedup_guard(self):
        eff = effects_of(
            """
            if (!ncl::bf_query(Seen, (uint64_t)v[0])) {
              ncl::bf_insert(Seen, (uint64_t)v[0]);
              acc[0] += 1;
            }
            """,
            extra_decls=(
                '_net_ _at_("s1") ncl::BloomFilter<1024, 3> Seen;\n'
            ),
        )
        [guard] = eff.guards
        assert guard.style == "bloom-dedup"
        assert guard.symbol == "Seen"
        assert guard.grade == "proved"  # same key queried and inserted
        assert eff.verdict == "at-most-once"


class TestGoldenDump:
    """``--emit effects`` output is byte-deterministic and golden-pinned.

    Regenerate (after an intentional analysis change) with::

        PYTHONPATH=src python -c "
        from pathlib import Path
        from repro.nclc import Compiler
        for name in ('fig4_allreduce', 'fig5_kvs'):
            src = Path(f'examples/{name}.ncl').read_text()
            p = Compiler(opt_level=2).compile(
                src, filename=f'examples/{name}.ncl')
            stem = name.split('_')[0]
            Path(f'tests/golden/{stem}_effects.txt').write_text(
                p.render_effects())
        "
    """

    @pytest.mark.parametrize("example,golden", [
        ("fig4_allreduce.ncl", "fig4_effects.txt"),
        ("fig5_kvs.ncl", "fig5_effects.txt"),
    ])
    def test_dump_matches_golden(self, example, golden):
        path = REPO / "examples" / example
        program = Compiler(opt_level=2).compile(
            path.read_text(), filename=f"examples/{example}"
        )
        expected = (GOLDEN / golden).read_text()
        assert program.render_effects() == expected

    def test_dump_is_deterministic_across_compiles(self):
        path = REPO / "examples" / "fig4_allreduce.ncl"

        def render():
            return Compiler(opt_level=2).compile(
                path.read_text(), filename="examples/fig4_allreduce.ncl"
            ).render_effects()

        assert render() == render()

    def test_fig4_proves_the_guard(self):
        golden = (GOLDEN / "fig4_effects.txt").read_text()
        assert "guard seq-dedup on net 'seen' (proved)" in golden
        assert "verdict: at-most-once" in golden

    def test_fig5_is_exactly_once(self):
        golden = (GOLDEN / "fig5_effects.txt").read_text()
        assert "verdict: exactly-once" in golden
        assert "unsafe" not in golden
