"""Translation validation of the -O pipeline (``nclc build --verify-opt``).

Three claims under test:

* the validator is *green* on every shipped program at every opt level
  (no false alarms -- the optimizer is actually sound on them);
* a seeded miscompile in one NIR pass fails the build with a
  :class:`TranslationValidationError` naming exactly that pass, while an
  unverified build of the same corrupted compiler silently ships wrong
  code;
* the strengthened IR verifier (instruction uniqueness, entry-block phi
  ban) rejects the malformed functions it is meant to.
"""

from pathlib import Path

import pytest

from repro.analysis.transval import TranslationValidationError, make_validator
from repro.errors import IrError
from repro.ncl.types import I32, VOID
from repro.nclc import Compiler
from repro.nir import ir, passes
from repro.nir.verify import verify_function

from tests.test_differential_opt import CASES

REPO = Path(__file__).resolve().parent.parent


def _compile_case(case, opt_level, verify_opt):
    return Compiler(opt_level=opt_level, verify_opt=verify_opt).compile(
        case["source"],
        and_text=case["and_text"],
        windows=case["windows"],
        defines=case["defines"],
    )


class TestValidatorIsGreen:
    @pytest.mark.parametrize("opt_level", [1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_verify_opt_accepts_shipped_programs(self, name, opt_level):
        program = _compile_case(CASES[name], opt_level, verify_opt=True)
        assert program.opt_level == opt_level
        assert program.switch_modules

    def test_verify_opt_bypasses_cache_reads(self, tmp_path):
        """A cache hit would skip the very passes the flag validates, so
        verified builds always re-run the pipeline (and still publish)."""
        from repro.nclc.cache import ArtifactCache

        case = CASES["stats"]
        cache = ArtifactCache(root=tmp_path)
        first = Compiler(opt_level=2, cache=cache, verify_opt=True).compile(
            case["source"]
        )
        assert first.switch_modules
        again = Compiler(opt_level=2, cache=cache, verify_opt=True).compile(
            case["source"]
        )
        assert again.switch_modules


def _corrupt_storefwd(monkeypatch):
    """Make the store-forwarding pass flip the first add into a sub."""
    original = passes.NIR_PASSES["storefwd"]

    def evil(fn, window_spec):
        changed = original(fn, window_spec)
        for instr in fn.instructions():
            if isinstance(instr, ir.BinOp) and instr.op == "add":
                instr.op = "sub"
                return changed + 1
        return changed

    monkeypatch.setitem(passes.NIR_PASSES, "storefwd", evil)


class TestSeededMiscompile:
    SOURCE = (REPO / "examples" / "stats.ncl").read_text()

    def test_validator_names_the_broken_pass(self, monkeypatch):
        _corrupt_storefwd(monkeypatch)
        with pytest.raises(TranslationValidationError) as info:
            Compiler(opt_level=2, verify_opt=True).compile(self.SOURCE)
        assert info.value.pass_name == "storefwd"
        assert info.value.fn_name == "stats"
        assert "miscompiled" in str(info.value)

    def test_unverified_build_ships_the_miscompile(self, monkeypatch):
        """The control experiment: without --verify-opt the corrupted
        compiler happily produces a (wrong) program."""
        _corrupt_storefwd(monkeypatch)
        program = Compiler(opt_level=2, verify_opt=False).compile(self.SOURCE)
        ops = [
            i.op
            for module in program.switch_modules.values()
            for fn in module.functions.values()
            for i in fn.instructions()
            if isinstance(i, ir.BinOp)
        ]
        assert "sub" in ops  # the flipped instruction made it to codegen

    def test_cli_reports_validation_failure(self, monkeypatch, tmp_path, capsys):
        from repro.nclc.__main__ import main as nclc_main

        _corrupt_storefwd(monkeypatch)
        src = tmp_path / "stats.ncl"
        src.write_text(self.SOURCE)
        code = nclc_main(
            ["build", str(src), "--verify-opt", "-o", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "translation validation FAILED" in err
        assert "'storefwd'" in err


class TestPassValidatorUnit:
    def _kernel(self):
        program = Compiler(opt_level=0).compile(
            (REPO / "examples" / "stats.ncl").read_text()
        )
        [(label, module)] = program.switch_modules.items()
        fn = module.functions["stats"]
        return program, module, fn

    def test_identity_transform_passes(self):
        program, module, fn = self._kernel()
        validator = make_validator(module, fn, label_ids=program.label_ids)
        before = validator.snapshot(fn)
        validator.check("noop", before, fn)  # must not raise

    def test_semantic_change_is_caught(self):
        program, module, fn = self._kernel()
        validator = make_validator(module, fn, label_ids=program.label_ids)
        before = validator.snapshot(fn)
        for instr in fn.instructions():
            if isinstance(instr, ir.BinOp) and instr.op == "add":
                instr.op = "sub"
                break
        with pytest.raises(TranslationValidationError, match="diverged"):
            validator.check("evil", before, fn)

    def test_broken_ir_is_caught(self):
        program, module, fn = self._kernel()
        validator = make_validator(module, fn, label_ids=program.label_ids)
        before = validator.snapshot(fn)
        # duplicate the entry block's first instruction into another block
        entry_instr = fn.entry.instrs[0]
        for block in fn.blocks[1:]:
            block.instrs.insert(0, entry_instr)
            break
        with pytest.raises(TranslationValidationError, match="broken IR"):
            validator.check("evil", before, fn)


class TestAbsintCompilePass:
    def test_facts_available_on_compiled_program(self):
        program = Compiler(opt_level=2).compile(
            (REPO / "examples" / "parity.ncl").read_text()
        )
        facts = program.absint_facts()
        assert sorted(facts) == sorted(program.switch_modules)
        for label, per_fn in facts.items():
            assert "parity" in per_fn


class TestVerifierStrengthening:
    """Satellite: instruction uniqueness + entry-phi checks run between
    every pass under --verify-opt."""

    def test_instruction_in_two_blocks(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        other = fn.new_block("other")
        shared = entry.append(ir.BinOp("add", ir.Const(I32, 1), ir.Const(I32, 2), I32))
        entry.append(ir.Br(other))
        other.instrs.insert(0, shared)
        other.append(ir.Ret())
        with pytest.raises(IrError, match="appears in"):
            verify_function(fn)

    def test_instruction_twice_in_one_block(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        dup = entry.append(ir.BinOp("add", ir.Const(I32, 1), ir.Const(I32, 2), I32))
        entry.instrs.insert(0, dup)
        entry.append(ir.Ret())
        with pytest.raises(IrError, match="appears"):
            verify_function(fn)

    def test_phi_in_entry_block(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        phi = ir.Phi(I32)
        phi.block = entry
        entry.instrs.insert(0, phi)
        entry.append(ir.Ret())
        with pytest.raises(IrError, match="entry block"):
            verify_function(fn)
