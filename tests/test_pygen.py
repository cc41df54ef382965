"""The lowered executors against their independent oracles.

``repro.nir.pygen`` and ``repro.pisa.pygen`` generate the Python that
runs kernels and match-action programs; ``tests/nir_oracle.py`` and
``tests/pisa_oracle.py`` are the tree-walkers they replaced. Here every
shipped and fuzzed kernel, and random P4 expressions and action bodies,
run on both, and must agree on results, state, traps and trap messages.
"""

import copy
import random
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError
from repro.nclc import Compiler, WindowConfig
from repro.nir import ir, pygen
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.p4.model import (
    Action,
    Do,
    HeaderType,
    IfNode,
    P4Program,
    PAssign,
    PBin,
    PConst,
    PField,
    PMux,
    PParam,
    PRegRead,
    PRegWrite,
    PUn,
    RegisterArray,
)
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline

from tests import nir_oracle
from tests.diffutil import kernel_module, random_args, run_both
from tests.nir_oracle import OracleInterpreter
from tests.pisa_oracle import OraclePipeline
from tests.test_differential_opt import CASES, _compile, _make_schedule, _prepare_state
from tests.test_fuzz_compiler import AND, WINDOW, KernelFuzzer
from tests.test_pisa import tiny_program

# ---------------------------------------------------------------------------
# NIR: every kernel of every program, lowered vs. walker
# ---------------------------------------------------------------------------


def _sweep_program(program, case, rng):
    """Every kernel the compile produced -- per-switch modules on the
    differential schedule, the reference module (``_in_`` kernels too) on
    random arguments short and long enough to trap and to run clean."""
    runs = 0
    label_ids = program.label_ids
    schedule = _make_schedule(program, case, rng)
    for label, plan in sorted(schedule.items()):
        module = program.switch_modules[label]
        state = _prepare_state(module)
        for kernel, meta, args in plan:
            run_both(module, module.functions[kernel], state, meta, args,
                     label_ids[label], label_ids)
            runs += 1
    module = program.ref_module
    state = _prepare_state(module)
    for ref in module.globals.values():
        if ref.name not in state.arrays and ref.space == "host":
            state.instantiate(ref)
    for fn in module.kernels():
        for chunk_len in (1, 4, 64):
            meta = {"seq": rng.randrange(4), "from": rng.randint(0, 3),
                    "last": rng.randint(0, 1), **case["meta_ext"]}
            run_both(module, fn, state, meta, random_args(fn, rng, chunk_len), 0, label_ids)
            runs += 1
    return runs


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_kernels_agree_with_oracle(name, opt_level):
    case = CASES[name]
    program = _compile(case, opt_level)
    assert _sweep_program(program, case, random.Random(f"pygen:{name}")) > 0


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n]["defines"] is None))
def test_unoptimized_ir_agrees_with_oracle(name):
    """Straight out of the lowerer: allocas, loads, stores and helper calls."""
    rng = random.Random(f"raw:{name}")
    module = kernel_module(CASES[name]["source"])
    state = DeviceState()
    for ref in module.globals.values():
        state.instantiate(ref)
    for fn in module.kernels():
        for chunk_len in (1, 8):
            meta = {"seq": rng.randrange(4), "from": rng.randint(0, 3), "last": 1}
            run_both(module, fn, state, meta, random_args(fn, rng, chunk_len))


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("seed", range(24))
def test_fuzzed_kernels_agree_with_oracle(seed, opt_level):
    from repro.errors import BackendRejection, ConformanceError

    source = KernelFuzzer(seed).kernel()
    case = dict(meta_ext={}, seq_range=8)
    try:
        program = Compiler(opt_level=opt_level).compile(
            source, and_text=AND, windows={"fuzzed": WindowConfig(mask=(WINDOW,))}
        )
    except (BackendRejection, ConformanceError):
        return
    assert _sweep_program(program, case, random.Random(seed)) > 0


# ---------------------------------------------------------------------------
# P4: random expressions and action bodies, lowered vs. walker
# ---------------------------------------------------------------------------

_FIELDS = {"a": 1, "b": 7, "c": 8, "d": 13, "e": 32, "f": 33, "g": 64}
_OPS = ("add sub mul and or xor shl lshr ashr "
        "eq ne ult ule ugt uge slt sle sgt sge").split()
_widths = st.integers(1, 64)


def _program():
    p = P4Program("rand")
    p.add_header(HeaderType("h_t", [("x", 8), ("y", 24)]), "h")
    for name, bits in _FIELDS.items():
        p.add_metadata(name, bits)
    p.add_register(RegisterArray("r", 32, 4))
    p.add_register(RegisterArray("wide", 64, 3))
    return p


_leaves = st.one_of(
    st.builds(PConst, st.integers(-(2**65), 2**65), _widths),
    st.builds(PField, st.sampled_from([f"meta.{n}" for n in _FIELDS] + ["valid.h", "h.x"])),
    st.builds(PParam, st.just("p"), _widths),
)
_exprs = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(PBin, st.sampled_from(_OPS), sub, sub, _widths),
        st.builds(PUn, st.sampled_from(["neg", "not", "lnot"]), sub, _widths),
        st.builds(PMux, sub, sub, sub, _widths),
    ),
    max_leaves=12,
)
_dsts = st.sampled_from([f"meta.{n}" for n in _FIELDS] + ["h.x", "h.y"])
_regs = st.sampled_from(["r", "wide"])
_prims = st.one_of(
    st.builds(PAssign, _dsts, _exprs),
    st.builds(PRegRead, _dsts, _regs, _exprs),
    st.builds(PRegWrite, _regs, _exprs, _exprs),
)


def _mentions_param(e) -> bool:
    if isinstance(e, PParam):
        return True
    return any(
        _mentions_param(getattr(e, slot))
        for slot in ("lhs", "rhs", "operand", "cond", "a", "b")
        if hasattr(e, slot)
    )


def _run_action(cls, prims, control, fields, header_valid, arg, register_seed):
    """One pipeline, one PHV, one packet; everything observable after it."""
    p = _program()
    p.add_action(Action("act", prims, params=[("p", 64)]))
    p.add_action(Action("alt", [PAssign("meta.c", PConst(0xA5, 8))]))
    p.control = control
    pipe = cls(p)
    rng = random.Random(register_seed)
    for array in pipe.registers.arrays.values():
        array[:] = [rng.randrange(2**32) for _ in array]
    phv = Phv(p)
    phv.set_valid("h", header_valid)
    for name, value in fields.items():
        phv.write(f"meta.{name}", value)
    seen = {}
    try:
        pipe.run_action("act", phv, [arg])
        pipe.run(phv)
        seen["stats"] = pipe.stats.as_dict()
    except PisaError as exc:
        seen["raised"] = str(exc)
    seen.update(fields=dict(phv.fields), valid=dict(phv.valid),
                registers=copy.deepcopy(pipe.registers.arrays),
                runs=dict(pipe.stats.action_runs))
    return seen


@given(
    prims=st.lists(_prims, max_size=5),
    cond=_exprs.filter(lambda e: not _mentions_param(e)),
    fields=st.fixed_dictionaries({n: st.integers(0, 2**64) for n in _FIELDS}),
    header_valid=st.booleans(),
    arg=st.integers(-(2**64), 2**65),
    register_seed=st.integers(0, 7),
)
@settings(max_examples=150, deadline=None)
def test_random_actions_agree_with_oracle(prims, cond, fields, header_valid, arg, register_seed):
    control = [IfNode(cond, [Do("alt")])]
    runs = [
        _run_action(cls, prims, control, fields, header_valid, arg, register_seed)
        for cls in (Pipeline, OraclePipeline)
    ]
    assert runs[0] == runs[1]


@given(expr=_exprs.filter(lambda e: not _mentions_param(e)),
       fields=st.fixed_dictionaries({n: st.integers(0, 2**64) for n in _FIELDS}))
@settings(max_examples=200, deadline=None)
def test_random_expressions_agree_with_oracle(expr, fields):
    """The value itself (through a 64-bit probe field), not just its
    effect on state."""
    results = []
    for cls in (Pipeline, OraclePipeline):
        p = _program()
        p.add_metadata("probe", 64)
        p.add_action(Action("probe", [PAssign("meta.probe", expr)]))
        pipe, phv = cls(p), Phv(p)
        phv.set_valid("h")
        for name, value in fields.items():
            phv.write(f"meta.{name}", value)
        pipe.run_action("probe", phv)
        results.append(phv.read("meta.probe"))
    oracle = OraclePipeline(p).eval_expr(expr, phv, {})
    assert results[0] == results[1] == oracle & (2**64 - 1)


# ---------------------------------------------------------------------------
# Errors out of generated code stay explainable -- on executor and oracle alike
# ---------------------------------------------------------------------------

INTERPRETERS = [Interpreter, OracleInterpreter]
PIPELINES = [Pipeline, OraclePipeline]


def _run(cls, source, meta, args, state=None):
    module = kernel_module(source)
    state = state or DeviceState.from_module(module)
    fn = module.functions["k"]
    return cls(module, state).run(fn, WindowContext(meta, args))


@pytest.mark.parametrize("cls", INTERPRETERS)
class TestNirMessages:
    def test_unbound_window_field(self, cls):
        src = ("struct window { unsigned len; };\n"
               "_net_ _out_ void k(unsigned *d) { d[0] = window.len; }")
        with pytest.raises(PisaError, match="window field 'len' not bound"):
            _run(cls, src, {}, [[0]])

    def test_index_out_of_range_names_object_index_and_size(self, cls):
        src = "_net_ int a[4];\n_net_ _out_ void k(int *d) { a[d[0]] = 1; }"
        with pytest.raises(PisaError, match=r"index 9 out of range for a \[4 elements\]"):
            _run(cls, src, {}, [[9]])

    def test_window_data_index_is_checked_not_wrapped(self, cls):
        """NCL indices are unsigned, so only hand-built IR can carry -1;
        it must trap, never address the last element."""
        from repro.ncl.types import I32, VOID, PointerType

        for bad in (2, -1):
            d = ir.Param(0, "d", PointerType(I32))
            fn = ir.Function("k", ir.FunctionKind.OUT_KERNEL, [d], VOID)
            block = fn.new_block("entry")
            block.append(ir.StoreParam(d, ir.Const(I32, bad), ir.Const(I32, 7)))
            block.append(ir.Ret())
            module = ir.Module("m")
            module.add_function(fn)
            buf = [0, 0]
            with pytest.raises(PisaError, match=rf"index {bad} out of range for window data d \[2"):
                cls(module, DeviceState()).run(fn, WindowContext({}, [buf]))
            assert buf == [0, 0]

    def test_step_budget(self, cls, monkeypatch):
        monkeypatch.setattr(pygen, "MAX_STEPS", 5000)
        monkeypatch.setattr(nir_oracle, "_MAX_STEPS", 5000)
        src = ("_net_ _out_ void k(unsigned *d) {"
               " for (unsigned i = 0; i < 10; i = i * 1) { d[0] += 1; } }")
        with pytest.raises(PisaError, match="k: step budget exceeded"):
            _run(cls, src, {}, [[0]])

    def test_division_by_zero_stays_zero_division_error(self, cls):
        src = "_net_ _out_ void k(unsigned *d) { d[0] = d[1] / d[0]; }"
        with pytest.raises(ZeroDivisionError, match="data-plane"):
            _run(cls, src, {}, [[0, 5]])


def _tiny():
    p = tiny_program()
    p.add_metadata("t", 8)
    return p


@pytest.mark.parametrize("cls", PIPELINES)
class TestPisaMessages:
    def test_read_in_invalid_header(self, cls):
        p = _tiny()
        p.add_action(Action("copy", [PAssign("meta.t", PField("h.a"))]))
        p.control = [IfNode(PBin("eq", PField("h.a"), PConst(1, 8), 8), [Do("copy")])]
        pipe = cls(p)
        for run in (lambda phv: pipe.run_action("copy", phv), pipe.run):
            with pytest.raises(PisaError, match="read of field 'h.a' in invalid header"):
                run(Phv(p))

    def test_unbound_action_parameter(self, cls):
        p = _tiny()
        p.add_action(Action("bad", [PAssign("meta.t", PParam("nope", 8))]))
        with pytest.raises(PisaError, match="unbound action parameter 'nope'"):
            cls(p).run_action("bad", Phv(p))

    def test_unknown_action(self, cls):
        p = _tiny()
        with pytest.raises(PisaError, match="unknown action 'ghost'"):
            cls(p).run_action("ghost", Phv(p))

    def test_register_index_out_of_range(self, cls):
        p = _tiny()
        p.add_register(RegisterArray("r", 8, 2))
        p.add_action(Action("rd", [PRegRead("meta.t", "r", PParam("i", 8))], params=[("i", 8)]))
        with pytest.raises(PisaError, match=r"register r: index 5 out of range \[0, 2\)"):
            cls(p).run_action("rd", Phv(p), [5])


class TestGeneratedSourceInTracebacks:
    def test_nir_traceback_shows_the_generated_line(self):
        src = "_net_ int a[4];\n_net_ _out_ void k(int *d) { a[d[0]] = 1; }"
        try:
            _run(Interpreter, src, {}, [[9]])
        except PisaError:
            text = traceback.format_exc()
        assert 'File "<nir k>"' in text
        assert "raise oob('a'," in text

    def test_p4_traceback_shows_the_generated_line(self):
        p = _tiny()
        p.add_register(RegisterArray("r", 8, 2))
        p.add_action(Action("rd", [PRegRead("meta.t", "r", PField("meta.t"))]))
        pipe, phv = Pipeline(p), Phv(p)
        phv.write("meta.t", 3)
        try:
            pipe.run_action("rd", phv)
        except PisaError:
            text = traceback.format_exc()
        assert 'File "<p4 tiny>"' in text
        assert "if not 0 <= i < 2: fail(" in text

    def test_lowered_source_is_kept_for_inspection(self):
        module = kernel_module("_net_ _out_ void k(int *d) { d[0] = d[0] + 1; }")
        code = pygen.lower_function(module.functions["k"], {})
        assert code.source.startswith("def kernel(state, meta, args, loc, labels):")
        assert "def control(pipe, phv):" in Pipeline(_tiny()).source


class TestWhoKeepsLoweredCode:
    """Lowered code is valid until its function is next transformed, so
    it is kept by whoever knows how long that is -- never by the IR."""

    def test_a_transform_between_two_runs_is_seen(self):
        module = kernel_module("_net_ _out_ void k(int *d) { d[0] = d[0] + 1; }")
        fn, state = module.functions["k"], DeviceState()
        assert run_both(module, fn, state, {}, [[5]])["args"] == [[6]]
        add = next(i for i in fn.instructions() if isinstance(i, ir.BinOp) and i.op == "add")
        add.replace_operand(add.rhs, ir.Const(add.rhs.ty, 10))  # "a pass"
        assert run_both(module, fn, state, {}, [[5]])["args"] == [[15]]

    def test_the_hosts_of_a_program_share_one_lowering(self):
        program = _compile(CASES["fig4_allreduce"], 2)
        fn = program.ref_module.functions["result"]
        hosts = [Interpreter(program.ref_module, DeviceState(), program.lowered) for _ in range(2)]
        for host in hosts:
            host.run(fn, WindowContext({"seq": 0, "last": 0}, [[1], [0] * 16, [0]]))
        assert list(program.lowered) == [fn]
        assert Interpreter(program.ref_module, DeviceState()).lowered is not program.lowered

    def test_compiled_text_is_shared_and_a_changed_program_is_not_stale(self):
        p = _tiny()
        first, again = Pipeline(p), Pipeline(p)
        assert first._control.__code__ is again._control.__code__  # one compile()
        assert first._control is not again._control  # each bound to its own stats
        p.add_action(Action("later", [PAssign("meta.t", PConst(7, 8))]))
        phv = Phv(p)
        Pipeline(p).run_action("later", phv)
        assert phv.read("meta.t") == 7
