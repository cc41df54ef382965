"""The structured lowering of ``repro.nir.pygen`` on the control-flow
shapes no shipped program has, against ``tests/nir_oracle.py``; and what
the generated executors cost, counted where the machine does not matter.

A function becomes ``while True`` / ``if`` / ``break`` / ``continue``:
loops with several exits leave through ``ex``, and a CFG the lowering
does not structure (an irreducible one, or a jump that must fall past a
merge node, which no NCL program lowers to) is refused when it is
loaded."""

from __future__ import annotations

import hashlib
import random
import re
import sys

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.errors import PisaError
from repro.ncl.types import I32, U32, VOID, PointerType
from repro.nir import ir, pygen
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.nir.mem2reg import promote_allocas
from repro.pisa.switch_dev import PisaSwitch

from tests.diffutil import kernel_module, run_both
from tests.test_differential_opt import CASES, _compile

NESTED = """
_net_ _out_ void k(unsigned *d) {
  for (unsigned i = 0; i < 4; ++i) {
    for (unsigned j = 0; j < 4; ++j) {
      if (j == d[0]) continue;
      if (j == d[1]) break;
      d[2] += i * 4 + j;
    }
    if (i == d[3]) break;
    if (i == d[4]) continue;
    d[5] += i;
  }
  d[6] += 1;
}
"""

RETURN_IN_LOOP = """
_net_ _out_ void k(unsigned *d) {
  unsigned i = 0;
  while (i < 6) {
    unsigned j = 0;
    while (j < 3) {
      if (d[i] == j) return;
      j += 1;
    }
    if (d[i] == 7) break;
    d[i] += 10;
    i += 1;
  }
  d[7] = 99;
}
"""


def _variants(source):
    """The lowerer's output (slots, no phis) and the same after mem2reg
    (phis on every loop header and exit)."""
    raw, ssa = kernel_module(source), kernel_module(source)
    promote_allocas(ssa.functions["k"])
    return raw, ssa


@pytest.mark.parametrize("source", [NESTED, RETURN_IN_LOOP], ids=["nested", "return"])
def test_loop_shapes_agree_with_oracle(source):
    rng = random.Random(source)
    for module in _variants(source):
        fn = module.functions["k"]
        for _ in range(200):
            d = [rng.randrange(8) for _ in range(8)]
            run_both(module, fn, DeviceState(), {}, [d])


def test_loops_leave_by_break_continue_and_the_exit_number():
    for module in _variants(RETURN_IN_LOOP):
        source = pygen.lower_function(module.functions["k"], {}).source
        assert source.count("while True:") == 2
        assert "ex = 1" in source and "if ex == 0:" in source  # two exits each
        assert "pc" not in source


def test_a_run_of_early_returns_does_not_nest():
    """An arm that leaves goes first and the rest follows it unindented:
    150 ``if (...) return;`` lower to code 8 columns deep (as nested
    ``else`` arms they pass CPython's 100 levels of indentation, and the
    function could not be loaded) and run as the oracle does."""
    checks = "".join(f"if (d[{k % 8}] == {k}) return; d[8] += 1; " for k in range(150))
    module = kernel_module(f"_net_ _out_ void k(unsigned *d) {{ {checks} }}")
    fn = module.functions["k"]
    source = pygen.lower_function(fn, {}).source
    assert max(len(line) - len(line.lstrip()) for line in source.splitlines()) == 8
    for d in ([0] * 9, [200] * 9, [1] * 8 + [0], list(range(8, 17)), [149] * 9):
        run_both(module, fn, DeviceState(), {}, [d])


# -- the step budget traps where it did -----------------------------------------

#: per variant (lowerer's output, after mem2reg): a budget, and ``d``
#: after the trap, as the ``pc`` dispatch loop left it at fc92426 (which
#: charged the budget per block, as now)
TRAPS = {
    # a runaway inner loop: the budget runs out inside it
    "inner": (
        "_net_ _out_ void k(unsigned *d) {"
        " for (unsigned i = 0; i < 3; ++i) {"
        "  for (unsigned j = 0; j < 5; j = j * 1) { d[i] += 1; } } }",
        [(50, [3, 0, 0, 0]), (50, [6, 0, 0, 0])],
    ),
    # a loop that ends: the budget runs out in the block after its exit
    "after_exit": (
        "_net_ _out_ void k(unsigned *d) {"
        " for (unsigned i = 0; i < 4; ++i) { d[0] += 2; }"
        " d[1] = 5; d[2] = d[0] + d[1]; d[3] = 1; }",
        [(50, [8, 0, 0, 0]), (38, [8, 0, 0, 0])],
    ),
}
#: sha256 (first 16 digits) of the repr of ``[(message or "ok", d)]`` at
#: every budget from 1 to 120, per variant, captured at fc92426
SWEEPS = {
    "inner": ["a3b93b279d24ff67", "c11e48528e3fd64e"],
    "after_exit": ["c49b01a72b7ca35a", "af0ad73c37246ac6"],
}


def _trap(module, budget, monkeypatch):
    monkeypatch.setattr(pygen, "MAX_STEPS", budget)
    d = [0, 0, 0, 0]
    try:
        Interpreter(module, DeviceState()).run(module.functions["k"], WindowContext({}, [d]))
    except PisaError as exc:
        return str(exc), d
    return "ok", d


@pytest.mark.parametrize("name", sorted(TRAPS))
def test_a_trap_leaves_the_state_the_dispatch_loop_left(name, monkeypatch):
    source, pins = TRAPS[name]
    for module, (budget, want), digest in zip(_variants(source), pins, SWEEPS[name]):
        assert _trap(module, budget, monkeypatch) == ("k: step budget exceeded", want)
        sweep = repr([_trap(module, b, monkeypatch) for b in range(1, 121)])
        assert hashlib.sha256(sweep.encode()).hexdigest()[:16] == digest


def test_loops_nested_past_what_python_compiles_are_refused_when_loaded():
    """CPython compiles at most 20 loops inside each other; 25 are a typed
    refusal, not a ``SyntaxError``."""
    nest = "".join(f"for (unsigned i{k} = 0; i{k} < 1; ++i{k}) {{" for k in range(25))
    module = kernel_module(f"_net_ _out_ void k(unsigned *d) {{ {nest} d[0] += 1; {'}' * 25} }}")
    with pytest.raises(PisaError, match="k: cannot be lowered: too many statically nested"):
        pygen.lower_function(module.functions["k"], {})


# -- hand-built CFGs no NCL program lowers to ----------------------------------------


def _function(blocks, edges):
    """``k(d)``: block *b* stores its number into ``d[b]`` then branches
    by *edges* -- ``[t]``, ``[t, f]`` on ``d[8 + b]``, or ``[]`` to return."""
    d = ir.Param(0, "d", PointerType(U32))
    fn = ir.Function("k", ir.FunctionKind.OUT_KERNEL, [d], VOID)
    made = [fn.new_block("b") for _ in range(blocks)]  # b0, b1, ...
    for k, block in enumerate(made):
        block.append(ir.StoreParam(d, ir.Const(I32, k), ir.Const(I32, k + 1)))
        targets = edges.get(k, [])
        if len(targets) == 2:
            cond = block.append(ir.LoadParam(d, ir.Const(I32, 8 + k)))
            block.append(ir.CondBr(cond, made[targets[0]], made[targets[1]]))
        elif targets:
            block.append(ir.Br(made[targets[0]]))
        else:
            block.append(ir.Ret())
    module = ir.Module("m")
    module.add_function(fn)
    return module, fn


def test_a_jump_past_a_merge_node_is_refused_when_loaded():
    """b3 and b4 are both merge nodes under b0; b1's way to b4 passes b3."""
    module, fn = _function(5, {0: [1, 2], 1: [4, 3], 2: [3], 3: [4]})
    with pytest.raises(PisaError, match="k: cannot place b4"):
        pygen.lower_function(fn, {})


def test_an_irreducible_cfg_is_refused_when_loaded():
    """b1 and b2 each branch to the other, and b0 enters at both."""
    module, fn = _function(4, {0: [1, 2], 1: [2, 3], 2: [1, 3]})
    with pytest.raises(PisaError, match="k: irreducible control flow into b"):
        pygen.lower_function(fn, {})


def test_an_unreachable_block_is_not_in_the_loop_it_branches_into():
    """b1 <-> b2 is a loop; b4, which nothing reaches, branches to b2."""
    from repro.nir.cfg import natural_loops

    module, fn = _function(5, {0: [1], 1: [2, 3], 2: [1], 4: [2]})
    (loop,) = natural_loops(fn)
    assert loop["body"] == {fn.blocks[1], fn.blocks[2]}
    run_both(module, fn, DeviceState(), {}, [[0] * 12])


def _random_cfg(rng, size):
    """A reducible CFG of *size* blocks: a random DAG (each block one or
    two ways on, maybe both to one place), plus back edges, each to a
    block that dominates its source. Block *b* counts its visits in
    ``d[b]`` and takes its back edge only on the first (so every loop
    ends), stores the value of its phi -- which way it came in -- in
    ``d[16 + b]``, and the last block returns."""
    from repro.nir.cfg import DominatorTree

    ways = {b: [rng.randrange(b + 1, size) for _ in range(rng.choice((1, 2)))]
            for b in range(size - 1)}
    for ts in ways.values():
        if len(ts) == 2 and rng.random() < 0.2:
            ts[1] = ts[0]
    dag = _function(size, ways)[1]
    dom = DominatorTree(dag)
    back = {}
    for b, ts in ways.items():
        ups = [k for k in range(b + 1)
               if dag.blocks[b] in dom.idom and dom.dominates(dag.blocks[k], dag.blocks[b])]
        if len(ts) == 1 and ups and rng.random() < 0.5:
            back[b] = rng.choice(ups)
    d = ir.Param(0, "d", PointerType(U32))
    fn = ir.Function("k", ir.FunctionKind.OUT_KERNEL, [d], VOID)
    blocks = [fn.new_block("b") for _ in range(size)]
    for b, block in enumerate(blocks):
        count = block.append(ir.LoadParam(d, ir.Const(I32, b)))
        bumped = block.append(ir.BinOp("add", count, ir.Const(U32, 1), U32))
        block.append(ir.StoreParam(d, ir.Const(I32, b), bumped))
        ts = [blocks[t] for t in ways.get(b, [])]
        if b in back:
            ts = [blocks[back[b]], ts[0]]  # back while d[b] < 2, then on
        if len(ts) == 2:
            cond = block.append(ir.BinOp("ult", bumped, ir.Const(U32, 2), U32))
            block.append(ir.CondBr(cond, *ts))
        else:
            block.append(ir.Br(ts[0]) if ts else ir.Ret())
    for b, (block, ins) in enumerate(fn.predecessors().items()):
        if ins and block is not fn.entry:
            phi = ir.Phi(U32)
            for k, pred in enumerate(ins):
                phi.add_incoming(ir.Const(U32, 100 * b + k), pred)
            store = ir.StoreParam(d, ir.Const(I32, 16 + b), phi)
            block.instrs[:0] = [phi, store]
            phi.block = store.block = block
    module = ir.Module("m")
    module.add_function(fn)
    return module, fn


def test_random_reducible_cfgs_agree_with_oracle():
    """Loops that leave for several places (``ex``), loops in loops,
    phis on every edge, on 400 random CFGs: each runs as the oracle
    does, or is refused when a jump would fall past a merge node."""
    rng, seen, refused = random.Random(41), set(), 0
    for n in range(400):
        module, fn = _random_cfg(rng, 3 + n % 10)
        try:
            source = pygen.lower_function(fn, {}).source
        except PisaError as exc:
            assert "cannot place" in str(exc)
            refused += 1
            continue
        seen.update(word for word in ("ex =", "while True:") if word in source)
        run_both(module, fn, DeviceState(), {}, [[0] * 32])
    assert seen == {"ex =", "while True:"} and refused < 200, refused


# -- what the generated executors cost ----------------------------------------------


def generated_opcodes():
    """Bytecodes executed in ``<p4 ...>`` and ``<nir ...>`` code in one
    warmed Fig 4 batch (``sys.settrace`` with ``f_trace_opcodes``)."""
    job = AllReduceJob(4, 256, 8, multiround=True)
    rng = random.Random(7)
    arrays = [[rng.randrange(-2**31, 2**31) for _ in range(256)] for _ in range(4)]
    for _ in range(2):  # lazy lowering, first use of every table and slot
        job.run_round(arrays)
    counts = {"p4": 0, "nir": 0}

    def opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code.co_filename[1:4].strip()] += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(("<p4 ", "<nir ")):
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
            return opcode
        return None

    sys.settrace(call)
    try:
        job.run_round(arrays)
    finally:
        sys.settrace(None)
    return counts


#: opcodes of one warmed batch on CPython 3.11: 144 608 (switch) and
#: 145 856 (kernels) at fc92426, 126 304 and 100 180 now
OPCODES_MAX = {"p4": 126_304, "nir": 100_180}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="bytecode counted on CPython 3.11")
def test_generated_code_runs_at_most_the_pinned_opcodes():
    counts = generated_opcodes()
    assert all(counts[side] <= OPCODES_MAX[side] for side in counts), counts


#: a mask over an expression already masked the same
DOUBLE_MASK = re.compile(r"& (0x[0-9a-f]+)\)+ & \1\)")
#: a register index emitted as a literal, so its range check can never fire
LITERAL_INDEX = re.compile(r"^ *i = \d+$", re.M)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_switches_check_nothing_load_time_knows(name, opt_level):
    program = _compile(CASES[name], opt_level)
    for label, p4_program in sorted(program.switch_programs.items()):
        source = PisaSwitch(p4_program).pipeline.source
        assert not DOUBLE_MASK.search(source), (label, DOUBLE_MASK.search(source))
        assert not LITERAL_INDEX.search(source), (label, LITERAL_INDEX.search(source))
