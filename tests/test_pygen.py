"""The lowered executors against their independent oracles.

``repro.nir.pygen`` and ``repro.pisa.pygen`` generate the Python that
runs kernels and switch programs; ``tests/nir_oracle.py`` and
``tests/pisa_oracle.py`` are the tree-walkers, the dict PHV, the parse
loop and the table scan they replaced. Here every shipped and fuzzed
kernel, random P4 expressions and action bodies, every shipped switch
program on valid and mangled frames, and tables under random control-
plane traffic run on both, and must agree on results, state, traps and
trap messages.
"""

import copy
import random
import traceback

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import PisaError
from repro.ncp.wire import HEADERS, encode_frame, node_ip
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
    Table,
    TableEntry,
)
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline
from repro.pisa.switch_dev import PisaSwitch

from tests import nir_oracle
from tests.diffutil import kernel_module, random_args, run_both
from tests.nir_oracle import OracleInterpreter
from tests.pisa_oracle import OraclePhv, OraclePipeline, OracleSwitch
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
    p.add_header(HeaderType("g_t", [("z", 16)]), "g")
    for name, bits in _FIELDS.items():
        p.add_metadata(name, bits)
    p.add_register(RegisterArray("r", 32, 4))
    p.add_register(RegisterArray("wide", 64, 3))
    return p


_leaves = st.one_of(
    st.builds(PConst, st.integers(-(2**65), 2**65), _widths),
    st.builds(PField, st.sampled_from(
        [f"meta.{n}" for n in _FIELDS] + ["valid.h", "valid.g", "h.x", "h.y", "g.z"]
    )),
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
_dsts = st.sampled_from([f"meta.{n}" for n in _FIELDS] + ["h.x", "h.y", "g.z"])
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


#: each executor with the PHV it runs on
SIDES = [(Pipeline, Phv), (OraclePipeline, OraclePhv)]


def _fields(phv):
    """Every field that holds a value and every header's validity, from
    either kind of PHV."""
    if isinstance(phv, OraclePhv):
        return dict(phv.fields), dict(phv.valid)
    return phv.as_dict(), {inst: phv.is_valid(inst) for inst in phv.layout.valid}


def _run_action(side, prims, control, fields, valid, arg, register_seed):
    """One pipeline, one PHV, one packet; everything observable after it."""
    pipeline_cls, phv_cls = side
    p = _program()
    p.add_action(Action("act", prims, params=[("p", 64)]))
    p.add_action(Action("alt", [PAssign("meta.c", PConst(0xA5, 8))]))
    p.control = control
    pipe = pipeline_cls(p)
    rng = random.Random(register_seed)
    for array in pipe.registers.arrays.values():
        array[:] = [rng.randrange(2**32) for _ in array]
    phv = phv_cls(p)
    for instance in valid:
        phv.set_valid(instance)
    for name, value in fields.items():
        phv.write(f"meta.{name}", value)
    seen = {}
    try:
        pipe.run_action("act", phv, [arg])
        pipe.run(phv)
        seen["stats"] = pipe.stats.as_dict()
    except PisaError as exc:
        seen["raised"] = str(exc)
    seen["fields"], seen["valid"] = _fields(phv)
    seen.update(registers=copy.deepcopy(pipe.registers.arrays),
                runs=dict(pipe.stats.action_runs))
    return seen


_valid_sets = st.sets(st.sampled_from(["h", "g"]))


#: one random action body, control condition, PHV, argument and registers
_ACTIONS = dict(
    prims=st.lists(_prims, max_size=5),
    cond=_exprs.filter(lambda e: not _mentions_param(e)),
    fields=st.fixed_dictionaries({n: st.integers(0, 2**64) for n in _FIELDS}),
    valid=_valid_sets,
    arg=st.integers(-(2**64), 2**65),
    register_seed=st.integers(0, 7),
)


@given(**_ACTIONS)
@settings(max_examples=250, deadline=None)
def test_random_actions_agree_with_oracle(prims, cond, fields, valid, arg, register_seed):
    """A read of a field nothing was extracted into raises the same error
    at the same point -- mid-action, with the same state behind it --
    wherever it sits: an operand, a mux arm or condition, a register
    index, or a compare such as ``h.x != 2`` that no sentinel value would
    trip on its own. A field written first reads back, header valid or
    not."""
    control = [IfNode(cond, [Do("alt")])]
    runs = [
        _run_action(side, prims, control, fields, valid, arg, register_seed)
        for side in SIDES
    ]
    assert runs[0] == runs[1]


@given(expr=_exprs.filter(lambda e: not _mentions_param(e)),
       fields=st.fixed_dictionaries({n: st.integers(0, 2**64) for n in _FIELDS}),
       valid=_valid_sets)
@settings(max_examples=200, deadline=None)
def test_random_expressions_agree_with_oracle(expr, fields, valid):
    """The value itself (through a 64-bit probe field), not just its
    effect on state."""
    results = []
    for pipeline_cls, phv_cls in SIDES:
        p = _program()
        p.add_metadata("probe", 64)
        p.add_action(Action("probe", [PAssign("meta.probe", expr)]))
        pipe, phv = pipeline_cls(p), phv_cls(p)
        for instance in valid:
            phv.set_valid(instance)
        for name, value in fields.items():
            phv.write(f"meta.{name}", value)
        try:
            pipe.run_action("probe", phv)
            results.append(phv.read("meta.probe"))
        except PisaError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    if isinstance(results[1], int):
        assert results[1] == OraclePipeline(p).eval_expr(expr, phv, {}) & (2**64 - 1)


# ---------------------------------------------------------------------------
# Whole switches: generated parser + actions + table index + deparser vs.
# the dict-PHV parse loop, walker, table scan and bit-at-a-time deparser
# ---------------------------------------------------------------------------


def _both_switches(p4_program, node_ids):
    """A lowered and an oracle switch over one program, the oracle
    matching the lowered switch's table entries, each with its own
    registers, deployed alike: a route per node, every control scalar 2,
    three keys in every map."""
    sw = PisaSwitch(p4_program)
    oracle = OracleSwitch(p4_program, tables=sw.tables)
    for node in node_ids:
        sw.table_insert("ipv4_route", [node_ip(node)], "ipv4_forward", [node % 3])
    for name, table in p4_program.tables.items():
        if name.startswith("map_"):
            for slot, key in enumerate((1, 3, 5)):
                if slot < table.size:
                    sw.table_insert(name, [key], f"{name}_hit", [slot])
    for name, reg in p4_program.registers.items():
        if reg.size == 1:
            for registers in (sw.registers, oracle.registers):
                registers.write(name, 0, 2)
    return sw, oracle


def _windows(program, case, rng, count):
    """Valid frames of every kernel the program ships a layout for, with
    the small operands that keep compares and map lookups on both sides."""
    nodes = sorted(program.label_ids.values())
    frames = []
    for layout in program.layouts.values():
        for _ in range(count):
            chunks = [[rng.randint(-8, 15) for _ in range(c.count)] for c in layout.chunks]
            ext = {name: case["meta_ext"].get(name, rng.randrange(4))
                   for name, _, _ in layout.ext_fields}
            frames.append(encode_frame(
                layout, rng.choice(nodes), rng.choice(nodes),
                rng.randrange(case["seq_range"]), chunks, ext,
                last=rng.random() < 0.5, from_node=rng.choice(nodes),
            ))
    return frames


def _mangled(frame):
    """The ways a frame can miss the parse graph's happy path."""
    def patched(field, value, width):
        at = HEADERS.offset(field)
        return frame[:at] + value.to_bytes(width, "big") + frame[at + width:]

    yield from (frame[:cut] for cut in range(len(frame)))
    yield patched("eth.ethertype", 0x86DD, 2)
    yield patched("ipv4.proto", 6, 1)
    yield patched("udp.dport", 9999, 2)
    yield patched("ncp.magic", 0, 2)
    yield patched("ncp.kernel_id", 0x7777, 2)
    yield frame + b"seven trailing bytes"


def _observe(switch, frame):
    try:
        result = switch.process(frame)
        return result.verdict, result.label_id, result.data
    except PisaError as exc:
        return str(exc)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_shipped_switches_agree_with_oracle(name, opt_level):
    case = CASES[name]
    program = _compile(case, opt_level)
    rng = random.Random(f"switch:{name}")
    nodes = sorted(program.label_ids.values())
    for label in sorted(program.switch_programs):
        sw, oracle = _both_switches(program.switch_programs[label], nodes)
        windows = _windows(program, case, rng, count=6)
        frames = windows + [bad for frame in windows[::6] for bad in _mangled(frame)]
        outcomes = set()
        for frame in frames:
            got = _observe(sw, frame)
            assert got == _observe(oracle, frame), (label, frame.hex())
            assert sw.registers.arrays == oracle.registers.arrays, (label, frame.hex())
            outcomes.add(type(got))
        assert sw.stats.as_dict() == oracle.pipeline.stats.as_dict()
        assert outcomes == {tuple, str}  # some went through, some were refused


def test_parse_graph_corner_cases_agree_with_oracle():
    """What no shipped program has: a state extracting two headers, a
    select with a repeated value, on an earlier header, on a header never
    extracted, a loop, ``reject``, and a sub-byte layout."""
    from repro.p4.model import ParseState

    p = P4Program("corners")
    p.add_header(HeaderType("a_t", [("kind", 4), ("len", 4), ("next", 8)]), "a")
    p.add_header(HeaderType("b_t", [("x", 48)]), "b")
    p.add_header(HeaderType("c_t", [("y", 16), ("z", 16)]), "c")
    p.parser = [
        ParseState("start", ["a", "b"], "a.kind", [(1, "more"), (1, "reject"), (2, "reject"),
                                                   (3, "again"), (4, "blind")]),
        ParseState("more", ["c"], "a.next", [(7, "start")]),
        ParseState("again", [], "valid.c", [(0, "tail")]),
        ParseState("tail", ["c"], "meta.fwd", [(0, "accept"), (1, "reject")]),
        ParseState("blind", [], "c.y", [(0, "accept")]),
    ]
    p.deparser = ["c", "a", "b"]
    sw, oracle = PisaSwitch(p), OracleSwitch(p)
    rng = random.Random(15)
    for kind in range(6):
        for nxt in (0, 7):
            frame = bytes([kind << 4 | 5, nxt]) + rng.randbytes(40)
            for cut in range(len(frame) + 1):
                assert _observe(sw, frame[:cut]) == _observe(oracle, frame[:cut]), (kind, nxt, cut)
    with pytest.raises(PisaError, match="parse graph did not terminate"):
        sw.process(bytes([0x15, 7] + [0] * 6 + [0] * 4) * 70)
    # A loop with two ways round cannot be expanded; it is refused when
    # the switch is built, not discovered 2**64 states later.
    p.parser[2] = ParseState("again", [], "valid.c", [(0, "more")])
    with pytest.raises(PisaError, match="parse graph expands past 1024 states"):
        PisaSwitch(p)


# ---------------------------------------------------------------------------
# The width invariant the P4 lowering drops masks by: every slot and every
# register holds a value within its own width, whoever wrote it
# ---------------------------------------------------------------------------


def _out_of_width(program, fields, registers):
    """The fields (a name -> value dict) and register cells that hold a
    value outside ``[0, 2**bits)``."""
    bad = [ref for ref, v in fields.items() if not 0 <= v < 1 << program.field_bits(ref)]
    for name, values in registers.items():
        bits = program.registers[name].bits
        bad += [(name, k) for k, v in enumerate(values) if not 0 <= v < 1 << bits]
    return bad


@given(**_ACTIONS)
@settings(max_examples=250, deadline=None)
def test_every_action_leaves_slots_and_registers_in_width(
    prims, cond, fields, valid, arg, register_seed
):
    """After the random action alone, and after it and the control block,
    trap or not."""
    for control in ([], [IfNode(cond, [Do("alt")])]):
        seen = _run_action(SIDES[0], prims, control, fields, valid, arg, register_seed)
        assert not _out_of_width(_program(), seen["fields"], seen["registers"]), seen


def test_every_writer_keeps_slots_and_registers_in_width():
    """The parser, ``Phv.write``, ``RegisterState`` (initial values and
    writes), ``reset_registers``, ``ctrl_register_write`` and the two
    constants ``process()`` writes."""
    from repro.p4.model import FWD_PASS, META_FWD, META_FWD_LABEL, NO_LABEL

    program = _compile(CASES["fig5-kvs"], 2)
    p4_program = program.switch_programs["s1"]
    sw = PisaSwitch(p4_program)
    for frame in _windows(program, CASES["fig5-kvs"], random.Random(3), count=20):
        phv = sw.parser.parse(frame)
        assert not _out_of_width(p4_program, phv.as_dict(), {})
        assert not _out_of_width(p4_program, sw.process(frame).phv.as_dict(), {})
    assert FWD_PASS >> p4_program.field_bits(META_FWD) == 0
    assert NO_LABEL >> p4_program.field_bits(META_FWD_LABEL) == 0

    p = _program()
    p.registers["r"].initial = [-1, 2**40, 5]
    phv = Phv(p)
    for k, ref in enumerate(phv.layout.slots):
        phv.write(ref, (-1, 2**70 + 3, -(2**64))[k % 3])
    assert not _out_of_width(p, phv.as_dict(), {})
    sw = PisaSwitch(p)
    assert not _out_of_width(p, {}, sw.registers.arrays)
    sw.ctrl_register_write("r", -7, 3)
    sw.registers.write("wide", 2, 2**64 + 9)
    assert sw.registers.arrays == {"r": [2**32 - 1, 0, 5, 2**32 - 7], "wide": [0, 0, 9]}
    sw.reset_registers()
    assert sw.registers.arrays == {"r": [2**32 - 1, 0, 5, 0], "wide": [0, 0, 0]}


def test_a_width_rule_that_lets_everything_fit_is_caught(monkeypatch):
    """The seeded mutation: with every known width taken to fit, the
    masks that change a value go too, and the oracle suites see it."""
    from repro.util import intops

    monkeypatch.setattr(intops, "fits", lambda width, bits, signed: True)
    inner = test_random_actions_agree_with_oracle.hypothesis.inner_test
    unshrunk = settings(max_examples=250, deadline=None, database=None, phases=[Phase.generate])
    with pytest.raises(AssertionError):
        given(**_ACTIONS)(unshrunk(lambda **case: inner(**case)))()
    for name in ("fig4_allreduce", "stats"):  # the cases whose sums wrap
        with pytest.raises(AssertionError):
            test_shipped_switches_agree_with_oracle(name, 2)


# ---------------------------------------------------------------------------
# Tables: the index Table keeps vs. the oracle's scan, under control-plane
# traffic
# ---------------------------------------------------------------------------


def _table_program():
    """The Fig 5 switch plus a table with a ternary key."""
    program = _compile(CASES["fig5-kvs"], 2).switch_programs["s1"]
    program.add_table(Table(
        "acl", [("ipv4.dst", "ternary"), ("ncp.kernel_id", "exact")],
        ["ipv4_forward"], "ipv4_miss", managed_by="control-plane", size=5,
    ))
    return program


class TableTraffic(RuleBasedStateMachine):
    """Inserts, replacements, deletions, priority ties, a full table and
    a switch rebuilt from the entries installed so far; after every step
    each key of a small domain must find the same entry through
    ``Pipeline.apply_table`` (index, or production scan for ``acl``) as
    through the oracle's scan."""

    pristine = None
    keys = st.integers(0, 4)
    patterns = st.one_of(keys, st.tuples(keys, st.sampled_from([0, 1, 6, 0xFFFFFFFF])))

    def __init__(self):
        super().__init__()
        if TableTraffic.pristine is None:
            TableTraffic.pristine = _table_program()
        self._load(copy.deepcopy(TableTraffic.pristine))

    def _load(self, program):
        self.sw = PisaSwitch(program)
        self.oracle = OraclePipeline(self.sw.program, tables=self.sw.tables)

    def _attempt(self, install):
        """A refused install leaves the table as it was."""
        before = {name: list(t.entries) for name, t in self.sw.tables.items()}
        try:
            install()
        except PisaError as exc:
            assert "full" in str(exc)
            after = {name: list(t.entries) for name, t in self.sw.tables.items()}
            assert after == before

    @rule(key=keys, value=st.integers(0, 7), priority=st.integers(0, 2))
    def add_duplicate_or_new(self, key, value, priority):
        table = self.sw.tables["map_Idx"]
        self._attempt(lambda: table.add_entry(TableEntry([key], "map_Idx_hit", [value], priority)))

    @rule(key=keys, value=st.integers(0, 7))
    def insert_or_replace(self, key, value):
        self._attempt(lambda: self.sw.table_insert("map_Idx", [key], "map_Idx_hit", [value]))

    @rule(key=keys)
    def delete(self, key):
        self.sw.table_delete("map_Idx", [key])

    @rule(pattern=patterns, kernel=st.integers(1, 2), port=st.integers(0, 3),
          priority=st.integers(0, 2))
    def add_ternary(self, pattern, kernel, port, priority):
        table = self.sw.tables["acl"]
        self._attempt(lambda: table.add_entry(
            TableEntry([pattern, kernel], "ipv4_forward", [port], priority)))

    @rule(pattern=patterns, kernel=st.integers(1, 2))
    def delete_ternary(self, pattern, kernel):
        self.sw.table_delete("acl", [pattern, kernel])

    @rule()
    def rebuilt_from_its_entries(self):
        """Every table built anew with ``entries=``, which indexes them."""
        program = copy.deepcopy(self.sw.program)
        for name, t in self.sw.tables.items():
            program.tables[name] = Table(
                t.name, t.keys, t.actions, t.default_action, t.default_args,
                t.entries, t.managed_by, t.size,
            )
        self._load(program)

    @invariant()
    def lookups_agree(self):
        program = self.sw.program
        assert self.sw.tables["map_Idx"].index is not None
        assert self.sw.tables["acl"].index is None
        for table, fields in (
            ("map_Idx", [{"meta.map_Idx_key": k} for k in range(6)]),
            ("acl", [{"ipv4.dst": d, "ncp.kernel_id": k} for d in range(6) for k in (1, 2, 3)]),
        ):
            for values in fields:
                seen = []
                for pipe, phv in ((self.sw.pipeline, Phv(program)), (self.oracle, OraclePhv(program))):
                    for header in ("ipv4", "ncp"):
                        phv.set_valid(header)
                    for ref, value in values.items():
                        phv.write(ref, value)
                    seen.append((pipe.apply_table(table, phv), _fields(phv)))
                assert seen[0] == seen[1], (table, values)


TableTraffic.TestCase.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)
test_table_lookup_agrees_with_scan = TableTraffic.TestCase


def test_an_entry_added_before_the_pipeline_is_indexed():
    """``entries=`` at construction and ``add_entry`` on a bare Table,
    with no switch in sight, feed the same index."""
    entries = [TableEntry([1], "a", [], 0), TableEntry([1], "b", [], 2), TableEntry([1], "c", [], 2)]
    table = Table("t", [("meta.k", "exact")], ["a", "b", "c"], "a", entries=entries)
    assert table.index[(1,)] is entries[1]  # the highest priority, the first of equals
    table.remove_entries(lambda e: e.action == "b")
    assert table.index[(1,)] is entries[2]
    table.remove_entries(lambda e: True)
    assert table.index == {} and table.entries == []


# ---------------------------------------------------------------------------
# Errors out of generated code stay explainable -- on executor and oracle alike
# ---------------------------------------------------------------------------

INTERPRETERS = [Interpreter, OracleInterpreter]


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


@pytest.mark.parametrize("cls, phv_cls", SIDES)
class TestPisaMessages:
    def test_read_in_invalid_header(self, cls, phv_cls):
        p = _tiny()
        p.add_action(Action("copy", [PAssign("meta.t", PField("h.a"))]))
        p.control = [IfNode(PBin("eq", PField("h.a"), PConst(1, 8), 8), [Do("copy")])]
        pipe = cls(p)
        for run in (lambda phv: pipe.run_action("copy", phv), pipe.run):
            with pytest.raises(PisaError, match="read of field 'h.a' in invalid header"):
                run(phv_cls(p))

    def test_unbound_action_parameter(self, cls, phv_cls):
        p = _tiny()
        p.add_action(Action("bad", [PAssign("meta.t", PParam("nope", 8))]))
        with pytest.raises(PisaError, match="unbound action parameter 'nope'"):
            cls(p).run_action("bad", phv_cls(p))

    def test_unknown_action(self, cls, phv_cls):
        p = _tiny()
        with pytest.raises(PisaError, match="unknown action 'ghost'"):
            cls(p).run_action("ghost", phv_cls(p))

    def test_register_index_out_of_range(self, cls, phv_cls):
        p = _tiny()
        p.add_register(RegisterArray("r", 8, 2))
        p.add_action(Action("rd", [PRegRead("meta.t", "r", PParam("i", 8))], params=[("i", 8)]))
        with pytest.raises(PisaError, match=r"register r: index 5 out of range \[0, 2\)"):
            cls(p).run_action("rd", phv_cls(p), [5])


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
