"""Host code on the one executor, held to the walker it replaced.

:class:`repro.runtime.HostProgram` lowers a program's host functions
through ``repro.nir.lower`` and runs them on the generated NIR executor;
``tests/hostexec_oracle.py`` is the AST walker that ran them before. For
every host function in the repository the walker runs to completion
(``TestCorpus``) and for generated ones (``TestGeneratedHostFunctions``)
both must return the same value or raise the same trap (type and
message), and leave the same host memory, windows sent and switch state
(controller writes) behind -- from a fresh compile and, for the executor,
from the program's ``to_json`` / ``from_json`` round trip as well.

``TestIntendedDifferences`` pins where the two part on purpose, the
executor being the one that follows C (also listed in docs/COMPILER.md):

(a) a declaration ends with its block, where the walker let an inner
    ``int x`` overwrite the outer one;
(b) a host array index is bounds-checked (``PisaError``, as in kernels),
    where the walker indexed the Python list: ``[-1]`` read the last
    element and ``[8]`` raised a bare ``IndexError``;
(c) the step budget is the executor's ``MAX_STEPS`` per call, where the
    walker allowed 10M iterations per loop;
(d) an unsigned ``%`` by zero raises the data plane's message, not
    Python's;
(e) operands, ``?:`` arms and return values take C's usual arithmetic
    conversions, where the walker computed on the raw values (``-1 < 1u``
    was true);
(f) an assignment made in an ``if`` that a ``break`` or ``continue``
    leaves is kept, where the walker dropped it with the ``if``'s copy of
    the locals;
(g) what does not lower does not run -- a local array, the address of a
    local or of an array element: ``HostProgram.run`` raises
    ``RuntimeApiError`` naming the function and why (the compile does
    not fail).

The generator keeps clear of (a)-(f): names are never reused, indices
are masked in range, loops are short, every operand of a binary operator
and arm of ``?:`` is cast to one type, every value stored or returned is
cast to its destination's type, and ``break`` / ``continue`` sit only at
the top of a loop body.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError, ReproError, RuntimeApiError
from repro.nclc import CompiledProgram, Compiler, WindowConfig
from repro.runtime import Cluster, HostProgram

from tests.hostexec_oracle import OracleHostProgram, frontend
from tests.test_hostexec import AND, HOST_SEMANTICS, MAP_HOST, UNIFIED

ROOT = Path(__file__).resolve().parent.parent

_EXAMPLE = importlib.util.spec_from_file_location(
    "unified_allreduce", ROOT / "examples" / "unified_allreduce.py"
)
unified_allreduce = importlib.util.module_from_spec(_EXAMPLE)
_EXAMPLE.loader.exec_module(unified_allreduce)

#: a Python ZeroDivisionError message names the operator; see (d)
_MODULO_BY_ZERO = "division by zero in data-plane arithmetic"


def observed(cluster) -> dict:
    """What host code can change: host memory and windows sent, and the
    switches' registers and tables."""
    return {
        "hosts": {
            label: (copy.deepcopy(host.state.arrays), host.windows_sent)
            for label, host in cluster.hosts.items()
        },
        "switches": {
            label: (
                copy.deepcopy(node.switch.registers.arrays),
                {
                    table: [(e.match, e.action, e.args) for e in node.switch.table_entries(table)]
                    for table in node.switch.program.tables
                },
            )
            for label, node in cluster.switches.items()
        },
    }


def outcome(runner, fn: str, args=()):
    try:
        return ("returned", runner.run(fn, list(args)))
    except (ReproError, ArithmeticError, IndexError) as exc:
        message = str(exc)
        if isinstance(exc, ZeroDivisionError) and "modulo" in message:
            message = _MODULO_BY_ZERO
        return ("raised", type(exc).__name__, message)


def run_all(program, label: str, calls):
    """*calls* run one after another on one host of a fresh cluster per
    side: the oracle and the executor on *program*, and the executor on
    its artifact round trip. Returns the three (outcomes, state)."""
    text = program.to_json()
    loaded = CompiledProgram.from_json(text)
    assert loaded.to_json() == text
    sides = []
    for side, cls in ((program, OracleHostProgram), (program, HostProgram), (loaded, HostProgram)):
        cluster = Cluster.from_program(side)
        runner = cls(cluster, label)
        sides.append(([outcome(runner, fn, args) for fn, args in calls], observed(cluster)))
    return sides


def assert_agree(sides):
    oracle, *executors = sides
    for side in executors:
        assert side == oracle


# -- every host function the walker runs to completion --------------------------

CORPUS = {
    # tests/test_hostexec.py
    "unified": (UNIFIED, {"and_text": AND, "windows": {
        "allreduce": WindowConfig(mask=(4,), ext={"len": 4})}}, "w0",
        [("fill", [3]), ("main", [])]),
    "host-semantics": (HOST_SEMANTICS, {"windows": {"dummy": WindowConfig(mask=(1,))}},
                       "h0", [("arith", []), ("shortcircuit", []), ("loops", []),
                              ("pointers", [])]),
    "map": (MAP_HOST, {"and_text": "host a\nhost b\nswitch s1\nlink a s1\nlink s1 b",
                       "windows": {"probe": WindowConfig(mask=(1, 1))}}, "a",
            [("setup", [])]),
    # tests/test_analysis.py (Hot pinned with _at_ so that it compiles)
    "race-on-map": (
        '_net_ _at_("s1") ncl::Map<unsigned, unsigned, 64> Hot;\n'
        "_net_ _out_ void k(unsigned key) {\n"
        "  if (auto *h = Hot[key]) { if (*h) _drop(); }\n"
        "}\n"
        "int main() { ncl::map_insert(Hot, 1, 1); return 0; }\n",
        {}, "h0", [("main", [])]),
    "quickstart-ctrl": (
        '_net_ _at_("s1") _ctrl_ int threshold;\n'
        "_net_ _out_ void k(int *d) { if (d[0] > threshold) _drop(); }\n"
        "int main() { ncl::ctrl_wr(&threshold, 7); return 0; }\n",
        {}, "h0", [("main", [])]),
    "unused-kernel": (
        "_net_ _out_ void used(int *d) { d[0] = 1; }\n"
        "_net_ _out_ void lonely(int *d) { d[0] = 1; }\n"
        "int main() { ncl::out(used, {0}); return 0; }\n",
        {}, "h0", [("main", [])]),
    # tests/test_lowering.py
    "helper-call": (
        "int f(int x) { return x + 1; }\n"
        "_net_ _out_ void k(int *d) { d[0] = f(d[0]); }",
        {}, "h0", [("f", [41])]),
    "dead-return": (
        "int f() { return 1; return 2; }\n"
        "_net_ _out_ void k(int *d) { d[0] = f(); }",
        {}, "h0", [("f", [])]),
    "host-only": (
        '_net_ _at_("s1") _ctrl_ unsigned n;\n'
        "_net_ _out_ void k(unsigned *d) { d[0] = n; }\n"
        "int main() { ncl::ctrl_wr(&n, 4); return 0; }",
        {}, "h0", [("main", [])]),
    # the Fig 2 form, which no program above uses: a destination label
    "out-to-host": (
        "int buf[2] = {4, 5};\n"
        "_net_ _out_ void inc(int *d) { d[0] = d[0] + 1; }\n"
        'int main() { return ncl::out(inc, {buf}, "h1"); }',
        {}, "h0", [("main", [])]),
    # tests/test_sema.py
    "ctrl-reference": (
        '_net_ _at_("s1") _ctrl_ unsigned n;\n'
        "_net_ _out_ void k(int *d) { d[0] = n; }\n"
        "int main() { ncl::ctrl_wr(&n, 16); return 0; }",
        {}, "h0", [("main", [])]),
}


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_executor_agrees_with_walker(self, name):
        source, options, label, calls = CORPUS[name]
        sides = run_all(Compiler().compile(source, **options), label, calls)
        assert all(result[0] == "returned" for result in sides[0][0])
        assert_agree(sides)

    @pytest.mark.parametrize("rank", range(3))
    def test_unified_allreduce_main_for_each_rank(self, rank):
        """examples/unified_allreduce.py: the other ranks send their share
        first (the example's ``_send_only``), then *rank* runs ``main()``."""
        n = 3
        example = unified_allreduce
        and_text = "\n".join(
            [f"host w{i}" for i in range(n)] + ["switch s1"]
            + [f"link w{i} s1" for i in range(n)]
        )

        def defines(r):
            return {"DATA_LEN": example.DATA_LEN, "WIN_LEN": example.WIN_LEN,
                    "NWORKERS": n, "MY_RANK": r}

        def compile_rank(r):
            return Compiler().compile(
                example.UNIFIED_SOURCE,
                and_text=and_text,
                windows={"allreduce": WindowConfig(
                    mask=(example.WIN_LEN,), ext={"len": example.WIN_LEN})},
                defines=defines(r),
            )

        fresh = [compile_rank(r) for r in range(n)]
        loaded = [CompiledProgram.from_json(p.to_json()) for p in fresh]
        assert [p.to_json() for p in loaded] == [p.to_json() for p in fresh]
        sides = []
        for programs, cls in ((fresh, OracleHostProgram), (fresh, HostProgram),
                              (loaded, HostProgram)):
            cluster = Cluster.from_program(programs[0])
            hosts = [cls(cluster, f"w{r}") for r in range(n)]
            for r, host in enumerate(hosts):
                host.program = programs[r]
                if cls is OracleHostProgram:  # what the walker reads
                    host.unit = frontend(example.UNIFIED_SOURCE, defines(r))
            for r in range(n):
                if r != rank:
                    example._send_only(hosts[r], r, n)
            sides.append((outcome(hosts[rank], "main"), observed(cluster)))
        assert sides[0][0] == ("returned", 0)
        expected = [sum(i * (r + 1) for r in range(n)) for i in range(example.DATA_LEN)]
        assert sides[0][1]["hosts"][f"w{rank}"][0]["result_buf"] == expected
        assert_agree(sides)


# -- generated host functions --------------------------------------------------------

TYPES = ("int8_t", "int16_t", "int32_t", "int64_t",
         "uint8_t", "uint16_t", "uint32_t", "uint64_t")
LITERALS = ("0", "1", "2", "3", "7", "8", "31", "32", "33", "63", "64", "100",
            "127", "128", "255", "256", "32767", "65535", "2147483647",
            "4294967295", "9223372036854775807")
ARITH = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^")
NO_TRAP = ("+", "-", "*", "&", "|", "^")
COMPARE = ("==", "!=", "<", "<=", ">", ">=")

PRELUDE = (
    '_net_ _at_("s1") _ctrl_ uint32_t knob;\n'
    '_net_ _out_ _at_("s1") void probe(uint32_t *d) { d[0] = knob; }\n'
    "int32_t arr[8];\n"
)


class _HostSource:
    """Draws the body of one host function ``f`` (module docstring: what
    it leaves out, and why)."""

    def __init__(self, draw, scalars, ret):
        self.draw = draw
        self.scalars = scalars  # assignable name -> type
        self.ret = ret
        self.counters = []  # loop counters in scope: read, never assigned
        self.loops = 0

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def index(self) -> str:
        return f"(({self.expr(2, traps=False)}) & 7)"

    def expr(self, depth: int = 0, traps: bool = True) -> str:
        kinds = ["var", "literal"]
        if depth < 3:
            kinds += ["arith", "compare", "unary", "cast", "logical", "select"]
        kind = self.pick(kinds)
        if kind == "var":
            name = self.pick(sorted(self.scalars) + self.counters + ["arr"])
            return f"arr[{self.index()}]" if name == "arr" else name
        if kind == "literal":
            return self.pick(LITERALS)
        ty = self.pick(TYPES)

        def sub() -> str:
            return self.expr(depth + 1, traps)

        if kind == "arith":
            return f"(({ty})({sub()}) {self.pick(ARITH if traps else NO_TRAP)} ({ty})({sub()}))"
        if kind == "compare":
            return f"(({ty})({sub()}) {self.pick(COMPARE)} ({ty})({sub()}))"
        if kind == "unary":
            return f"({self.pick(('-', '~', '!'))}({ty})({sub()}))"
        if kind == "cast":
            return f"(({ty})({sub()}))"
        if kind == "logical":
            return f"(({sub()}) {self.pick(('&&', '||'))} ({sub()}))"
        return f"(({sub()}) ? ({ty})({sub()}) : ({ty})({sub()}))"

    def block(self, depth: int, loop_top: bool) -> str:
        count = self.draw(st.integers(1, 3))
        return "\n".join(self.stmt(depth, loop_top) for _ in range(count))

    def stmt(self, depth: int, loop_top: bool) -> str:
        kinds = ["assign", "assign", "compound", "step", "ctrl_wr", "out", "return"]
        if depth < 2:
            kinds += ["if", "for", "while"]
        if loop_top:
            kinds += ["break", "continue"]
        kind = self.pick(kinds)
        if kind in ("assign", "compound"):
            name = self.pick(sorted(self.scalars) + ["arr"])
            ty = self.scalars.get(name, "int32_t")
            target = f"arr[{self.index()}]" if name == "arr" else name
            op = "=" if kind == "assign" else self.pick(ARITH) + "="
            return f"{target} {op} ({ty})({self.expr()});"
        if kind == "step":
            name = self.pick(sorted(self.scalars))
            return self.pick((f"{name}++;", f"--{name};"))
        if kind == "ctrl_wr":
            return f"ncl::ctrl_wr(&knob, (uint32_t)({self.expr()}));"
        if kind == "out":
            return f"ncl::out(probe, {{(uint32_t)({self.expr()})}});"
        if kind == "return":
            return f"if ({self.expr()}) return ({self.ret})({self.expr()});"
        if kind in ("break", "continue"):
            return f"if ({self.expr()}) {kind};"
        if kind == "if":
            cond = self.expr()
            then, other = self.block(depth + 1, False), self.block(depth + 1, False)
            return f"if ({cond}) {{\n{then}\n}} else {{\n{other}\n}}"
        counter, bound = f"c{self.loops}", self.pick(("1", "2", "3", "4"))
        self.loops += 1
        self.counters.append(counter)
        body = self.block(depth + 1, True)
        self.counters.remove(counter)
        if kind == "for":
            return f"for (int32_t {counter} = 0; {counter} < {bound}; ++{counter}) {{\n{body}\n}}"
        return f"int32_t {counter} = 0;\nwhile ({counter} < {bound}) {{\n++{counter};\n{body}\n}}"


@st.composite
def host_programs(draw) -> str:
    host_globals = {f"g{i}": draw(st.sampled_from(TYPES)) for i in range(draw(st.integers(1, 3)))}
    local_vars = {f"l{i}": draw(st.sampled_from(TYPES)) for i in range(draw(st.integers(1, 3)))}
    ret = draw(st.sampled_from(TYPES))
    gen = _HostSource(draw, {**host_globals, **local_vars}, ret)
    # a global's initializer is stored as written: keep it in every type's range
    globals_src = "".join(
        f"{ty} {name} = {draw(st.integers(0, 127))};\n" for name, ty in host_globals.items()
    )
    body = [f"{ty} {name} = ({ty})({gen.pick(LITERALS)});" for name, ty in local_vars.items()]
    body.append(gen.block(0, False))
    body.append(f"return ({ret})({gen.expr()});")
    return PRELUDE + globals_src + f"{ret} f() {{\n" + "\n".join(body) + "\n}\n"


class TestGeneratedHostFunctions:
    @given(source=host_programs())
    @settings(max_examples=60, deadline=None)
    def test_executor_agrees_with_walker(self, source):
        program = Compiler().compile(source)
        assert program.host_errors == {}
        assert_agree(run_all(program, "h0", [("f", [])]))


# -- where the two part on purpose ----------------------------------------------------

DIFFERENCES = r"""
int scratch[8];
_net_ _out_ void dummy(int *d) { }

int shadow() { int x = 1; { int x = 2; } return x; }
int below() { scratch[7] = 42; return scratch[-1]; }
int past() { return scratch[8]; }
int spin() { while (1) { } return 0; }
unsigned umod(unsigned z) { return 5u % z; }
int mixed() { int x = -1; unsigned u = 1; return x < u; }
int kept() {
  int x = 0;
  for (int i = 0; i < 3; ++i) { if (i == 1) { x = 5; break; } }
  return x;
}
int local_array() { int buf[4]; buf[1] = 3; return buf[1]; }
int calls_local_array() { return local_array(); }
"""


@pytest.fixture(scope="module")
def differences():
    program = Compiler().compile(DIFFERENCES, windows={"dummy": WindowConfig(mask=(1,))})
    loaded = CompiledProgram.from_json(program.to_json())

    def run(fn, *args, oracle=False, artifact=False):
        cls = OracleHostProgram if oracle else HostProgram
        return cls(Cluster.from_program(loaded if artifact else program), "h0").run(fn, list(args))

    return run


class TestIntendedDifferences:
    def test_a_declaration_ends_with_its_block(self, differences):
        assert differences("shadow") == 1
        assert differences("shadow", oracle=True) == 2

    def test_a_negative_host_index_is_out_of_range(self, differences):
        # an index is a uint32_t, in host code as in kernels: -1 is 2**32 - 1
        with pytest.raises(
            PisaError, match=r"index 4294967295 out of range for scratch \[8 elements\]"
        ):
            differences("below")
        assert differences("below", oracle=True) == 42

    def test_a_host_index_past_the_end_is_out_of_range(self, differences):
        with pytest.raises(PisaError, match=r"index 8 out of range for scratch \[8 elements\]"):
            differences("past")
        with pytest.raises(IndexError):
            differences("past", oracle=True)

    def test_the_step_budget_is_per_call(self, differences):
        # (the walker's 10M-iteration guard takes minutes to trip)
        with pytest.raises(PisaError, match="spin: step budget exceeded"):
            differences("spin")

    def test_unsigned_modulo_by_zero_message(self, differences):
        with pytest.raises(ZeroDivisionError, match=_MODULO_BY_ZERO):
            differences("umod", 0)
        with pytest.raises(ZeroDivisionError, match="modulo by zero"):
            differences("umod", 0, oracle=True)

    def test_usual_arithmetic_conversions(self, differences):
        assert differences("mixed") == 0  # -1 converts to 0xffffffff
        assert differences("mixed", oracle=True) == 1

    def test_an_assignment_before_break_is_kept(self, differences):
        assert differences("kept") == 5
        assert differences("kept", oracle=True) == 0

    @pytest.mark.parametrize("artifact", [False, True])
    def test_what_does_not_lower_does_not_run(self, differences, artifact):
        with pytest.raises(
            RuntimeApiError, match=r"'local_array'.*unsupported indexed expression"
        ):
            differences("local_array", artifact=artifact)
        with pytest.raises(RuntimeApiError, match=r"'calls_local_array'.*calls 'local_array'"):
            differences("calls_local_array", artifact=artifact)
        assert differences("shadow", artifact=artifact) == 1  # the rest runs
        assert differences("local_array", oracle=True) == 3


# -- runtime calls that cannot complete -------------------------------------------------


class TestIdleNetwork:
    def test_ncl_in_raises_when_no_window_is_coming(self):
        source = UNIFIED + "int wait() { return ncl::in(result, {result_buf, &done}); }\n"
        program = Compiler().compile(
            source, and_text=AND,
            windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
        )
        host = HostProgram(Cluster.from_program(program), "w0")
        with pytest.raises(RuntimeApiError, match=r"ncl::in\(result\).*idle.*\(0 received"):
            host.run("wait")
        assert host.run("main") == 4
        with pytest.raises(RuntimeApiError, match=r"\(4 received"):
            host.run("wait")


def test_a_host_free_program_writes_no_host_key():
    program = Compiler().compile("_net_ _out_ void k(int *d) { d[0] = 1; }")
    assert program.host_module is None and '"host"' not in program.to_json()
