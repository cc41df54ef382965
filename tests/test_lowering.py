"""AST -> NIR lowering."""

import pytest

from repro.errors import NclTypeError
from repro.nir import ir
from repro.nir.interp import DeviceState, run_kernel
from repro.nir.lower import lower_host
from repro.nir.verify import verify_module

from tests.conftest import (
    ALLREDUCE_DEFINES,
    ALLREDUCE_SRC,
    KVS_DEFINES,
    KVS_SRC,
    frontend_unit,
    lowered_module,
)


def instrs_of(module, fn_name, cls):
    return [i for i in module.functions[fn_name].instructions() if isinstance(i, cls)]


class TestGlobals:
    def test_spaces(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        assert mod.globals["accum"].space == "net"
        assert mod.globals["nworkers"].space == "ctrl"

    def test_initializer_flattening(self):
        mod = lowered_module("int m[2][3] = {{1, 2}, {4}};")
        assert mod.globals["m"].init == [1, 2, 0, 4, 0, 0]

    def test_scalar_initializer(self):
        mod = lowered_module("unsigned x = 7;")
        assert mod.globals["x"].init == [7]

    def test_zero_fill(self):
        mod = lowered_module("int a[4] = {0};")
        assert mod.globals["a"].init == [0, 0, 0, 0]


class TestAllReduceLowering:
    def test_verifies(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        verify_module(mod)

    def test_kernel_kinds(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        assert mod.functions["allreduce"].kind is ir.FunctionKind.OUT_KERNEL
        assert mod.functions["result"].kind is ir.FunctionKind.IN_KERNEL

    def test_window_fields_lower_to_winfld(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        fields = {i.field for i in instrs_of(mod, "allreduce", ir.WinField)}
        assert {"seq", "len"} <= fields

    def test_ctrl_read_present(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        reads = instrs_of(mod, "allreduce", ir.CtrlRead)
        assert len(reads) == 1 and reads[0].ref.name == "nworkers"

    def test_forwarding_decisions(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        kinds = {i.kind for i in instrs_of(mod, "allreduce", ir.Fwd)}
        assert kinds == {ir.FwdKind.BCAST, ir.FwdKind.DROP}

    def test_memcpy_regions(self):
        mod = lowered_module(ALLREDUCE_SRC, ALLREDUCE_DEFINES)
        (cpy,) = instrs_of(mod, "allreduce", ir.Memcpy)
        assert cpy.dst.kind == "param" and cpy.dst.param.name == "data"
        assert cpy.src.kind == "global" and cpy.src.ref.name == "accum"


class TestKvsLowering:
    def test_verifies(self):
        verify_module(lowered_module(KVS_SRC, KVS_DEFINES))

    def test_map_lookup_chain(self):
        mod = lowered_module(KVS_SRC, KVS_DEFINES)
        lookups = instrs_of(mod, "query", ir.MapLookup)
        assert len(lookups) == 3  # one per branch arm before CSE
        founds = instrs_of(mod, "query", ir.MapFound)
        assert founds  # `if (auto *idx = ...)` tests found-ness
        for f in founds:
            # pre-mem2reg the token flows through the `idx` stack slot
            assert f.operands[0].ty.is_pointer

    def test_2d_row_memcpy_offsets_scaled(self):
        mod = lowered_module(KVS_SRC, KVS_DEFINES)
        copies = instrs_of(mod, "query", ir.Memcpy)
        cache_copies = [
            c for c in copies if (c.src.ref and c.src.ref.name == "Cache")
            or (c.dst.ref and c.dst.ref.name == "Cache")
        ]
        assert len(cache_copies) == 2  # hit read + server update write

    def test_reflect_present(self):
        mod = lowered_module(KVS_SRC, KVS_DEFINES)
        kinds = {i.kind for i in instrs_of(mod, "query", ir.Fwd)}
        assert ir.FwdKind.REFLECT in kinds and ir.FwdKind.DROP in kinds


class TestExpressionLowering:
    def test_signed_vs_unsigned_compare(self):
        mod = lowered_module(
            "_net_ _out_ void k(int *d, unsigned *u) {"
            " if (d[0] < 0) _drop();"
            " if (u[0] < 5) _bcast(); }"
        )
        ops = {i.op for i in instrs_of(mod, "k", ir.BinOp) if i.op in ("slt", "ult")}
        assert ops == {"slt", "ult"}

    def test_division_choice(self):
        mod = lowered_module(
            "_net_ _out_ void k(int *d, unsigned *u) {"
            " d[0] = d[0] / d[1]; u[0] = u[0] / u[1]; }"
        )
        ops = {i.op for i in instrs_of(mod, "k", ir.BinOp)}
        assert {"sdiv", "udiv"} <= ops

    def test_shift_choice(self):
        mod = lowered_module(
            "_net_ _out_ void k(int *d, unsigned *u) {"
            " d[0] = d[0] >> 1; u[0] = u[0] >> 1; }"
        )
        ops = {i.op for i in instrs_of(mod, "k", ir.BinOp)}
        assert {"ashr", "lshr"} <= ops

    def test_logical_ops_eager(self):
        mod = lowered_module(
            "_net_ _out_ void k(int *d) { if (d[0] && d[1]) _drop(); }"
        )
        ops = [i for i in instrs_of(mod, "k", ir.BinOp) if i.op == "and"]
        assert len(ops) == 1

    def test_ternary_lowers_to_select(self):
        mod = lowered_module(
            "_net_ _out_ void k(int *d) { d[0] = d[1] > 0 ? d[1] : 0; }"
        )
        assert instrs_of(mod, "k", ir.Select)

    def test_postfix_returns_old_value(self):
        mod = lowered_module(
            "_net_ unsigned c[4];\n"
            "_net_ _out_ void k(unsigned *d) { d[0] = c[0]++; }"
        )
        verify_module(mod)

    def test_address_of_outside_memcpy_rejected(self):
        with pytest.raises(NclTypeError, match="memcpy"):
            lowered_module("_net_ _out_ void k(int *d) { d[0] = (int)&d[1]; }")

    def test_2d_index_linearized(self):
        mod = lowered_module(
            "_net_ unsigned m[4][8];\n"
            "_net_ _out_ void k(unsigned *d) { d[0] = m[d[1]][d[2]]; }"
        )
        muls = [i for i in instrs_of(mod, "k", ir.BinOp) if i.op == "mul"]
        assert any(
            isinstance(m.rhs, ir.Const) and m.rhs.value == 8 for m in muls
        )

    def test_partial_index_outside_memcpy_rejected(self):
        with pytest.raises(NclTypeError, match="cannot assign"):
            lowered_module(
                "_net_ unsigned m[4][8];\n"
                "_net_ _out_ void k(unsigned *d) { d[0] = m[1]; }"
            )

    def test_helper_becomes_call(self):
        mod = lowered_module(
            "int f(int x) { return x + 1; }\n"
            "_net_ _out_ void k(int *d) { d[0] = f(d[0]); }"
        )
        calls = instrs_of(mod, "k", ir.CallFn)
        assert len(calls) == 1 and calls[0].callee.name == "f"

    def test_locid_lowering(self):
        mod = lowered_module(
            '_net_ _out_ void k(int *d) { if (location.id == _locid("s1")) _drop(); }'
        )
        assert instrs_of(mod, "k", ir.LocField)
        assert instrs_of(mod, "k", ir.LocLabel)

    def test_dead_code_after_return_dropped(self):
        mod = lowered_module(
            "int f() { return 1; return 2; }\n"
            "_net_ _out_ void k(int *d) { d[0] = f(); }"
        )
        rets = instrs_of(mod, "f", ir.Ret)
        assert len(rets) == 1

    def test_host_only_functions_not_lowered(self):
        # main/setup code using the runtime API goes to the host module
        # (lower_host); it must not reach the kernels' module, where
        # ncl:: calls are invalid.
        mod = lowered_module(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(unsigned *d) { d[0] = n; }\n"
            "int main() { ncl::ctrl_wr(&n, 4); return 0; }"
        )
        assert "main" not in mod.functions
        assert "k" in mod.functions

    def test_host_functions_lower_to_the_host_module(self):
        unit = frontend_unit(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(unsigned *d) { d[0] = n; }\n"
            "int main() { ncl::ctrl_wr(&n, 4); return 0; }"
        )
        host, errors = lower_host(unit)
        assert errors == {} and set(host.functions) == {"main", "ncl::ctrl_wr"}
        assert not host.functions["ncl::ctrl_wr"].blocks  # an extern
        (addr,) = instrs_of(host, "main", ir.GlobalAddr)
        assert addr.ref.name == "n"
        assert lower_host(frontend_unit("_net_ _out_ void k(int *d) { }")) == (None, {})


class TestBlockScoping:
    """A declaration ends with its block: a flat name -> slot map let an
    inner ``int x`` go on naming its slot after the block closed."""

    @pytest.mark.parametrize(
        "body, want",
        [
            ("int x = 1; { int x = 2; d[1] = x; } d[0] = x;", [1, 2]),
            ("int x = 1; if (d[2] == 0) { int x = 5; d[1] = x; } d[0] = x;", [1, 5]),
            ("int i = 7; for (int i = 0; i < 2; ++i) d[1] += 1; d[0] = i;", [7, 2]),
        ],
    )
    def test_inner_declaration_ends_with_its_block(self, body, want):
        mod = lowered_module(f"_net_ _out_ void k(int *d) {{ {body} }}")
        d = [0, 0, 0]
        run_kernel(mod, "k", DeviceState.from_module(mod), {}, [d])
        assert d[:2] == want
