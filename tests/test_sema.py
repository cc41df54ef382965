"""Semantic analysis: NCL's rules from S4.1/S4.2."""

import pytest

from repro.diag import diagnostic_from_error
from repro.errors import NclTypeError
from repro.ncl import frontend

from tests.conftest import ALLREDUCE_DEFINES, ALLREDUCE_SRC, KVS_DEFINES, KVS_SRC


class TestPaperPrograms:
    def test_allreduce_analyzes(self):
        tu = frontend(ALLREDUCE_SRC, defines=ALLREDUCE_DEFINES)
        assert set(tu.out_kernels) == {"allreduce"}
        assert set(tu.in_kernels) == {"result"}
        assert set(tu.net_globals) == {"accum", "count"}
        assert set(tu.ctrl_vars) == {"nworkers"}

    def test_kvs_analyzes(self):
        tu = frontend(KVS_SRC, defines=KVS_DEFINES)
        assert set(tu.out_kernels) == {"query"}
        assert set(tu.maps) == {"Idx"}
        assert set(tu.net_globals) == {"Cache", "Valid"}

    def test_window_fields_include_extension(self):
        tu = frontend(ALLREDUCE_SRC, defines=ALLREDUCE_DEFINES)
        names = [n for n, _ in tu.window_fields]
        assert names == ["seq", "from", "last", "len"]

    def test_kernel_pairing(self):
        tu = frontend(ALLREDUCE_SRC, defines=ALLREDUCE_DEFINES)
        paired = tu.paired_out_kernel("result")
        assert paired is not None and paired.name == "allreduce"


def check_fails(source: str, match: str, defines=None):
    with pytest.raises(NclTypeError, match=match):
        frontend(source, defines=defines)


class TestDeclarationRules:
    def test_ctrl_requires_location(self):
        check_fails("_net_ _ctrl_ unsigned n;", "requires _at_")

    def test_ctrl_requires_net(self):
        # _ctrl_ without _net_ is rejected (different phrasing per path).
        with pytest.raises(Exception):
            frontend('_ctrl_ _at_("s1") unsigned n;')

    def test_map_requires_location(self):
        check_fails("_net_ ncl::Map<uint64_t, uint8_t, 4> M;", "requires _at_")

    def test_redefinition_rejected(self):
        check_fails("int x; int x;", "redeclaration|redefinition")

    def test_kernel_must_return_void(self):
        check_fails("_net_ _out_ int k(int *d) { return 1; }", "must return void")

    def test_kernel_needs_parameter(self):
        check_fails("_net_ _out_ void k() { }", "at least one")

    def test_ext_only_on_in_kernels(self):
        check_fails(
            "_net_ _out_ void k(_ext_ int *d) { }", "_ext_.*incoming"
        )

    def test_ext_params_must_trail(self):
        check_fails(
            "_net_ _in_ void k(_ext_ int *h, int *d) { }",
            "must precede",
        )

    def test_in_kernel_rejects_at(self):
        check_fails(
            '_net_ _in_ _at_("s1") void k(int *d) { }', "meaningless"
        )

    def test_in_kernel_must_pair(self):
        check_fails(
            "_net_ _out_ void a(int *d) { }\n"
            "_net_ _in_ void b(uint64_t *d) { }",
            "does not match any outgoing",
        )


class TestAccessRules:
    def test_switch_memory_not_in_host_code(self):
        check_fails(
            '_net_ _at_("s1") int a[4];\nint main() { a[0] = 1; return 0; }',
            "only accessible in",
        )

    def test_host_global_not_in_kernel(self):
        check_fails(
            "int h;\n_net_ _out_ void k(int *d) { d[0] = h; }",
            "not accessible from switch",
        )

    def test_ctrl_read_only_in_kernel(self):
        check_fails(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(int *d) { n = 5; }",
            "read-only",
        )

    def test_map_entry_not_assignable(self):
        check_fails(
            '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;\n'
            "_net_ _out_ void k(uint64_t key) { *M[key] = 1; }",
            "read-only",
        )

    def test_ctrl_wr_allows_ctrl_reference(self):
        tu = frontend(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(int *d) { d[0] = n; }\n"
            "int main() { ncl::ctrl_wr(&n, 16); return 0; }"
        )
        assert "n" in tu.ctrl_vars

    def test_window_only_in_kernels(self):
        check_fails("int main() { return window.seq; }", "only available in kernel")

    def test_window_unknown_field(self):
        check_fails(
            "_net_ _out_ void k(int *d) { d[0] = window.bogus; }",
            "no field",
        )

    def test_window_fields_read_only(self):
        check_fails(
            "struct window { unsigned len; };\n"
            "_net_ _out_ void k(int *d) { window.len = 1; }",
            "read-only",
        )

    def test_location_only_in_out_kernels(self):
        check_fails(
            "_net_ _in_ void k(int *d) { unsigned x = location.id; }\n"
            "_net_ _out_ void o(int *d) { }",
            "only available in outgoing",
        )


_CALLS_H = "_net_ _out_ void k(unsigned *d) { d[0] = h(d); }\n"


@pytest.mark.parametrize(
    "source, match",
    [
        pytest.param(
            "_net_ unsigned c[4];\n"
            "unsigned h(unsigned *d) { return c[d[0] & 3]; }\n" + _CALLS_H,
            "'c' is only accessible in outgoing kernel",
            id="helper-reads-net",
        ),
        pytest.param(
            '_net_ _at_("s1") _ctrl_ unsigned t;\n'
            "unsigned h(unsigned *d) { return t; }\n" + _CALLS_H,
            "'t' is only accessible in outgoing kernel",
            id="helper-reads-ctrl",
        ),
        pytest.param(
            '_net_ _at_("s1") ncl::Map<unsigned, unsigned, 16> M;\n'
            "unsigned h(unsigned *d) { return *M[d[0]]; }\n" + _CALLS_H,
            "'M' is only accessible in outgoing kernel",
            id="helper-looks-up-map",
        ),
        pytest.param(
            '_net_ _at_("s1") ncl::BloomFilter<1024, 3> B;\n'
            "unsigned h(unsigned *d) { ncl::bf_insert(B, (uint64_t)d[0]); return 0; }\n"
            + _CALLS_H,
            "bf_insert is only valid in outgoing kernels",
            id="helper-bloom-insert",
        ),
        pytest.param(
            "_net_ unsigned c[4];\n"
            "unsigned h(unsigned *d) { memcpy(c, d, 16); return 0; }\n" + _CALLS_H,
            "'c' is only accessible in outgoing kernel",
            id="helper-memcpy-into-net",
        ),
        pytest.param(
            "_net_ unsigned c[4];\n"
            "unsigned h(unsigned *p) { return p[0]; }\n"
            "_net_ _out_ void k(unsigned *d) { d[0] = h(c); }\n",
            r"cannot pass uint32_t\[4\] as uint32_t\*",
            id="net-array-to-pointer-param",
        ),
        pytest.param(
            "_net_ unsigned c[4];\n"
            "_net_ _out_ void k(unsigned *d) { d[0] = 1; }\n"
            "_net_ _in_ void r(unsigned *d) { unsigned x = c[0]; }\n",
            "'c' is only accessible in outgoing kernel",
            id="in-kernel-reads-net",
        ),
    ],
)
def test_only_out_kernels_touch_switch_state(source, match):
    """Only an ``_out_`` kernel's own body can name switch state: a helper
    cannot, nor can a kernel hand switch memory to one by pointer. This
    is why :func:`repro.nir.ir.state_accesses` -- the one state-access
    walk the race, resource, effect, deploy and conformance checks read
    -- walks each kernel alone, with no callgraph. If this rule is ever
    relaxed, that walk must learn to follow calls."""
    with pytest.raises(NclTypeError, match=match) as exc:
        frontend(source)
    assert diagnostic_from_error(exc.value).code == "NCL0400"


class TestIntrinsicRules:
    def test_forwarding_only_in_out_kernels(self):
        check_fails("int main() { _drop(); return 0; }", "only valid inside outgoing")
        check_fails(
            "_net_ _out_ void o(int *d) { }\n"
            "_net_ _in_ void k(int *d) { _bcast(); }",
            "only valid inside outgoing",
        )

    def test_pass_label_must_be_string(self):
        check_fails(
            "_net_ _out_ void k(int *d) { _pass(3); }", "string literal"
        )

    def test_drop_takes_no_args(self):
        check_fails("_net_ _out_ void k(int *d) { _drop(1); }", "no arguments")

    def test_memcpy_arity(self):
        check_fails(
            "_net_ int a[4];\n_net_ _out_ void k(int *d) { memcpy(d, a); }",
            "3 arguments",
        )

    def test_memcpy_pointer_operands(self):
        check_fails(
            "_net_ _out_ void k(int *d) { memcpy(d, 5, 4); }", "must be pointer"
        )

    def test_kernel_not_directly_callable(self):
        check_fails(
            "_net_ _out_ void k(int *d) { }\n"
            "int main() { k(0); return 0; }",
            "cannot be called directly",
        )

    def test_runtime_api_not_in_kernels(self):
        check_fails(
            "_net_ _out_ void k(int *d) { ncl::out(k, 1); }",
            "host-side runtime",
        )

    def test_helper_call_typechecks(self):
        tu = frontend(
            "int clamp(int v) { return v > 100 ? 100 : v; }\n"
            "_net_ _out_ void k(int *d) { d[0] = clamp(d[0]); }"
        )
        assert "clamp" in tu.functions

    def test_helper_wrong_arity(self):
        check_fails(
            "int f(int a, int b) { return a; }\n"
            "_net_ _out_ void k(int *d) { d[0] = f(1); }",
            "expects 2 arguments",
        )


class TestExpressionTyping:
    def test_pointer_deref_type(self):
        tu = frontend("_net_ _out_ void k(uint64_t *d) { uint64_t x = *d; }")
        assert tu is not None

    def test_local_arrays_rejected_in_kernels(self):
        check_fails(
            "_net_ _out_ void k(int *d) { int tmp[4]; }",
            "local arrays",
        )

    def test_break_outside_loop(self):
        check_fails("_net_ _out_ void k(int *d) { break; }", "outside a loop")

    def test_condition_must_be_scalar(self):
        check_fails(
            "_net_ int a[4];\n_net_ _out_ void k(int *d) { if (a) { } }",
            "scalar",
        )

    def test_map_lookup_yields_pointer(self):
        tu = frontend(
            '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;\n'
            "_net_ _out_ void k(uint64_t key) { if (auto *i = M[key]) { uint8_t v = *i; } }"
        )
        assert "M" in tu.maps

    def test_map_key_must_be_integer(self):
        check_fails(
            '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;\n'
            "_net_ _out_ void k(uint64_t *key) { if (auto *i = M[key]) { } }",
            "Map key",
        )
