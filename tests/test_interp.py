"""NIR interpreter: the reference semantics of NCL kernels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError
from repro.nir import ir
from repro.nir.interp import DeviceState, run_kernel
from repro.util import intops

from tests.diffutil import kernel_module


def run(source, kernel="k", meta=None, args=(), state=None, defines=None, **kw):
    mod = kernel_module(source, defines)
    state = state if state is not None else DeviceState.from_module(mod)
    result = run_kernel(mod, kernel, state, meta or {}, list(args), **kw)
    return result, state


class TestArithmetic:
    def test_wrapping_add_i32(self):
        buf = [2**31 - 1]
        run("_net_ _out_ void k(int *d) { d[0] = d[0] + 1; }", args=[buf])
        assert buf[0] == -(2**31)

    def test_unsigned_wrap(self):
        buf = [0]
        run("_net_ _out_ void k(unsigned *d) { d[0] = d[0] - 1; }", args=[buf])
        assert buf[0] == 2**32 - 1

    def test_u8_truncation_on_store(self):
        buf = [300]
        run("_net_ _out_ void k(uint8_t *d) { d[0] = d[0] + 0; }", args=[buf])
        assert buf[0] == 300 & 0xFF or buf[0] == 44  # 300 wraps to 44

    def test_signed_division_truncates(self):
        buf = [-7, 2, 0]
        run("_net_ _out_ void k(int *d) { d[2] = d[0] / d[1]; }", args=[buf])
        assert buf[2] == -3

    def test_division_by_zero_traps(self):
        with pytest.raises(ZeroDivisionError):
            run("_net_ _out_ void k(int *d) { d[0] = d[0] / d[1]; }", args=[[1, 0]])

    def test_shifts(self):
        buf = [-8, 0, 0]
        run(
            "_net_ _out_ void k(int *d) { d[1] = d[0] >> 1; d[2] = d[0] << 1; }",
            args=[buf],
        )
        assert buf[1] == -4 and buf[2] == -16

    def test_unsigned_shift_logical(self):
        buf = [0x80000000, 0]
        run("_net_ _out_ void k(unsigned *d) { d[1] = d[0] >> 31; }", args=[buf])
        assert buf[1] == 1

    def test_compare_signedness(self):
        buf = [-1, 0, 0]
        run(
            "_net_ _out_ void k(int *d, unsigned *u) {"
            " d[2] = d[0] < 1;"                      # signed: -1 < 1
            " u[0] = (unsigned)d[0] < 1u; }",        # unsigned: huge > 1
            args=[buf, [9]],
        )
        assert buf[2] == 1

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_add_matches_c(self, a, b):
        buf = [a, b, 0]
        run("_net_ _out_ void k(int *d) { d[2] = d[0] + d[1]; }", args=[buf])
        assert buf[2] == intops.wrap_signed(a + b, 32)


class TestControlFlow:
    SRC = (
        "_net_ _out_ void k(int *d) {"
        " if (d[0] > 10) d[1] = 1;"
        " else if (d[0] > 0) d[1] = 2;"
        " else d[1] = 3; }"
    )

    @pytest.mark.parametrize("x,want", [(20, 1), (5, 2), (0, 3), (-1, 3)])
    def test_if_chain(self, x, want):
        buf = [x, 0]
        run(self.SRC, args=[buf])
        assert buf[1] == want

    def test_loop_sum(self):
        buf = list(range(8))
        src = (
            "struct window { unsigned len; };\n"
            "_net_ _out_ void k(int *d) {"
            " int s = 0;"
            " for (unsigned i = 0; i < window.len; ++i) s += d[i];"
            " d[0] = s; }"
        )
        run(src, meta={"len": 8}, args=[buf])
        assert buf[0] == sum(range(8))

    def test_while_with_break(self):
        buf = [0]
        src = (
            "_net_ _out_ void k(int *d) {"
            " unsigned i = 0;"
            " while (1) { if (i == 5) break; ++i; }"
            " d[0] = i; }"
        )
        run(src, args=[buf])
        assert buf[0] == 5

    def test_continue(self):
        buf = [0]
        src = (
            "_net_ _out_ void k(int *d) {"
            " for (unsigned i = 0; i < 10; ++i) {"
            "   if (i & 1) continue;"
            "   d[0] += 1; } }"
        )
        run(src, args=[buf])
        assert buf[0] == 5

    def test_ternary(self):
        buf = [7, 0]
        run("_net_ _out_ void k(int *d) { d[1] = d[0] > 5 ? 100 : 200; }", args=[buf])
        assert buf[1] == 100


class TestForwarding:
    def test_default_is_pass(self):
        result, _ = run("_net_ _out_ void k(int *d) { }", args=[[0]])
        assert result.fwd is ir.FwdKind.PASS

    def test_last_decision_wins(self):
        result, _ = run(
            "_net_ _out_ void k(int *d) { _drop(); _bcast(); }", args=[[0]]
        )
        assert result.fwd is ir.FwdKind.BCAST

    def test_pass_label(self):
        result, _ = run(
            '_net_ _out_ void k(int *d) { _pass("s2"); }', args=[[0]]
        )
        assert result.fwd is ir.FwdKind.PASS and result.fwd_label == "s2"


class TestState:
    def test_net_array_persists_across_windows(self):
        mod = kernel_module(
            "_net_ unsigned total[1] = {0};\n"
            "_net_ _out_ void k(unsigned *d) { total[0] += d[0]; }"
        )
        state = DeviceState.from_module(mod)
        for v in (5, 6, 7):
            run_kernel(mod, "k", state, {}, [[v]])
        assert state.arrays["total"][0] == 18

    def test_out_of_bounds_raises(self):
        with pytest.raises(PisaError, match="out of range"):
            run(
                "_net_ int a[4];\n_net_ _out_ void k(int *d) { a[d[0]] = 1; }",
                args=[[10]],
            )

    def test_ctrl_array_read_past_end_raises(self):
        """Used to escape as a bare IndexError (and -1 read the last slot)."""
        mod = kernel_module(
            '_net_ _at_("s1") _ctrl_ unsigned t[4];\n'
            "_net_ _out_ void k(unsigned *d) { d[1] = t[d[0]]; }"
        )
        state = DeviceState.from_module(mod)
        with pytest.raises(
            PisaError, match=r"index 9 out of range for control variable t \[4 elements\]"
        ):
            run_kernel(mod, "k", state, {}, [[9, 0]])

    def test_ctrl_read(self):
        mod = kernel_module(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(unsigned *d) { d[0] = n; }"
        )
        state = DeviceState.from_module(mod)
        state.ctrl_write("n", 42)
        buf = [0]
        run_kernel(mod, "k", state, {}, [buf])
        assert buf[0] == 42

    def test_initializers_loaded(self):
        mod = kernel_module(
            "_net_ int a[4] = {10, 20};\n"
            "_net_ _out_ void k(int *d) { d[0] = a[0] + a[1] + a[3]; }"
        )
        state = DeviceState.from_module(mod)
        buf = [0]
        run_kernel(mod, "k", state, {}, [buf])
        assert buf[0] == 30

    def test_location_scoping(self):
        mod = kernel_module(
            '_net_ _at_("s1") int a[2];\n_net_ _at_("s2") int b[2];\n'
            "_net_ _out_ void k(int *d) { }"
        )
        state = DeviceState.from_module(mod, location="s1")
        assert "a" in state.arrays and "b" not in state.arrays


class TestMaps:
    SRC = (
        '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;\n'
        "_net_ _out_ void k(uint64_t key, unsigned *out) {"
        " if (auto *v = M[key]) { out[0] = 1; out[1] = *v; }"
        " else { out[0] = 0; } }"
    )

    def test_hit_and_miss(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        state.maps["M"].insert(99, 7)
        out = [0, 0]
        run_kernel(mod, "k", state, {}, [99, out])
        assert out == [1, 7]
        out = [0, 0]
        run_kernel(mod, "k", state, {}, [100, out])
        assert out[0] == 0

    def test_capacity_enforced(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        for i in range(4):
            state.maps["M"].insert(i, i)
        with pytest.raises(PisaError, match="capacity"):
            state.maps["M"].insert(5, 5)

    def test_erase(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        state.maps["M"].insert(1, 1)
        state.maps["M"].erase(1)
        assert state.maps["M"].lookup(1) == (False, 0)


class TestBloom:
    SRC = (
        '_net_ _at_("s1") ncl::BloomFilter<1024, 3> B;\n'
        "_net_ _out_ void k(uint64_t key, unsigned *out) {"
        " out[0] = ncl::bf_query(B, key);"
        " ncl::bf_insert(B, key); }"
    )

    def test_insert_then_query(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        out = [9]
        run_kernel(mod, "k", state, {}, [1234, out])
        assert out[0] == 0  # not yet inserted
        run_kernel(mod, "k", state, {}, [1234, out])
        assert out[0] == 1  # inserted by the first window

    def test_no_false_negatives(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        keys = [k * 7919 for k in range(50)]
        for key in keys:
            run_kernel(mod, "k", state, {}, [key, [0]])
        for key in keys:
            out = [0]
            run_kernel(mod, "k", state, {}, [key, out])
            assert out[0] == 1


class TestMemcpy:
    def test_param_to_global_and_back(self):
        mod = kernel_module(
            "_net_ int stash[8];\n"
            "_net_ _out_ void k(int *d) {"
            " memcpy(&stash[2], d, 16);"
            " memcpy(d, &stash[2], 16); }"
        )
        state = DeviceState.from_module(mod)
        buf = [1, 2, 3, 4]
        run_kernel(mod, "k", state, {}, [buf])
        assert state.arrays["stash"][2:6] == [1, 2, 3, 4]
        assert buf == [1, 2, 3, 4]

    def test_row_copy_2d(self):
        mod = kernel_module(
            "_net_ unsigned m[4][2];\n"
            "_net_ _out_ void k(unsigned *d, unsigned row) {"
            " memcpy(m[row], d, 8); }"
        )
        state = DeviceState.from_module(mod)
        run_kernel(mod, "k", state, {}, [[7, 8], 3])
        assert state.arrays["m"][6:8] == [7, 8]

    def test_overrun_raises(self):
        mod = kernel_module(
            "_net_ int a[2];\n_net_ _out_ void k(int *d) { memcpy(a, d, 16); }"
        )
        state = DeviceState.from_module(mod)
        with pytest.raises(PisaError):
            run_kernel(mod, "k", state, {}, [[1, 2, 3, 4]])


    def test_source_overrun_raises(self):
        """Used to escape as a bare IndexError: the source is the short side."""
        mod = kernel_module(
            "_net_ int a[8];\n_net_ _out_ void k(int *d) { memcpy(a, d, 16); }"
        )
        state = DeviceState.from_module(mod)
        with pytest.raises(
            PisaError, match=r"index 2 out of range for window data d \[2 elements\]"
        ):
            run_kernel(mod, "k", state, {}, [[1, 2]])
        assert state.arrays["a"] == [0] * 8  # all reads precede any write


class TestHelpers:
    def test_helper_inlined_semantics(self):
        buf = [250, 0]
        run(
            "int clamp(int v) { return v > 100 ? 100 : v; }\n"
            "_net_ _out_ void k(int *d) { d[1] = clamp(d[0]); }",
            args=[buf],
        )
        assert buf[1] == 100

    def test_helper_fwd_propagates(self):
        result, _ = run(
            "void decide(int v) { if (v) _drop(); }\n"
            "_net_ _out_ void k(int *d) { decide(d[0]); }",
            args=[[1]],
        )
        assert result.fwd is ir.FwdKind.DROP


class TestWindowMeta:
    def test_builtin_fields(self):
        buf = [0, 0, 0]
        run(
            "_net_ _out_ void k(unsigned *d) {"
            " d[0] = window.seq; d[1] = window.from; d[2] = window.last; }",
            meta={"seq": 9, "from": 3, "last": 1},
            args=[buf],
        )
        assert buf == [9, 3, 1]

    def test_missing_field_raises(self):
        with pytest.raises(PisaError, match="not bound"):
            run(
                "struct window { unsigned len; };\n"
                "_net_ _out_ void k(unsigned *d) { d[0] = window.len; }",
                meta={"seq": 0},
                args=[[0]],
            )

    def test_location_id(self):
        buf = [0]
        run(
            "_net_ _out_ void k(unsigned *d) { d[0] = location.id; }",
            args=[buf],
            location_id=7,
        )
        assert buf[0] == 7

    def test_locid_labels(self):
        result, _ = run(
            '_net_ _out_ void k(unsigned *d) {'
            ' if (location.id == _locid("s2")) _drop(); }',
            args=[[0]],
            location_id=5,
            location_labels={"s2": 5},
        )
        assert result.fwd is ir.FwdKind.DROP
