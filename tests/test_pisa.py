"""PISA simulator: parser/deparser bit accuracy, pipeline, tables, registers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError
from repro.p4.model import (
    Action,
    Apply,
    Do,
    HeaderType,
    IfNode,
    P4Program,
    ParseState,
    PAssign,
    PBin,
    PConst,
    PField,
    PParam,
    PRegRead,
    PRegWrite,
    PUn,
    RegisterArray,
    Table,
    TableEntry,
)
from repro.pisa.parser import Deparser, PacketParser
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, RegisterState
from repro.pisa.switch_dev import PisaSwitch

from tests.pisa_oracle import eval_both


def tiny_program():
    p = P4Program("tiny")
    p.add_header(HeaderType("h_t", [("a", 8), ("b", 16), ("c", 8)]), "h")
    p.parser = [ParseState("start", ["h"])]
    p.deparser = ["h"]
    return p


class TestParserDeparser:
    def test_extracts_fields(self):
        p = tiny_program()
        phv = PacketParser(p).parse(b"\x01\x02\x03\x04")
        assert phv.read("h.a") == 1
        assert phv.read("h.b") == 0x0203
        assert phv.read("h.c") == 4

    def test_payload_preserved(self):
        p = tiny_program()
        phv = PacketParser(p).parse(b"\x01\x02\x03\x04extra")
        assert phv.payload_rest == b"extra"
        assert Deparser(p).deparse(phv) == b"\x01\x02\x03\x04extra"

    def test_short_packet_raises(self):
        with pytest.raises(PisaError, match="too short"):
            PacketParser(tiny_program()).parse(b"\x01")

    def test_select_transitions(self):
        p = P4Program("sel")
        p.add_header(HeaderType("a_t", [("kind", 8)]), "a")
        p.add_header(HeaderType("b_t", [("x", 8)]), "b")
        p.parser = [
            ParseState("start", ["a"], "a.kind", [(1, "parse_b")]),
            ParseState("parse_b", ["b"]),
        ]
        p.deparser = ["a", "b"]
        phv = PacketParser(p).parse(b"\x01\x42")
        assert phv.is_valid("b") and phv.read("b.x") == 0x42
        phv2 = PacketParser(p).parse(b"\x02\x42")
        assert not phv2.is_valid("b")
        assert phv2.payload_rest == b"\x42"

    def test_no_parser_means_opaque_payload(self):
        p = P4Program("none")
        phv = PacketParser(p).parse(b"anything")
        assert phv.payload_rest == b"anything"

    @given(st.binary(min_size=4, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_parse_deparse_identity(self, data):
        p = tiny_program()
        phv = PacketParser(p).parse(data)
        assert Deparser(p).deparse(phv) == data

    def test_sub_byte_fields(self):
        p = P4Program("nib")
        p.add_header(HeaderType("n_t", [("hi", 4), ("lo", 4)]), "n")
        p.parser = [ParseState("start", ["n"])]
        p.deparser = ["n"]
        phv = PacketParser(p).parse(b"\xab")
        assert phv.read("n.hi") == 0xA and phv.read("n.lo") == 0xB
        assert Deparser(p).deparse(phv) == b"\xab"


class TestPhvSlots:
    def test_names_over_slots(self):
        p = tiny_program()
        p.add_metadata("t", 12)
        phv = Phv(p)
        phv.write("meta.t", 0x1FFF)
        assert phv.read("meta.t") == 0xFFF  # masked to the field's width
        assert phv.read("valid.h") == 0 and not phv.is_valid("h")
        with pytest.raises(PisaError, match="read of field 'h.a' in invalid header"):
            phv.read("h.a")
        phv.write("h.a", 7)  # a written field reads back, header valid or not
        assert phv.read("h.a") == 7
        phv.set_valid("h")
        assert phv.as_dict() == {
            "meta.fwd": 0, "meta.fwd_label": 0, "meta.t": 0xFFF,
            "h.a": 7, "h.b": 0, "h.c": 0,
        }
        for bad in (lambda: phv.read("meta.nope"), lambda: phv.write("h.nope", 1),
                    lambda: phv.set_valid("nope")):
            with pytest.raises(PisaError, match="unknown"):
                bad()

    def test_clone_is_independent(self):
        p = tiny_program()
        phv = PacketParser(p).parse(b"\x01\x02\x03\x04rest")
        twin = phv.clone()
        twin.write("h.a", 9)
        assert (phv.read("h.a"), twin.read("h.a")) == (1, 9)
        assert twin.payload_rest == b"rest" and twin.is_valid("h")

    def test_live_fields_counts_metadata_and_valid_headers(self):
        p = tiny_program()
        assert Phv(p).live_fields() == 2
        assert PacketParser(p).parse(b"\x01\x02\x03\x04").live_fields() == 5

    def test_a_phv_from_before_the_program_changed_is_refused(self):
        """Slot numbers are fixed when each piece is built; a PHV laid out
        for other metadata must not be silently misread."""
        p = tiny_program()
        stale = Phv(p)
        p.add_metadata("t", 8)
        p.add_action(Action("set", [PAssign("meta.t", PConst(1, 8))]))
        pipe = Pipeline(p)
        for use in (lambda: pipe.run(stale), lambda: pipe.run_action("set", stale),
                    lambda: Deparser(p).deparse(stale)):
            with pytest.raises(PisaError, match="laid out for a different program"):
                use()
        fresh = Phv(p)
        pipe.run_action("set", fresh)
        assert fresh.read("meta.t") == 1


class TestPipelineExpr:
    def make(self):
        p = tiny_program()
        p.add_metadata("t", 32)
        return p, Pipeline(p)

    def eval(self, expr):
        p, _ = self.make()
        return eval_both(p, expr)

    def test_arith_wrapping(self):
        assert self.eval(PBin("add", PConst(255, 8), PConst(1, 8), 8)) == 0
        assert self.eval(PBin("sub", PConst(0, 8), PConst(1, 8), 8)) == 255

    def test_compares(self):
        assert self.eval(PBin("ult", PConst(3, 8), PConst(5, 8), 8)) == 1
        # 0xFF is -1 signed: less than 0
        assert self.eval(PBin("slt", PConst(0xFF, 8), PConst(0, 8), 8)) == 1
        assert self.eval(PBin("ugt", PConst(0xFF, 8), PConst(0, 8), 8)) == 1

    def test_shifts(self):
        assert self.eval(PBin("shl", PConst(1, 8), PConst(3, 8), 8)) == 8
        assert self.eval(PBin("ashr", PConst(0x80, 8), PConst(1, 8), 8)) == 0xC0

    def test_unary(self):
        assert self.eval(PUn("neg", PConst(1, 8), 8)) == 255
        assert self.eval(PUn("not", PConst(0, 8), 8)) == 255
        assert self.eval(PUn("lnot", PConst(0, 8), 8)) == 1

    def test_unbound_param_raises(self):
        with pytest.raises(PisaError, match="unbound"):
            self.eval(PParam("x", 8))


class TestActionsAndRegisters:
    def make(self):
        p = tiny_program()
        p.add_metadata("t", 32)
        p.add_register(RegisterArray("r", 32, 4))
        p.add_action(
            Action(
                "bump",
                [
                    PRegRead("meta.t", "r", PConst(0, 32)),
                    PAssign("meta.t", PBin("add", PField("meta.t"), PConst(1, 32), 32)),
                    PRegWrite("r", PConst(0, 32), PField("meta.t")),
                ],
            )
        )
        return p, Pipeline(p)

    def test_register_rmw(self):
        p, pipe = self.make()
        phv = Phv(p)
        for _ in range(3):
            pipe.run_action("bump", phv)
        assert pipe.registers.read("r", 0) == 3
        assert pipe.stats.register_reads == 3
        assert pipe.stats.register_writes == 3

    def test_register_bounds(self):
        p, pipe = self.make()
        with pytest.raises(PisaError, match="out of range"):
            pipe.registers.read("r", 4)

    def test_register_width_wrap(self):
        p, pipe = self.make()
        pipe.registers.write("r", 0, 2**32 + 5)
        assert pipe.registers.read("r", 0) == 5

    def test_initial_values(self):
        p = tiny_program()
        reg = RegisterArray("r", 32, 4)
        reg.initial = [7, 8]
        p.add_register(reg)
        state = RegisterState(p)
        assert state.arrays["r"] == [7, 8, 0, 0]

    def test_action_arity_check(self):
        p = tiny_program()
        p.add_action(Action("takes1", [PAssign("h.a", PParam("v", 8))], params=[("v", 8)]))
        pipe = Pipeline(p)
        phv = Phv(p)
        phv.set_valid("h")
        with pytest.raises(PisaError, match="expected 1"):
            pipe.run_action("takes1", phv)


class TestTables:
    def make(self, kind="exact"):
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_action(Action("miss", [PAssign("meta.out", PConst(0xEE, 8))]))
        p.add_table(
            Table(
                "t",
                keys=[("h.a", kind)],
                actions=["set_out"],
                default_action="miss",
            )
        )
        return p, Pipeline(p)

    def phv_with_a(self, p, a):
        phv = Phv(p)
        phv.set_valid("h")
        phv.write("h.a", a)
        return phv

    def test_exact_hit_and_miss(self):
        p, pipe = self.make()
        pipe.tables["t"].add_entry(TableEntry([5], "set_out", [0x11]))
        phv = self.phv_with_a(p, 5)
        assert pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 0x11
        phv = self.phv_with_a(p, 6)
        assert not pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 0xEE

    def test_ternary_priority(self):
        p, pipe = self.make("ternary")
        pipe.tables["t"].add_entry(TableEntry([(0x00, 0x0F)], "set_out", [1], priority=1))
        pipe.tables["t"].add_entry(TableEntry([(0x00, 0x00)], "set_out", [2], priority=0))
        phv = self.phv_with_a(p, 0xF0)  # matches both (low nibble 0; wildcard)
        pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 1

    def test_table_size_limit(self):
        p, _ = self.make()
        p.tables["t"].size = 1
        p.tables["t"].add_entry(TableEntry([1], "set_out", [1]))
        with pytest.raises(PisaError, match="full"):
            p.tables["t"].add_entry(TableEntry([2], "set_out", [2]))

    def test_stats_counters(self):
        p, pipe = self.make()
        pipe.tables["t"].add_entry(TableEntry([5], "set_out", [1]))
        pipe.apply_table("t", self.phv_with_a(p, 5))
        pipe.apply_table("t", self.phv_with_a(p, 9))
        assert pipe.stats.table_hits["t"] == 1
        assert pipe.stats.table_misses["t"] == 1


class TestControlFlow:
    def test_if_node_branches(self):
        p = tiny_program()
        p.add_metadata("r", 8)
        p.add_action(Action("yes", [PAssign("meta.r", PConst(1, 8))]))
        p.add_action(Action("no", [PAssign("meta.r", PConst(2, 8))]))
        p.control = [
            IfNode(
                PBin("ugt", PField("h.a"), PConst(10, 8), 8),
                [Do("yes")],
                [Do("no")],
            )
        ]
        pipe = Pipeline(p)
        phv = Phv(p)
        phv.set_valid("h")
        phv.write("h.a", 20)
        pipe.run(phv)
        assert phv.read("meta.r") == 1
        phv.write("h.a", 5)
        pipe.run(phv)
        assert phv.read("meta.r") == 2

    def test_validity_condition(self):
        p = tiny_program()
        p.add_metadata("r", 8)
        p.add_action(Action("seen", [PAssign("meta.r", PConst(1, 8))]))
        p.control = [IfNode(PField("valid.h"), [Do("seen")])]
        pipe = Pipeline(p)
        phv = Phv(p)  # h not valid
        pipe.run(phv)
        assert phv.read("meta.r") == 0


class TestSwitchDevice:
    def test_program_validated_on_construction(self):
        p = tiny_program()
        p.control = [Apply("nonexistent")]
        with pytest.raises(PisaError, match="unknown table"):
            PisaSwitch(p)

    def test_control_plane_table_ops(self):
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_action(Action("nop", []))
        p.add_table(
            Table("t", [("h.a", "exact")], ["set_out"], "nop", managed_by="control-plane")
        )
        sw = PisaSwitch(p)
        sw.table_insert("t", [1], "set_out", [5])
        sw.table_insert("t", [1], "set_out", [6])  # replaces
        assert len(sw.table_entries("t")) == 1
        assert sw.table_entries("t")[0].args == [6]
        assert sw.table_delete("t", [1]) == 1
        assert sw.table_entries("t") == []

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["insert", "add", "delete"]), st.sampled_from(["t", "acl"]),
        st.one_of(st.integers(0, 3), st.tuples(st.integers(0, 3), st.sampled_from([0, 3]))),
        st.integers(0, 7), st.integers(0, 2),
    ), max_size=40))
    def test_insert_keeps_the_entries_and_index_of_a_rebuild(self, ops):
        """``table_insert`` finds an exact key in ``Table.index`` instead of
        rebuilding the entry list; after every step the entries (order
        included) and the index are those of the remove-then-add it
        replaced, run on a second switch of the same program."""
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_table(Table("t", [("h.a", "exact")], ["set_out"], "set_out", [0], size=3))
        p.add_table(Table("acl", [("h.a", "ternary")], ["set_out"], "set_out", [0], size=3))
        sw, ref = PisaSwitch(p), PisaSwitch(p)

        def rebuild_insert(table, match, args, priority):
            tbl = ref.tables[table]
            tbl.remove_entries(lambda e: list(e.match) == list(match))
            tbl.add_entry(TableEntry(list(match), "set_out", list(args), priority))

        def state(switch):
            """Each table's entries in order, and where its index points."""
            out = {}
            for name, t in switch.tables.items():
                index = t.index or {}
                out[name] = ([(e.match, e.args, e.priority) for e in t.entries],
                             {key: t.entries.index(e) for key, e in index.items()})
            return out

        for op, table, pattern, value, priority in ops:
            match, outcomes = [pattern], []
            for switch in (sw, ref):
                try:
                    if op == "delete":
                        switch.table_delete(table, match)
                    elif op == "add":
                        entry = TableEntry(match, "set_out", [value], priority)
                        switch.tables[table].add_entry(entry)
                    elif switch is sw:
                        sw.table_insert(table, match, "set_out", [value], priority)
                    else:
                        rebuild_insert(table, match, [value], priority)
                    outcomes.append(None)
                except PisaError as exc:  # a full table, a pair on the exact key
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert state(sw) == state(ref)

    def test_rejects_disallowed_action(self):
        p = tiny_program()
        p.add_action(Action("a1", []))
        p.add_action(Action("a2", []))
        p.add_table(Table("t", [("h.a", "exact")], ["a1"], "a1"))
        sw = PisaSwitch(p)
        with pytest.raises(PisaError, match="not allowed"):
            sw.table_insert("t", [1], "a2")


class TestMalformedEntriesAreRefusedAtInstall:
    """An entry the data path could not match or run is a control-plane
    error, raised where the control plane can see it -- not a PisaError
    out of ``Simulator.run`` at the next packet."""

    def make(self):
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_action(Action("nop", []))
        p.add_table(Table("t", [("h.a", "exact")], ["set_out"], "nop", managed_by="control-plane"))
        p.add_table(Table("acl", [("h.a", "ternary")], ["set_out"], "nop"))
        p.control = [Apply("t"), Apply("acl")]
        return PisaSwitch(p)

    def test_wrong_match_arity(self):
        sw = self.make()
        with pytest.raises(PisaError, match="table t: malformed entry .* 2 match fields for 1 keys"):
            sw.table_insert("t", [1, 2], "set_out", [5])

    def test_wrong_action_argument_count(self):
        sw = self.make()
        with pytest.raises(PisaError, match="table t: action set_out takes 1 args, entry gives 0"):
            sw.table_insert("t", [1], "set_out", [])

    def test_ternary_pattern_on_an_exact_key(self):
        sw = self.make()
        with pytest.raises(PisaError, match="bad pattern for exact key h.a"):
            sw.table_insert("t", [(1, 0xFF)], "set_out", [5])
        for bad in ((1, 2, 3), [1, 0xFF], "1"):
            with pytest.raises(PisaError, match="bad pattern for ternary key h.a"):
                sw.table_insert("acl", [bad], "set_out", [5])
        sw.table_insert("acl", [(1, 0xFF)], "set_out", [5])
        sw.table_insert("acl", [7], "set_out", [5])

    def test_malformed_entries_at_construction(self):
        with pytest.raises(PisaError, match="malformed entry"):
            Table("t", [("h.a", "exact")], ["a"], "a", entries=[TableEntry([1, 2], "a")])

    def test_a_refused_install_leaves_the_data_path_running(self):
        sw = self.make()
        sw.table_insert("t", [1], "set_out", [5])
        for match, args in (([1, 2], [5]), ([1], [])):
            with pytest.raises(PisaError):
                sw.table_insert("t", match, "set_out", args)
        assert [e.args for e in sw.table_entries("t")] == [[5]]
        result = sw.process(b"\x01\x02\x03\x04")
        assert result.phv.read("meta.out") == 5
