"""Abstract Network Description: model, parser, overlay mapping (onto a
:class:`FabricSpec`'s graph view)."""

import pytest

from repro.errors import AndError, MappingError
from repro.andspec import AndSpec, FabricSpec, map_overlay, parse_and


class TestParsing:
    def test_basic(self):
        spec = parse_and(
            """
            # workers around a ToR
            host w0
            host w1
            switch s1
            link w0 s1
            link w1 s1
            """
        )
        assert [n.label for n in spec.hosts] == ["w0", "w1"]
        assert [n.label for n in spec.switches] == ["s1"]
        assert len(spec.edges) == 2

    def test_node_ids_in_order(self):
        spec = parse_and("host a\nswitch b\nhost c")
        assert spec.label_ids() == {"a": 0, "b": 1, "c": 2}

    def test_links_may_precede_nodes(self):
        spec = parse_and("link a b\nhost a\nswitch b")
        assert len(spec.edges) == 1

    def test_duplicate_node_rejected(self):
        with pytest.raises(AndError, match="duplicate"):
            parse_and("host a\nhost a")

    def test_duplicate_link_rejected(self):
        with pytest.raises(AndError, match="duplicate link"):
            parse_and("host a\nswitch b\nlink a b\nlink b a")

    def test_self_link_rejected(self):
        with pytest.raises(AndError, match="self-link"):
            parse_and("host a\nlink a a")

    def test_unknown_declaration(self):
        with pytest.raises(AndError, match="unknown declaration"):
            parse_and("router r1")

    def test_link_to_unknown_node(self):
        with pytest.raises(AndError, match="unknown node"):
            parse_and("host a\nlink a b")

    def test_render_roundtrip(self):
        text = "host a\nswitch b\nlink a b"
        spec = parse_and(text)
        again = parse_and(spec.render())
        assert again.label_ids() == spec.label_ids()
        assert again.edges == spec.edges


class TestValidation:
    def test_required_label_must_exist(self):
        spec = parse_and("host a\nswitch s1\nlink a s1")
        spec.validate(["s1"])
        with pytest.raises(AndError, match="does not name a node"):
            spec.validate(["s9"])

    def test_required_label_must_be_switch(self):
        spec = parse_and("host a\nswitch s1\nlink a s1")
        with pytest.raises(AndError, match="must name a switch"):
            spec.validate(["a"])

    def test_disconnected_rejected(self):
        spec = parse_and("host a\nhost b\nswitch s1\nlink a s1")
        with pytest.raises(AndError, match="not connected"):
            spec.validate()

    def test_empty_rejected(self):
        with pytest.raises(AndError, match="empty"):
            AndSpec().validate()

    def test_neighbors(self):
        spec = parse_and("host a\nswitch s\nhost b\nlink a s\nlink s b")
        assert set(spec.neighbors("s")) == {"a", "b"}


def chain_physical(n_switches=3):
    phys = FabricSpec()
    phys.add_host("h0")
    phys.add_host("h1")
    prev = "h0"
    for i in range(n_switches):
        name = f"p{i}"
        phys.add_switch(name)
        phys.add_link(prev, name)
        prev = name
    phys.add_link(prev, "h1")
    return phys.graph()


class TestMapping:
    def test_identity_style_mapping(self):
        overlay = parse_and("host h0\nswitch s1\nhost h1\nlink h0 s1\nlink s1 h1")
        mapping = map_overlay(overlay, chain_physical(1))
        assert mapping.placement["h0"] == "h0"
        assert mapping.placement["s1"] == "p0"

    def test_switch_choice_respects_paths(self):
        # Overlay: h0 - s1 - h1. Physical: chain of three switches.
        overlay = parse_and("host h0\nswitch s1\nhost h1\nlink h0 s1\nlink s1 h1")
        mapping = map_overlay(overlay, chain_physical(3))
        assert mapping.placement["s1"] in ("p0", "p1", "p2")
        # every overlay edge has a route, in both directions
        assert set(mapping.edge_paths) == {
            ("h0", "s1"), ("s1", "h0"), ("h1", "s1"), ("s1", "h1"),
        }
        assert mapping.edge_paths[("s1", "h0")] == mapping.edge_paths[("h0", "s1")][::-1]

    def test_two_switch_overlay_on_chain(self):
        overlay = parse_and(
            "host h0\nswitch s1\nswitch s2\nhost h1\n"
            "link h0 s1\nlink s1 s2\nlink s2 h1"
        )
        mapping = map_overlay(overlay, chain_physical(3))
        assert mapping.placement["s1"] != mapping.placement["s2"]

    def test_not_enough_switches(self):
        overlay = parse_and(
            "host h0\nswitch s1\nswitch s2\nhost h1\n"
            "link h0 s1\nlink s1 s2\nlink s2 h1"
        )
        with pytest.raises(MappingError, match="switches"):
            map_overlay(overlay, chain_physical(1))

    def test_not_enough_hosts(self):
        overlay = parse_and(
            "host a\nhost b\nhost c\nswitch s1\n"
            "link a s1\nlink b s1\nlink c s1"
        )
        phys = FabricSpec()
        phys.add_host("x")
        phys.add_switch("p0")
        phys.add_link("x", "p0")
        with pytest.raises(MappingError, match="'b': no free fabric host"):
            map_overlay(overlay, phys.graph())

    def test_host_pinning(self):
        overlay = parse_and("host a\nswitch s1\nhost b\nlink a s1\nlink s1 b")
        phys = chain_physical(1)
        mapping = map_overlay(overlay, phys, host_pin={"a": "h1", "b": "h0"})
        assert mapping.placement["a"] == "h1"

    def test_pin_to_switch_rejected(self):
        overlay = parse_and("host a\nswitch s1\nlink a s1")
        with pytest.raises(MappingError, match="'p0', which is a switch"):
            map_overlay(overlay, chain_physical(1), host_pin={"a": "p0"})
