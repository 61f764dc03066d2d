"""Tests for the layout container, model rules, and the validator.

The validator tests are adversarial: each one constructs a layout with a
specific rule violation and checks that exactly that violation is caught
(and that the same layout without the defect passes).  The layouts are
written as :class:`~tests.oracles.wires.Wire` objects and handed to
:class:`Layout` as a table.
"""

import pytest

from repro.layout import build_grid_layout
from repro.layout.geometry import LayerPair, Rect
from repro.layout.model import Layout, LayoutModel, multilayer_model, thompson_model
from repro.layout.validate import validate_layout
from repro.topology.graph import Graph

from tests.oracles.wires import ObjectLayout, Segment, Wire


def two_node_objects(wire_points=None, model=None):
    """Nodes 'a' at (0,0) and 'b' at (10,0), 2x2 squares, one wire."""
    lay = ObjectLayout(model=model or thompson_model(), name="test")
    lay.add_node("a", Rect(0, 0, 2, 2))
    lay.add_node("b", Rect(10, 0, 2, 2))
    pts = wire_points or [(2, 1), (5, 1), (5, 3), (7, 3), (7, 1), (10, 1)]
    # default path bends twice; terminals sit on node boundaries
    lay.add_wire(Wire.from_path(("a", "b"), pts))
    return lay


def two_node_layout(wire_points=None, model=None):
    return two_node_objects(wire_points, model).to_layout()


def graph_ab():
    g = Graph()
    g.add_edge("a", "b")
    return g


class TestModels:
    def test_thompson(self):
        m = thompson_model()
        assert m.num_layers == 2
        assert m.v_layers == (1,) and m.h_layers == (2,)

    def test_multilayer_even(self):
        m = multilayer_model(6)
        assert m.v_layers == (1, 3, 5)
        assert m.h_layers == (2, 4, 6)

    def test_multilayer_odd(self):
        m = multilayer_model(5)
        assert m.h_layers == (1, 3, 5)
        assert m.v_layers == (2, 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            multilayer_model(1)
        with pytest.raises(ValueError):
            LayoutModel(name="x", num_layers=2, v_layers=(1,), h_layers=(1,))
        with pytest.raises(ValueError):
            LayoutModel(name="x", num_layers=2, v_layers=(3,), h_layers=(2,))


class TestLayoutMetrics:
    def test_bounding_box_and_area(self):
        lay = two_node_layout()
        x0, y0, x1, y1 = lay.bounding_box()
        assert (x0, y0) == (0, 0)
        assert x1 == 12 and y1 >= 3
        assert lay.area == lay.width * lay.height
        assert lay.volume == 2 * lay.area

    def test_wire_metrics(self):
        lay = two_node_layout()
        assert lay.max_wire_length() == lay.total_wire_length() == 3 + 2 + 2 + 2 + 3
        assert lay.num_vias() == 4
        assert lay.segment_count() == 5
        assert lay.layers_used() == [1, 2]

    def test_duplicate_node_rejected(self):
        lay = two_node_layout()
        with pytest.raises(ValueError):
            lay.add_node("a", Rect(50, 50, 1, 1))

    def test_empty_layout(self):
        lay = Layout(model=thompson_model())
        with pytest.raises(ValueError):
            lay.bounding_box()

    def test_summary_keys(self):
        s = two_node_layout().summary()
        for key in ("nodes", "wires", "area", "max_wire_length", "vias"):
            assert key in s

    def test_summary_takes_one_bounding_box(self, monkeypatch):
        """Each of ``width``, ``height``, ``area`` and ``volume`` walks
        every node; ``summary()`` used to read all four, six walks."""
        calls = []
        box = Layout.bounding_box

        def counting(self):
            calls.append(self)
            return box(self)

        monkeypatch.setattr(Layout, "bounding_box", counting)
        for lay in (two_node_layout(model=multilayer_model(4)),
                    build_grid_layout((2, 1, 1), L=3).layout):
            calls.clear()
            s = lay.summary()
            assert len(calls) == 1
            assert (s["width"], s["height"], s["area"], s["volume"]) == (
                lay.width, lay.height, lay.area, lay.volume)


class TestValidatorPasses:
    def test_clean_layout_passes(self):
        rep = validate_layout(two_node_layout(), graph_ab())
        assert rep.ok, rep.errors

    def test_raise_if_failed_noop_on_ok(self):
        validate_layout(two_node_layout(), graph_ab()).raise_if_failed()


class TestValidatorCatches:
    def test_layer_discipline(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        # horizontal segment on the vertical layer
        lay.add_wire(
            Wire(net=("a", "b"), segments=[Segment(2, 1, 10, 1, layer=1)])
        )
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
        assert any("not permitted" in e for e in rep.errors)

    def test_layer_out_of_range(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_wire(
            Wire(net=("a", "b"), segments=[Segment(2, 1, 10, 1, layer=4)])
        )
        rep = validate_layout(lay.to_layout())
        assert any("> L=2" in e for e in rep.errors)

    def test_track_overlap(self):
        lay = two_node_objects()
        lay.add_node("c", Rect(0, 10, 2, 2))
        lay.add_node("d", Rect(10, 10, 2, 2))
        # overlaps the first wire's horizontal run at y=1 on layer 2
        lay.add_wire(
            Wire(net=("c", "d"), segments=[Segment(1, 1, 9, 1, layer=2)])
        )
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
        assert any("overlap" in e for e in rep.errors)

    def test_touching_endpoints_allowed(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(4, 0, 2, 2))
        lay.add_node("c", Rect(8, 0, 2, 2))
        lay.add_wire(Wire(net=("a", "b"), segments=[Segment(2, 1, 4, 1, 2)]))
        lay.add_wire(Wire(net=("b", "c"), segments=[Segment(6, 1, 8, 1, 2)]))
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        rep = validate_layout(lay.to_layout(), g)
        assert rep.ok, rep.errors

    def test_via_conflict_passthrough(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_node("c", Rect(4, 10, 2, 2))
        # wire 1 bends (via) at (5,5); wire 2 runs vertically straight
        # through (5,5) — even split into collinear pieces, the merged run
        # must be caught grazing the via
        lay.add_wire(
            Wire.from_path(("a", "b"), [(2, 1), (5, 1), (5, 5), (8, 5), (8, 1), (10, 1)])
        )
        lay.add_wire(
            Wire.from_path(("c", "b"), [(5, 10), (5, 6), (5, 2), (7, 2), (7, 0), (10, 0)])
        )
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
        assert any("passes through via" in e for e in rep.errors)

    def test_shared_bend_point(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_node("c", Rect(0, 6, 2, 2))
        lay.add_node("d", Rect(10, 6, 2, 2))
        # both wires bend at (6,4): colliding via columns
        lay.add_wire(Wire.from_path(("a", "b"), [(2, 1), (6, 1), (6, 4), (8, 4), (8, 1), (10, 1)]))
        lay.add_wire(Wire.from_path(("c", "d"), [(2, 7), (4, 7), (4, 4), (6, 4), (6, 5), (10, 5), (10, 6)]))
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
        assert any("collide" in e for e in rep.errors)

    def test_wire_through_node_interior(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_node("mid", Rect(5, 0, 2, 2))
        lay.add_wire(
            Wire(net=("a", "b"), segments=[Segment(2, 1, 10, 1, layer=2)])
        )
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
        assert any("node interior" in e for e in rep.errors)

    def test_wire_along_node_edge_allowed(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_node("mid", Rect(5, 0, 2, 2))
        # runs along mid's top edge y=2: boundary, not interior
        lay.add_wire(Wire(net=("a", "b"), segments=[Segment(2, 2, 10, 2, layer=2)]))
        rep = validate_layout(lay.to_layout())
        assert rep.ok, rep.errors

    def test_overlapping_nodes(self):
        lay = two_node_objects()
        lay.add_node("c", Rect(1, 1, 3, 3))
        rep = validate_layout(lay.to_layout())
        assert any("overlap" in e for e in rep.errors)

    def test_terminal_not_on_node(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_wire(Wire(net=("a", "b"), segments=[Segment(3, 1, 10, 1, layer=2)]))
        rep = validate_layout(lay.to_layout())
        assert any("not on boundary" in e for e in rep.errors)

    def test_missing_and_extra_wires_vs_graph(self):
        lay = two_node_objects()
        g = graph_ab()
        g.add_edge("a", "c")
        rep = validate_layout(lay.to_layout(), g)
        assert not rep.ok
        assert any("has no wire" in e for e in rep.errors)
        assert any("not placed" in e for e in rep.errors)

    def test_multiplicity_mismatch(self):
        lay = two_node_objects()
        g = Graph()
        g.add_edge("a", "b", 2)
        rep = validate_layout(lay.to_layout(), g)
        assert not rep.ok

    def test_discontiguous_wire(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_wire(
            Wire(
                net=("a", "b"),
                segments=[Segment(2, 1, 4, 1, 2), Segment(6, 1, 10, 1, 2)],
            )
        )
        rep = validate_layout(lay.to_layout())
        assert not rep.ok

    def test_raise_if_failed(self):
        lay = two_node_objects()
        lay.add_node("c", Rect(1, 1, 3, 3))
        with pytest.raises(AssertionError):
            validate_layout(lay.to_layout()).raise_if_failed()

    def test_shared_terminal_point(self):
        lay = ObjectLayout(model=thompson_model())
        lay.add_node("a", Rect(0, 0, 2, 2))
        lay.add_node("b", Rect(10, 0, 2, 2))
        lay.add_node("c", Rect(0, 6, 2, 2))
        lay.add_wire(Wire(net=("a", "b"), segments=[Segment(2, 1, 10, 1, 2)]))
        lay.add_wire(
            Wire.from_path(("c", "b"), [(2, 7), (10, 7), (10, 1)])
        )
        # wire 2 terminal at (10,1) == wire 1 terminal
        rep = validate_layout(lay.to_layout())
        assert not rep.ok
