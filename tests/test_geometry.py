"""Tests for geometric primitives, and for the object ``Segment`` and
``Wire`` that the oracles build layouts from."""

import pytest

from repro.layout.geometry import LayerPair, Rect, THOMPSON_LAYERS

from tests.oracles.wires import Segment, Wire


class TestRect:
    def test_properties(self):
        r = Rect(2, 3, 4, 5)
        assert (r.x2, r.y2) == (6, 8)
        assert r.area == 20

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)

    def test_contains_point(self):
        r = Rect(0, 0, 4, 4)
        assert r.contains_point((0, 0))
        assert r.contains_point((4, 4))
        assert not r.contains_point((0, 0), strict=True)
        assert r.contains_point((2, 2), strict=True)
        assert not r.contains_point((5, 0))

    def test_on_boundary(self):
        r = Rect(0, 0, 4, 4)
        assert r.on_boundary((4, 2))
        assert not r.on_boundary((2, 2))
        assert not r.on_boundary((5, 5))

    def test_intersects(self):
        a = Rect(0, 0, 4, 4)
        assert a.intersects(Rect(2, 2, 4, 4))
        assert not a.intersects(Rect(4, 0, 4, 4))  # touching edges: open test
        assert a.intersects(Rect(4, 0, 4, 4), strict=False)
        assert not a.intersects(Rect(10, 10, 1, 1), strict=False)


class TestSegment:
    def test_normalisation(self):
        s = Segment(5, 2, 1, 2, layer=2)
        assert (s.x1, s.x2) == (1, 5)
        assert s.is_horizontal
        assert s.track == 2
        assert (s.lo, s.hi) == (1, 5)
        assert s.length == 4

    def test_vertical(self):
        s = Segment(3, 7, 3, 1, layer=1)
        assert s.is_vertical
        assert s.track == 3
        assert (s.lo, s.hi) == (1, 7)

    def test_rejects_diagonal_and_degenerate(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 1, 1, layer=1)
        with pytest.raises(ValueError):
            Segment(2, 2, 2, 2, layer=1)
        with pytest.raises(ValueError):
            Segment(0, 0, 1, 0, layer=0)

    def test_covers_point(self):
        s = Segment(0, 5, 9, 5, layer=2)
        assert s.covers_point((0, 5))
        assert s.covers_point((4, 5))
        assert not s.covers_point((4, 6))


class TestLayerPair:
    def test_group(self):
        assert LayerPair.group(0) == LayerPair(1, 2)
        assert LayerPair.group(2) == LayerPair(5, 6)

    def test_layer_for(self):
        assert THOMPSON_LAYERS.layer_for(vertical=True) == 1
        assert THOMPSON_LAYERS.layer_for(vertical=False) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerPair(0, 2)
        with pytest.raises(ValueError):
            LayerPair(3, 3)


class TestWire:
    def test_from_path(self):
        w = Wire.from_path(("a", "b"), [(0, 0), (0, 3), (5, 3), (5, 1)])
        assert len(w.segments) == 3
        assert w.segments[0].layer == 1  # vertical
        assert w.segments[1].layer == 2  # horizontal
        assert w.length == 3 + 5 + 2

    def test_from_path_merges_duplicates(self):
        w = Wire.from_path(("a", "b"), [(0, 0), (0, 0), (0, 4)])
        assert len(w.segments) == 1

    def test_from_path_rejects_diagonals(self):
        with pytest.raises(ValueError):
            Wire.from_path(("a", "b"), [(0, 0), (2, 3)])

    def test_from_path_rejects_single_point(self):
        with pytest.raises(ValueError):
            Wire.from_path(("a", "b"), [(1, 1), (1, 1)])

    def test_path_points_roundtrip(self):
        pts = [(0, 0), (0, 3), (5, 3), (5, 1), (9, 1)]
        w = Wire.from_path(("a", "b"), pts)
        assert w.path_points() == pts
        assert w.endpoints == ((0, 0), (9, 1))

    def test_vias_at_bends(self):
        w = Wire.from_path(("a", "b"), [(0, 0), (0, 3), (5, 3)])
        assert w.vias() == [(0, 3)]

    def test_from_legs_mixed_layers(self):
        legs = [
            ([(0, 0), (0, 5)], LayerPair(1, 2)),
            ([(0, 5), (0, 9), (4, 9)], LayerPair(3, 4)),
        ]
        w = Wire.from_legs(("a", "b"), legs)
        layers = [s.layer for s in w.segments]
        assert layers == [1, 3, 4]
        assert w.path_points() == [(0, 0), (0, 5), (0, 9), (4, 9)]
        # layer change within the collinear run is a via at (0,5)
        assert (0, 5) in w.vias()

    def test_from_legs_empty_rejected(self):
        with pytest.raises(ValueError):
            Wire.from_legs(("a", "b"), [([(0, 0)], THOMPSON_LAYERS)])

    @pytest.mark.parametrize(
        "legs",
        [
            [([(0, 0), (0, 5)], LayerPair(1, 2)),
             ([(0, 5), (4, 5)], LayerPair(1, 2))],
            [([(2, 1), (2, 4), (6, 4)], LayerPair(1, 2)),
             ([(6, 4), (6, 9)], LayerPair(3, 4)),
             ([(6, 9), (0, 9), (0, 7)], LayerPair(1, 2))],
            [([(5, 5), (5, 0)], THOMPSON_LAYERS)],
        ],
    )
    def test_endpoints_are_terminal_attachment_points(self, legs):
        """``endpoints`` must be the first/last *points* of the path —
        the terminal attachment coordinates — for any multi-leg wire,
        including ones whose collinear runs merge across legs."""
        w = Wire.from_legs(("a", "b"), legs)
        pts = w.path_points()
        assert w.endpoints == (pts[0], pts[-1])
        # single-segment wires normalize coordinate order, so compare
        # the attachment points as a set
        assert set(w.endpoints) == {legs[0][0][0], legs[-1][0][-1]}
