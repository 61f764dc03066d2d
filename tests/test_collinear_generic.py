"""Tests for the generic collinear engine (congestion = optimal tracks)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.collinear import optimal_track_count
from repro.layout.collinear_generic import (
    cut_congestion,
    generic_collinear_layout,
    left_edge_tracks,
    max_congestion,
)
from repro.layout.validate import validate_layout
from repro.topology.complete import complete_graph, complete_multigraph
from repro.topology.graph import Graph
from repro.topology.hypercube import hypercube_graph

from tests.oracles.builders import generic_collinear_layout_legacy


def assert_matches_legacy(gl, **kw):
    """The layout equals the object builder's: track map, node map and
    table."""
    leg = generic_collinear_layout_legacy(gl.graph, **kw)
    assert gl.track_of == leg.track_of
    assert gl.layout.nodes == leg.layout.nodes
    assert gl.layout.wire_table() == leg.layout.wire_table()


def path_graph(n):
    g = Graph(f"P_{n}")
    g.add_nodes(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestCongestion:
    def test_path(self):
        g = path_graph(5)
        assert cut_congestion(g, range(5)) == [1, 1, 1, 1]
        assert max_congestion(g, range(5)) == 1

    def test_complete_matches_appendix_b(self):
        for n in range(2, 24):
            g = complete_graph(n)
            assert max_congestion(g, range(n)) == optimal_track_count(n)

    def test_multiplicity_scales(self):
        g = complete_multigraph(6, 3)
        assert max_congestion(g, range(6)) == 3 * optimal_track_count(6)

    def test_order_matters(self):
        # star graph: center in the middle vs at the end
        g = Graph("star")
        g.add_nodes(range(5))
        for i in range(1, 5):
            g.add_edge(0, i)
        end = max_congestion(g, [0, 1, 2, 3, 4])
        mid = max_congestion(g, [1, 2, 0, 3, 4])
        assert end == 4 and mid == 2

    def test_bad_order_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            max_congestion(g, [0, 1])
        with pytest.raises(ValueError):
            max_congestion(g, [0, 1, 5])


class TestLeftEdge:
    def test_uses_exactly_congestion_tracks(self):
        for g, order in [
            (complete_graph(9), range(9)),
            (hypercube_graph(4), range(16)),
            (complete_multigraph(5, 2), range(5)),
        ]:
            assign = left_edge_tracks(g, order)
            assert max(assign.values()) + 1 == max_congestion(g, order)

    def test_no_overlap_within_track(self):
        g = hypercube_graph(4)
        assign = left_edge_tracks(g, range(16))
        by_track = {}
        for (u, v, _c), t in assign.items():
            by_track.setdefault(t, []).append((min(u, v), max(u, v)))
        for links in by_track.values():
            links.sort()
            for (a1, b1), (a2, b2) in zip(links, links[1:]):
                assert b1 <= a2

    def test_covers_all_copies(self):
        g = complete_multigraph(4, 3)
        assign = left_edge_tracks(g, range(4))
        assert len(assign) == 3 * 6


class TestGeometric:
    @pytest.mark.parametrize(
        "g",
        [complete_graph(7), hypercube_graph(3), complete_multigraph(4, 2), path_graph(6)],
        ids=["K7", "Q3", "K4x2", "P6"],
    )
    def test_validates(self, g):
        gl = generic_collinear_layout(g)
        rep = validate_layout(gl.layout, gl.graph)
        assert rep.ok, rep.errors
        assert gl.tracks_total == gl.congestion
        assert_matches_legacy(gl)

    def test_custom_order(self):
        g = complete_graph(5)
        gl = generic_collinear_layout(g, order=[4, 3, 2, 1, 0])
        validate_layout(gl.layout, gl.graph).raise_if_failed()
        assert gl.order == (4, 3, 2, 1, 0)
        assert_matches_legacy(gl, order=[4, 3, 2, 1, 0])

    def test_node_side_check(self):
        with pytest.raises(ValueError):
            generic_collinear_layout(complete_graph(9), node_side=2)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=3, max_value=10),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
)
def test_random_graph_property(n, pairs):
    g = Graph("rand")
    g.add_nodes(range(n))
    for a, b in pairs:
        if a != b and a < n and b < n:
            g.add_edge(a, b)
    assign = left_edge_tracks(g, range(n))
    if assign:
        assert max(assign.values()) + 1 == max_congestion(g, range(n))
    gl = generic_collinear_layout(g)
    rep = validate_layout(gl.layout, gl.graph)
    assert rep.ok, rep.errors
    assert_matches_legacy(gl)
