"""Tests for omega networks and cube-connected-cycles layouts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.ccc_layout import ccc_2d_layout, ccc_graph
from repro.layout.multistage import build_multistage_layout
from repro.layout.validate import validate_layout
from repro.topology.omega import (
    Omega,
    destination_tag_route,
    omega_graph,
    perfect_shuffle,
)


class TestOmega:
    def test_shuffle(self):
        assert perfect_shuffle(0b011, 3) == 0b110
        assert perfect_shuffle(0b100, 3) == 0b001
        assert perfect_shuffle(1, 1) == 1
        with pytest.raises(ValueError):
            perfect_shuffle(0, 0)

    def test_shuffle_is_permutation(self):
        for n in (2, 3, 4):
            imgs = {perfect_shuffle(u, n) for u in range(1 << n)}
            assert imgs == set(range(1 << n))

    def test_counts(self):
        om = Omega(3)
        assert om.num_nodes == 4 * 8
        assert om.num_edges == 2 * 8 * 3
        g = omega_graph(3)
        assert g.num_edges == om.num_edges
        assert g.is_connected()

    def test_destination_tag_routing_exhaustive(self):
        for n in (2, 3):
            g = omega_graph(n)
            R = 1 << n
            for src in range(R):
                for dst in range(R):
                    rows = destination_tag_route(n, src, dst)
                    assert rows[0] == src and rows[-1] == dst
                    for s, (x, y) in enumerate(zip(rows, rows[1:])):
                        assert g.has_edge((x, s), (y, s + 1))

    def test_route_validation(self):
        with pytest.raises(ValueError):
            destination_tag_route(3, 8, 0)

    def test_layout_validates(self):
        om = Omega(4)
        res = build_multistage_layout(16, om.boundary_link_lists(), name="omega")
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]
        # graph realised matches the omega graph node-for-node
        assert res.graph.same_as(om.graph())

    def test_layout_multilayer(self):
        om = Omega(3)
        res = build_multistage_layout(8, om.boundary_link_lists(), L=4)
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]

    def test_boundary_out_of_range(self):
        with pytest.raises(ValueError):
            list(Omega(2).boundary_links(2))


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.data())
def test_omega_routing_property(n, data):
    R = 1 << n
    src = data.draw(st.integers(0, R - 1))
    dst = data.draw(st.integers(0, R - 1))
    assert destination_tag_route(n, src, dst)[-1] == dst


class TestCcc:
    def test_graph_structure(self):
        g = ccc_graph(3)
        assert g.num_nodes == 3 * 8
        # degree-3 regular
        assert set(g.degree_histogram()) == {3}
        assert g.is_connected()

    def test_graph_n2_multiedge(self):
        g = ccc_graph(2)
        # 2-cycles collapse to double links
        assert g.multiplicity((0, 0), (0, 1)) == 2

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 2), (4, 2), (4, 4), (5, 3)])
    def test_layout_validates(self, n, L):
        res = ccc_2d_layout(n, L=L)
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]
        assert len(res.layout.nodes) == n * (1 << n)

    def test_layout_realizes_ccc(self):
        res = ccc_2d_layout(4)
        assert res.graph.same_as(ccc_graph(4))
        # and wires match the graph exactly (validator already checks; be
        # explicit about the wire count: 3-regular -> 3N/2 edges)
        assert res.layout.num_wires() == 3 * 64 // 2

    def test_area_scaling(self):
        """Theta(4^n): the bisection-square law for CCC."""
        a4 = ccc_2d_layout(4).layout.area
        a6 = ccc_2d_layout(6).layout.area
        assert 8 < a6 / a4 < 32  # 4^2 = 16 up to o(.) wobble

    def test_split_validation(self):
        with pytest.raises(ValueError):
            ccc_2d_layout(4, split=(1, 2))
        with pytest.raises(ValueError):
            ccc_2d_layout(1)
        with pytest.raises(ValueError):
            ccc_2d_layout(4, W=3)

    def test_multilayer_shrinks_channels(self):
        d2 = ccc_2d_layout(6, L=2).dims
        d4 = ccc_2d_layout(6, L=4).dims
        assert d4.chan_h < d2.chan_h
        assert d4.area < d2.area


class TestCccDims:
    def test_closed_form_matches_builder(self):
        from repro.layout.ccc_layout import ccc_2d_dims

        for n, L in [(3, 2), (4, 2), (4, 4), (5, 2)]:
            assert ccc_2d_layout(n, L=L).dims == ccc_2d_dims(n, L=L)

    def test_area_converges_to_4_9(self):
        """Balanced CCC layouts approach (4/9) 4^n: both channel demands
        are ~ (2/3) 2^{n/2}."""
        from repro.layout.ccc_layout import ccc_2d_dims

        ratios = [ccc_2d_dims(n).area / 4**n for n in (8, 12, 16, 20, 24)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 4 / 9) < 0.05
