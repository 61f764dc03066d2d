"""Tests for SVG and text figure rendering."""

import pytest

from repro.layout.ccc_layout import ccc_2d_layout
from repro.layout.collinear import collinear_layout
from repro.layout.grid_scheme import build_grid_layout
from repro.topology.isn import ISN
from repro.transform.swap_butterfly import SwapButterfly
from repro.viz.ascii import collinear_figure, isn_schedule_figure, swap_butterfly_figure
from repro.viz.svg import layout_to_svg, save_svg

from tests.oracles.svg import layout_to_svg_legacy


class TestSvg:
    def test_collinear_svg_wellformed(self):
        cl = collinear_layout(9)
        svg = layout_to_svg(cl.layout)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 9 + 1  # nodes + background
        assert svg.count("<line") == cl.layout.segment_count()

    def test_grid_svg(self):
        res = build_grid_layout((1, 1, 1))
        svg = layout_to_svg(res.layout)
        assert svg.count("<rect") == len(res.layout.nodes) + 1

    def test_max_wires_truncation(self):
        cl = collinear_layout(9)
        svg = layout_to_svg(cl.layout, max_wires=3)
        assert svg.count("<line") == cl.layout.wire_table().indptr[3]

    def test_save_svg(self, tmp_path):
        cl = collinear_layout(4)
        path = save_svg(cl.layout, str(tmp_path / "k4.svg"))
        with open(path) as f:
            assert "<svg" in f.read()

    def test_via_dots_toggle(self):
        cl = collinear_layout(4)
        with_vias = layout_to_svg(cl.layout, show_vias=True)
        without = layout_to_svg(cl.layout, show_vias=False)
        assert with_vias.count("<circle") > 0
        assert without.count("<circle") == 0


# grid B_6, B_8 at L = 4 and B_9, K_9 with multiplicity 2, CCC(5) at L = 3
SVG_LAYOUTS = {
    "B6": lambda: build_grid_layout((2, 2, 2)),
    "B8-L4": lambda: build_grid_layout((3, 3, 2), L=4),
    "B9": lambda: build_grid_layout((3, 3, 3)),
    "K9x2": lambda: collinear_layout(9, multiplicity=2),
    "CCC5-L3": lambda: ccc_2d_layout(5, L=3),
}


@pytest.mark.parametrize("case", SVG_LAYOUTS)
@pytest.mark.parametrize("opts", [{}, {"max_wires": 7}, {"show_vias": False}],
                         ids=["default", "max_wires", "no_vias"])
def test_svg_matches_object_renderer(case, opts):
    """The columnar renderer writes the object renderer's bytes."""
    layout = SVG_LAYOUTS[case]().layout
    assert layout_to_svg(layout, **opts) == layout_to_svg_legacy(layout, **opts)


class TestAsciiFigures:
    def test_fig1_label_matrix(self):
        """Figure 1: node (1,2) of the 4x4 swap-butterfly carries butterfly
        row 2."""
        fig = swap_butterfly_figure(SwapButterfly.from_ks((1, 1)))
        lines = fig.splitlines()
        assert lines[0].split() == ["row", "s0", "s1", "s2"]
        row1 = lines[2].split()
        assert row1 == ["1", "1", "1", "2"]
        assert "S2" in lines[-1]

    def test_fig2_matrix_shape(self):
        fig = swap_butterfly_figure(SwapButterfly.from_ks((2, 2)))
        lines = fig.splitlines()
        assert len(lines) == 1 + 16 + 1  # header + rows + boundary marks

    def test_collinear_figure_k9(self):
        fig = collinear_figure(9)
        lines = fig.splitlines()
        assert "20 tracks" in lines[0]
        assert len(lines) == 21
        # type-1 track chains all 8 consecutive links
        assert "0-1 1-2 2-3 3-4 4-5 5-6 6-7 7-8" in fig

    def test_isn_schedule(self):
        fig = isn_schedule_figure(ISN.from_ks((2, 2)))
        assert "level-2 swap" in fig
        assert fig.count("exchange") == 4


class TestBoardSvg:
    def test_board_render(self, tmp_path):
        from repro.packaging.board import paper_board_example
        from repro.viz.board_svg import board_to_svg, save_board_svg

        d = paper_board_example(4)
        svg = board_to_svg(d)
        assert svg.count("<rect") == 1 + d.grid_rows + d.grid_cols + d.num_chips
        path = save_board_svg(d, str(tmp_path / "board.svg"))
        with open(path) as f:
            assert "chip 63" in f.read()
