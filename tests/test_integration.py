"""End-to-end integration tests: the full pipeline the paper describes.

ISN -> swap-butterfly -> (a) verified butterfly automorphism,
(b) validated wire-level layout whose measurements obey the theorems,
(c) packaging with exact pin counts, (d) FFT running over the topology.
"""

import numpy as np
import pytest

from repro import (
    ChipSpec,
    RowPartition,
    SwapButterfly,
    board_design,
    build_grid_layout,
    count_off_module_links,
    grid_dims,
    multilayer_area,
    num_nodes,
    validate_layout,
    verify_automorphism,
)
from repro.algorithms.fft import fft_via_isn
from repro.packaging.pins import row_partition_offmodule_per_module
from repro.topology.isn import ISN


class TestFullPipeline:
    @pytest.mark.parametrize("ks", [(2, 1, 1), (2, 2, 2)])
    def test_isn_to_layout_to_measurements(self, ks):
        n = sum(ks)
        # 1. the transformation is a butterfly automorphism
        assert verify_automorphism(ks)
        # 2. the layout realises the swap-butterfly under Thompson rules
        res = build_grid_layout(ks)
        validate_layout(res.layout, res.graph).raise_if_failed()
        # 3. measurements are consistent with the closed-form dims
        assert res.layout.area <= res.dims.area
        # 4. packaging: only composite links leave row modules
        sb = res.sb
        rep = count_off_module_links(RowPartition.natural(sb))
        assert rep.max_per_module == row_partition_offmodule_per_module(ks)
        # 5. FFT flows over the ISN
        isn = ISN.from_ks(ks)
        x = np.random.default_rng(0).normal(size=isn.rows)
        assert np.allclose(fft_via_isn(x, isn), np.fft.fft(x))

    def test_multilayer_improves_all_three_metrics(self):
        """Theorem 4.1's point: more layers shrink area, volume per layer
        trade, and max wire length together."""
        r2 = build_grid_layout((2, 2, 2), L=2)
        r4 = build_grid_layout((2, 2, 2), L=4)
        for r in (r2, r4):
            validate_layout(r.layout, r.graph).raise_if_failed()
        assert r4.layout.area < r2.layout.area
        assert r4.layout.max_wire_length() < r2.layout.max_wire_length()
        assert r4.layout.volume < 2 * r2.layout.volume  # volume ~ 4N^2/(L log^2)

    def test_board_design_consistent_with_partition(self):
        d = board_design((2, 2, 2), ChipSpec(max_pins=32, side=10))
        sb = SwapButterfly.from_ks((2, 2, 2))
        rep = count_off_module_links(RowPartition.natural(sb))
        assert d.pins_per_chip == rep.max_per_module
        assert d.num_chips == rep.num_modules

    def test_formula_consistency_across_modules(self):
        """analysis.multilayer_area at L=2 equals thompson area; grid_dims
        approaches it from above as n grows."""
        for k in (4, 6, 8):
            n = 3 * k
            d = grid_dims((k, k, k))
            target = multilayer_area(n, 2)
            assert d.area > target * 0.2  # same Theta
            # ratio to 2^{2n} is the better-conditioned convergence check
            assert d.area / 4 ** n > 1

    def test_num_nodes_matches_layout(self):
        res = build_grid_layout((2, 1, 1))
        assert len(res.layout.nodes) == num_nodes(4)


class TestLayoutPackagingCrossCheck:
    """The built layout and the packaging accountant must agree: wires
    whose endpoints sit in different blocks of the grid layout are
    exactly the off-module links the row partition counts."""

    @pytest.mark.parametrize("ks", [(2, 1, 1), (2, 2, 2), (2, 2, 1)])
    def test_interblock_wires_equal_pin_counts(self, ks):
        from repro.packaging.pins import count_off_module_links

        k1 = ks[0]
        res = build_grid_layout(ks)
        rep = count_off_module_links(RowPartition.natural(res.sb))

        per_block = {}
        inter = 0
        for net in res.layout.wire_table().nets:
            (u, _su), (v, _sv) = net[0], net[1]
            bu, bv = u >> k1, v >> k1
            if bu != bv:
                inter += 1
                per_block[bu] = per_block.get(bu, 0) + 1
                per_block[bv] = per_block.get(bv, 0) + 1
        assert inter == rep.off_module_links
        assert per_block == rep.per_module

    def test_intra_block_wires_stay_inside_block_cells(self):
        """Geometric confinement: a wire between same-block nodes never
        leaves its grid cell's footprint."""
        ks = (2, 2, 2)
        res = build_grid_layout(ks)
        d = res.dims
        k1, k2 = ks[0], ks[1]
        gc = d.grid_cols
        t = res.layout.wire_table()
        for w, net in enumerate(t.nets):
            (u, _su), (v, _sv) = net[0], net[1]
            if u >> k1 != v >> k1:
                continue
            bid = u >> k1
            ox = (bid & (gc - 1)) * d.cell_w
            oy = (bid >> k2) * d.cell_h
            rows = slice(t.indptr[w], t.indptr[w + 1])
            assert (ox <= t.x1[rows]).all() and (t.x2[rows] <= ox + d.cell_w).all()
            assert (oy <= t.y1[rows]).all() and (t.y2[rows] <= oy + d.cell_h).all()
