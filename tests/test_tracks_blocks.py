"""Tests for multilayer track grouping and block-level planning."""

import pytest

from repro.layout.blocks import BlockDims, block_dims
from repro.layout.tracks import TrackGrouping, base_layer_pair
from repro.transform.swap_butterfly import SwapButterfly

from tests.oracles.blocks import plan_block


class TestTrackGrouping:
    def test_thompson_single_group(self):
        g = TrackGrouping(L=2, horizontal=True, total_tracks=64)
        assert g.num_groups == 1
        assert g.physical_tracks == 64
        assert g.layer_pair(0).horizontal == 2

    def test_even_L_groups(self):
        g = TrackGrouping(L=4, horizontal=True, total_tracks=64)
        assert g.num_groups == 2
        assert g.physical_tracks == 32
        assert g.group_of(0) == 0 and g.group_of(32) == 1
        assert g.offset_of(33) == 1
        assert g.layer_pair(0).horizontal == 2
        assert g.layer_pair(32).horizontal == 4
        assert g.layer_pair(32).vertical == 3

    def test_odd_L_asymmetric(self):
        gh = TrackGrouping(L=5, horizontal=True, total_tracks=60)
        gv = TrackGrouping(L=5, horizontal=False, total_tracks=60)
        assert gh.num_groups == 3 and gv.num_groups == 2
        assert gh.physical_tracks == 20 and gv.physical_tracks == 30
        # odd L: horizontal runs on odd layers, verticals on even
        assert gh.layer_pair(0).horizontal == 1
        assert gh.layer_pair(59).horizontal == 5
        assert gh.layer_pair(59).vertical % 2 == 0
        assert gv.layer_pair(0).vertical == 2
        assert gv.layer_pair(59).vertical == 4

    def test_section52_channel_widths(self):
        """60 channel links -> 60/30/15 physical tracks at L = 2/4/8."""
        for L, expect in [(2, 60), (4, 30), (8, 15)]:
            g = TrackGrouping(L=L, horizontal=True, total_tracks=60)
            assert g.physical_tracks == expect

    def test_zero_tracks(self):
        g = TrackGrouping(L=4, horizontal=False, total_tracks=0)
        assert g.physical_tracks == 0

    def test_range_check(self):
        g = TrackGrouping(L=2, horizontal=True, total_tracks=4)
        with pytest.raises(ValueError):
            g.group_of(4)

    def test_base_layer_pair(self):
        assert base_layer_pair(2).vertical == 1
        assert base_layer_pair(4).horizontal == 2
        assert base_layer_pair(5).horizontal == 1
        assert base_layer_pair(5).vertical == 2


class TestBlockDims:
    def test_channel_widths(self):
        # k = (2,2,2): exchange channels = 4 tracks; composite = 4*4-2*1 = 14
        bd = block_dims((2, 2, 2))
        assert bd.n == 6
        assert bd.channel_widths == (4, 4, 14, 4, 14, 4)
        assert bd.feed_count == 4 * (4 - 1)

    def test_uniformity_constants(self):
        bd = block_dims((3, 2, 2))
        # composite level 2: 2*2^(3-2) intra + 4*(8-2) risers = 28
        assert bd.channel_widths[3] == 28
        assert bd.feed_count == 4 * (8 - 2)

    def test_requires_three_levels(self):
        with pytest.raises(ValueError):
            block_dims((2, 2))

    def test_min_node_side(self):
        with pytest.raises(ValueError):
            block_dims((2, 2, 2), W=3)

    def test_row_geometry(self):
        bd = block_dims((2, 2, 2), W=5)
        assert bd.row_pitch == 6
        assert bd.row_y(0) == bd.rows_base
        assert bd.row_y(3) == bd.rows_base + 18
        assert bd.height == bd.rows_base + 4 * 6


class TestBlockPlan:
    def test_node_placement(self):
        sb = SwapButterfly.from_ks((2, 2, 2))
        bd = block_dims((2, 2, 2))
        plan = plan_block(sb, bid=5, dims=bd)
        nodes = dict(plan.nodes)
        assert len(nodes) == 4 * 7  # 2^k1 rows x n+1 stages
        # rows are the block's global rows
        rows = {u for (u, s) in nodes}
        assert rows == {20, 21, 22, 23}

    def test_stub_balance(self):
        """Every block has equal outgoing and incoming inter-block stubs,
        matching the uniform-count argument."""
        sb = SwapButterfly.from_ks((2, 2, 2))
        bd = block_dims((2, 2, 2))
        for bid in range(16):
            plan = plan_block(sb, bid, bd)
            outs = [s for s in plan.out_stubs.values()]
            ins = [s for s in plan.in_stubs.values()]
            assert len(outs) == len(ins)
            # level-2: 2*(2^k1 - 2^(k1-k2)) outgoing
            assert sum(1 for s in outs if s.level == 2) == 2 * (4 - 1)
            assert sum(1 for s in outs if s.level == 3) == 2 * (4 - 1)

    def test_ports_ordered_by_destination(self):
        """Top-edge ports must increase in x with destination grid column —
        the condition for non-overlapping chained collinear tracks."""
        sb = SwapButterfly.from_ks((3, 2, 2))
        bd = block_dims((3, 2, 2))
        for bid in (0, 3, 7, 12):
            plan = plan_block(sb, bid, bd)
            col = lambda b: b & 3
            ports = []
            for stub in list(plan.out_stubs.values()) + list(plan.in_stubs.values()):
                if stub.level != 2:
                    continue
                port = stub.points[-1] if stub.points[-1][1] == bd.height else stub.points[0]
                ports.append((port[0], col(stub.other_block)))
            ports.sort()
            cols = [c for _x, c in ports]
            assert cols == sorted(cols)

    def test_intra_paths_cover_straights_and_crosses(self):
        sb = SwapButterfly.from_ks((2, 2, 2))
        bd = block_dims((2, 2, 2))
        plan = plan_block(sb, 0, bd)
        kinds = [net[2] for net, _ in plan.intra_paths]
        # 4 exchange boundaries x 4 rows of straights
        assert kinds.count("straight") == 4 * 4
        assert kinds.count("cross") == 4 * 4
        # block 0: rows 0..3; sigma2 fixed-block rows: u[0:2] == col(0) = 0
        # -> one row (u=0 low bits 00 ... within low k1 bits)
        assert kinds.count("ss") + kinds.count("sc") == len(plan.intra_paths) - 32
