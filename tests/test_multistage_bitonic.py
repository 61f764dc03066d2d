"""Tests for bitonic sorters, the stage-column layout engine, and the
queued routing simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.queued_routing import (
    saturation_per_node_rate,
    simulate_butterfly_queued,
)
from repro.layout.multistage import build_multistage_layout
from repro.layout.validate import validate_layout
from repro.topology.benes import Benes, benes_boundary_bits
from repro.topology.bitonic import (
    BitonicNetwork,
    bitonic_num_stages,
    bitonic_schedule,
    bitonic_sort,
)

from tests.oracles.builders import build_multistage_layout_legacy


class TestBitonicSort:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_sorts_random(self, r):
        rng = np.random.default_rng(r)
        x = rng.normal(size=1 << r)
        assert np.array_equal(bitonic_sort(x), np.sort(x))

    def test_zero_one_principle_exhaustive(self):
        """Sorting-network correctness via the 0-1 principle: a network
        sorting all 0-1 inputs sorts everything."""
        for r in (1, 2, 3):
            R = 1 << r
            for word in range(1 << R):
                x = [(word >> i) & 1 for i in range(R)]
                assert list(bitonic_sort(x)) == sorted(x)

    def test_duplicates_and_sorted_input(self):
        assert list(bitonic_sort([5, 5, 1, 1])) == [1, 1, 5, 5]
        assert list(bitonic_sort(list(range(16)))) == list(range(16))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            bitonic_sort([1, 2, 3])

    def test_schedule_shape(self):
        sched = bitonic_schedule(4)
        assert len(sched) == bitonic_num_stages(4) == 10
        # phase k steps bits k-1..0
        assert sched[:3] == [(1, 0), (2, 1), (2, 0)]

    def test_network_counts(self):
        bn = BitonicNetwork(3)
        assert bn.stages == 7
        assert bn.num_nodes == 7 * 8
        g = bn.graph()
        assert g.num_edges == bn.num_edges == 2 * 8 * 6

    def test_offmodule_links(self):
        bn = BitonicNetwork(3)
        # bits [0,1,0,2,1,0]: >= 1 -> 3 boundaries; x2 links x2 rows
        assert bn.offmodule_links_per_module(1) == 2 * 3 * 2
        assert bn.offmodule_links_per_module(3) == 0
        with pytest.raises(ValueError):
            bn.offmodule_links_per_module(4)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(-100, 100), min_size=2, max_size=64))
def test_bitonic_property(xs):
    # pad to next power of two with +inf-like sentinel
    R = 1 << (len(xs) - 1).bit_length()
    pad = xs + [10**6] * (R - len(xs))
    out = list(bitonic_sort(pad))
    assert out == sorted(pad)


class TestMultistageLayout:
    @pytest.mark.parametrize(
        "rows,bits",
        [
            (8, [0, 1, 2]),  # butterfly B_3
            (8, benes_boundary_bits(3)),  # Benes
            (8, BitonicNetwork(3).boundaries),  # bitonic sorter
        ],
        ids=["butterfly", "benes", "bitonic"],
    )
    def test_validates(self, rows, bits):
        res = build_multistage_layout(rows, bits)
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]
        assert res.graph.num_edges == 2 * rows * len(bits)

    def test_multilayer(self):
        res = build_multistage_layout(16, [0, 1, 2, 3], L=4)
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]
        res2 = build_multistage_layout(16, [0, 1, 2, 3], L=2)
        assert res.layout.area < res2.layout.area

    def test_channel_widths_grow_with_bit(self):
        res = build_multistage_layout(32, [0, 4])
        w0, w4 = res.dims.channel_widths
        assert w4 > w0
        assert w0 >= 2  # two directed links per adjacent pair

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            build_multistage_layout(6, [0])
        with pytest.raises(ValueError):
            build_multistage_layout(8, [3])
        with pytest.raises(ValueError):
            build_multistage_layout(8, [0], W=3)

    def test_baseline_worse_than_grid_scheme(self):
        """The stage-column butterfly needs more area and (especially)
        longer wires than the grid scheme at equal n."""
        from repro.layout.grid_scheme import build_grid_layout

        naive = build_multistage_layout(16, [0, 1, 2, 3], name="bfly")
        ours = build_grid_layout((2, 1, 1))
        # same node count, same edge count
        assert len(naive.layout.nodes) == len(ours.layout.nodes)
        assert naive.layout.max_wire_length() > 0


class TestQueuedRouting:
    def test_low_load_is_lossless_and_fast(self):
        r = simulate_butterfly_queued(5, 0.3, cycles=800)
        assert r.accepted_fraction > 0.98
        assert r.avg_latency < r.n + 2  # barely any queueing

    def test_high_load_still_delivered(self):
        """Balanced traffic: even at 0.95 per input the network keeps up
        (per-node rate ~ 1/(n+1), the paper's ceiling)."""
        r = simulate_butterfly_queued(5, 0.95, cycles=1200)
        assert r.accepted_fraction > 0.97
        assert r.rate_per_node == pytest.approx(0.95 / 6)

    def test_latency_grows_with_load(self):
        lo = simulate_butterfly_queued(5, 0.3, cycles=800, seed=1)
        hi = simulate_butterfly_queued(5, 0.95, cycles=800, seed=1)
        assert hi.avg_latency > lo.avg_latency

    def test_saturation_scales_as_one_over_log(self):
        s4 = saturation_per_node_rate(4, cycles=600)
        s6 = saturation_per_node_rate(6, cycles=600)
        assert s4 > s6
        assert s4 * 5 == pytest.approx(s6 * 7, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_butterfly_queued(5, 0.0)
        with pytest.raises(ValueError):
            simulate_butterfly_queued(0, 0.5)


class TestNodeScaling:
    def test_knee_moves_with_parameters(self):
        from repro.layout.node_scaling import hetero_io_dims, io_node_threshold

        balanced = io_node_threshold((6, 6, 6))
        asym = io_node_threshold((8, 8, 2))
        assert asym > 2 * balanced
        # below the knee the area is flat within a few percent
        base = hetero_io_dims((8, 8, 2), 4).area
        assert hetero_io_dims((8, 8, 2), 64).area / base < 1.05
        # past the knee it grows
        assert hetero_io_dims((6, 6, 6), 256).area / hetero_io_dims((6, 6, 6), 4).area > 2

    def test_validation(self):
        from repro.layout.node_scaling import hetero_io_dims

        with pytest.raises(ValueError):
            hetero_io_dims((2, 2, 2), 2)


class TestIsnStageColumnLayout:
    """Section 2.1: 'We can also derive optimal layout for ISNs' — the
    directly buildable stage-column form, fully validated."""

    @pytest.mark.parametrize("ks", [(1, 1), (2, 2), (2, 1), (2, 2, 2)])
    def test_isn_layout_validates(self, ks):
        from repro.topology.isn import ISN

        isn = ISN.from_ks(ks)
        res = build_multistage_layout(
            isn.rows, isn.boundary_link_lists(), name=f"ISN{ks}"
        )
        rep = validate_layout(res.layout, res.graph)
        assert rep.ok, rep.errors[:3]
        assert res.graph.same_as(isn.graph())

    def test_boundary_link_lists_shape(self):
        from repro.topology.isn import ISN

        isn = ISN.from_ks((2, 2))
        lists = isn.boundary_link_lists()
        assert len(lists) == isn.num_steps
        # exchange boundaries: 2R links; swap boundary: R links
        assert sorted(len(l) for l in lists) == [16, 32, 32, 32, 32]


from hypothesis import strategies as hst


@settings(deadline=None, max_examples=15)
@given(
    st.integers(2, 4),  # row bits
    st.data(),
)
def test_multistage_random_boundaries_property(rbits, data):
    """Random valid boundary sequences (mixing exchange bits and explicit
    permutation-matching link lists) always produce validating layouts."""
    import random as _random

    rows = 1 << rbits
    num_boundaries = data.draw(st.integers(1, 4))
    boundaries = []
    for _ in range(num_boundaries):
        if data.draw(st.booleans()):
            boundaries.append(data.draw(st.integers(0, rbits - 1)))
        else:
            # random permutation boundary: each node one out-link
            seed = data.draw(st.integers(0, 2**20))
            rng = _random.Random(seed)
            perm = list(range(rows))
            rng.shuffle(perm)
            boundaries.append([(u, perm[u]) for u in range(rows)])
    res = build_multistage_layout(rows, boundaries, name="rand")
    rep = validate_layout(res.layout, res.graph)
    assert rep.ok, rep.errors[:3]
    leg = build_multistage_layout_legacy(rows, boundaries, name="rand")
    assert res.layout.nodes == leg.layout.nodes
    assert res.layout.wire_table() == leg.layout.wire_table()


@settings(deadline=None, max_examples=8)
@given(st.integers(3, 5), st.floats(0.2, 0.9), st.integers(0, 99))
def test_queued_routing_conservation(n, rate, seed):
    """Conservation: delivered <= offered + warmup spillover, and
    everything offered is eventually delivered or still in flight."""
    r = simulate_butterfly_queued(n, rate, cycles=500, warmup=100, seed=seed)
    assert r.delivered <= r.offered + r.rows * n  # spillover bound
    in_flight_bound = r.rows * (n + r.max_queue * 2 * n)
    assert r.offered - r.delivered <= in_flight_bound
