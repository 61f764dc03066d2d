"""Differential and property tests for the columnar packaging engine.

The columnar :func:`count_off_module_links` must be wire-for-wire
identical to the legacy per-link enumerator in ``tests/oracles`` — same totals *and* the same
per-module dicts (content and insertion order) — across row, nucleus and
naive partitions, including non-power-of-two naive module sizes.  The
closed forms of Section 2.3 / Theorem 2.1 pin the counts independently,
and the ``measure_offmodule_traffic`` rewrite is held to a dict-loop
reference under fixed seeds.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.routing import (
    _phi_vec,
    measure_offmodule_traffic,
    path_rows,
)
from repro.packaging.baseline import (
    NaiveRowPartition,
    max_rows_within_pin_limit,
)
from repro.packaging.optimizer import exact_pin_maxima, optimize_packaging
from repro.packaging.partition import (
    NucleusPartition,
    Partition,
    RowPartition,
)
from repro.packaging.pins import (
    count_off_module_links,
    nucleus_partition_module_bound,
    row_partition_avg_per_node,
    row_partition_offmodule_per_module,
)
from repro.topology.butterfly import Butterfly
from repro.topology.swap import SwapNetworkParams
from repro.transform.swap_butterfly import SwapButterfly

from tests.conftest import param_vector_strategy
from tests.oracles.packaging import (
    count_off_module_links_legacy,
    exact_pin_counts_legacy,
    module_sizes_legacy,
)

GRID = [(2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (3, 3, 2), (3, 3, 3), (2, 2, 2, 2), (4, 3, 2)]


class _OpaqueWrapper(Partition):
    """Hides a partition behind ``module_of`` only, forcing the base
    class's generic (loop-backed) columnar fallback."""

    def __init__(self, inner: Partition) -> None:
        self.sb = inner.sb
        self._inner = inner

    def module_of(self, node):
        return self._inner.module_of(node)


def _partitions(sb: SwapButterfly):
    yield RowPartition.natural(sb)
    yield RowPartition(sb, 0)
    yield RowPartition(sb, min(sb.n, sb.params.ks[0] + 1))
    yield NucleusPartition(sb)


class TestColumnarParity:
    @pytest.mark.parametrize("ks", GRID)
    def test_counts_and_dicts_identical(self, ks):
        sb = SwapButterfly.from_ks(ks)
        for part in _partitions(sb):
            a = count_off_module_links(part)
            b = count_off_module_links_legacy(part)
            assert a.num_modules == b.num_modules
            assert a.total_links == b.total_links == sb.num_edges
            assert a.off_module_links == b.off_module_links
            assert a.per_module == b.per_module
            assert list(a.per_module) == list(b.per_module)  # same order
            assert a.nodes_per_module == b.nodes_per_module
            assert list(a.nodes_per_module) == list(b.nodes_per_module)

    @pytest.mark.parametrize("ks", [(2, 2), (3, 2, 2), (3, 3, 3)])
    def test_generic_fallback_matches_fast_paths(self, ks):
        sb = SwapButterfly.from_ks(ks)
        for part in (RowPartition.natural(sb), NucleusPartition(sb)):
            generic = _OpaqueWrapper(part)
            assert generic.module_labels() == part.module_labels()
            assert generic.module_sizes() == part.module_sizes()
            assert generic.num_modules == part.num_modules
            ga = count_off_module_links(generic)
            fa = count_off_module_links(part)
            assert ga.per_module == fa.per_module
            assert ga.nodes_per_module == fa.nodes_per_module

    @pytest.mark.parametrize("ks", [(2, 2), (3, 3, 3)])
    def test_module_sizes_legacy_oracle(self, ks):
        sb = SwapButterfly.from_ks(ks)
        for part in _partitions(sb):
            assert part.module_sizes() == module_sizes_legacy(part)
            assert part.modules() == list(module_sizes_legacy(part))

    def test_module_ids_match_module_of(self):
        sb = SwapButterfly.from_ks((3, 2, 2))
        rows = np.tile(np.arange(sb.rows, dtype=np.int64), sb.stages)
        stages = np.repeat(np.arange(sb.stages, dtype=np.int64), sb.rows)
        for part in _partitions(sb):
            labels = part.module_labels()
            ids = part.module_ids(rows, stages)
            for u, s, mid in zip(rows[::7], stages[::7], ids[::7]):
                assert labels[int(mid)] == part.module_of((int(u), int(s)))

    def test_cached_edge_array(self):
        sb = SwapButterfly.from_ks((2, 2))
        ea = sb.cached_edge_array()
        assert ea is sb.cached_edge_array()  # memoized
        assert not ea.flags.writeable
        assert np.array_equal(ea, sb.edge_array())


class TestNaiveColumnar:
    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 11])
    def test_parity_including_non_power_of_two(self, n, m):
        b = Butterfly(n)
        if m > b.rows:
            pytest.skip("module larger than the network")
        part = NaiveRowPartition(b, m)
        assert part.exact_pin_counts() == exact_pin_counts_legacy(part)

    def test_max_pins_and_avg_agree_with_legacy(self):
        part = NaiveRowPartition(Butterfly(6), 3)
        legacy = exact_pin_counts_legacy(part)
        assert part.max_pins == max(legacy.values())
        assert part.avg_per_node() == Fraction(
            sum(legacy.values()), part.bfly.num_nodes
        )

    @pytest.mark.parametrize("n,limit", [(5, 24), (6, 30), (9, 64)])
    def test_max_rows_within_pin_limit_vs_legacy_scan(self, n, limit):
        # re-run the original scan on top of the legacy per-link counter
        b = Butterfly(n)
        best = 0
        for m in range(1, b.rows + 1):
            pins = exact_pin_counts_legacy(NaiveRowPartition(b, m))
            if max(pins.values(), default=0) <= limit:
                best = m
            elif best:
                break
        assert max_rows_within_pin_limit(n, limit) == best

    def test_tiny_pin_limit_degenerates_to_one_module(self):
        # the whole network on one module has 0 off-module links, so even
        # a 1-pin budget admits the all-rows module (legacy did the same)
        assert max_rows_within_pin_limit(5, 1) == 32


@settings(deadline=None, max_examples=20)
@given(param_vector_strategy(max_l=4, max_k1=3, max_n=8))
def test_columnar_counts_pin_closed_forms(ks):
    """Property: columnar counts reproduce the Section 2.3 closed form and
    Theorem 2.1's ``2**(k1+2)`` nucleus bound across the (n, ks) grid."""
    sb = SwapButterfly.from_ks(ks)
    rep = count_off_module_links(RowPartition.natural(sb))
    formula = row_partition_offmodule_per_module(ks)
    assert rep.max_per_module == formula
    assert set(rep.per_module.values()) == {formula}
    assert rep.avg_per_node == row_partition_avg_per_node(ks)
    nrep = count_off_module_links(NucleusPartition(sb))
    assert nrep.max_per_module <= nucleus_partition_module_bound(ks[0])
    # every composite link crosses nucleus modules: 2 per row per boundary
    assert nrep.off_module_links == 2 * (len(ks) - 1) * sb.rows


class TestRoutingRewrite:
    @pytest.mark.parametrize("ks", [(2, 2), (2, 2, 2), (3, 2, 2)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_measure_offmodule_traffic_seeded_parity(self, ks, seed):
        """The bincount rewrite is bit-identical to the per-crossing dict
        loop under a fixed seed."""
        params = SwapNetworkParams(ks)
        sb = SwapButterfly(params)
        n, R, k1 = params.n, params.num_rows, params.ks[0]
        num_packets = 500
        rng = np.random.default_rng(seed)
        src = rng.integers(0, R, size=num_packets)
        dst = rng.integers(0, R, size=num_packets)
        logical = path_rows(n, src, dst)
        phys = np.empty_like(logical)
        for s in range(n + 1):
            phys[s] = _phi_vec(sb, s, logical[s])
        modules = phys >> k1
        per_module, total = {}, 0
        for s in range(n):
            a, b = modules[s], modules[s + 1]
            cross = a != b
            total += int(cross.sum())
            for m in np.concatenate([a[cross], b[cross]]):
                per_module[int(m)] = per_module.get(int(m), 0) + 1

        res = measure_offmodule_traffic(
            ks, num_packets=num_packets, rng=np.random.default_rng(seed)
        )
        assert res.total_crossings == total
        assert res.crossings_per_module == per_module
        assert res.num_modules == R >> k1
        assert res.max_per_module == max(per_module.values(), default=0)

    def test_zero_packets(self):
        res = measure_offmodule_traffic((2, 2), num_packets=0)
        assert res.total_crossings == 0
        assert res.crossings_per_module == {}
        assert res.demand_per_module_per_packet() == 0.0


class TestExactOptimizer:
    def test_exact_attaches_and_verifies(self):
        cands = optimize_packaging(8, exact=True)
        assert cands
        for c in cands:
            assert c.exact_pins is not None
            if c.scheme == "row":
                assert c.exact_pins == c.pins_per_module
            else:
                assert c.exact_pins <= c.pins_per_module

    def test_exact_off_by_default(self):
        assert all(
            c.exact_pins is None for c in optimize_packaging(8)
        )

    def test_exact_pin_maxima_memoized(self):
        exact_pin_maxima.cache_clear()
        a = exact_pin_maxima((3, 3))
        assert exact_pin_maxima((3, 3)) is a
        sb = SwapButterfly.from_ks((3, 3))
        assert a["row"] == count_off_module_links(
            RowPartition.natural(sb)
        ).max_per_module
        assert a["nucleus"] <= nucleus_partition_module_bound(3)
