"""The recursive grid layout scheme for butterfly networks (Sections 3-4).

Blocks of ``2**k1`` consecutive swap-butterfly rows are arranged as a
``2**k3 x 2**k2`` grid in row-major order.  Viewing blocks as supernodes,
the level-2 links form a complete multigraph on each grid *row* (with
``4 * 2**(k1-k2)`` parallel links per block pair) and the level-3 links a
complete multigraph on each grid *column* — so the inter-block wiring is
a replicated collinear layout of ``K_{2**k2}`` per horizontal channel and
``K_{2**k3}`` per vertical channel.  Under the multilayer model, each
channel's tracks are split into groups overlaid on distinct layer pairs
(:mod:`repro.layout.tracks`).

This module produces the complete wire-level embedding with exact
coordinates; :func:`grid_dims` computes the same dimensions in closed
form (so the area/wire-length formulas can be evaluated for networks far
larger than can be materialised, with the two cross-checked in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..topology.graph import Graph
from ..topology.swap import SwapNetworkParams
from ..transform.swap_butterfly import SwapButterfly
from .blocks import BlockDims, block_dims
from .collinear import TrackOrder, optimal_track_count
from .collinear_generic import max_congestion
from .model import Layout
from .tracks import TrackGrouping

__all__ = [
    "GridDims", "GridLayoutResult", "grid_dims", "grid_graph",
    "build_grid_layout", "max_wire_bounds",
]


@dataclass(frozen=True)
class GridDims:
    """Closed-form dimensions of the grid-scheme layout."""

    ks: Tuple[int, ...]
    W: int
    L: int
    block: BlockDims
    grid_rows: int  # 2**k3
    grid_cols: int  # 2**k2
    mult_row: int  # parallel links per block pair in a grid row (level 2)
    mult_col: int  # ... in a grid column (level 3)
    tracks_row: int  # logical horizontal tracks per grid-row channel
    tracks_col: int  # logical vertical tracks per grid-column channel
    chan_h: int  # physical height of a horizontal channel
    chan_v: int  # physical width of a vertical channel
    cell_w: int
    cell_h: int

    @property
    def n(self) -> int:
        return sum(self.ks)

    @property
    def width(self) -> int:
        return self.grid_cols * self.cell_w

    @property
    def height(self) -> int:
        return self.grid_rows * self.cell_h

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def volume(self) -> int:
        return self.area * self.L

    def summary(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "L": self.L,
            "width": self.width,
            "height": self.height,
            "area": self.area,
            "volume": self.volume,
            "chan_h": self.chan_h,
            "chan_v": self.chan_v,
            "block_w": self.block.width,
            "block_h": self.block.height,
        }


def _column_union_graph(ks: Sequence[int]) -> Graph:
    """Links between grid rows in one vertical channel (levels >= 3).

    Grid row of a block = its id bits above ``k2``.  The level-``i`` swap
    rewrites the block's level-``i`` bit field to any value, so level ``i``
    connects every grid-row pair differing only in that field, with
    ``4 * 2**(k1 - k_i)`` parallel links per pair (the same derivation as
    the l = 3 case — the swapped-in bits are the row's low ``k_i`` bits).
    For l = 3 this is exactly ``K_{2**k3}`` with quadrupled links.
    """
    p = SwapNetworkParams(ks)
    k1, k2 = p.ks[0], p.ks[1]
    gr_bits = p.n - k1 - k2
    g = Graph("col-union")
    g.add_nodes(range(1 << gr_bits))
    offs = p.offsets
    for level in range(3, p.l + 1):
        ki = p.ks[level - 1]
        fo = offs[level - 1] - k1 - k2  # field offset in grid-row bits
        mult = 4 << (k1 - ki)
        mask = (1 << ki) - 1
        for a in range(1 << gr_bits):
            fa = (a >> fo) & mask
            for val in range(fa + 1, 1 << ki):
                b = a ^ ((fa ^ val) << fo)
                g.add_edge(a, b, mult)
    return g


def grid_dims(
    ks: Sequence[int], W: int = 4, L: int = 2, recirculating: bool = False
) -> GridDims:
    """Exact dimensions of the layout :func:`build_grid_layout` produces.

    ``l = 3`` is the paper's main construction; ``l > 3`` (Section 3.3's
    "ISN(l, B_k1) with l > 3" remark) arranges the ``2**(n - k1 - k2)``
    grid rows with vertical channels carrying the union of all level >= 3
    link patterns, track-assigned by the congestion-optimal left-edge
    rule.
    """
    if len(ks) < 3:
        raise ValueError(f"grid scheme requires l >= 3 levels, got {len(ks)}")
    k1, k2 = ks[0], ks[1]
    if any(ki > k1 for ki in ks[1:]):
        raise ValueError(f"grid scheme requires k_i <= k1, got {tuple(ks)}")
    if L < 2:
        raise ValueError(f"need at least 2 wiring layers, got {L}")
    bd = block_dims(ks, W, recirculating=recirculating)
    n = sum(ks)
    gc, gr = 1 << k2, 1 << (n - k1 - k2)
    mult_row = 4 << (k1 - k2)
    tracks_row = optimal_track_count(gc) * mult_row  # = 2**(k1+k2)
    if len(ks) == 3:
        mult_col = 4 << (k1 - ks[2])
        tracks_col = optimal_track_count(gr) * mult_col  # = 2**(k1+k3)
    else:
        mult_col = 0  # per-pair multiplicity varies by level; see builder
        tracks_col = max_congestion(_column_union_graph(ks), range(gr))
    gh = TrackGrouping(L=L, horizontal=True, total_tracks=tracks_row)
    gv = TrackGrouping(L=L, horizontal=False, total_tracks=tracks_col)
    chan_h, chan_v = gh.physical_tracks, gv.physical_tracks
    return GridDims(
        ks=tuple(ks),
        W=W,
        L=L,
        block=bd,
        grid_rows=gr,
        grid_cols=gc,
        mult_row=mult_row,
        mult_col=mult_col,
        tracks_row=tracks_row,
        tracks_col=tracks_col,
        chan_h=chan_h,
        chan_v=chan_v,
        cell_w=bd.width + 1 + chan_v + 1,
        cell_h=bd.height + 1 + chan_h + 1,
    )


def max_wire_bounds(dims: GridDims) -> Tuple[int, int]:
    """Closed-form sandwich on the layout's maximum wire length.

    The longest wires are inter-block channel runs.  A level-2 link
    between the extreme grid columns exists (the collinear assignment
    always carries the pair ``(0, 2**k2 - 1)``), so the maximum is at
    least that track run's horizontal extent; conversely every wire is at
    most one channel run plus two in-block excursions.  Both bounds share
    the leading term ``2**{n+1}/L = 2N/(L log2 N)``, so their ratio to
    the paper's formula converges to 1 — the max-wire analogue of the
    area convergence, checked against built layouts in the tests.
    """
    gc, gr = dims.grid_cols, dims.grid_rows
    lo_row = max(gc - 2, 0) * dims.cell_w
    lo_col = max(gr - 2, 0) * dims.cell_h
    lo = max(lo_row, lo_col, 1)
    excursion = dims.block.width + dims.block.height + dims.chan_h + dims.chan_v
    hi_row = (gc - 1) * dims.cell_w + 2 * excursion
    hi_col = (gr - 1) * dims.cell_h + 2 * excursion
    hi = max(hi_row, hi_col)
    return lo, hi


def grid_graph(sb: SwapButterfly, recirculating: bool = False) -> Graph:
    """The connection graph a grid-scheme layout must realize: the
    swap-butterfly itself, plus the row-for-row output->input feedback
    edges when recirculating."""
    g = sb.graph()
    if recirculating:
        for u in range(sb.rows):
            g.add_edge((u, sb.n), (u, 0))
    return g


@dataclass
class GridLayoutResult:
    """A built grid-scheme layout plus its provenance."""

    layout: Layout
    sb: SwapButterfly
    dims: GridDims
    track_order: TrackOrder
    recirculating: bool = False

    @property
    def graph(self) -> Graph:
        return grid_graph(self.sb, self.recirculating)

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s.update({f"dims_{k}": v for k, v in self.dims.summary().items()})
        return s


def build_grid_layout(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    track_order: TrackOrder = "forward",
    recirculating: bool = False,
) -> GridLayoutResult:
    """Construct the full wire-level layout of the ``sum(ks)``-dimensional
    butterfly (as a swap-butterfly) under the ``L``-layer grid model.

    ``recirculating`` additionally feeds the output stage back to the
    input stage, row for row — the multi-pass fabric pattern.  Since a
    block holds all stages of its rows, feedback links are intra-block
    and the leading constants are untouched.  (In logical butterfly
    labels this matching is the ``phi_n``-twisted wrap; the *standard*
    wrapped butterfly's wrap is a different, block-crossing matching.)

    This is :func:`~repro.layout.chunked.chunked_grid_table` run with no
    budget: all blocks and channels are planned as numpy arrays
    (:mod:`repro.layout.grid_table`) in one pass, and its one chunk is
    the layout's columnar :class:`~repro.layout.wiretable.WireTable`."""
    from .chunked import chunked_grid_table

    build = chunked_grid_table(ks, W, L, track_order, recirculating)
    lay = Layout(
        model=build.model, name=build.name, nodes=build.nodes,
        table=build.table(),
    )
    return GridLayoutResult(
        layout=lay, sb=SwapButterfly.from_ks(build.dims.ks), dims=build.dims,
        track_order=track_order, recirculating=recirculating,
    )
