"""2-D grid layouts of product-structured networks.

The butterfly paper's conclusion extends its results to "many other
networks, such as hypercubes and k-ary n-cubes": any network whose nodes
can be arranged as a grid with all links confined to grid rows and
columns lays out by the same recipe — each row's links in a horizontal
channel above the row (an optimal collinear layout of the row's induced
graph), each column's links in a vertical channel beside the column.

:func:`build_grid2d_layout` implements that recipe generically (with
multilayer track grouping), and is instantiated for hypercubes, k-ary
n-cubes and generalized hypercubes in :mod:`repro.layout.hypercube_layout`
and :mod:`repro.layout.ghc_layout`.  It builds in memory: a demand pass
splits each channel graph once and sizes the channels, then every
channel's dogleg wires go into one table.

``split_channels=True`` implements the Section 5.2 remark "we can split
approximately half of the wires belonging to the same link to opposite
sides of the chip": each grid row gets a channel above *and* below (each
grid column one left *and* right), halving the per-edge terminal demand —
which is what lets the paper's side-20 chips carry `K_8`-with-quadruple-
links wiring.

A *row graph* / *column graph* is any multigraph whose nodes are the
column indices ``0..cols-1`` / row indices ``0..rows-1``; the callables
receive the row/column index so inhomogeneous products are possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..topology.graph import Graph
from .collinear_generic import left_edge_tracks, max_congestion
from .geometry import Rect
from .model import Layout, multilayer_model, thompson_model
from .tracks import TrackGrouping
from .wiretable import WireTable

__all__ = ["Grid2DDims", "Grid2DResult", "build_grid2d_layout"]

GraphFor = Callable[[int], Graph]
Node = Tuple[int, int]  # (row, col)


@dataclass(frozen=True)
class Grid2DDims:
    rows: int
    cols: int
    W: int
    L: int
    row_tracks: int  # logical tracks demanded per primary horizontal channel
    col_tracks: int
    chan_h: int  # physical, after L-grouping (above-row channel)
    chan_v: int  # right-of-column channel
    cell_w: int
    cell_h: int
    chan_h2: int = 0  # below-row channel (split mode)
    chan_v2: int = 0  # left-of-column channel (split mode)

    @property
    def width(self) -> int:
        return self.cols * self.cell_w

    @property
    def height(self) -> int:
        return self.rows * self.cell_h

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def volume(self) -> int:
        return self.area * self.L


@dataclass
class Grid2DResult:
    layout: Layout
    graph: Graph  # the realised network on (row, col) nodes
    dims: Grid2DDims

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s["chan_h"] = self.dims.chan_h
        s["chan_v"] = self.dims.chan_v
        return s


def _split_side(a: int, b: int, copy: int, mult: int) -> int:
    """Which side (0 = primary, 1 = opposite) a link uses in split mode.

    Parallel copies alternate; single links balance by pair parity.
    """
    if mult > 1:
        return copy % 2
    return (a + b) % 2


def _side_subgraphs(g: Graph, split: bool) -> Tuple[Graph, Graph]:
    """Partition a channel graph's links into (primary, opposite) halves."""
    g0, g1 = Graph("side0"), Graph("side1")
    g0.add_nodes(g.nodes())
    g1.add_nodes(g.nodes())
    for a, b, mult in g.edges():
        for copy in range(mult):
            side = _split_side(a, b, copy, mult) if split else 0
            (g0 if side == 0 else g1).add_edge(a, b)
    return g0, g1


def _edge_orders(g: Graph) -> Dict[int, List[Tuple[int, int]]]:
    """Per node, the ordered list of (other, copy) links — terminal ranks."""
    out: Dict[int, List[Tuple[int, int]]] = {}
    for u in g.nodes():
        links: List[Tuple[int, int]] = []
        for w in g.neighbors(u):
            for copy in range(g.multiplicity(u, w)):
                links.append((w, copy))
        links.sort()
        out[u] = links
    return out


@dataclass(frozen=True)
class _Grid2DPlan:
    """Everything downstream of the channel-demand pass: dimensions,
    model, track groupings and cell offsets."""

    dims: Grid2DDims
    model: object
    g_top: TrackGrouping
    g_bot: TrackGrouping
    g_right: TrackGrouping
    g_left: TrackGrouping
    x_off: int
    y_off: int


def _grid2d_plan(
    rows: int,
    cols: int,
    W: Optional[int],
    L: int,
    split_channels: bool,
    d_top: int,
    d_bot: int,
    d_right: int,
    d_left: int,
    per_edge: int,
) -> _Grid2DPlan:
    def grouped(d: int, horizontal: bool) -> Tuple[TrackGrouping, int]:
        g = TrackGrouping(L=L, horizontal=horizontal, total_tracks=max(d, 1))
        return g, (g.physical_tracks if d else 0)

    g_top, ch_top = grouped(d_top, True)
    g_bot, ch_bot = grouped(d_bot, True)
    g_right, ch_right = grouped(d_right, False)
    g_left, ch_left = grouped(d_left, False)

    # opposite-side terminals are shifted one unit off the corner (the
    # bottom-left corner would otherwise host both a bottom and a left
    # rank-0 terminal), so split mode needs one extra unit of side
    need = per_edge + (1 if split_channels else 0)
    side = W if W is not None else max(need, 1)
    if side < need:
        raise ValueError(
            f"node side {side} cannot host {need} terminals per edge"
        )

    cell_w = (ch_left + 1 if ch_left else 0) + side + 1 + ch_right + 1
    cell_h = (ch_bot + 1 if ch_bot else 0) + side + 1 + ch_top + 1
    dims = Grid2DDims(
        rows=rows,
        cols=cols,
        W=side,
        L=L,
        row_tracks=d_top,
        col_tracks=d_right,
        chan_h=ch_top,
        chan_v=ch_right,
        cell_w=cell_w,
        cell_h=cell_h,
        chan_h2=ch_bot,
        chan_v2=ch_left,
    )
    return _Grid2DPlan(
        dims=dims,
        model=thompson_model() if L == 2 else multilayer_model(L),
        g_top=g_top,
        g_bot=g_bot,
        g_right=g_right,
        g_left=g_left,
        x_off=ch_left + 1 if ch_left else 0,
        y_off=ch_bot + 1 if ch_bot else 0,
    )


def build_grid2d_layout(
    rows: int,
    cols: int,
    row_graph: GraphFor,
    col_graph: GraphFor,
    W: Optional[int] = None,
    L: int = 2,
    name: str = "grid2d",
    split_channels: bool = False,
) -> Grid2DResult:
    """Lay out a network of ``rows x cols`` nodes with per-row/column links.

    ``row_graph(r)`` gives the links among the nodes of grid row ``r``
    (on node ids ``0..cols-1``); ``col_graph(c)`` likewise on row indices.
    Node side defaults to the maximum terminal demand (with
    ``split_channels`` each node edge carries only its half).

    The demand pass splits each channel graph into its side subgraphs
    once, and the emission pass lays those out.  The realised network
    holds the nodes in row-major order, then one edge per wire in
    emission order.
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least a 1x1 grid")
    if L < 2:
        raise ValueError(f"need at least 2 layers, got {L}")

    def split(graph_at: GraphFor, count: int, n: int, what: str):
        out = []
        for i in range(count):
            g = graph_at(i)
            if set(g.nodes()) - set(range(n)):
                raise ValueError(f"{what} {i} has nodes outside 0..{n - 1}")
            out.append(_side_subgraphs(g, split_channels))
        return out

    def demand(sides, n: int, k: int) -> int:
        return max(max_congestion(s[k], range(n)) for s in sides)

    row_sides = split(row_graph, rows, cols, "row graph")
    col_sides = split(col_graph, cols, rows, "column graph")
    plan = _grid2d_plan(
        rows, cols, W, L, split_channels,
        demand(row_sides, cols, 0), demand(row_sides, cols, 1),
        demand(col_sides, rows, 0), demand(col_sides, rows, 1),
        max(g.max_degree() for s in row_sides + col_sides for g in s),
    )
    dims = plan.dims
    nets, paths, pairs = [], [], []
    for wnet, p8, pair in _grid2d_wire_stream(row_sides, col_sides, plan):
        nets.append(wnet)
        paths.append(p8)
        pairs.append((pair.vertical, pair.horizontal))
    table = _doglegs_to_table(nets, paths, pairs)
    nodes = {
        (r, c): Rect(c * dims.cell_w + plan.x_off,
                     r * dims.cell_h + plan.y_off, dims.W, dims.W)
        for r in range(rows) for c in range(cols)
    }
    net = Graph(name=name)
    net.add_nodes(nodes)
    for wnet in nets:
        net.add_edge(wnet[0], wnet[1])
    lay = Layout(
        model=plan.model, name=f"{name}-{rows}x{cols}-L{L}", nodes=nodes,
        table=table,
    )
    return Grid2DResult(layout=lay, graph=net, dims=dims)


def _grid2d_wire_stream(
    row_sides: List[Tuple[Graph, Graph]],
    col_sides: List[Tuple[Graph, Graph]],
    plan: _Grid2DPlan,
):
    """Yield ``(wnet, path8, pair)`` per channel wire in emission order
    (row channels by row then side, column channels by column then side;
    links in sorted track-assignment order), from each row's and each
    column's ``(primary, opposite)`` side subgraphs."""
    dims = plan.dims
    rows, cols, side = dims.rows, dims.cols, dims.W
    cell_w, cell_h = dims.cell_w, dims.cell_h
    x_off, y_off = plan.x_off, plan.y_off

    def origin(r: int, c: int) -> Tuple[int, int]:
        return (c * cell_w + x_off, r * cell_h + y_off)

    # --- row channels -----------------------------------------------------
    for r, sides in enumerate(row_sides):
        for side_id, grouping in ((0, plan.g_top), (1, plan.g_bot)):
            g = sides[side_id]
            if g.num_edges == 0:
                continue
            orders = _edge_orders(g)
            assign = left_edge_tracks(g, range(cols))
            if side_id == 0:
                chan_base = r * cell_h + y_off + side + 1
            else:
                chan_base = r * cell_h

            def term(c: int, other: int, copy: int) -> Tuple[int, int]:
                rank = orders[c].index((other, copy))
                if side_id == 1:
                    rank += 1  # keep the bottom-left corner free
                ox, oy = origin(r, c)
                return (ox + rank, oy + side if side_id == 0 else oy)

            for (a, b, copy), t in sorted(assign.items()):
                y = chan_base + grouping.offset_of(t)
                pa, pb = term(a, b, copy), term(b, a, copy)
                yield (
                    ((r, a), (r, b), f"row{side_id}", copy),
                    (pa[0], pa[1], pa[0], y, pb[0], y, pb[0], pb[1]),
                    grouping.layer_pair(t),
                )

    # --- column channels ----------------------------------------------------
    for c, sides in enumerate(col_sides):
        for side_id, grouping in ((0, plan.g_right), (1, plan.g_left)):
            g = sides[side_id]
            if g.num_edges == 0:
                continue
            orders = _edge_orders(g)
            assign = left_edge_tracks(g, range(rows))
            if side_id == 0:
                chan_base = c * cell_w + x_off + side + 1
            else:
                chan_base = c * cell_w

            def vterm(r: int, other: int, copy: int) -> Tuple[int, int]:
                rank = orders[r].index((other, copy))
                if side_id == 1:
                    rank += 1  # keep the bottom-left corner free
                ox, oy = origin(r, c)
                return (ox + side if side_id == 0 else ox, oy + rank)

            for (a, b, copy), t in sorted(assign.items()):
                x = chan_base + grouping.offset_of(t)
                pa, pb = vterm(a, b, copy), vterm(b, a, copy)
                yield (
                    ((a, c), (b, c), f"col{side_id}", copy),
                    (pa[0], pa[1], x, pa[1], x, pb[1], pb[0], pb[1]),
                    grouping.layer_pair(t),
                )


def _doglegs_to_table(
    nets: List[Tuple],
    paths: List[Tuple[int, ...]],
    pairs: List[Tuple[int, int]],
) -> WireTable:
    """Columnar assembly of uniform 4-point dogleg wires: three alternating
    axis-aligned segments per wire, layered by each wire's pair."""
    m = len(nets)
    if not m:
        return WireTable.empty()
    P = np.array(paths, dtype=np.int64)  # (m, 8): x0 y0 x1 y1 x2 y2 x3 y3
    VH = np.array(pairs, dtype=np.int64)  # (m, 2): vertical, horizontal
    segs = np.empty((m, 3, 5), dtype=np.int64)
    for j in range(3):
        x1, y1 = P[:, 2 * j], P[:, 2 * j + 1]
        x2, y2 = P[:, 2 * j + 2], P[:, 2 * j + 3]
        # axis-aligned, so per-coordinate min/max is endpoint ordering
        segs[:, j, 0] = np.minimum(x1, x2)
        segs[:, j, 1] = np.minimum(y1, y2)
        segs[:, j, 2] = np.maximum(x1, x2)
        segs[:, j, 3] = np.maximum(y1, y2)
        segs[:, j, 4] = np.where(y1 == y2, VH[:, 1], VH[:, 0])
    flat = segs.reshape(m * 3, 5)
    return WireTable.from_segment_arrays(
        nets,
        np.arange(m + 1, dtype=np.int64) * 3,
        flat[:, 0], flat[:, 1], flat[:, 2], flat[:, 3], flat[:, 4],
    )
