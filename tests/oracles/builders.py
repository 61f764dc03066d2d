"""The original object-per-wire layout builders.

Each function is the ``engine="legacy"`` branch of its production
builder, together with the argument checks and set-up that branch read:
one :class:`~repro.layout.geometry.Wire` object per link, added to a
:class:`~repro.layout.model.Layout` in emission order.  The columnar
builders :func:`repro.layout.collinear_layout`,
:func:`repro.layout.build_grid_layout` and
:func:`repro.layout.build_grid2d_layout` must produce the same layouts
wire for wire, in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.layout.collinear import (
    CollinearLayout,
    TrackOrder,
    optimal_track_count,
    track_assignment,
)
from repro.layout.collinear_generic import left_edge_tracks, max_congestion
from repro.layout.geometry import THOMPSON_LAYERS, LayerPair, Rect, Wire
from repro.layout.grid2d import (
    GraphFor,
    Grid2DResult,
    Node,
    _grid2d_plan,
    _grid2d_wire_stream,
    _side_subgraphs,
)
from repro.layout.grid_scheme import (
    GridDims,
    GridLayoutResult,
    _column_union_graph,
    grid_dims,
)
from repro.layout.model import (
    Layout,
    LayoutModel,
    multilayer_model,
    thompson_model,
)
from repro.layout.tracks import TrackGrouping, base_layer_pair
from repro.topology.bits import flip_bit
from repro.topology.graph import Graph
from repro.transform.swap_butterfly import SwapButterfly

from .blocks import plan_block

__all__ = [
    "build_grid2d_layout_legacy",
    "build_grid_layout_legacy",
    "build_grid_nodes_legacy",
    "collinear_layout_legacy",
]

Point = Tuple[int, int]


def build_grid_nodes_legacy(
    sb: SwapButterfly, dims: GridDims
) -> Dict[Tuple[int, int], Rect]:
    """Node rectangles of the full grid layout as a dict, one
    :class:`Rect` per node, in the production insertion order (blocks by
    id, stages major, local rows minor) — the reference for the
    array-backed :class:`~repro.layout.grid_table.GridNodes`."""
    bd = dims.block
    k2 = dims.ks[1]
    gc = dims.grid_cols
    R = bd.nrows
    W = bd.W
    nodes: Dict[Tuple[int, int], Rect] = {}
    for bid in range(dims.grid_rows * gc):
        ox = (bid & (gc - 1)) * dims.cell_w
        oy = (bid >> k2) * dims.cell_h
        row0 = bid << dims.ks[0]
        for s in range(sb.n + 1):
            x = bd.colx[s] + ox
            for rr in range(R):
                nodes[(row0 + rr, s)] = Rect(x, bd.row_y(rr) + oy, W, W)
    return nodes


def collinear_layout_legacy(
    n: int,
    multiplicity: int = 1,
    node_side: Optional[int] = None,
    order: TrackOrder = "forward",
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
) -> CollinearLayout:
    """Object-per-wire :func:`repro.layout.collinear_layout`."""
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    degree = multiplicity * (n - 1)
    side = node_side if node_side is not None else max(degree, 1)
    if side < degree:
        raise ValueError(
            f"node side {side} cannot host {degree} top-edge terminals"
        )
    tracks_total = optimal_track_count(n) * multiplicity

    pitch = side + 1
    top = side  # nodes sit on y in [0, side]

    def terminal_x(a: int, b: int, copy: int) -> int:
        """x of node ``a``'s terminal for its ``copy``-th wire to ``b``.

        Unit spacing per terminal, ordered by (neighbor, copy); the check
        above guarantees ``side >= degree`` so all ranks fit on the edge.
        """
        rank = (b if b < a else b - 1) * multiplicity + copy
        return a * pitch + rank

    track_of: Dict[Tuple[int, int, int], int] = {}
    lay = Layout(
        model=model or thompson_model(),
        name=f"collinear-K{n}x{multiplicity}",
    )
    base_assign = track_assignment(n, "forward")
    for (a, b), t0 in sorted(base_assign.items()):
        for copy in range(multiplicity):
            t = t0 * multiplicity + copy
            if order == "reversed":
                t = tracks_total - 1 - t
            y = top + 1 + t
            xa, xb = terminal_x(a, b, copy), terminal_x(b, a, copy)
            wire = Wire.from_path(
                (a, b, copy),
                [(xa, top), (xa, y), (xb, y), (xb, top)],
                layers=layers,
            )
            lay.add_wire(wire)
            track_of[(a, b, copy)] = t

    for a in range(n):
        lay.add_node(a, Rect(a * pitch, 0, side, side))

    return CollinearLayout(
        n=n,
        multiplicity=multiplicity,
        node_side=side,
        order=order,
        layout=lay,
        track_of=track_of,
        tracks_total=tracks_total,
    )


def build_grid_layout_legacy(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    track_order: TrackOrder = "forward",
    recirculating: bool = False,
) -> GridLayoutResult:
    """Object-per-wire :func:`repro.layout.build_grid_layout`: every block
    planned by :func:`~tests.oracles.blocks.plan_block`, then the
    inter-block wires joined stub to stub."""
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    k1, k2 = dims.ks[0], dims.ks[1]
    sb = SwapButterfly.from_ks(dims.ks)
    model = thompson_model() if L == 2 else multilayer_model(L)
    base_pair = base_layer_pair(L)
    lay = Layout(model=model, name=f"grid-B{dims.n}-L{L}")

    gc, gr = dims.grid_cols, dims.grid_rows

    def origin(bid: int) -> Point:
        c, g = bid & (gc - 1), bid >> k2
        return (c * dims.cell_w, g * dims.cell_h)

    def shift(pts: Sequence[Point], o: Point) -> List[Point]:
        return [(x + o[0], y + o[1]) for x, y in pts]

    # --- blocks ---------------------------------------------------------
    out_stubs: Dict[Tuple, Tuple[int, "object"]] = {}
    in_stubs: Dict[Tuple, Tuple[int, "object"]] = {}
    for bid in range(gr * gc):
        plan = plan_block(sb, bid, dims.block)
        ox, oy = origin(bid)
        for node, r in plan.nodes:
            lay.add_node(node, Rect(r.x + ox, r.y + oy, r.w, r.h))
        for net, pts in plan.intra_paths:
            lay.add_wire(Wire.from_path(net, shift(pts, (ox, oy)), base_pair))
        for link, stub in plan.out_stubs.items():
            out_stubs[link] = (bid, stub)
        for link, stub in plan.in_stubs.items():
            in_stubs[link] = (bid, stub)
    if set(out_stubs) != set(in_stubs):  # pragma: no cover - construction bug
        raise AssertionError("mismatched inter-block stubs")

    # --- inter-block wires ----------------------------------------------
    assign_row = track_assignment(gc, track_order) if gc >= 2 else {}
    l3 = len(dims.ks) == 3
    if l3:
        assign_col = track_assignment(gr, track_order) if gr >= 2 else {}
        union = None
    else:
        union = _column_union_graph(dims.ks)
        assign_col_generic = left_edge_tracks(union, range(gr))
    gh = TrackGrouping(L=L, horizontal=True, total_tracks=dims.tracks_row)
    gv = TrackGrouping(L=L, horizontal=False, total_tracks=dims.tracks_col)

    # group links per (grid row, block-column pair) / (grid col, row pair)
    groups: Dict[Tuple, List[Tuple]] = {}
    for link, (src_bid, stub) in out_stubs.items():
        dst_bid = stub.other_block
        if stub.level == 2:
            g = src_bid >> k2
            ca, cb = src_bid & (gc - 1), dst_bid & (gc - 1)
            key = ("row", g, min(ca, cb), max(ca, cb))
        else:
            c = src_bid & (gc - 1)
            ra, rb = src_bid >> k2, dst_bid >> k2
            key = ("col", c, min(ra, rb), max(ra, rb))
        groups.setdefault(key, []).append(link)

    for key in sorted(groups):
        links = sorted(groups[key])
        kind_row = key[0] == "row"
        if kind_row:
            mult = dims.mult_row
        elif l3:
            mult = dims.mult_col
        else:
            mult = union.multiplicity(key[2], key[3])
        if len(links) != mult:  # pragma: no cover - construction bug
            raise AssertionError(f"pair {key}: {len(links)} links, expected {mult}")
        if kind_row:
            base = assign_row[(key[2], key[3])]
        elif l3:
            base = assign_col[(key[2], key[3])]
        for copy, link in enumerate(links):
            if kind_row or l3:
                track = base * mult + copy
            else:
                track = assign_col_generic[(key[2], key[3], copy)]
            src_bid, ostub = out_stubs[link]
            dst_bid, istub = in_stubs[link]
            so, do = origin(src_bid), origin(dst_bid)
            opts, ipts = shift(ostub.points, so), shift(istub.points, do)
            u, s, kind = link
            vrow = sb.params.sigma(ostub.level, u)
            if kind == "sc":
                vrow = flip_bit(vrow, 0)
            net = ((u, s), (vrow, s + 1), kind)
            if kind_row:
                grouping = gh
                track_y = (
                    (src_bid >> k2) * dims.cell_h
                    + dims.block.height
                    + 1
                    + grouping.offset_of(track)
                )
                p1, p2 = opts[-1], ipts[0]
                mid = [p1, (p1[0], track_y), (p2[0], track_y), p2]
            else:
                grouping = gv
                track_x = (
                    (src_bid & (gc - 1)) * dims.cell_w
                    + dims.block.width
                    + 1
                    + grouping.offset_of(track)
                )
                p1, p2 = opts[-1], ipts[0]
                mid = [p1, (track_x, p1[1]), (track_x, p2[1]), p2]
            pair = grouping.layer_pair(track)
            lay.add_wire(
                Wire.from_legs(
                    net,
                    [(opts, base_pair), (mid, pair), (ipts, base_pair)],
                )
            )

    return GridLayoutResult(
        layout=lay, sb=sb, dims=dims, track_order=track_order,
        recirculating=recirculating,
    )


def build_grid2d_layout_legacy(
    rows: int,
    cols: int,
    row_graph: GraphFor,
    col_graph: GraphFor,
    W: Optional[int] = None,
    L: int = 2,
    name: str = "grid2d",
    split_channels: bool = False,
) -> Grid2DResult:
    """Object-per-wire :func:`repro.layout.build_grid2d_layout`: one
    :class:`Wire` per channel link."""
    if rows < 1 or cols < 1:
        raise ValueError("need at least a 1x1 grid")
    if L < 2:
        raise ValueError(f"need at least 2 layers, got {L}")
    rgs = [row_graph(r) for r in range(rows)]
    cgs = [col_graph(c) for c in range(cols)]
    for r, g in enumerate(rgs):
        if set(g.nodes()) - set(range(cols)):
            raise ValueError(f"row graph {r} has nodes outside 0..{cols - 1}")
    for c, g in enumerate(cgs):
        if set(g.nodes()) - set(range(rows)):
            raise ValueError(f"column graph {c} has nodes outside 0..{rows - 1}")

    row_sides = [_side_subgraphs(g, split_channels) for g in rgs]
    col_sides = [_side_subgraphs(g, split_channels) for g in cgs]

    def demand(graphs: List[Graph], n: int) -> int:
        return max((max_congestion(g, range(n)) for g in graphs), default=0)

    d_top = demand([s[0] for s in row_sides], cols)
    d_bot = demand([s[1] for s in row_sides], cols)
    d_right = demand([s[0] for s in col_sides], rows)
    d_left = demand([s[1] for s in col_sides], rows)
    per_edge = max(
        max((s[i].max_degree() for s in row_sides for i in (0, 1)), default=0),
        max((s[i].max_degree() for s in col_sides for i in (0, 1)), default=0),
    )

    plan = _grid2d_plan(
        rows, cols, W, L, split_channels,
        d_top, d_bot, d_right, d_left, per_edge,
    )
    dims, model, side = plan.dims, plan.model, plan.dims.W
    g_top, g_bot = plan.g_top, plan.g_bot
    g_right, g_left = plan.g_right, plan.g_left
    x_off, y_off = plan.x_off, plan.y_off
    cell_w, cell_h = dims.cell_w, dims.cell_h
    net = Graph(name=name)

    def origin(r: int, c: int) -> Tuple[int, int]:
        return (c * cell_w + x_off, r * cell_h + y_off)

    nodes: Dict[Node, Rect] = {}
    for r in range(rows):
        for c in range(cols):
            ox, oy = origin(r, c)
            nodes[(r, c)] = Rect(ox, oy, side, side)
            net.add_node((r, c))

    wire_objs: List[Wire] = []

    stream = _grid2d_wire_stream(
        rows, cols,
        lambda r: row_sides[r], lambda c: col_sides[c],
        g_top, g_bot, g_right, g_left,
        side, cell_w, cell_h, x_off, y_off,
    )
    for u, v, wnet, p8, pair in stream:
        net.add_edge(u, v)
        path = [(p8[2 * i], p8[2 * i + 1]) for i in range(4)]
        wire_objs.append(Wire.from_legs(wnet, [(path, pair)]))

    lname = f"{name}-{rows}x{cols}-L{L}"
    lay = Layout(model=model, name=lname, nodes=nodes, wires=wire_objs)
    return Grid2DResult(layout=lay, graph=net, dims=dims)
