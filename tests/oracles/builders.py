"""The original object-per-wire layout builders.

Each function is the object-per-wire form of its production builder,
together with the argument checks and set-up it read: one
:class:`~tests.oracles.wires.Wire` object per link, added to an
:class:`~tests.oracles.wires.ObjectLayout` in emission order and
converted to a table at the end.  The columnar builders
:func:`repro.layout.collinear_layout`,
:func:`repro.layout.build_grid_layout`,
:func:`repro.layout.build_grid2d_layout`,
:func:`repro.layout.ccc_2d_layout`,
:func:`repro.layout.build_multistage_layout` and
:func:`repro.layout.generic_collinear_layout` must produce the same
tables and node maps, wire for wire and in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.layout.collinear import (
    CollinearLayout,
    TrackOrder,
    optimal_track_count,
    track_assignment,
)
from repro.layout.ccc_layout import (
    _SLOT_DIM_IN,
    _SLOT_DIM_OUT,
    _SLOT_WRAP,
    CccDims,
    CccResult,
    _subcube_tracks,
    ccc_graph,
)
from repro.layout.collinear_generic import (
    GenericCollinearLayout,
    left_edge_tracks,
    max_congestion,
)
from repro.layout.geometry import THOMPSON_LAYERS, LayerPair, Rect
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
from repro.layout.model import LayoutModel, multilayer_model, thompson_model
from repro.layout.multistage import (
    _SLOT_STRAIGHT,
    _SLOTS_IN,
    _SLOTS_OUT,
    Boundary,
    MultistageDims,
    MultistageResult,
    _boundary_links,
)
from repro.layout.tracks import TrackGrouping, base_layer_pair
from repro.topology.bits import flip_bit
from repro.topology.graph import Graph
from repro.transform.swap_butterfly import SwapButterfly

from .blocks import plan_block
from .wires import ObjectLayout, Wire

__all__ = [
    "build_grid2d_layout_legacy",
    "build_grid_layout_legacy",
    "build_grid_nodes_legacy",
    "build_multistage_layout_legacy",
    "ccc_2d_layout_legacy",
    "collinear_layout_legacy",
    "generic_collinear_layout_legacy",
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
    lay = ObjectLayout(
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
        layout=lay.to_layout(),
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
    lay = ObjectLayout(model=model, name=f"grid-B{dims.n}-L{L}")

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
        layout=lay.to_layout(), sb=sb, dims=dims, track_order=track_order,
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
    lay = ObjectLayout(model=model, name=lname, nodes=nodes, wires=wire_objs)
    return Grid2DResult(layout=lay.to_layout(), graph=net, dims=dims)


def ccc_2d_layout_legacy(
    n: int,
    split: Optional[Tuple[int, int]] = None,
    W: int = 4,
    L: int = 2,
) -> CccResult:
    """Object-per-wire :func:`repro.layout.ccc_2d_layout`."""
    if n < 2:
        raise ValueError(f"CCC needs n >= 2, got {n}")
    if L < 2:
        raise ValueError(f"CCC layout needs L >= 2 wiring layers, got {L}")
    if W < 4:
        raise ValueError(f"node side must be >= 4, got {W}")
    a, b = split if split is not None else (n // 2, n - n // 2)
    if a + b != n or a < 1 or b < 1:
        raise ValueError(f"split {split} does not partition n = {n}")

    row_assign, chan_h, gh = _subcube_tracks(b, 1 << b, L, horizontal=True)
    col_assign, chan_v, gv = _subcube_tracks(a, 1 << a, L, horizontal=False)

    # cell geometry: node column + right channel (wrap + one riser per d<b)
    risers = b
    cell_w = W + 1 + (1 + risers) + 1
    cell_h = n * (W + 1)
    gc_w = cell_w + 1 + chan_v + 1
    gc_h = cell_h + 1 + chan_h + 1
    dims = CccDims(
        n=n, a=a, b=b, W=W, L=L,
        cell_w=cell_w, cell_h=cell_h,
        chan_h=chan_h, chan_v=chan_v,
        grid_cell_w=gc_w, grid_cell_h=gc_h,
    )

    model = thompson_model() if L == 2 else multilayer_model(L)
    base = base_layer_pair(L)
    lay = ObjectLayout(model=model, name=f"CCC{n}-L{L}")
    graph = ccc_graph(n)

    def origin(x: int) -> Tuple[int, int]:
        r, c = x >> b, x & ((1 << b) - 1)
        return (c * gc_w, r * gc_h)

    def node_pos(x: int, d: int) -> Tuple[int, int]:
        ox, oy = origin(x)
        return (ox, oy + d * (W + 1))

    for x in range(1 << n):
        for d in range(n):
            px, py = node_pos(x, d)
            lay.add_node((x, d), Rect(px, py, W, W))

    # --- cycle links ------------------------------------------------------
    for x in range(1 << n):
        ox, oy = origin(x)
        for d in range(n - 1):
            px, py = node_pos(x, d)
            lay.add_wire(
                Wire.from_path(
                    ((x, d), (x, d + 1), "cycle"),
                    [(px, py + W), (px, py + W + 1)],
                    base,
                )
            )
        if n >= 2:
            # wrap link via the cell channel's track 0
            track_x = ox + W + 1
            _, y_hi = node_pos(x, n - 1)
            _, y_lo = node_pos(x, 0)
            lay.add_wire(
                Wire.from_path(
                    ((x, n - 1), (x, 0), "wrap"),
                    [
                        (ox + W, y_hi + _SLOT_WRAP),
                        (track_x, y_hi + _SLOT_WRAP),
                        (track_x, y_lo + _SLOT_WRAP),
                        (ox + W, y_lo + _SLOT_WRAP),
                    ],
                    base,
                )
            )

    # --- dimension links d < b: horizontal row channels -------------------
    # map channel-track keys: assignment on column indices, one edge per
    # (pair, dimension); copies within a pair are ordered by dimension
    row_pairs: Dict[Tuple[int, int], List[int]] = {}
    for d in range(b):
        for cc in range(1 << b):
            c2 = flip_bit(cc, d)
            if cc < c2:
                row_pairs.setdefault((cc, c2), []).append(d)
    for lst in row_pairs.values():
        lst.sort()

    for (c1, c2, copy), track in sorted(row_assign.items()):
        d = row_pairs[(c1, c2)][copy]
        pair = gh.layer_pair(track)
        for r in range(1 << a):
            x1 = (r << b) | c1
            x2 = (r << b) | c2
            o1, o2 = origin(x1), origin(x2)
            rx1 = o1[0] + W + 1 + 1 + d  # riser track for dimension d
            rx2 = o2[0] + W + 1 + 1 + d
            _, y1 = node_pos(x1, d)
            _, y2 = node_pos(x2, d)
            track_y = r * gc_h + cell_h + 1 + gh.offset_of(track)
            lay.add_wire(
                Wire.from_legs(
                    ((x1, d), (x2, d), "dim"),
                    [
                        ([(o1[0] + W, y1 + _SLOT_DIM_OUT),
                          (rx1, y1 + _SLOT_DIM_OUT)], base),
                        ([(rx1, y1 + _SLOT_DIM_OUT), (rx1, track_y),
                          (rx2, track_y), (rx2, y2 + _SLOT_DIM_IN)], pair),
                        ([(rx2, y2 + _SLOT_DIM_IN),
                          (o2[0] + W, y2 + _SLOT_DIM_IN)], base),
                    ],
                )
            )

    # --- dimension links d >= b: vertical column channels -----------------
    col_pairs: Dict[Tuple[int, int], List[int]] = {}
    for d in range(b, n):
        for rr in range(1 << a):
            r2 = flip_bit(rr, d - b)
            if rr < r2:
                col_pairs.setdefault((rr, r2), []).append(d)
    for lst in col_pairs.values():
        lst.sort()

    for (r1, r2, copy), track in sorted(col_assign.items()):
        d = col_pairs[(r1, r2)][copy]
        pair = gv.layer_pair(track)
        for cc in range(1 << b):
            x1 = (r1 << b) | cc
            x2 = (r2 << b) | cc
            o1, o2 = origin(x1), origin(x2)
            _, y1 = node_pos(x1, d)
            _, y2 = node_pos(x2, d)
            track_x = cc * gc_w + cell_w + 1 + gv.offset_of(track)
            lay.add_wire(
                Wire.from_legs(
                    ((x1, d), (x2, d), "dim"),
                    [
                        ([(o1[0] + W, y1 + _SLOT_DIM_OUT),
                          (track_x, y1 + _SLOT_DIM_OUT)], base),
                        ([(track_x, y1 + _SLOT_DIM_OUT),
                          (track_x, y2 + _SLOT_DIM_IN)], pair),
                        ([(track_x, y2 + _SLOT_DIM_IN),
                          (o2[0] + W, y2 + _SLOT_DIM_IN)], base),
                    ],
                )
            )

    return CccResult(layout=lay.to_layout(), graph=graph, dims=dims)


def build_multistage_layout_legacy(
    rows: int,
    boundaries: Sequence[Boundary],
    W: int = 4,
    L: int = 2,
    name: str = "multistage",
) -> MultistageResult:
    """Object-per-wire :func:`repro.layout.build_multistage_layout`."""
    if rows < 2 or rows & (rows - 1):
        raise ValueError(f"rows must be a power of two >= 2, got {rows}")
    if W < 4:
        raise ValueError(f"node side must be >= 4, got {W}")
    if L < 2:
        raise ValueError(f"need at least 2 layers, got {L}")
    r_bits = rows.bit_length() - 1
    link_lists = [_boundary_links(rows, b, r_bits) for b in boundaries]

    # channel planning: per boundary, a multigraph of non-straight links on
    # row indices; tracks shared only with a 1-row gap (lead jogs occupy
    # the shared row)
    plans = []
    widths: List[int] = []
    groupings: List[TrackGrouping] = []
    for links in link_lists:
        cross = [(u, v) for u, v in links if u != v]
        g = Graph()
        g.add_nodes(range(rows))
        for u, v in cross:
            g.add_edge(min(u, v), max(u, v))
        assign = left_edge_tracks(g, range(rows), min_gap=1)
        demand = max(assign.values()) + 1 if assign else 0
        grouping = TrackGrouping(L=L, horizontal=False, total_tracks=max(demand, 1))
        # map assignment keys (a, b, copy) back to directed links
        directed: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
        for u, v in cross:
            directed[(min(u, v), max(u, v))].append((u, v))
        for lst in directed.values():
            lst.sort()
        net_tracks: List[Tuple[Tuple[int, int], int]] = []
        for (a, b, copy), track in sorted(assign.items()):
            net_tracks.append((directed[(a, b)][copy], track))
        plans.append(net_tracks)
        widths.append(grouping.physical_tracks if demand else 0)
        groupings.append(grouping)

    pitch_y = W + 1
    colx: List[int] = [0]
    for w in widths:
        colx.append(colx[-1] + W + 1 + w + 1)
    dims = MultistageDims(
        rows=rows,
        stages=len(link_lists) + 1,
        W=W,
        L=L,
        channel_widths=tuple(widths),
        width=colx[-1] + W,
        height=rows * pitch_y - 1,
    )

    model = thompson_model() if L == 2 else multilayer_model(L)
    base = base_layer_pair(L)
    lay = ObjectLayout(model=model, name=f"{name}-{rows}x{dims.stages}-L{L}")
    net = Graph(name=name)

    def row_y(u: int) -> int:
        return u * pitch_y

    for s in range(dims.stages):
        for u in range(rows):
            lay.add_node((u, s), Rect(colx[s], row_y(u), W, W))
            net.add_node((u, s))

    for s, links in enumerate(link_lists):
        right = colx[s] + W
        nxt = colx[s + 1]
        base_x = colx[s] + W + 1
        grouping = groupings[s]
        # straights
        straight_out = set()
        for u, v in links:
            if u != v:
                continue
            if u in straight_out:
                raise ValueError(f"node {u} has two straight links at boundary {s}")
            straight_out.add(u)
            y0 = row_y(u) + _SLOT_STRAIGHT
            net.add_edge((u, s), (u, s + 1))
            lay.add_wire(
                Wire.from_path(
                    ((u, s), (u, s + 1), "straight"), [(right, y0), (nxt, y0)], base
                )
            )
        # channel nets: assign per-node out/in slots deterministically
        out_rank: Dict[int, int] = defaultdict(int)
        in_rank: Dict[int, int] = defaultdict(int)
        for (u, v), track in sorted(plans[s], key=lambda item: item[0]):
            ou, iv = out_rank[u], in_rank[v]
            if ou >= len(_SLOTS_OUT) or iv >= len(_SLOTS_IN):
                raise ValueError(
                    f"boundary {s}: node degree exceeds the engine's "
                    f"2-out/2-in slot budget"
                )
            out_rank[u] += 1
            in_rank[v] += 1
            tx = base_x + grouping.offset_of(track)
            pair = grouping.layer_pair(track)
            yo = row_y(u) + _SLOTS_OUT[ou]
            yi = row_y(v) + _SLOTS_IN[iv]
            net.add_edge((u, s), (v, s + 1))
            lay.add_wire(
                Wire.from_legs(
                    ((u, s), (v, s + 1), "cross"),
                    [
                        ([(right, yo), (tx, yo)], base),
                        ([(tx, yo), (tx, yi)], pair),
                        ([(tx, yi), (nxt, yi)], base),
                    ],
                )
            )
    return MultistageResult(layout=lay.to_layout(), graph=net, dims=dims)


def generic_collinear_layout_legacy(
    graph: Graph,
    order: Optional[Sequence[Hashable]] = None,
    node_side: Optional[int] = None,
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
) -> GenericCollinearLayout:
    """Object-per-wire :func:`repro.layout.generic_collinear_layout`."""
    nodes = list(order) if order is not None else sorted(
        graph.nodes(), key=lambda x: (isinstance(x, tuple), x)
    )
    pos = {node: i for i, node in enumerate(nodes)}
    assign = left_edge_tracks(graph, nodes)
    congestion = max_congestion(graph, nodes)
    tracks_total = max(assign.values(), default=-1) + 1
    assert tracks_total == congestion or not assign

    degree = max((graph.degree(u) for u in nodes), default=0)
    side = node_side if node_side is not None else max(degree, 1)
    if side < degree:
        raise ValueError(f"node side {side} cannot host {degree} terminals")
    pitch = side + 1
    top = side

    # per-node terminal ranks ordered by (neighbor position, copy)
    def terminal_x(u: Hashable, v: Hashable, copy: int) -> int:
        iu = pos[u]
        rank = 0
        for w in graph.neighbors(u):
            if pos[w] < pos[v]:
                rank += graph.multiplicity(u, w)
        return iu * pitch + rank + copy

    lay = ObjectLayout(model=model or thompson_model(), name=f"collinear-{graph.name}")
    for i, u in enumerate(nodes):
        lay.add_node(u, Rect(i * pitch, 0, side, side))

    track_of: Dict[Tuple, int] = {}
    for (u, v, copy), t in sorted(assign.items(), key=lambda kv: str(kv)):
        y = top + 1 + t
        xa = terminal_x(u, v, copy)
        xb = terminal_x(v, u, copy)
        lay.add_wire(
            Wire.from_path((u, v, copy), [(xa, top), (xa, y), (xb, y), (xb, top)], layers)
        )
        track_of[(u, v, copy)] = t
    return GenericCollinearLayout(
        graph=graph,
        order=tuple(nodes),
        node_side=side,
        layout=lay.to_layout(),
        track_of=track_of,
        tracks_total=tracks_total,
        congestion=congestion,
    )
