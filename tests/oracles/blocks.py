"""The original per-block planner of the grid layout scheme.

:func:`plan_block` lays out one block of ``2**k1`` swap-butterfly rows in
local coordinates: node squares, intra-block channel paths, and the
:class:`Stub` halves of the inter-block wires.  The object-per-wire grid
builder (:func:`tests.oracles.builders.build_grid_layout_legacy`)
assembles these plans; the columnar planner in
:mod:`repro.layout.grid_table` emits the same geometry as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.layout.blocks import BlockDims
from repro.layout.geometry import Rect
from repro.topology.bits import flip_bit
from repro.transform.swap_butterfly import ExchangeBoundary, SwapButterfly

__all__ = ["BlockPlan", "Stub", "plan_block"]


Point = Tuple[int, int]
LinkId = Tuple[int, int, str]  # (source row u, source stage s, 'ss'|'sc')

# terminal slot offsets on a node side (W >= MIN_NODE_SIDE)
SLOT_STRAIGHT = 0
SLOT_OUT = {"ss": 1, "sc": 2, "cross": 1}
SLOT_IN = {"ss": 3, "sc": 4, "cross": 3}


@dataclass
class Stub:
    """The in-block portion of an inter-block wire.

    ``points`` runs from the node terminal to the boundary port for
    outgoing stubs, and from the port to the node terminal for incoming
    ones (so paths concatenate port-to-port at the board level).
    """

    link: LinkId
    level: int  # 2 or 3
    other_block: int
    points: List[Point]


@dataclass
class BlockPlan:
    """Local-coordinate plan for one block."""

    bid: int
    dims: BlockDims
    nodes: List[Tuple[Tuple[int, int], Rect]] = field(default_factory=list)
    intra_paths: List[Tuple[Tuple, List[Point]]] = field(default_factory=list)
    out_stubs: Dict[LinkId, Stub] = field(default_factory=dict)
    in_stubs: Dict[LinkId, Stub] = field(default_factory=dict)


def plan_block(sb: SwapButterfly, bid: int, dims: BlockDims) -> BlockPlan:
    """Plan the internals of block ``bid`` (rows ``bid*2**k1 ..``)."""
    k1, k2 = dims.ks[0], dims.ks[1]
    nrows = dims.nrows
    W = dims.W
    row0 = bid << k1
    plan = BlockPlan(bid=bid, dims=dims)
    pending_feeds: List[Tuple] = []

    def local(u: int) -> int:
        return u - row0

    def block_of(u: int) -> int:
        return u >> k1

    def col_of(b: int) -> int:
        return b & ((1 << k2) - 1)

    def grow_of(b: int) -> int:
        return b >> k2

    def node_rect(u: int, s: int) -> Rect:
        return Rect(dims.colx[s], dims.row_y(local(u)), W, W)

    # place nodes
    for s in range(sb.n + 1):
        for rr in range(nrows):
            u = row0 + rr
            plan.nodes.append(((u, s), node_rect(u, s)))

    def out_y(u: int, kind: str) -> int:
        return dims.row_y(local(u)) + SLOT_OUT[kind]

    def in_y(v: int, kind: str) -> int:
        return dims.row_y(local(v)) + SLOT_IN[kind]

    def right_edge(s: int) -> int:
        return dims.colx[s] + W

    # wire every boundary
    for s, boundary in enumerate(sb.boundaries):
        base = dims.chan_base(s)
        next_left = dims.colx[s + 1]
        if isinstance(boundary, ExchangeBoundary):
            t = boundary.bit
            for rr in range(nrows):
                u = row0 + rr
                # straight link: one horizontal run at slot 0
                y0 = dims.row_y(rr) + SLOT_STRAIGHT
                plan.intra_paths.append(
                    (
                        ((u, s), (u, s + 1), "straight"),
                        [(right_edge(s), y0), (next_left, y0)],
                    )
                )
                # cross net, one vertical track per source row
                v = flip_bit(u, t)
                tx = base + rr
                plan.intra_paths.append(
                    (
                        ((u, s), (v, s + 1), "cross"),
                        [
                            (right_edge(s), out_y(u, "cross")),
                            (tx, out_y(u, "cross")),
                            (tx, in_y(v, "cross")),
                            (next_left, in_y(v, "cross")),
                        ],
                    )
                )
            continue

        # composite boundary: classify channel items, then allocate tracks
        level = boundary.level
        other_key = col_of if level == 2 else grow_of
        items: List[Tuple[Tuple, str, LinkId, int]] = []
        # sort key: (destination coordinate, local row, kind, direction)
        for rr in range(nrows):
            u = row0 + rr
            v = sb.params.sigma(level, u)
            dest = block_of(v)
            for kind, tgt in (("ss", v), ("sc", flip_bit(v, 0))):
                link: LinkId = (u, s, kind)
                if dest == bid:
                    items.append(
                        ((other_key(bid), rr, kind, 0), "intra", link, tgt)
                    )
                else:
                    items.append(
                        ((other_key(dest), rr, kind, 0), "out", link, tgt)
                    )
        for rr in range(nrows):
            w = row0 + rr
            for kind in ("ss", "sc"):
                src = sb.params.sigma(level, w if kind == "ss" else flip_bit(w, 0))
                if block_of(src) != bid:
                    link = (src, s, kind)
                    items.append(
                        ((other_key(block_of(src)), rr, kind, 1), "in", link, w)
                    )
        items.sort(key=lambda it: it[0])

        for rank, (_key, role, link, tgt) in enumerate(items):
            tx = base + rank
            u, _s, kind = link
            if role == "intra":
                plan.intra_paths.append(
                    (
                        ((u, s), (tgt, s + 1), kind),
                        [
                            (right_edge(s), out_y(u, kind)),
                            (tx, out_y(u, kind)),
                            (tx, in_y(tgt, kind)),
                            (next_left, in_y(tgt, kind)),
                        ],
                    )
                )
                continue
            dest_block = block_of(sb.params.sigma(level, u)) if role == "out" else bid
            src_block = block_of(u)
            other = dest_block if role == "out" else src_block
            if level == 2:
                if role == "out":
                    pts = [
                        (right_edge(s), out_y(u, kind)),
                        (tx, out_y(u, kind)),
                        (tx, dims.height),
                    ]
                else:  # incoming: port -> node (tgt is destination row)
                    pts = [
                        (tx, dims.height),
                        (tx, in_y(tgt, kind)),
                        (next_left, in_y(tgt, kind)),
                    ]
                stub = Stub(link=link, level=level, other_block=other, points=pts)
                (plan.out_stubs if role == "out" else plan.in_stubs)[link] = stub
            else:
                # levels >= 3 exit via the feedthrough band; the feed y is
                # assigned AFTER all boundaries so that right-edge ports are
                # globally ordered by the destination grid row (the board
                # channel's chaining discipline, across levels)
                pending_feeds.append(
                    (grow_of(other), s, rank, role, link, kind, tgt, tx, other)
                )

    # assign feedthrough rows: globally sorted by destination grid row
    pending_feeds.sort(key=lambda it: it[:4])
    feed_base = dims.nrows if dims.recirculating else 0
    for idx, (_gkey, s, _rank, role, link, kind, tgt, tx, other) in enumerate(
        pending_feeds
    ):
        fy = feed_base + idx
        u = link[0]
        next_left = dims.colx[s + 1]
        level = sb.boundaries[s].level
        if role == "out":
            pts = [
                (dims.colx[s] + W, out_y(u, kind)),
                (tx, out_y(u, kind)),
                (tx, fy),
                (dims.width, fy),
            ]
            plan.out_stubs[link] = Stub(
                link=link, level=level, other_block=other, points=pts
            )
        else:
            pts = [
                (dims.width, fy),
                (tx, fy),
                (tx, in_y(tgt, kind)),
                (next_left, in_y(tgt, kind)),
            ]
            plan.in_stubs[link] = Stub(
                link=link, level=level, other_block=other, points=pts
            )
    if len(pending_feeds) != dims.feed_count:  # pragma: no cover
        raise AssertionError(
            f"block {bid}: used {len(pending_feeds)} feedthroughs, "
            f"expected {dims.feed_count}"
        )

    if dims.recirculating:
        # feedback links (u, n) -> (u, 0): right channel down to the
        # feedback feedthrough band, across under the rows, up the left
        n = sb.n
        right_base = dims.colx[n] + W + 1
        for rr in range(nrows):
            u = row0 + rr
            yo = dims.row_y(rr) + SLOT_OUT["ss"]  # stage n has no other outs
            yi = dims.row_y(rr) + SLOT_IN["ss"]  # stage 0 has no other ins
            rx = right_base + rr
            lx = 1 + rr
            fy = rr
            plan.intra_paths.append(
                (
                    ((u, n), (u, 0), "feedback"),
                    [
                        (dims.colx[n] + W, yo),
                        (rx, yo),
                        (rx, fy),
                        (lx, fy),
                        (lx, yi),
                        (dims.colx[0], yi),
                    ],
                )
            )
    return plan
