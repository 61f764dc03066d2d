"""Stage-column layouts of arbitrary multistage networks.

The straightforward way to draw a multistage network: rows as horizontal
lines, stages as node columns, each boundary's links routed in a
vertical channel between the columns.  Channel widths are congestion-
optimal (left-edge over the link intervals), so this is the best layout
*of this shape* — but the shape itself is the baseline the paper beats:
for a butterfly the stage-column layout needs width ``~ 2^{n+1}`` of
channel alone versus the grid scheme's ``~ 2^n`` total side, and its
longest wire spans the full row extent.

Boundaries are given either as a single **exchange bit** (butterfly
style: straight + cross per row — covers butterflies, Benes fabrics and
Batcher bitonic sorters) or as an explicit **link list** of ``(u, v)``
row pairs (covers omega/shuffle-exchange networks and anything else with
per-node out/in degree at most 2 and at most one straight link per
node).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from ..topology.graph import Graph
from .collinear_generic import left_edge_tracks
from .geometry import Rect
from .model import Layout, multilayer_model, thompson_model
from .tracks import TrackGrouping, base_layer_pair
from .wiretable import WireTableBuilder

__all__ = ["MultistageDims", "MultistageResult", "build_multistage_layout", "multistage_dims"]

Boundary = Union[int, Sequence[Tuple[int, int]]]

# terminal slots on node sides (node side >= 4)
_SLOT_STRAIGHT = 0
_SLOTS_OUT = (1, 2)
_SLOTS_IN = (3, 4)


@dataclass(frozen=True)
class MultistageDims:
    rows: int
    stages: int
    W: int
    L: int
    channel_widths: Tuple[int, ...]
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def volume(self) -> int:
        return self.area * self.L


@dataclass
class MultistageResult:
    layout: Layout
    graph: Graph
    dims: MultistageDims

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s["channel_total"] = sum(self.dims.channel_widths)
        return s


def _boundary_links(rows: int, b: Boundary, r_bits: int) -> List[Tuple[int, int]]:
    if isinstance(b, int):
        if not 0 <= b < r_bits:
            raise ValueError(f"exchange bit {b} out of range for {rows} rows")
        bit = 1 << b
        out: List[Tuple[int, int]] = []
        for u in range(rows):
            out.append((u, u))
            out.append((u, u ^ bit))
        return out
    links = [(int(u), int(v)) for u, v in b]
    for u, v in links:
        if not (0 <= u < rows and 0 <= v < rows):
            raise ValueError(f"link ({u}, {v}) out of range for {rows} rows")
    return links


def multistage_dims(
    rows: int,
    boundaries: Sequence[Boundary],
    W: int = 4,
    L: int = 2,
) -> MultistageDims:
    """Planning-only dimensions of :func:`build_multistage_layout` (exact,
    no geometry — usable at sizes too large to materialise)."""
    if rows < 2 or rows & (rows - 1):
        raise ValueError(f"rows must be a power of two >= 2, got {rows}")
    r_bits = rows.bit_length() - 1
    link_lists = [_boundary_links(rows, b, r_bits) for b in boundaries]
    widths: List[int] = []
    for links in link_lists:
        cross = [(u, v) for u, v in links if u != v]
        g = Graph()
        g.add_nodes(range(rows))
        for u, v in cross:
            g.add_edge(min(u, v), max(u, v))
        assign = left_edge_tracks(g, range(rows), min_gap=1)
        demand = max(assign.values()) + 1 if assign else 0
        grouping = TrackGrouping(L=L, horizontal=False, total_tracks=max(demand, 1))
        widths.append(grouping.physical_tracks if demand else 0)
    width = sum(W + 2 + w for w in widths) + W
    return MultistageDims(
        rows=rows,
        stages=len(link_lists) + 1,
        W=W,
        L=L,
        channel_widths=tuple(widths),
        width=width,
        height=rows * (W + 1) - 1,
    )


def build_multistage_layout(
    rows: int,
    boundaries: Sequence[Boundary],
    W: int = 4,
    L: int = 2,
    name: str = "multistage",
) -> MultistageResult:
    """Lay out the multistage network given per-boundary links (or
    exchange bits) as stage columns with congestion-routed channels."""
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
    nodes: Dict[Tuple[int, int], Rect] = {}
    tb = WireTableBuilder()
    net = Graph(name=name)

    def row_y(u: int) -> int:
        return u * pitch_y

    for s in range(dims.stages):
        for u in range(rows):
            nodes[(u, s)] = Rect(colx[s], row_y(u), W, W)
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
            tb.add_path(
                ((u, s), (u, s + 1), "straight"), [(right, y0), (nxt, y0)], base
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
            tb.add_legs(
                ((u, s), (v, s + 1), "cross"),
                [
                    ([(right, yo), (tx, yo)], base),
                    ([(tx, yo), (tx, yi)], pair),
                    ([(tx, yi), (nxt, yi)], base),
                ],
            )
    lay = Layout(model=model, name=f"{name}-{rows}x{dims.stages}-L{L}",
                 nodes=nodes, table=tb.build())
    return MultistageResult(layout=lay, graph=net, dims=dims)
