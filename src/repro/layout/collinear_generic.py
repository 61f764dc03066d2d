"""Collinear layouts of arbitrary graphs (generalising Appendix B).

Appendix B's complete-graph layout is an instance of a general fact: for
a fixed node order, the minimum number of tracks for a collinear layout
equals the maximum *cut congestion* — the number of links crossing any
gap between consecutive nodes — because track sharing is exactly interval
graph coloring, which the left-edge algorithm solves optimally with
``max-overlap`` colors.

This module provides that engine: exact congestion, optimal track
assignment for any multigraph on ordered nodes, and the validated
geometric layout.  The butterfly paper's conclusion extends its results
to hypercubes and k-ary n-cubes, whose grid-scheme channels are collinear
layouts of *hypercubes* and *cycles* rather than complete graphs — built
on top of this engine in :mod:`repro.layout.hypercube_layout` and
:mod:`repro.layout.ghc_layout`.

For ``K_N`` the engine reproduces Appendix B exactly: congestion =
``floor(N^2/4)`` (the bisection bound), and the left-edge assignment uses
exactly that many tracks (property-tested against the paper's explicit
residue-class assignment).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..topology.graph import Graph
from .geometry import LayerPair, Rect, THOMPSON_LAYERS
from .model import Layout, LayoutModel, thompson_model
from .wiretable import WireTableBuilder

__all__ = [
    "cut_congestion",
    "max_congestion",
    "left_edge_tracks",
    "GenericCollinearLayout",
    "generic_collinear_layout",
]

Interval = Tuple[int, int]  # (left node index, right node index), left < right


def _intervals(graph: Graph, order: Sequence[Hashable]) -> List[Tuple[Interval, Tuple]]:
    """All links as index intervals, one entry per parallel copy.

    Returns ``((a, b), (u, v, copy))`` with ``a < b`` positions in
    ``order``.
    """
    pos = {node: i for i, node in enumerate(order)}
    if len(pos) != graph.num_nodes or set(pos) != set(graph.nodes()):
        raise ValueError("order must enumerate exactly the graph's nodes")
    out: List[Tuple[Interval, Tuple]] = []
    for u, v, mult in graph.edges():
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
            u, v = v, u
        for copy in range(mult):
            out.append(((a, b), (u, v, copy)))
    return out


def cut_congestion(graph: Graph, order: Sequence[Hashable]) -> List[int]:
    """Links crossing each of the ``n - 1`` gaps between consecutive nodes."""
    n = graph.num_nodes
    diff = [0] * (n + 1)
    for (a, b), _link in _intervals(graph, order):
        diff[a] += 1
        diff[b] -= 1
    out: List[int] = []
    run = 0
    for i in range(n - 1):
        run += diff[i]
        out.append(run)
    return out


def max_congestion(graph: Graph, order: Sequence[Hashable]) -> int:
    """The collinear track lower bound for this node order."""
    cong = cut_congestion(graph, order)
    return max(cong, default=0)


def left_edge_tracks(
    graph: Graph, order: Sequence[Hashable], min_gap: int = 0
) -> Dict[Tuple, int]:
    """Optimal track assignment (left-edge algorithm).

    Intervals sorted by left endpoint; each takes the lowest-numbered
    track whose current occupant ends at least ``min_gap`` before its
    start.  With ``min_gap = 0`` (collinear layouts, where terminal
    ordering at the shared node resolves the touch) this uses exactly
    ``max_congestion`` tracks — the optimum.  Channel routers that place
    lead-in/lead-out jogs at the shared row pass ``min_gap = 1``.
    """
    items = sorted(_intervals(graph, order), key=lambda it: (it[0], it[1]))
    # free heap: tracks ordered by (end, track); new tracks appended
    assign: Dict[Tuple, int] = {}
    ends: List[Tuple[int, int]] = []  # heap of (end position, track id)
    next_track = 0
    for (a, b), link in items:
        if ends and ends[0][0] + min_gap <= a:
            _end, t = heapq.heappop(ends)
        else:
            t = next_track
            next_track += 1
        assign[link] = t
        heapq.heappush(ends, (b, t))
    return assign


@dataclass
class GenericCollinearLayout:
    """Geometric collinear layout of any graph on an ordered node row."""

    graph: Graph
    order: Tuple[Hashable, ...]
    node_side: int
    layout: Layout
    track_of: Dict[Tuple, int]
    tracks_total: int
    congestion: int

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s["tracks"] = self.tracks_total
        s["congestion"] = self.congestion
        return s


def generic_collinear_layout(
    graph: Graph,
    order: Optional[Sequence[Hashable]] = None,
    node_side: Optional[int] = None,
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
) -> GenericCollinearLayout:
    """Construct the optimal collinear layout of ``graph``.

    Terminal discipline matches :func:`repro.layout.collinear.collinear_layout`:
    node ``u`` attaches each wire at a distinct top-edge offset ordered by
    (neighbor position, copy), which keeps same-track chained links from
    overlapping.
    """
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

    tb = WireTableBuilder()
    track_of: Dict[Tuple, int] = {}
    for (u, v, copy), t in sorted(assign.items(), key=lambda kv: str(kv)):
        y = top + 1 + t
        xa = terminal_x(u, v, copy)
        xb = terminal_x(v, u, copy)
        tb.add_path((u, v, copy), [(xa, top), (xa, y), (xb, y), (xb, top)], layers)
        track_of[(u, v, copy)] = t
    lay = Layout(model=model or thompson_model(), name=f"collinear-{graph.name}",
                 table=tb.build())
    for i, u in enumerate(nodes):
        lay.add_node(u, Rect(i * pitch, 0, side, side))
    return GenericCollinearLayout(
        graph=graph,
        order=tuple(nodes),
        node_side=side,
        layout=lay,
        track_of=track_of,
        tracks_total=tracks_total,
        congestion=congestion,
    )
