"""2-D layouts of cube-connected cycles (CCC) networks.

The paper cites Chen & Lau's "Tighter layouts of the cube-connected
cycles" [7] among the efficient-layout literature its scheme relates to.
``CCC(n)`` replaces each vertex of ``Q_n`` by an ``n``-cycle — node
``(x, d)`` with cycle links ``(x, d)-(x, d+1 mod n)`` and one dimension
link ``(x, d)-(x XOR 2**d, d)`` — giving a degree-3 network with
``N = n 2**n`` nodes and bisection ``Theta(2**n)``.

The layout follows the paper's grid philosophy: hypercube vertices
arranged as a ``2**a x 2**b`` grid (``a + b = n``), each grid cell a
vertical stack of the vertex's ``n`` cycle nodes, with

* cycle links wired inside the cell (neighbors abut; the wrap link uses
  one in-cell track),
* dimension links ``d < b`` routed through per-grid-row horizontal
  channels (hypercube pattern on columns), reached by per-cell riser
  tracks, and
* dimension links ``d >= b`` routed through per-grid-column vertical
  channels directly from the node's right edge.

Channel tracks are shared only across a full-cell gap (``min_gap = 1``
left-edge assignment), so the width is within one cell of the hypercube
congestion ``floor(2**(b+1)/3)``.  The resulting area is
``Theta(4**n) = Theta((N/log N)^2)`` with leading constant ``4/9`` for
balanced splits — bisection-optimal up to the constant, matching the
CCC-layout literature's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.bits import flip_bit
from ..topology.graph import Graph
from .collinear_generic import left_edge_tracks
from .geometry import Rect
from .model import Layout, multilayer_model, thompson_model
from .tracks import TrackGrouping, base_layer_pair
from .wiretable import WireTableBuilder

__all__ = ["ccc_graph", "CccDims", "CccResult", "ccc_2d_layout", "ccc_2d_dims"]

# node-side slots (W >= 4): 0 cycle/straight, 1 dim-out, 2 wrap, 3 dim-in
_SLOT_DIM_OUT = 1
_SLOT_WRAP = 2
_SLOT_DIM_IN = 3


def ccc_graph(n: int) -> Graph:
    """The CCC(n) graph on nodes ``(x, d)``."""
    if n < 2:
        raise ValueError(f"CCC needs n >= 2, got {n}")
    g = Graph(name=f"CCC_{n}")
    for x in range(1 << n):
        for d in range(n):
            g.add_node((x, d))
    for x in range(1 << n):
        for d in range(n):
            g.add_edge((x, d), (x, (d + 1) % n))
            y = flip_bit(x, d)
            if x < y:
                g.add_edge((x, d), (y, d))
    return g


@dataclass(frozen=True)
class CccDims:
    n: int
    a: int
    b: int
    W: int
    L: int
    cell_w: int
    cell_h: int
    chan_h: int
    chan_v: int
    grid_cell_w: int
    grid_cell_h: int

    @property
    def width(self) -> int:
        return (1 << self.b) * self.grid_cell_w

    @property
    def height(self) -> int:
        return (1 << self.a) * self.grid_cell_h

    @property
    def area(self) -> int:
        return self.width * self.height


def _subcube_tracks(dims: int, cells: int, L: int, horizontal: bool):
    """Left-edge tracks for the union of hypercube matchings on ``cells``
    positions (one edge per pair per dimension), with full-cell gaps."""
    g = Graph()
    g.add_nodes(range(cells))
    for d in range(dims):
        for u in range(cells):
            v = flip_bit(u, d)
            if u < v:
                g.add_edge(u, v)
    assign = left_edge_tracks(g, range(cells), min_gap=1)
    demand = max(assign.values()) + 1 if assign else 0
    grouping = TrackGrouping(L=L, horizontal=horizontal, total_tracks=max(demand, 1))
    return assign, (grouping.physical_tracks if demand else 0), grouping


def ccc_2d_layout(
    n: int,
    split: Optional[Tuple[int, int]] = None,
    W: int = 4,
    L: int = 2,
) -> "CccResult":
    """Build and return the wire-level CCC(n) layout."""
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
    nodes: Dict[Tuple[int, int], Rect] = {}
    tb = WireTableBuilder()
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
            nodes[(x, d)] = Rect(px, py, W, W)

    # --- cycle links ------------------------------------------------------
    for x in range(1 << n):
        ox, oy = origin(x)
        for d in range(n - 1):
            px, py = node_pos(x, d)
            tb.add_path(
                ((x, d), (x, d + 1), "cycle"),
                [(px, py + W), (px, py + W + 1)],
                base,
            )
        if n >= 2:
            # wrap link via the cell channel's track 0
            track_x = ox + W + 1
            _, y_hi = node_pos(x, n - 1)
            _, y_lo = node_pos(x, 0)
            tb.add_path(
                ((x, n - 1), (x, 0), "wrap"),
                [
                    (ox + W, y_hi + _SLOT_WRAP),
                    (track_x, y_hi + _SLOT_WRAP),
                    (track_x, y_lo + _SLOT_WRAP),
                    (ox + W, y_lo + _SLOT_WRAP),
                ],
                base,
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
            tb.add_legs(
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
            tb.add_legs(
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

    lay = Layout(model=model, name=f"CCC{n}-L{L}", nodes=nodes,
                 table=tb.build())
    return CccResult(layout=lay, graph=graph, dims=dims)


@dataclass
class CccResult:
    layout: Layout
    graph: Graph
    dims: CccDims

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s["chan_h"] = self.dims.chan_h
        s["chan_v"] = self.dims.chan_v
        return s


def ccc_2d_dims(
    n: int,
    split: Optional[Tuple[int, int]] = None,
    W: int = 4,
    L: int = 2,
) -> CccDims:
    """Exact closed-form dimensions of :func:`ccc_2d_layout` (evaluable at
    any ``n`` — used to exhibit the Theta(4^n) constant converging)."""
    if n < 2:
        raise ValueError(f"CCC needs n >= 2, got {n}")
    a, b = split if split is not None else (n // 2, n - n // 2)
    if a + b != n or a < 1 or b < 1:
        raise ValueError(f"split {split} does not partition n = {n}")
    _, chan_h, _g = _subcube_tracks(b, 1 << b, L, horizontal=True)
    _, chan_v, _g = _subcube_tracks(a, 1 << a, L, horizontal=False)
    cell_w = W + 1 + (1 + b) + 1
    cell_h = n * (W + 1)
    return CccDims(
        n=n, a=a, b=b, W=W, L=L,
        cell_w=cell_w, cell_h=cell_h,
        chan_h=chan_h, chan_v=chan_v,
        grid_cell_w=cell_w + 1 + chan_v + 1,
        grid_cell_h=cell_h + 1 + chan_h + 1,
    )
