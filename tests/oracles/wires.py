"""The object wire representation: one :class:`Wire` per routed net.

``repro`` stores a layout's wires only as a columnar
:class:`~repro.layout.wiretable.WireTable`.  :class:`Segment` and
:class:`Wire` are the original objects, moved here verbatim: the
legacy builders in :mod:`tests.oracles.builders` emit them, the legacy
checker in :mod:`tests.oracles.validate` walks them, and the hand-made
and mutated layouts of the validator suites are written with them.
:func:`wires_to_table` and :func:`table_to_wires` convert losslessly
(segments are already normalized both ways), and :class:`ObjectLayout`
holds nodes plus a mutable wire list until :meth:`ObjectLayout.to_layout`
hands a production :class:`~repro.layout.model.Layout` its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.layout.geometry import THOMPSON_LAYERS, LayerPair, Rect
from repro.layout.model import Layout, LayoutModel
from repro.layout.wiretable import WireTable

__all__ = [
    "ObjectLayout",
    "Segment",
    "Wire",
    "table_to_wires",
    "wires_to_table",
]

Point = Tuple[int, int]


@dataclass(frozen=True)
class Segment:
    """An axis-aligned wire segment on a named layer.

    Normalised so that ``(x1, y1) <= (x2, y2)`` lexicographically; degenerate
    (zero-length) segments are rejected.
    """

    x1: int
    y1: int
    x2: int
    y2: int
    layer: int

    def __post_init__(self) -> None:
        if self.x1 != self.x2 and self.y1 != self.y2:
            raise ValueError("segment must be axis-aligned")
        if (self.x1, self.y1) == (self.x2, self.y2):
            raise ValueError("zero-length segment")
        if (self.x1, self.y1) > (self.x2, self.y2):
            a, b, c, d = self.x2, self.y2, self.x1, self.y1
            object.__setattr__(self, "x1", a)
            object.__setattr__(self, "y1", b)
            object.__setattr__(self, "x2", c)
            object.__setattr__(self, "y2", d)
        if self.layer < 1:
            raise ValueError(f"layer must be >= 1, got {self.layer}")

    @property
    def is_horizontal(self) -> bool:
        return self.y1 == self.y2

    @property
    def is_vertical(self) -> bool:
        return self.x1 == self.x2

    @property
    def track(self) -> int:
        """The fixed coordinate: ``y`` for horizontal, ``x`` for vertical."""
        return self.y1 if self.is_horizontal else self.x1

    @property
    def lo(self) -> int:
        return self.x1 if self.is_horizontal else self.y1

    @property
    def hi(self) -> int:
        return self.x2 if self.is_horizontal else self.y2

    @property
    def length(self) -> int:
        return (self.x2 - self.x1) + (self.y2 - self.y1)

    def covers_point(self, p: Point) -> bool:
        x, y = p
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


@dataclass
class Wire:
    """A routed net: a rectilinear path between two node terminals.

    ``net`` identifies the graph edge this wire realises (an ordered pair of
    node ids plus a copy index for parallel links).  ``segments`` is the
    path in order; consecutive segments share an endpoint, and a layer
    change at a shared endpoint is a via.
    """

    net: Tuple
    segments: List[Segment] = field(default_factory=list)

    @classmethod
    def from_path(
        cls,
        net: Tuple,
        points: Sequence[Point],
        layers: LayerPair = THOMPSON_LAYERS,
    ) -> "Wire":
        """Build a wire from a point path, assigning layers by direction.

        Consecutive duplicate points are dropped; each leg must be
        axis-aligned.  Collinear continuing runs on one layer are merged
        into a single segment (so overlap/via analysis sees whole runs).
        """
        return cls.from_legs(net, [(points, layers)])

    @classmethod
    def from_legs(
        cls,
        net: Tuple,
        legs: Sequence[Tuple[Sequence[Point], LayerPair]],
    ) -> "Wire":
        """Build a wire from consecutive legs, each with its own layer pair.

        Used for inter-block wires: the in-block stubs run on the base
        layers while the channel portion runs on its track group's layers.
        Legs must share endpoints; duplicate consecutive points are merged,
        and a straight run continuing across points (or legs) *on the same
        layer* becomes one segment — validators rely on whole runs to
        detect wires grazing another net's via.
        """
        # directed runs: (a, b, layer)
        runs: List[Tuple[Point, Point, int]] = []
        last: Optional[Point] = None
        for leg_points, pair in legs:
            for p in leg_points:
                if last is None or p == last:
                    last = p if last is None else last
                    continue
                a, b = last, p
                if a[0] != b[0] and a[1] != b[1]:
                    raise ValueError(f"non-rectilinear leg {a} -> {b}")
                vertical = a[0] == b[0]
                layer = pair.layer_for(vertical)
                if runs:
                    pa, pb, pl = runs[-1]
                    same_line = (
                        pl == layer
                        and (
                            (pa[0] == pb[0] == a[0] == b[0])
                            or (pa[1] == pb[1] == a[1] == b[1])
                        )
                    )
                    if same_line:
                        # continuing straight (same direction sign): merge
                        d_prev = (pb[0] - pa[0], pb[1] - pa[1])
                        d_cur = (b[0] - a[0], b[1] - a[1])
                        if (
                            d_prev[0] * d_cur[0] > 0
                            or d_prev[1] * d_cur[1] > 0
                        ):
                            runs[-1] = (pa, b, pl)
                            last = p
                            continue
                runs.append((a, b, layer))
                last = p
        if not runs:
            raise ValueError(f"wire {net}: empty path")
        segs = [Segment(a[0], a[1], b[0], b[1], l) for a, b, l in runs]
        return cls(net=net, segments=segs)

    @property
    def endpoints(self) -> Tuple[Point, Point]:
        """First and last points of the path (terminal attachment points)."""
        pts = self.path_points()
        return pts[0], pts[-1]

    def path_points(self) -> List[Point]:
        """Ordered path points; raises if segments are not contiguous."""
        segs = self.segments
        if len(segs) == 1:
            s = segs[0]
            return [(s.x1, s.y1), (s.x2, s.y2)]
        pts: List[Point] = []
        for i, s in enumerate(segs):
            ends = [(s.x1, s.y1), (s.x2, s.y2)]
            if i == 0:
                nxt = segs[1]
                nxt_ends = {(nxt.x1, nxt.y1), (nxt.x2, nxt.y2)}
                shared = [p for p in ends if p in nxt_ends]
                if not shared:
                    raise ValueError(f"wire {self.net}: segments 0/1 not contiguous")
                start = ends[0] if ends[1] == shared[0] else ends[1]
                pts.extend([start, shared[0]])
            else:
                prev_end = pts[-1]
                if prev_end == ends[0]:
                    pts.append(ends[1])
                elif prev_end == ends[1]:
                    pts.append(ends[0])
                else:
                    raise ValueError(
                        f"wire {self.net}: segment {i} not contiguous with path"
                    )
        return pts

    def vias(self) -> List[Point]:
        """Bend points where consecutive segments change layer."""
        out: List[Point] = []
        pts = self.path_points()
        for i in range(len(self.segments) - 1):
            if self.segments[i].layer != self.segments[i + 1].layer:
                out.append(pts[i + 1])
        return out

    @property
    def length(self) -> int:
        return sum(s.length for s in self.segments)


def wires_to_table(wires: Sequence[Wire]) -> WireTable:
    """Lossless import of object wires (already-normalized segments)."""
    counts = np.fromiter((len(w.segments) for w in wires),
                         dtype=np.int64, count=len(wires))
    indptr = np.zeros(len(wires) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    cols = np.empty((5, total), dtype=np.int64)
    i = 0
    for w in wires:
        for s in w.segments:
            cols[0, i] = s.x1
            cols[1, i] = s.y1
            cols[2, i] = s.x2
            cols[3, i] = s.y2
            cols[4, i] = s.layer
            i += 1
    return WireTable(nets=[w.net for w in wires], indptr=indptr,
                     x1=cols[0], y1=cols[1], x2=cols[2], y2=cols[3],
                     layer=cols[4])


def table_to_wires(table: WireTable) -> List[Wire]:
    """Materialise object wires (lossless; segments already normalized
    so ``Segment`` construction re-derives the same values)."""
    x1 = table.x1.tolist()
    y1 = table.y1.tolist()
    x2 = table.x2.tolist()
    y2 = table.y2.tolist()
    lay = table.layer.tolist()
    bounds = table.indptr.tolist()
    out: List[Wire] = []
    for w, net in enumerate(table.nets):
        lo, hi = bounds[w], bounds[w + 1]
        segs = [
            Segment(x1[i], y1[i], x2[i], y2[i], lay[i])
            for i in range(lo, hi)
        ]
        out.append(Wire(net=net, segments=segs))
    return out


@dataclass
class ObjectLayout:
    """Placed nodes plus a mutable list of :class:`Wire` objects — a
    layout as the object builders made it and as the mutation suites
    corrupt it.  :meth:`to_layout` converts it for the production
    validator and measurements; :meth:`of` converts back."""

    model: LayoutModel
    name: str = ""
    nodes: Dict[Hashable, Rect] = field(default_factory=dict)
    wires: List[Wire] = field(default_factory=list)

    @classmethod
    def of(cls, layout: Layout) -> "ObjectLayout":
        return cls(model=layout.model, name=layout.name, nodes=layout.nodes,
                   wires=table_to_wires(layout.wire_table()))

    def add_node(self, node: Hashable, rect: Rect) -> None:
        if node in self.nodes:
            raise ValueError(f"node {node!r} already placed")
        self.nodes[node] = rect

    def add_wire(self, wire: Wire) -> None:
        self.wires.append(wire)

    def to_layout(self) -> Layout:
        return Layout(model=self.model, name=self.name, nodes=self.nodes,
                      table=wires_to_table(self.wires))
