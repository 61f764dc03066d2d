"""Layout container and layout-model rule descriptors.

A :class:`Layout` is a concrete embedding: node rectangles plus routed
wires on numbered layers.  A :class:`LayoutModel` states which rules the
embedding claims to satisfy (how many wiring layers, whether nodes must
sit on the first layer, node-size range) so the validator knows what to
check.  ``thompson_model()`` and ``multilayer_model(L)`` construct the two
rule sets used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from .geometry import Rect
from .wiretable import WireTable

__all__ = ["LayoutModel", "Layout", "thompson_model", "multilayer_model"]


@dataclass(frozen=True)
class LayoutModel:
    """Rules a layout claims to satisfy.

    * ``num_layers`` — wiring layers ``L`` available.
    * ``v_layers`` / ``h_layers`` — which layers may carry vertical /
      horizontal segments.  Section 4.2: for even ``L``, odd layers carry
      verticals and even layers horizontals; for odd ``L`` the paper
      partitions horizontal tracks onto layers ``1, 3, ..., L`` and
      vertical tracks onto layers ``2, 4, ..., L-1``.
    * ``active_layers`` — layers that may contain nodes (the multilayer
      2-D grid model has exactly one).
    """

    name: str
    num_layers: int
    v_layers: Tuple[int, ...]
    h_layers: Tuple[int, ...]
    active_layers: int = 1

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"need at least one layer, got {self.num_layers}")
        if self.active_layers < 1:
            raise ValueError("need at least one active layer")
        if set(self.v_layers) & set(self.h_layers):
            raise ValueError("a layer cannot carry both orientations")
        for layer in (*self.v_layers, *self.h_layers):
            if not 1 <= layer <= self.num_layers:
                raise ValueError(f"layer {layer} outside [1, {self.num_layers}]")


def _node_box(nodes: Mapping) -> Optional[Tuple[int, int, int, int]]:
    """``(x_min, y_min, x_max, y_max)`` over the node rects, ``None`` for
    no nodes.  Array-backed nodes (``rect_columns``, see
    :class:`~repro.layout.grid_table.GridNodes`) are read as columns,
    without making a :class:`Rect`."""
    if not len(nodes):
        return None
    columns = getattr(nodes, "rect_columns", None)
    if columns is not None:
        x, y, x2, y2 = columns()
        return int(x.min()), int(y.min()), int(x2.max()), int(y2.max())
    xs: List[int] = []
    ys: List[int] = []
    for r in nodes.values():
        xs.extend((r.x, r.x2))
        ys.extend((r.y, r.y2))
    return min(xs), min(ys), max(xs), max(ys)


def thompson_model() -> LayoutModel:
    """The Thompson model: two wiring layers (layer 1 vertical, layer 2
    horizontal), one active layer."""
    return LayoutModel(name="thompson", num_layers=2, v_layers=(1,), h_layers=(2,))


def multilayer_model(L: int) -> LayoutModel:
    """The multilayer 2-D grid model with ``L`` wiring layers.

    Even ``L``: verticals on odd layers, horizontals on even layers
    (``L/2`` groups of layer pairs).  Odd ``L``: horizontals on layers
    ``1, 3, ..., L`` and verticals on ``2, 4, ..., L-1`` (Section 4.2's
    odd-``L`` rule).
    """
    if L < 2:
        raise ValueError(f"multilayer model needs L >= 2, got {L}")
    if L % 2 == 0:
        v = tuple(range(1, L + 1, 2))
        h = tuple(range(2, L + 1, 2))
    else:
        h = tuple(range(1, L + 1, 2))
        v = tuple(range(2, L, 2))
    return LayoutModel(name=f"multilayer-L{L}", num_layers=L, v_layers=v, h_layers=h)


class Layout:
    """A concrete layout: placed nodes plus routed wires.

    Node ids are the graph's node ids (ints or tuples).  The layout does
    not interpret them; validators compare against a target graph.
    ``nodes`` is a dict, or a read-only mapping such as the grid
    builder's :class:`~repro.layout.grid_table.GridNodes`, which
    :meth:`add_node` copies to a dict on the first write.

    The wires are one :class:`~repro.layout.wiretable.WireTable` (no
    table means no wires), read through :meth:`wire_table`; every
    measurement below reads its columns.
    """

    def __init__(
        self,
        model: LayoutModel,
        name: str = "",
        nodes: Mapping[Hashable, Rect] = None,
        table: Optional[WireTable] = None,
    ) -> None:
        self.model = model
        self.name = name
        self.nodes: Mapping[Hashable, Rect] = {} if nodes is None else nodes
        self._table = WireTable.empty() if table is None else table

    def wire_table(self) -> WireTable:
        """The layout's wires."""
        return self._table

    def add_node(self, node: Hashable, rect: Rect) -> None:
        if node in self.nodes:
            raise ValueError(f"node {node!r} already placed")
        if not isinstance(self.nodes, dict):
            self.nodes = dict(self.nodes.items())
        self.nodes[node] = rect

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def bounding_box(self) -> Tuple[int, int, int, int]:
        """``(x_min, y_min, x_max, y_max)`` over all nodes and wires —
        the paper's smallest upright encompassing rectangle."""
        boxes = [b for b in (_node_box(self.nodes), self._table.bounding_box())
                 if b is not None]
        if not boxes:
            raise ValueError("empty layout")
        x1s, y1s, x2s, y2s = zip(*boxes)
        return (min(x1s), min(y1s), max(x2s), max(y2s))

    @property
    def width(self) -> int:
        x1, _, x2, _ = self.bounding_box()
        return x2 - x1

    @property
    def height(self) -> int:
        _, y1, _, y2 = self.bounding_box()
        return y2 - y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def volume(self) -> int:
        """Area times number of layers (Section 4.1)."""
        return self.area * self.model.num_layers

    def max_wire_length(self) -> int:
        return self._table.max_wire_length()

    def total_wire_length(self) -> int:
        return self._table.total_wire_length()

    def num_vias(self) -> int:
        return self._table.num_vias()

    def layers_used(self) -> List[int]:
        return self._table.layers_used()

    def segment_count(self) -> int:
        return self._table.num_segments

    def num_wires(self) -> int:
        return self._table.num_wires

    def summary(self) -> Dict[str, int]:
        """One-stop metrics dict used by benches and EXPERIMENTS.md."""
        # one bounding-box pass; the properties would take one each
        x1, y1, x2, y2 = self.bounding_box()
        width, height = x2 - x1, y2 - y1
        return {
            "nodes": len(self.nodes),
            "wires": self.num_wires(),
            "segments": self.segment_count(),
            "width": width,
            "height": height,
            "area": width * height,
            "volume": width * height * self.model.num_layers,
            "layers": self.model.num_layers,
            "max_wire_length": self.max_wire_length(),
            "total_wire_length": self.total_wire_length(),
            "vias": self.num_vias(),
        }
