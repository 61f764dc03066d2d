"""Strictly optimal collinear layouts of complete graphs (Appendix B).

Place the ``N`` nodes of ``K_N`` along a row and classify links by *type*:
a type-``i`` link joins nodes whose labels differ by ``i``.  The paper's
assignment puts type-``i`` links into ``min(i, N - i)`` tracks:

* ``i <= N/2``: track by label residue modulo ``i`` — links of equal
  residue chain end-to-end and never overlap;
* ``i > N/2``: each of the ``N - i`` links gets its own track.

Total tracks ``sum_i min(i, N-i) = floor(N**2 / 4)``, exactly the
bisection-width lower bound, and 25% below the Chen–Agrawal layout's
``4 (4**(log2 N - 1) - 1) / 3 ~ N**2/3`` tracks.

This module provides the abstract track assignment, the fully geometric
:class:`CollinearLayout` (validated wire-level), the reversed track order
that shortens the maximum wire (the paper's closing remark in Appendix B),
and multiplicities (every butterfly layout replicates each wire 4 or more
times).  :func:`collinear_layout` builds the whole table in one numpy
pass over every wire; it is small enough (``n(n-1)/2`` wires per copy)
that no caller streams it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np

from ..topology.complete import complete_multigraph
from ..topology.graph import Graph
from .geometry import LayerPair, Rect, THOMPSON_LAYERS
from .model import Layout, LayoutModel, thompson_model
from .wiretable import WireTable

__all__ = [
    "optimal_track_count",
    "chen_agrawal_track_count",
    "naive_track_count",
    "track_assignment",
    "track_assignment_arrays",
    "CollinearLayout",
    "collinear_layout",
]

TrackOrder = Literal["forward", "reversed"]


def _check_track_order(order: str) -> None:
    """Raise ``ValueError`` unless ``order`` is ``'forward'`` or
    ``'reversed'``: every builder checks before it allocates, so a bogus
    name never lays out the forward order under its own label."""
    if order not in ("forward", "reversed"):
        raise ValueError(
            f"track order must be 'forward' or 'reversed', got {order!r}"
        )


def optimal_track_count(n: int) -> int:
    """``floor(n**2 / 4)`` — Appendix B's strictly optimal count."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * n // 4


def chen_agrawal_track_count(n: int) -> int:
    """The prior bound of [6, Theorem 1]: ``4 (4**(log2 n - 1) - 1) / 3``.

    Defined for ``n`` a power of two (the dBCube construction); for other
    ``n`` we round the exponent up, matching the usual embed-in-next-power
    usage.  For ``n = 2`` the closed form evaluates to 0, but K_2 still
    needs its single track, so the result is clamped to at least 1.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = (n - 1).bit_length()  # ceil(log2 n)
    return max(1, 4 * (4 ** (p - 1) - 1) // 3)


def naive_track_count(n: int) -> int:
    """One track per link: ``n(n-1)/2`` — the trivial upper bound."""
    return n * (n - 1) // 2


def track_assignment(n: int, order: TrackOrder = "forward") -> Dict[Tuple[int, int], int]:
    """Map each link ``(a, b)``, ``a < b``, of ``K_n`` to its track index.

    ``forward`` stacks type-1 closest to the nodes; ``reversed`` flips the
    whole stack, which places the long-span types low and reduces the
    maximum wire length (see :func:`collinear_layout` and bench ABL-1).
    """
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    _check_track_order(order)
    assign: Dict[Tuple[int, int], int] = {}
    base = 0
    for i in range(1, n):
        width = min(i, n - i)
        if i <= n // 2:
            # residue classes share tracks; chains never overlap
            for a in range(n - i):
                assign[(a, a + i)] = base + (a % i)
        else:
            for idx, a in enumerate(range(n - i)):
                assign[(a, a + i)] = base + idx
        base += width
    total = optimal_track_count(n)
    assert base == total, (base, total)
    if order == "reversed":
        assign = {e: total - 1 - t for e, t in assign.items()}
    return assign


def track_assignment_arrays(
    n: int, order: TrackOrder = "forward"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`track_assignment` as arrays ``(a, b, track)``, sorted by
    ``(a, b)`` — the iteration order of the object builder."""
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    _check_track_order(order)
    a_parts, t_parts = [], []
    base = 0
    for i in range(1, n):
        width = min(i, n - i)
        a = np.arange(n - i, dtype=np.int64)
        t_parts.append(base + (a % i if i <= n // 2 else a))
        a_parts.append(a)
        base += width
    a = np.concatenate(a_parts)
    t = np.concatenate(t_parts)
    b = a + np.repeat(np.arange(1, n, dtype=np.int64),
                      [n - i for i in range(1, n)])
    total = optimal_track_count(n)
    if order == "reversed":
        t = total - 1 - t
    srt = np.lexsort((b, a))
    return a[srt], b[srt], t[srt]


@dataclass
class CollinearLayout:
    """Geometric collinear layout of ``K_n`` (with multiplicity).

    Nodes are squares of side ``node_side`` in a row at ``y = 0``;
    horizontal tracks stack above.  ``track_of[(a, b, copy)]`` gives the
    physical track of each wire.
    """

    n: int
    multiplicity: int
    node_side: int
    order: TrackOrder
    layout: Layout
    track_of: Dict[Tuple[int, int, int], int]
    tracks_total: int

    @property
    def graph(self) -> Graph:
        return complete_multigraph(self.n, self.multiplicity)

    def summary(self) -> Dict[str, int]:
        s = self.layout.summary()
        s["tracks"] = self.tracks_total
        return s


def collinear_layout(
    n: int,
    multiplicity: int = 1,
    node_side: Optional[int] = None,
    order: TrackOrder = "forward",
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
) -> CollinearLayout:
    """Construct the wire-level collinear layout of ``K_n`` (x ``multiplicity``).

    Terminal discipline: node ``a`` attaches each wire at a distinct x
    offset on its top edge, ordered by (neighbor label, copy); this
    ordering guarantees that chained same-track links only meet
    end-to-end, never overlapping.  Each wire is three segments: up from
    node ``a``, along its track at ``y = node_side + 1 + track``, and
    down to node ``b``.  Wires come in ``(a, b, copy)`` order.
    """
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    _check_track_order(order)
    m = multiplicity
    degree = m * (n - 1)
    side = node_side if node_side is not None else degree
    if side < degree:
        raise ValueError(
            f"node side {side} cannot host {degree} top-edge terminals"
        )
    tracks_total = optimal_track_count(n) * m
    pitch = side + 1
    a0, b0, t0 = track_assignment_arrays(n, "forward")
    idx = np.arange(len(a0) * m, dtype=np.int64)
    li, copy = idx // m, idx % m
    a, b = a0[li], b0[li]
    t = t0[li] * m + copy
    if order == "reversed":
        t = tracks_total - 1 - t
    y = side + 1 + t
    # a < b throughout, so node a ranks its terminal by (b - 1, copy)
    # and node b by (a, copy)
    xa = a * pitch + (b - 1) * m + copy
    xb = b * pitch + a * m + copy
    vl, hl = layers.vertical, layers.horizontal
    # one row of three (x1, y1, x2, y2, layer) segments per wire
    flat = np.stack(np.broadcast_arrays(
        xa, side, xa, y, vl,
        xa, y, xb, y, hl,
        xb, side, xb, y, vl,
    ), axis=1).reshape(3 * len(idx), 5)
    nets = list(zip(a.tolist(), b.tolist(), copy.tolist()))
    table = WireTable.from_segment_arrays(
        nets, np.arange(len(idx) + 1, dtype=np.int64) * 3,
        flat[:, 0], flat[:, 1], flat[:, 2], flat[:, 3], flat[:, 4],
    )
    nodes = {v: Rect(v * pitch, 0, side, side) for v in range(n)}
    return CollinearLayout(
        n=n,
        multiplicity=m,
        node_side=side,
        order=order,
        layout=Layout(
            model=model or thompson_model(), name=f"collinear-K{n}x{m}",
            nodes=nodes, table=table,
        ),
        track_of=dict(zip(nets, t.tolist())),
        tracks_total=tracks_total,
    )
