"""Columnar wire storage: the one representation of a layout's wires.

A :class:`WireTable` holds every wire of a layout as int64 numpy columns
(one row per segment, CSR-style ``indptr`` per wire).  Every builder
emits one: the regular families straight from numpy, and the builders
with irregular wire shapes (CCC, stage-column, generic collinear)
through :class:`WireTableBuilder`, whose :func:`merge_legs` applies the
run-merge rule to point paths.  Construction, validation, measurement
and rendering all read the columns.

Segments are stored normalized (``(x1, y1) <= (x2, y2)``
lexicographically, axis-aligned, nonzero length, layer >= 1), which
:meth:`WireTable.from_segment_arrays` enforces.  The object-per-wire
originals in ``tests/oracles`` must yield equal tables; the
differential suite in ``tests/test_layout_vectorized.py`` pins that.

Path order (which endpoint is the wire's start) is not stored: it is
reconstructed from segment contiguity.  :meth:`WireTable.paths` does
that vectorized: a short loop over segment *positions* (bounded by the
longest wire, ~7 segments here) with each step a whole-table numpy
operation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import LayerPair

__all__ = ["WireTable", "WireTableBuilder", "merge_legs"]

Point = Tuple[int, int]


def merge_legs(
    net: Tuple, legs: Sequence[Tuple[Sequence[Point], LayerPair]]
) -> List[Tuple[int, int, int, int, int]]:
    """The run-merge rule: one wire's segments from its point legs.

    ``legs`` are consecutive point paths, each with the
    :class:`~repro.layout.geometry.LayerPair` it is wired on (vertical
    moves on ``pair.vertical``, horizontal ones on ``pair.horizontal``).
    Returns directed runs ``(ax, ay, bx, by, layer)``: consecutive
    duplicate points dropped, and a straight run continuing across
    points or legs *on the same layer* merged into one segment, so the
    validator sees whole runs and a run split into pieces cannot graze
    another net's via unnoticed.  Raises ``ValueError`` for a diagonal
    move or a path with no move.
    """
    runs: List[Tuple[int, int, int, int, int]] = []
    last: Optional[Point] = None
    for leg_points, pair in legs:
        vl, hl = pair.vertical, pair.horizontal
        for p in leg_points:
            if last is None or p == last:
                last = p if last is None else last
                continue
            a, b = last, p
            if a[0] != b[0] and a[1] != b[1]:
                raise ValueError(f"non-rectilinear leg {a} -> {b}")
            layer = vl if a[0] == b[0] else hl
            if runs:
                pax, pay, pbx, pby, pl = runs[-1]
                same_line = pl == layer and (
                    (pax == pbx == a[0] == b[0]) or (pay == pby == a[1] == b[1])
                )
                if same_line:
                    d_prev = (pbx - pax, pby - pay)
                    d_cur = (b[0] - a[0], b[1] - a[1])
                    if d_prev[0] * d_cur[0] > 0 or d_prev[1] * d_cur[1] > 0:
                        runs[-1] = (pax, pay, b[0], b[1], pl)
                        last = p
                        continue
            runs.append((a[0], a[1], b[0], b[1], layer))
            last = p
    if not runs:
        raise ValueError(f"wire {net}: empty path")
    return runs


@dataclass
class _Paths:
    """Reconstructed path points for every wire of a table.

    Wire ``w``'s points live at ``px[pt_indptr[w] : pt_indptr[w + 1]]``
    (always ``segments + 1`` points).  ``bad[w]`` marks discontiguous
    wires (their tail points are unreliable); ``bad_at[w]`` is the
    segment index the walk failed at (0 for the first pair).
    """

    px: np.ndarray
    py: np.ndarray
    pt_indptr: np.ndarray
    bad: np.ndarray
    bad_at: np.ndarray


@dataclass
class WireTable:
    """All wires of a layout as int64 segment columns.

    ``nets[w]`` is wire ``w``'s net tuple; its segments occupy rows
    ``indptr[w] : indptr[w + 1]`` of the coordinate/layer columns, in
    path order, each normalized to ``(x1, y1) <= (x2, y2)``.  ``nets``
    is a sequence: a list of tuples, or column nets that make a tuple
    only when an item is read and that gather with ``take`` and join
    with ``concat`` (the grid source's
    :class:`~repro.layout.grid_table.GridNets`).  The table operations
    keep column nets columnar; ``concat`` of tables whose nets differ in
    kind falls back to a list.  Two tables are ``==`` when their nets
    are equal item by item, whatever holds them, and their six columns
    equal in dtype and values.
    """

    nets: Sequence[Tuple]
    indptr: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    layer: np.ndarray
    _paths: Optional[_Paths] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "WireTable":
        z = np.zeros(0, dtype=np.int64)
        return cls(nets=[], indptr=np.zeros(1, dtype=np.int64),
                   x1=z, y1=z.copy(), x2=z.copy(), y2=z.copy(), layer=z.copy())

    @classmethod
    def from_segment_arrays(
        cls,
        nets: Sequence[Tuple],
        indptr: np.ndarray,
        x1: np.ndarray,
        y1: np.ndarray,
        x2: np.ndarray,
        y2: np.ndarray,
        layer: np.ndarray,
    ) -> "WireTable":
        """Assemble from raw columns, normalizing endpoint order and
        checking that every segment is axis-aligned, of nonzero length
        and on a layer >= 1."""
        arrs = [np.ascontiguousarray(a, dtype=np.int64)
                for a in (x1, y1, x2, y2, layer)]
        x1, y1, x2, y2, layer = arrs
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if len(nets) != len(indptr) - 1:
            raise ValueError("indptr does not match nets")
        if indptr[-1] != len(x1):
            raise ValueError("indptr does not cover the segment columns")
        if np.any((x1 != x2) & (y1 != y2)):
            raise ValueError("segment must be axis-aligned")
        if np.any((x1 == x2) & (y1 == y2)):
            raise ValueError("zero-length segment")
        if layer.size and int(layer.min()) < 1:
            raise ValueError("layer must be >= 1")
        swap = (x1 > x2) | ((x1 == x2) & (y1 > y2))
        if np.any(swap):
            x1, x2 = np.where(swap, x2, x1), np.where(swap, x1, x2)
            y1, y2 = np.where(swap, y2, y1), np.where(swap, y1, y2)
        return cls(nets=nets if hasattr(nets, "take") else list(nets),
                   indptr=indptr, x1=x1, y1=y1, x2=x2, y2=y2, layer=layer)

    @classmethod
    def concat(cls, tables: Sequence["WireTable"]) -> "WireTable":
        """Concatenate tables, preserving wire order."""
        tables = [t for t in tables if t.num_wires]
        if not tables:
            return cls.empty()
        first = tables[0].nets
        if hasattr(first, "concat") and all(
            type(t.nets) is type(first) for t in tables
        ):
            nets = first.concat([t.nets for t in tables])
        else:
            nets = [net for t in tables for net in t.nets]
        counts = np.concatenate([np.diff(t.indptr) for t in tables])
        indptr = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            nets=nets,
            indptr=indptr,
            x1=np.concatenate([t.x1 for t in tables]),
            y1=np.concatenate([t.y1 for t in tables]),
            x2=np.concatenate([t.x2 for t in tables]),
            y2=np.concatenate([t.y2 for t in tables]),
            layer=np.concatenate([t.layer for t in tables]),
        )

    def permuted(self, order: np.ndarray) -> "WireTable":
        """Reorder wires by ``order`` (new position ``i`` takes old wire
        ``order[i]``), gathering each wire's segment block."""
        order = np.asarray(order, dtype=np.int64)
        counts = np.diff(self.indptr)[order]
        indptr = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # source row index for every destination row
        starts = self.indptr[order]
        dst_starts = indptr[:-1]
        idx = np.arange(int(indptr[-1]), dtype=np.int64)
        idx += np.repeat(starts - dst_starts, counts)
        take = getattr(self.nets, "take", None)
        return WireTable(
            nets=(take(order) if take is not None
                  else [self.nets[int(o)] for o in order]),
            indptr=indptr,
            x1=self.x1[idx], y1=self.y1[idx],
            x2=self.x2[idx], y2=self.y2[idx],
            layer=self.layer[idx],
        )

    def slice_wires(self, lo: int, hi: int) -> "WireTable":
        """Self-contained table over wires ``lo:hi``.

        The coordinate/layer columns are numpy *views* into this table's
        storage (zero-copy); only the rebased ``indptr`` is new.  The
        chunked builders and validators stream blocks through this.
        """
        lo = max(0, min(int(lo), self.num_wires))
        hi = max(lo, min(int(hi), self.num_wires))
        s0, s1 = int(self.indptr[lo]), int(self.indptr[hi])
        return WireTable(
            nets=self.nets[lo:hi],
            indptr=self.indptr[lo:hi + 1] - self.indptr[lo],
            x1=self.x1[s0:s1], y1=self.y1[s0:s1],
            x2=self.x2[s0:s1], y2=self.y2[s0:s1],
            layer=self.layer[s0:s1],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WireTable):
            return NotImplemented
        for col in ("indptr", "x1", "y1", "x2", "y2", "layer"):
            a, b = getattr(self, col), getattr(other, col)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                return False
        a, b = self.nets, other.nets
        if type(a) is type(b):
            return a == b
        return len(a) == len(b) and all(map(operator.eq, a, b))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def num_wires(self) -> int:
        return len(self.nets)

    @property
    def num_segments(self) -> int:
        return int(self.indptr[-1])

    @property
    def is_horizontal(self) -> np.ndarray:
        """Per-segment horizontal mask (``y1 == y2``)."""
        return self.y1 == self.y2

    @property
    def wire_of(self) -> np.ndarray:
        """Per-segment wire index."""
        return np.repeat(np.arange(self.num_wires, dtype=np.int64),
                         np.diff(self.indptr))

    def seg_lengths(self) -> np.ndarray:
        return (self.x2 - self.x1) + (self.y2 - self.y1)

    def wire_lengths(self) -> np.ndarray:
        """Per-wire rectilinear length."""
        if self.num_wires == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(self.seg_lengths(), self.indptr[:-1])

    def total_wire_length(self) -> int:
        return int(self.seg_lengths().sum())

    def max_wire_length(self) -> int:
        lens = self.wire_lengths()
        return int(lens.max()) if lens.size else 0

    def layers_used(self) -> List[int]:
        return sorted(int(v) for v in np.unique(self.layer))

    def bounding_box(self) -> Optional[Tuple[int, int, int, int]]:
        """Extent over segments, or ``None`` for an empty table."""
        if self.num_segments == 0:
            return None
        return (int(self.x1.min()), int(self.y1.min()),
                int(self.x2.max()), int(self.y2.max()))

    # ------------------------------------------------------------------
    # path reconstruction
    # ------------------------------------------------------------------
    def paths(self) -> _Paths:
        """Reconstruct every wire's ordered point path (cached).

        A one-segment wire runs from its first endpoint.  A longer one
        starts at the endpoint of its first segment that the second does
        not share (the second endpoint if it shares both), and each later
        segment must continue from the previous point.  ``bad`` wires
        are those whose walk fails, with ``bad_at`` the failing segment
        index.
        """
        if self._paths is not None:
            return self._paths
        nw, ns = self.num_wires, self.num_segments
        counts = np.diff(self.indptr)
        pt_indptr = self.indptr + np.arange(nw + 1, dtype=np.int64)
        px = np.zeros(ns + nw, dtype=np.int64)
        py = np.zeros(ns + nw, dtype=np.int64)
        bad = np.zeros(nw, dtype=bool)
        bad_at = np.zeros(nw, dtype=np.int64)
        if nw == 0:
            self._paths = _Paths(px, py, pt_indptr, bad, bad_at)
            return self._paths

        first = self.indptr[:-1]
        single = counts == 1
        multi = ~single
        # single-segment wires: [ (x1,y1), (x2,y2) ] (normalized order)
        s_idx = first[single]
        s_pt = pt_indptr[:-1][single]
        px[s_pt] = self.x1[s_idx]
        py[s_pt] = self.y1[s_idx]
        px[s_pt + 1] = self.x2[s_idx]
        py[s_pt + 1] = self.y2[s_idx]

        # multi-segment wires: resolve the start from the first joint
        m_w = np.flatnonzero(multi)
        if m_w.size:
            i0 = first[m_w]
            e1x, e1y = self.x1[i0], self.y1[i0]
            e2x, e2y = self.x2[i0], self.y2[i0]
            f1x, f1y = self.x1[i0 + 1], self.y1[i0 + 1]
            f2x, f2y = self.x2[i0 + 1], self.y2[i0 + 1]
            e1_shared = ((e1x == f1x) & (e1y == f1y)) | ((e1x == f2x) & (e1y == f2y))
            e2_shared = ((e2x == f1x) & (e2y == f1y)) | ((e2x == f2x) & (e2y == f2y))
            none = ~(e1_shared | e2_shared)
            bad[m_w[none]] = True
            # legacy picks the first of [E1, E2] found in the next segment
            shx = np.where(e1_shared, e1x, e2x)
            shy = np.where(e1_shared, e1y, e2y)
            stx = np.where(e1_shared, e2x, e1x)
            sty = np.where(e1_shared, e2y, e1y)
            p0 = pt_indptr[:-1][m_w]
            px[p0], py[p0] = stx, sty
            px[p0 + 1], py[p0 + 1] = shx, shy
            curx, cury = shx.copy(), shy.copy()
            mcount = int(counts.max())
            active_w = m_w
            for j in range(1, mcount):
                keep = counts[active_w] > j
                active_w = active_w[keep]
                if not active_w.size:
                    break
                curx, cury = curx[keep], cury[keep]
                ij = first[active_w] + j
                ax, ay = self.x1[ij], self.y1[ij]
                bx, by = self.x2[ij], self.y2[ij]
                at_a = (curx == ax) & (cury == ay)
                at_b = (curx == bx) & (cury == by)
                miss = ~(at_a | at_b) & ~bad[active_w]
                bad[active_w[miss]] = True
                bad_at[active_w[miss]] = j
                nxtx = np.where(at_a, bx, ax)
                nxty = np.where(at_a, by, ay)
                pj = pt_indptr[:-1][active_w] + j + 1
                px[pj], py[pj] = nxtx, nxty
                curx, cury = nxtx, nxty
        self._paths = _Paths(px, py, pt_indptr, bad, bad_at)
        return self._paths

    def vias_per_wire(self) -> np.ndarray:
        """Number of layer-changing bends per wire (contiguous wires)."""
        nw = self.num_wires
        out = np.zeros(nw, dtype=np.int64)
        if self.num_segments <= 1:
            return out
        w = self.wire_of
        inner = np.flatnonzero(w[:-1] == w[1:])
        change = self.layer[inner] != self.layer[inner + 1]
        np.add.at(out, w[inner[change]], 1)
        return out

    def num_vias(self) -> int:
        return int(self.vias_per_wire().sum())


class WireTableBuilder:
    """Incremental table assembly for builders with irregular wire shapes.

    ``add_legs``/``add_path`` append one wire, its segments merged by
    :func:`merge_legs`, without creating any per-segment object;
    ``build()`` produces the normalized table.
    """

    def __init__(self) -> None:
        self._nets: List[Tuple] = []
        self._counts: List[int] = []
        self._rows: List[Tuple[int, int, int, int, int]] = []

    def add_legs(
        self, net: Tuple, legs: Sequence[Tuple[Sequence[Point], LayerPair]]
    ) -> None:
        runs = merge_legs(net, legs)
        self._nets.append(net)
        self._counts.append(len(runs))
        self._rows.extend(runs)

    def add_path(
        self, net: Tuple, points: Sequence[Point], layers: LayerPair
    ) -> None:
        self.add_legs(net, [(points, layers)])

    def build(self) -> WireTable:
        cols = np.array(self._rows, dtype=np.int64).reshape(-1, 5)
        indptr = np.zeros(len(self._nets) + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._counts, dtype=np.int64), out=indptr[1:])
        return WireTable.from_segment_arrays(
            self._nets, indptr,
            cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], cols[:, 4],
        )
