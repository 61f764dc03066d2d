"""Chunked (out-of-core) WireTable construction, validation and stats.

Each layout family has one builder, its chunk source here: it streams
the layout as a sequence of :class:`~repro.layout.wiretable.WireTable`
*chunks* sized to a ``memory_budget_bytes``.  With no budget a source
yields the whole layout as one chunk, and the in-memory builders
(:func:`~repro.layout.grid_scheme.build_grid_layout`,
:func:`~repro.layout.collinear.collinear_layout`,
:func:`~repro.layout.grid2d.build_grid2d_layout`) return that chunk as
their table, so each family's wire geometry exists once.  A
``B_18``-class grid, whose one table is multi-GB of segment arrays, is
built under a budget instead.  Two exactness guarantees are pinned by
``tests/test_wiretable_chunked.py`` against the legacy builders in
``tests/oracles``:

* **build identity** — at every budget, concatenating the chunks
  reproduces the legacy table byte for byte (same wires, same order,
  same columns);
* **verdict identity** — :func:`validate_table_chunked` and
  :func:`summarize_chunks` return byte-identical
  :class:`~repro.layout.validate.ValidationReport` contents (``ok``,
  ``num_errors``, ``errors``, ``checks_run``) and ``Layout.summary()``
  dicts without ever holding the whole table.

Each chunk source is a generator closure over the build's O(network)
inputs, so :meth:`ChunkedBuild.chunks` restarts the stream on every
call; the sources exploit each layout's order structure:

* collinear (:func:`chunked_collinear_table`) — the table is strictly
  per-wire, so any wire range ``[lo, hi)`` regenerates independently
  from :func:`~repro.layout.collinear.track_assignment_arrays`;
* grid scheme (:func:`chunked_grid_table`) — the legacy emission order
  factors into three phases (intra wires block-major, then level >= 3
  inter wires by grid column, then level-2 inter wires by grid row) and
  every ranking is local to a block / grid column / grid row, so
  :func:`~repro.layout.grid_table._grid_cats` rebuilds any closed block
  subset exactly.  Chunk granularity is therefore whole blocks (intra)
  and whole grid columns/rows (inter) — the budget is honoured down to
  that floor.  With no budget one call covers every block and phase;
* 2-D grids (:func:`chunked_grid2d_table`) — emission order is channel
  by channel; a first pass computes demands and a second pass streams
  the dogleg rows.  Under a budget the demand pass keeps no channel
  graph and the emission pass regenerates them; with no budget the
  emission pass reuses the demand pass's graphs.

:class:`ChunkedValidator` is the one layout validator:
:func:`~repro.layout.validate.validate_table` is it fed the whole table
as one chunk.  The grouped checks (track overlap, via conflicts,
via-vs-segment, terminals) read two *row families*: the segments
(``layer, horizontal, track, lo, hi, global wire``) and the via columns
(``x, y, z_lo, z_hi, global wire, key``, the key packing the column's
section — wire start, wire end or bend — with its global position).
Each check derives its rows from them: track overlap from the
segments; via conflicts and terminals from the via columns;
via-vs-segment by expanding the via columns into one point query per
spanned layer that holds segments of one orientation and matching the
queries against those segments.  A lone chunk is held in memory and its families are
derived at ``finalize``, each check's rows one check at a time, with
no spill.  From the second chunk on, each family is partitioned into
disk-spilled hash buckets by one coordinate: the segments by track,
the via columns once by ``y`` and once by ``x``.  Every family hashes
with the same function, so each comparison group lands wholly in one
bucket — a track's segments, a via point's columns, and an H (V)
segment's track together with the ``y``- (``x``-) keyed columns on it.
The per-bucket sweeps' keyed messages merge back into the one-chunk
emission order before the global ``MAX_ERRORS_KEPT`` cap is applied.

The spill is columnar.  Each family appends its rows, int64 and
row-major, to one raw file for the whole stream, sorted by bucket
within each chunk, so a bucket is a list of ``(path, byte_offset,
rows)`` extents read back into one buffer.  A row names its wire
by global id rather than carrying the net: each chunk's nets are
pickled once into a net file indexed by global wire offset (a grid
chunk's :class:`~repro.layout.grid_table.GridNets` as two narrow int
columns, other nets as tuples), read only to format kept messages, to
tell same-net from different-net wires that share a terminal point,
and to rebuild the realizes-graph multiset when the array fast path
cannot decide.  A spilling pass therefore writes four files (the
segments, the two via-column files and the net file) whatever the
chunk and bucket counts; a one-chunk pass writes none.

The realizes-graph check costs O(chunk) per feed.  For a purely staged
graph the validator packs the canonical edge rows once into sorted
int64 codes; each chunk's nets are packed in the same frame, found by
one ``searchsorted`` and counted into a fixed per-edge vector.  Node
placement comes from the terminal check, which resolves every net
endpoint to a node row anyway: equal edge counts with no unplaced
endpoint place every graph node, because a staged graph has no
isolated node.  Any other outcome (a net that is no graph edge, an
unpacked row, unequal counts, an unplaced endpoint) leaves the verdict
to the exact multiset comparison.  Both checks read one int array of
the chunk's net endpoints.  A grid chunk's nets are that array already:
the grid source emits them as
:class:`~repro.layout.grid_table.GridNets`, an int endpoint array plus
a kind-code column that makes a net tuple only when one is read, so a
valid grid pass makes no net tuple at all.  Other nets are tuples,
parsed into the array once per chunk.  A grid build's array-backed
nodes (:class:`~repro.layout.grid_table.GridNodes`) find every
endpoint in it with one vectorized lookup; only dict nodes, and nets
whose nodes are not int pairs, are looked up endpoint by endpoint.
"""

from __future__ import annotations

import bisect
import os
import pickle
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..topology.graph import Graph, _canon_rows
from ..transform.swap_butterfly import SwapButterfly
from .collinear import (
    TrackOrder, _check_track_order, optimal_track_count,
    track_assignment_arrays,
)
from .collinear_generic import max_congestion
from .geometry import LayerPair, Rect, THOMPSON_LAYERS
from .grid2d import (
    _doglegs_to_table, _grid2d_plan, _grid2d_wire_stream, _side_subgraphs,
)
from .grid_scheme import GridDims, grid_dims
from .grid_table import GridNets, _cats_table, _grid_cats, build_grid_nodes
from .model import LayoutModel, _node_box, multilayer_model, thompson_model
from .validate import (
    MAX_ERRORS_KEPT,
    ValidationReport,
    _BandIndex,
    _NodeIndex,
    _bulk,
    _canon_edge,
    _lexsort,
    _net_end_rows,
    _realizes_fallback,
    _track_overlap_sweep,
    _via_col_sweep,
    _via_seg_orientation,
    _via_seg_queries,
    _vt_columns,
    _vt_contiguity_terminals,
    _vt_layer_discipline,
    _vt_nodes_disjoint,
)
from .wiretable import WireTable

__all__ = [
    "ChunkStats",
    "ChunkedBuild",
    "ChunkedValidator",
    "chunked_collinear_table",
    "chunked_grid2d_table",
    "chunked_grid_table",
    "grid_chunk_estimate",
    "summarize_chunks",
    "validate_table_chunked",
    "wires_per_chunk",
]

# Conservative working-set estimate per wire in a chunk under assembly:
# ~3 segments x 5 int64 columns, the 6-int lexsort key, the net (a
# 4-int row for grid chunks, a tuple otherwise), and sort/permute
# temporaries.  Deliberately generous so a declared
# budget upper-bounds the real transient footprint.
_WIRE_BYTES = 1024


def wires_per_chunk(memory_budget_bytes: Optional[int]) -> int:
    """Target chunk size (in wires) for a working-set byte budget.

    ``None`` means "no budget" and yields no bound (``sys.maxsize``), so
    every source streams its whole layout as one chunk.  Grid chunk
    sources honour a budget's result down to their natural granularity
    floor (one block / grid column / grid row per chunk); the collinear
    source honours it exactly, down to single-wire chunks.

    The floor is pinned at **one wire per chunk**: any positive budget —
    even a single byte, far below the ~1 KiB per-wire working-set
    estimate — yields ``1`` rather than an error or a zero-size chunk,
    so arbitrarily tight budgets degrade to smaller chunks, never to a
    refusal.  Non-positive budgets are a ``ValueError`` (use ``None``
    for "unbudgeted", not ``0``).
    """
    if memory_budget_bytes is None:
        return sys.maxsize
    if memory_budget_bytes <= 0:
        raise ValueError(
            f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
        )
    return max(1, int(memory_budget_bytes) // _WIRE_BYTES)


@dataclass
class ChunkedBuild:
    """A layout whose wires exist only as a restartable chunk stream.

    ``chunks()`` returns a fresh iterator of non-empty :class:`WireTable`
    chunks in emission order each time it is called: each source hands
    over a ``_chunks`` closure that regenerates the stream from its
    O(network) inputs (builds are deterministic, so the stream is
    restartable).  With no budget the stream is one chunk.  ``nodes``,
    ``model`` and ``dims`` (the grid sources' dimension record, ``None``
    for collinear builds) are materialised eagerly — they are O(network
    size), not O(wires) — which is exactly what the chunked validator
    and the in-memory builders need.  A grid build's ``nodes`` is a
    :class:`~repro.layout.grid_table.GridNodes`: two int64 columns (16
    bytes a node) and no ``Rect`` until one is read; the collinear and
    2-D grid sources hold a dict of one ``Rect`` per node.
    """

    name: str
    model: LayoutModel
    nodes: Mapping[Hashable, Rect]
    chunk_wires: int
    memory_budget_bytes: Optional[int]
    num_wires: Optional[int] = None
    dims: object = None
    _chunks: Callable[[], Iterator[WireTable]] = field(
        default=None, repr=False
    )
    _summary_cache: Optional[Dict[str, int]] = field(default=None, repr=False)

    def chunks(self) -> Iterator[WireTable]:
        return self._chunks()

    def table(self) -> WireTable:
        """The whole table: a lone chunk as it is, several concatenated."""
        parts = list(self.chunks())
        return parts[0] if len(parts) == 1 else WireTable.concat(parts)

    def summary(self) -> Dict[str, int]:
        """``Layout.summary()`` dict; reuses the stats pass of an earlier
        ``validate_and_summarize`` call instead of re-enumerating chunks."""
        if self._summary_cache is not None:
            return dict(self._summary_cache)
        return summarize_chunks(self.chunks(), self.nodes, self.model)

    def validate_and_summarize(
        self,
        graph: Optional[Graph] = None,
        check_nodes: bool = True,
        check_vias: bool = True,
        num_buckets: int = 8,
        spill_dir: Optional[str] = None,
    ) -> Tuple[ValidationReport, Dict[str, int]]:
        """One pass over the chunk stream feeding both the validator and
        the stats accumulator."""
        v = ChunkedValidator(
            self.nodes, self.model, graph=graph, check_nodes=check_nodes,
            check_vias=check_vias,
            num_buckets=num_buckets, spill_dir=spill_dir,
        )
        st = ChunkStats()
        try:
            for t in self.chunks():
                v.feed(t)
                st.feed(t)
            rep = v.finalize()
        finally:
            v.close()
        summ = st.summary(self.nodes, self.model)
        self._summary_cache = dict(summ)
        return rep, summ


# ---------------------------------------------------------------------------
# chunk sources
# ---------------------------------------------------------------------------


def chunked_collinear_table(
    n: int,
    multiplicity: int = 1,
    node_side: Optional[int] = None,
    order: TrackOrder = "forward",
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """The collinear layout of ``K_n`` (x ``multiplicity``) in wire-range
    chunks — the one builder behind
    :func:`~repro.layout.collinear.collinear_layout`.

    Terminal discipline: node ``a`` attaches each wire at a distinct x
    offset on its top edge, ordered by (neighbor label, copy); this
    ordering guarantees that chained same-track links only meet
    end-to-end, never overlapping.  Each wire is three segments: up from
    node ``a``, along its track at ``y = node_side + 1 + track``, and
    down to node ``b``.
    """
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got {n}")
    _check_track_order(order)
    degree = multiplicity * (n - 1)
    side = node_side if node_side is not None else degree
    if side < degree:
        raise ValueError(
            f"node side {side} cannot host {degree} top-edge terminals"
        )
    tracks_total = optimal_track_count(n) * multiplicity
    pitch = side + 1
    top = side
    m = multiplicity
    nw = (n * (n - 1) // 2) * m
    wpc = wires_per_chunk(memory_budget_bytes)
    vl = np.int64(layers.vertical)
    hl = np.int64(layers.horizontal)

    def chunks() -> Iterator[WireTable]:
        a0, b0, t0 = track_assignment_arrays(n, "forward")
        for lo in range(0, nw, wpc):
            idx = np.arange(lo, min(lo + wpc, nw), dtype=np.int64)
            li = idx // m
            copy = idx % m
            a, b = a0[li], b0[li]
            t = t0[li] * m + copy
            if order == "reversed":
                t = tracks_total - 1 - t
            y = top + 1 + t
            # a < b throughout, so node a ranks its terminal by (b - 1,
            # copy) and node b by (a, copy)
            xa = a * pitch + (b - 1) * m + copy
            xb = b * pitch + a * m + copy
            cn = len(idx)
            rows = np.empty((cn, 3, 5), dtype=np.int64)
            topv = np.full(cn, top, dtype=np.int64)
            rows[:, 0] = np.stack(
                [xa, topv, xa, y, np.full(cn, vl)], axis=1
            )
            rows[:, 1] = np.stack(
                [xa, y, xb, y, np.full(cn, hl)], axis=1
            )
            rows[:, 2] = np.stack(
                [xb, topv, xb, y, np.full(cn, vl)], axis=1
            )
            flat = rows.reshape(cn * 3, 5)
            nets = list(zip(a.tolist(), b.tolist(), copy.tolist()))
            yield WireTable.from_segment_arrays(
                nets,
                np.arange(cn + 1, dtype=np.int64) * 3,
                flat[:, 0], flat[:, 1], flat[:, 2], flat[:, 3], flat[:, 4],
            )

    nodes = {a: Rect(a * pitch, 0, side, side) for a in range(n)}
    return ChunkedBuild(
        name=f"collinear-K{n}x{multiplicity}",
        model=model or thompson_model(),
        nodes=nodes,
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        num_wires=nw,
        _chunks=chunks,
    )


def _grid_grain(
    dims: GridDims, recirculating: bool, memory_budget_bytes: Optional[int],
) -> Tuple[int, int, int, int, int]:
    """Chunk granularity of the grid source for a byte budget:
    ``(wires_per_chunk, wires_per_block, blocks_per_intra_chunk,
    grid_cols_per_chunk, grid_rows_per_chunk)``."""
    R = dims.block.nrows
    # per-block wire estimate: ~2 wires per (row, boundary) + feedback
    per_block = 2 * R * dims.n + (R if recirculating else 0)
    wpc = wires_per_chunk(memory_budget_bytes)
    bpc = max(1, wpc // per_block)
    cpc = max(1, bpc // dims.grid_rows)  # grid columns per inter-col chunk
    rpc = max(1, bpc // dims.grid_cols)  # grid rows per inter-row chunk
    return wpc, per_block, bpc, cpc, rpc


def grid_chunk_estimate(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    recirculating: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, int]:
    """Planning numbers for a chunked grid build without building wires:
    chunk count (1 with no budget; under a budget an upper bound, since
    a phase group with no wires yields no chunk), chunk-size target in
    wires, total wires, and ``est_chunk_bytes``.

    ``est_chunk_bytes`` sizes one chunk under assembly: the chunk-size
    target or the one-block granularity floor, whichever dominates (the
    whole layout with no budget), times the 1 KiB-per-wire working-set
    guess.  It is not the pass's peak: the nodes, the validator's
    O(network) state and the interpreter come on top."""
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    wpc, per_block, bpc, cpc, rpc = _grid_grain(
        dims, recirculating, memory_budget_bytes
    )
    gc, gr = dims.grid_cols, dims.grid_rows
    NB = gc * gr
    total = per_block * NB
    if memory_budget_bytes is None:
        nchunks = 1
        wpc = chunk = total
    else:
        nchunks = -(-NB // bpc) + -(-gc // cpc) + -(-gr // rpc)
        chunk = max(wpc, per_block)
    return {
        "chunks": int(nchunks),
        "wires_per_chunk": int(wpc),
        "est_total_wires": int(total),
        "est_chunk_bytes": int(chunk * _WIRE_BYTES),
    }


def chunked_grid_table(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    track_order: TrackOrder = "forward",
    recirculating: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """The grid-scheme layout of the ``sum(ks)``-dimensional butterfly
    as a chunk stream — the one builder behind
    :func:`~repro.layout.grid_scheme.build_grid_layout`.

    With no budget the stream is one chunk, made by one
    :func:`~repro.layout.grid_table._grid_cats` call over every block
    and all three phases.  Under a budget it goes phase by phase: intra
    wires in block-range chunks, level >= 3 inter wires in
    grid-column-range chunks, level-2 inter wires in grid-row-range
    chunks — the same emission order.  The budget is honoured down to
    the phase granularity floor (one block / one grid column / one grid
    row per chunk): a closed group is the smallest unit whose rankings
    are self-contained.
    """
    _check_track_order(track_order)
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    sb = SwapButterfly.from_ks(dims.ks)
    model = thompson_model() if L == 2 else multilayer_model(L)
    gc, gr = dims.grid_cols, dims.grid_rows
    k2 = dims.ks[1]
    NB = gr * gc
    wpc, _per_block, bpc, cpc, rpc = _grid_grain(
        dims, recirculating, memory_budget_bytes
    )

    def sub(bids: np.ndarray, *phases: str) -> Iterator[WireTable]:
        t = _cats_table(_grid_cats(
            sb, dims, track_order, recirculating, bids, frozenset(phases)
        ))
        if t.num_wires:
            yield t

    def chunks() -> Iterator[WireTable]:
        all_b = np.arange(NB, dtype=np.int64)
        if memory_budget_bytes is None:
            yield from sub(all_b, "intra", "inter-col", "inter-row")
            return
        bcol, brow = all_b & (gc - 1), all_b >> k2
        for lo in range(0, NB, bpc):
            yield from sub(all_b[lo:lo + bpc], "intra")
        for c0 in range(0, gc, cpc):
            yield from sub(all_b[(bcol >= c0) & (bcol < c0 + cpc)], "inter-col")
        for g0 in range(0, gr, rpc):
            yield from sub(all_b[(brow >= g0) & (brow < g0 + rpc)], "inter-row")

    return ChunkedBuild(
        name=f"grid-B{dims.n}-L{L}",
        model=model,
        nodes=build_grid_nodes(sb, dims),
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        dims=dims,
        _chunks=chunks,
    )


def chunked_grid2d_table(
    rows: int,
    cols: int,
    row_graph: Callable[[int], Graph],
    col_graph: Callable[[int], Graph],
    W: Optional[int] = None,
    L: int = 2,
    name: str = "grid2d",
    split_channels: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """The 2-D grid layout of a ``rows x cols`` product network as a
    chunk stream — the one builder behind
    :func:`~repro.layout.grid2d.build_grid2d_layout`.

    The demand pass visits every channel graph once; the emission pass
    streams the dogleg rows channel by channel, buffering them up to the
    chunk size.  Under a budget the demand pass keeps no graph and the
    emission pass regenerates each channel's side subgraphs, so the
    graph callables must be pure (same graph for the same index on every
    call).  With no budget the stream is one chunk that holds every wire
    anyway, so the emission pass reuses the demand pass's subgraphs.
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least a 1x1 grid")
    if L < 2:
        raise ValueError(f"need at least 2 layers, got {L}")
    keep = memory_budget_bytes is None
    row_sides: List[Tuple[Graph, Graph]] = []
    col_sides: List[Tuple[Graph, Graph]] = []
    d_top = d_bot = d_right = d_left = 0
    per_edge = 0
    num_wires = 0
    for r in range(rows):
        g = row_graph(r)
        if set(g.nodes()) - set(range(cols)):
            raise ValueError(f"row graph {r} has nodes outside 0..{cols - 1}")
        s0, s1 = _side_subgraphs(g, split_channels)
        d_top = max(d_top, max_congestion(s0, range(cols)))
        d_bot = max(d_bot, max_congestion(s1, range(cols)))
        per_edge = max(per_edge, s0.max_degree(), s1.max_degree())
        num_wires += s0.num_edges + s1.num_edges
        if keep:
            row_sides.append((s0, s1))
    for c in range(cols):
        g = col_graph(c)
        if set(g.nodes()) - set(range(rows)):
            raise ValueError(f"column graph {c} has nodes outside 0..{rows - 1}")
        s0, s1 = _side_subgraphs(g, split_channels)
        d_right = max(d_right, max_congestion(s0, range(rows)))
        d_left = max(d_left, max_congestion(s1, range(rows)))
        per_edge = max(per_edge, s0.max_degree(), s1.max_degree())
        num_wires += s0.num_edges + s1.num_edges
        if keep:
            col_sides.append((s0, s1))

    plan = _grid2d_plan(
        rows, cols, W, L, split_channels,
        d_top, d_bot, d_right, d_left, per_edge,
    )
    dims = plan.dims
    side = dims.W
    wpc = wires_per_chunk(memory_budget_bytes)

    def chunks() -> Iterator[WireTable]:
        nets_buf: List[Tuple] = []
        paths_buf: List[Tuple[int, ...]] = []
        pairs_buf: List[Tuple[int, int]] = []
        stream = _grid2d_wire_stream(
            rows, cols,
            row_sides.__getitem__ if keep
            else lambda r: _side_subgraphs(row_graph(r), split_channels),
            col_sides.__getitem__ if keep
            else lambda c: _side_subgraphs(col_graph(c), split_channels),
            plan.g_top, plan.g_bot, plan.g_right, plan.g_left,
            side, dims.cell_w, dims.cell_h, plan.x_off, plan.y_off,
        )
        for _u, _v, wnet, p8, pair in stream:
            nets_buf.append(wnet)
            paths_buf.append(p8)
            pairs_buf.append((pair.vertical, pair.horizontal))
            if len(nets_buf) >= wpc:
                yield _doglegs_to_table(nets_buf, paths_buf, pairs_buf)
                nets_buf, paths_buf, pairs_buf = [], [], []
        if nets_buf:
            yield _doglegs_to_table(nets_buf, paths_buf, pairs_buf)

    nodes: Dict[Hashable, Rect] = {}
    for r in range(rows):
        for c in range(cols):
            nodes[(r, c)] = Rect(
                c * dims.cell_w + plan.x_off, r * dims.cell_h + plan.y_off,
                side, side,
            )
    return ChunkedBuild(
        name=f"{name}-{rows}x{cols}-L{L}",
        model=plan.model,
        nodes=nodes,
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        num_wires=num_wires,
        dims=dims,
        _chunks=chunks,
    )


# ---------------------------------------------------------------------------
# streaming stats
# ---------------------------------------------------------------------------


class ChunkStats:
    """Streaming :meth:`Layout.summary` over a chunk stream — running
    sums, maxima and a running bounding box reproduce the whole table's
    metrics exactly (all quantities are integer sums/maxes)."""

    def __init__(self) -> None:
        self.wires = 0
        self.segments = 0
        self.total_wire_length = 0
        self.max_wire_length = 0
        self.vias = 0
        self.box: Optional[Tuple[int, int, int, int]] = None

    def feed(self, t: WireTable) -> None:
        self.wires += int(t.num_wires)
        self.segments += int(t.num_segments)
        self.total_wire_length += int(t.total_wire_length())
        self.max_wire_length = max(
            self.max_wire_length, int(t.max_wire_length())
        )
        self.vias += int(t.num_vias())
        b = t.bounding_box()
        if b is not None:
            if self.box is None:
                self.box = b
            else:
                self.box = (
                    min(self.box[0], b[0]), min(self.box[1], b[1]),
                    max(self.box[2], b[2]), max(self.box[3], b[3]),
                )

    def summary(self, nodes, model: LayoutModel) -> Dict[str, int]:
        xs: List[int] = []
        ys: List[int] = []
        nb = _node_box(nodes)
        if nb is not None:
            xs.extend((nb[0], nb[2]))
            ys.extend((nb[1], nb[3]))
        if self.box is not None:
            xs.extend((self.box[0], self.box[2]))
            ys.extend((self.box[1], self.box[3]))
        if not xs:
            raise ValueError("empty layout")
        width = max(xs) - min(xs)
        height = max(ys) - min(ys)
        return {
            "nodes": len(nodes),
            "wires": self.wires,
            "segments": self.segments,
            "width": width,
            "height": height,
            "area": width * height,
            "volume": width * height * model.num_layers,
            "layers": model.num_layers,
            "max_wire_length": self.max_wire_length,
            "total_wire_length": self.total_wire_length,
            "vias": self.vias,
        }


def summarize_chunks(
    chunks: Iterable[WireTable], nodes, model: LayoutModel
) -> Dict[str, int]:
    """Streaming :meth:`Layout.summary` over a chunk stream — identical
    dict to materialising the table, without holding more than a chunk."""
    st = ChunkStats()
    for t in chunks:
        st.feed(t)
    return st.summary(nodes, model)


# ---------------------------------------------------------------------------
# chunked validation
# ---------------------------------------------------------------------------


def _buckets_of(nb: int, key: np.ndarray) -> np.ndarray:
    """Deterministic hash partition of rows by one key column.  Rows
    with equal keys always land in the same bucket, and every row family
    hashes the coordinate its comparison groups share with this one
    function, so a group stays bucket-local across families too.  Ids
    come in the narrowest unsigned type that holds ``nb - 1`` (``uint8``
    up to 256 buckets), whose stable sort is numpy's radix sort."""
    h = key.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    return (h % np.uint64(nb)).astype(np.min_scalar_type(nb - 1))


class _SpillStore:
    """Disk-spilled, hash-partitioned int64 rows of one row family.

    A spilling validator keeps one store per family, six columns each:
    the segments (``segments.i64``, bucketed by track) and the via
    columns keyed by ``y`` (``vias_y.i64``) and by ``x``
    (``vias_x.i64``).  Bucket ``k`` of every store hashes the same key
    values, so one bucket reload — ``parts[k]`` of the segments, then of
    one via store — holds every comparison group its checks need.

    Every row goes to one append-only raw int64 file ``<name>.i64``,
    ``ncols`` values per row, opened under the directory the first
    ``add`` names.  ``add`` sorts a chunk's rows by bucket (stably, so
    arrival order survives within a bucket) and writes them row-major in
    one call; each touched bucket gains one ``(path, byte_offset, rows)``
    extent in ``parts[k]``.  ``close`` closes the append handle and must
    precede any read of the extents (:func:`_load_parts`), which come
    back in append order: chunk by chunk, since chunks feed in emission
    order.  Rows name their wire by global id; nets live in the
    validator's :class:`_NetFile`.
    """

    def __init__(self, name: str, num_buckets: int, ncols: int) -> None:
        self.name = name
        self.path: Optional[str] = None
        self.nb = num_buckets
        self.ncols = ncols
        self.parts: List[List[Tuple]] = [[] for _ in range(num_buckets)]
        self._fh = None
        self._size = 0

    def add(self, root: str, bucket: np.ndarray, rows: np.ndarray) -> None:
        """Append ``rows``, an ``(n, ncols)`` int64 array, by ``bucket``."""
        nr = len(bucket)
        if not nr:
            return
        order = np.argsort(bucket, kind="stable")
        counts = np.bincount(bucket, minlength=self.nb)
        starts = np.cumsum(counts) - counts
        if self._fh is None:
            self.path = os.path.join(root, f"{self.name}.i64")
            self._fh = open(self.path, "ab" if self._size else "wb")
        self._fh.write(rows[order])
        row = 8 * self.ncols
        for k in np.flatnonzero(counts).tolist():
            self.parts[k].append(
                (self.path, self._size + int(starts[k]) * row, int(counts[k]))
            )
        self._size += nr * row

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _load_parts(
    parts: List[Tuple], ncols: int, sort_col: Optional[int] = None,
) -> List[np.ndarray]:
    """Read spill extents — ``(path, byte_offset, rows)`` each — back in
    append order into one preallocated buffer; one array per column, its
    rows in append order or, given ``sort_col``, stably sorted by that
    column.  A short read (a truncated spill file) raises ``OSError``."""
    buf = np.empty((sum(rows for _p, _off, rows in parts), ncols), np.int64)
    raw = buf.reshape(-1).view(np.uint8)
    pos = 0
    fh = path = None
    try:
        for p, off, rows in parts:
            if p != path:
                if fh is not None:
                    fh.close()
                fh, path = open(p, "rb"), p
            fh.seek(off)
            want = 8 * ncols * rows
            got = fh.readinto(raw[pos:pos + want])
            if got != want:
                raise OSError(
                    f"spill file {p} is torn: at byte offset {off} "
                    f"expected {want} bytes, read {got}"
                )
            pos += want
    finally:
        if fh is not None:
            fh.close()
    if sort_col is None:
        return [buf[:, j].copy() for j in range(ncols)]
    order = np.argsort(buf[:, sort_col], kind="stable")
    return [buf[order, j] for j in range(ncols)]


class _NetFile:
    """Every spilled chunk's ``t.nets``, pickled once into one
    append-only ``nets.pkl`` under the directory the first ``add``
    names; ``index`` holds ``(first_global_wire, path, byte_offset)`` per
    chunk in wire order.  A grid chunk's
    :class:`~repro.layout.grid_table.GridNets` pickle as its endpoint
    array in the narrowest unsigned dtype that holds it (``uint16`` for
    rows below 65,536) plus its ``uint8`` kind codes; a list of nets
    pickles as its tuples.  Spilled rows carry global wire ids instead of
    nets, so nets are read back (through :class:`_NetReader`) only to
    format a kept message, to compare the nets of same-point terminals
    of different wires, and to rebuild the realizes-graph multiset."""

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self.index: List[Tuple[int, str, int]] = []
        self._fh = None

    def add(self, root: str, wire_start: int, nets: Sequence) -> None:
        if not nets:
            return
        if self._fh is None:
            self.path = os.path.join(root, "nets.pkl")
            self._fh = open(self.path, "ab" if self.index else "wb")
        self.index.append((wire_start, self.path, self._fh.tell()))
        pickle.dump(nets, self._fh, protocol=pickle.HIGHEST_PROTOCOL)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _NetReader:
    """Global wire id -> net over a :class:`_NetFile` index, holding one
    chunk's nets in memory at a time (or, via :meth:`of_nets`, over the
    one chunk a validator holds in memory)."""

    def __init__(self, index: List[Tuple[int, str, int]]) -> None:
        self.index = index
        self._starts = [e[0] for e in index]
        self._k = -1
        self._nets: List = []

    @classmethod
    def of_nets(cls, nets: List) -> "_NetReader":
        """A reader over one in-memory chunk's nets (a held table)."""
        r = cls([(0, None, 0)])
        r._k, r._nets = 0, nets
        return r

    def chunk(self, k: int) -> List:
        if k != self._k:
            _start, path, off = self.index[k]
            with open(path, "rb") as f:
                f.seek(off)
                self._nets = pickle.load(f)
            self._k = k
        return self._nets

    def __call__(self, gw: int):
        k = bisect.bisect_right(self._starts, gw) - 1
        return self.chunk(k)[gw - self._starts[k]]

    def take(self, gws: np.ndarray) -> List:
        """Nets of many wires, visiting their chunks in wire order."""
        out: List = [None] * len(gws)
        for i in np.argsort(gws, kind="stable").tolist():
            out[i] = self(int(gws[i]))
        return out


def _net_multiset(nets: _NetReader) -> Counter:
    """Canonical edge multiset of every net ``nets`` reads, in global
    wire order (the insertion order the realizes fallback's messages
    follow)."""
    got: Counter = Counter()
    for k in range(len(nets.index)):
        for net in nets.chunk(k):
            got[_canon_edge(net[0], net[1])] += 1
    return got


class _Tally:
    """Count + first-``MAX_ERRORS_KEPT`` messages of a streaming check
    (chunks arrive in table order, so the prefix is the one-chunk one)."""

    __slots__ = ("count", "msgs")

    def __init__(self) -> None:
        self.count = 0
        self.msgs: List[str] = []

    def add(self, count: int, msgs: Iterable[str]) -> None:
        self.count += count
        for m in msgs:
            if len(self.msgs) >= MAX_ERRORS_KEPT:
                break
            self.msgs.append(m)


class _KeyedTally:
    """Keyed messages from per-bucket sweeps; ``merged`` re-sorts them
    into the one-chunk emission order (keys are globally unique across
    buckets, and within a bucket they arrive pre-sorted)."""

    __slots__ = ("count", "keyed")

    def __init__(self) -> None:
        self.count = 0
        self.keyed: List[Tuple[Tuple, str]] = []

    def add(self, count: int, keyed: Iterable[Tuple[Tuple, str]]) -> None:
        self.count += count
        self.keyed.extend(keyed)

    def merged(self) -> List[str]:
        return [m for _k, m in sorted(self.keyed, key=lambda kv: kv[0])]


def _fast_template(graph: Graph) -> Optional[Dict]:
    """The per-edge counter of the realizes-graph array fast path, or
    ``None`` when the graph has no staged arrays (a graph without edges
    has none) or edge rows that do not pack into int64 codes: the sorted
    distinct ``codes`` of the graph's canonical edge rows (with the
    ``mins``/``ranges`` frame ``feed`` packs each chunk's nets in),
    their ``counts``, and the zeroed ``got`` vector ``feed`` counts nets
    into.  The staged rows are packed once and the codes counted as
    they are, so no edge row is unpacked; the frame, codes and counts
    equal those of packing :meth:`~repro.topology.graph.Graph.to_edge_array`'s
    rows."""
    staged = graph._staged_edge_rows()
    if staged is None:
        return None
    rows, weights, k = staged
    kk = k if k else 1
    packed = Graph._pack_rows(rows)
    del rows
    if packed is None:
        return None
    codes, mins, ranges = packed
    codes, counts = Graph._aggregate_codes(codes, weights)
    return {
        "k": k, "kk": kk, "codes": codes, "mins": mins, "ranges": ranges,
        "counts": counts, "got": np.zeros(len(counts), dtype=np.int64),
    }


def _end_rows(nets: Sequence, k: int) -> Optional[np.ndarray]:
    """:func:`~repro.layout.validate._net_end_rows` of a chunk's nets at
    arity ``k``: column nets hand over their endpoint array (their nodes
    are ``(row, stage)`` pairs, so no other arity fits them), and only
    tuples are parsed."""
    if isinstance(nets, GridNets):
        return nets.ends if k == 2 else None
    return _net_end_rows(nets, k)


def _count_nets(f: Dict, ends: Optional[np.ndarray]) -> bool:
    """Count a chunk's nets — ``ends``, their :func:`_end_rows` at
    the graph's arity — into ``f["got"]``, one per graph edge they name;
    ``False`` (nothing counted) when a net is not a graph edge or the
    nets are not int-node pairs (``ends`` is ``None``), so only the
    exact fallback can decide."""
    if ends is None:
        return False
    packed = Graph._pack_rows(
        _canon_rows(ends, f["kk"]), f["mins"], f["ranges"]
    )
    if packed is None:
        return False
    codes = f["codes"]
    pos = np.searchsorted(codes, packed[0])
    if (pos == len(codes)).any() or not np.array_equal(codes[pos], packed[0]):
        return False
    f["got"] += np.bincount(pos, minlength=len(codes))
    return True


# -- row families -----------------------------------------------------------
#
# A chunk's grouped-check rows come in two families, numbered globally:
# its segments and its via columns.  A spilling validator writes the
# segments once, bucketed by track, and the via columns twice, bucketed
# by y and by x; a held chunk's families are made at finalize.
# :func:`_grouped_checks` derives every check's rows from them.

# A via column's key is ``section << _SECTION_SHIFT | position``, with
# section 0 (a wire's start), 1 (its end) or 2 (a bend), and position
# the global wire id of a start or end or the global ordinal of a bend.
# Keys are unique and sort in the one-chunk column order: every start,
# then every end, then every bend, each in table order.
_SECTION_SHIFT = 61


def _segment_rows(t: WireTable, w_off: int) -> List[np.ndarray]:
    """The segment family: layer, horizontal, track, lo, hi, global
    wire (``w_off`` is the chunk's first global wire id)."""
    h = t.is_horizontal
    return [
        t.layer, h.astype(np.int64), np.where(h, t.y1, t.x1),
        np.where(h, t.x1, t.y1), np.where(h, t.x2, t.y2), t.wire_of + w_off,
    ]


def _via_rows(
    t: WireTable, w_off: int, bend_off: int
) -> Tuple[List[np.ndarray], int]:
    """The via-column family of :func:`~repro.layout.validate._vt_columns`
    — x, y, z_lo, z_hi, global wire, key — and the chunk's bend count;
    ``bend_off`` is the global ordinal of its first bend."""
    cx, cy, zlo, zhi, cw = _vt_columns(t)
    n_gw = int(np.count_nonzero(~t.paths().bad))
    n_bends = len(cx) - 2 * n_gw
    gw = cw + w_off
    key = np.empty(len(cx), dtype=np.int64)
    key[:2 * n_gw] = gw[:2 * n_gw]
    key[n_gw:2 * n_gw] |= 1 << _SECTION_SHIFT
    key[2 * n_gw:] = (2 << _SECTION_SHIFT) + bend_off + np.arange(n_bends)
    return [cx, cy, zlo, zhi, gw, key], n_bends


def _net_at(net_of: "_NetReader", gw: np.ndarray) -> Callable[[int], Hashable]:
    """Row ``r`` -> the net of global wire ``gw[r]``."""
    return lambda r: net_of(int(gw[r]))


def _grouped_checks(families: Iterator, net_of: "_NetReader",
                    check_vias: bool) -> Iterator[Tuple]:
    """Every grouped check over one spill bucket's families, or a held
    chunk's.  ``families`` yields the segment family, then the via
    columns keyed by ``y``, then those keyed by ``x``, each via family
    in key order.  A family is read when its first check starts; after
    the track sweep the segments give way to the two orientations'
    subsets the via-vs-segment sweeps read, and the ``y``-keyed columns
    are dropped before the ``x``-keyed ones are read.  Yields
    ``(check, (count, keyed_messages))``, the keys sorting in the
    one-chunk emission order."""
    layer, horiz, track, lo, hi, sw = next(families)
    yield ("tracks", None), _track_overlap_sweep(
        layer, horiz, track, lo, hi, sw, _net_at(net_of, sw)
    )
    if not check_vias:
        return
    # each orientation's segments: layer, track, lo, hi, global wire
    by_orient = {
        is_h: [c[si] for c in (layer, track, lo, hi, sw)]
        for is_h, si in ((True, np.flatnonzero(horiz)),
                         (False, np.flatnonzero(horiz == 0)))
    }
    del layer, horiz, track, lo, hi, sw
    v = next(families)
    yield ("viacol", None), _via_col_sweep(*v[:5], _net_at(net_of, v[4]))
    yield ("terms", None), _terminal_sweep(v, net_of)
    yield ("viaseg", True), _via_seg_sweep(
        by_orient.pop(True), v, True, net_of
    )
    del v
    yield ("viaseg", False), _via_seg_sweep(
        by_orient.pop(False), next(families), False, net_of
    )


def _layers_of(s_lay: np.ndarray) -> np.ndarray:
    """The sorted distinct layers of ``s_lay``."""
    s = np.sort(s_lay)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


def _via_seg_sweep(segs, vias, is_h: bool, net_of: "_NetReader"):
    """Via-vs-segment conflicts of one orientation: the via columns
    expanded into one point query per spanned layer that holds some of
    ``segs``, the segments of that orientation (layer, track, lo, hi,
    global wire), against those segments.  A hit's key is (column key, layer ordinal, hit ordinal),
    which is the one-chunk query order."""
    s_lay, s_fix, s_lo, s_hi, s_gw = segs
    cx, cy, zlo, zhi, vw, key = vias
    ql, qx, qy, qw, qc = _via_seg_queries(
        cx, cy, zlo, zhi, vw, _layers_of(s_lay)
    )
    count, keyed = _via_seg_orientation(
        s_lay, s_fix, s_lo, s_hi, s_gw, _net_at(net_of, s_gw),
        ql, qx, qy, qw, _net_at(net_of, qw), is_h,
    )
    return count, [
        ((int(key[qc[q]]), int(ql[q] - zlo[qc[q]]), j), m)
        for (q, j), m in keyed
    ]


def _terminal_sweep(vias, net_of: "_NetReader"):
    """Terminal points shared by wires of different nets, over the start
    and end columns (sections 0 and 1).  At one point they are ordered
    by ``2 * wire + section``, the one-chunk order (each wire's start,
    then its end, wire by wire)."""
    cx, cy, _zlo, _zhi, vw, key = vias
    te = np.flatnonzero(key < (2 << _SECTION_SHIFT))
    tx, ty, tw = cx[te], cy[te], vw[te]
    seq = 2 * tw + (key[te] >> _SECTION_SHIFT)
    order = _lexsort((seq, ty, tx))
    X, Y, S_, W = tx[order], ty[order], seq[order], tw[order]
    same = (X[1:] == X[:-1]) & (Y[1:] == Y[:-1])
    # one wire has one net, so only same-point neighbours of different
    # wires need their nets compared (two wires of a net may share one)
    cand = np.flatnonzero(same & (W[1:] != W[:-1])) + 1
    if not cand.size:
        return 0, []
    prev = net_of.take(W[cand - 1])
    cur = net_of.take(W[cand])
    err = [
        (i, a, b) for i, a, b in zip(cand.tolist(), prev, cur) if a != b
    ]
    keyed = []
    for i, a, b in err[:MAX_ERRORS_KEPT]:
        p = (int(X[i]), int(Y[i]))
        keyed.append(((p[0], p[1], int(S_[i])), (
            f"terminal point {p} shared by wires {a} and {b}"
        )))
    return len(err), keyed


class ChunkedValidator:
    """The layout validator over a stream of :class:`WireTable` chunks.

    Feed chunks in emission order, then ``finalize()``.  The report does
    not depend on the chunking — same ``checks_run``, same
    ``num_errors``, same first-20 ``errors`` in the same order — and
    :func:`~repro.layout.validate.validate_table` is this validator fed
    the whole table as one chunk.

    Per-wire checks (layer discipline, contiguity and terminals, wires
    avoiding nodes) run on each chunk as it arrives, against a node
    index and node band indexes built once here.  The realizes-graph
    check counts each chunk's nets into a per-edge vector as it arrives
    (see the module docstring), the terminal check adds up the
    endpoints that name no placed node, and ``finalize`` compares the
    counts.  Grouped checks (track overlap, via conflicts,
    via-vs-segment, terminal collisions) derive their rows from two row
    families, the segments and the via columns, and run one sweep per
    check (:func:`_grouped_checks`).  The first chunk is held in memory:
    if it stays the only one, ``finalize`` makes its families and
    derives each check's rows from them one check at a time, creating
    no directory and no file.  A second ``feed`` spills the held chunk
    and then every chunk into ``num_buckets`` hash partitions, one raw
    append-only int64 file per family, rows naming their wire by global
    id: the segments bucketed by track (``segments.i64``) and the via
    columns twice, bucketed by ``y`` (``vias_y.i64``) and by ``x``
    (``vias_x.i64``), so every comparison group stays bucket-local.
    ``finalize`` reloads one bucket at a time: its segments, then its
    ``y``-keyed via columns (via conflicts, terminals, and via-vs-segment
    against the H segments), then, those dropped, its ``x``-keyed ones
    (via-vs-segment against the V segments).  Each spilled chunk's nets
    are pickled once into a net file (``nets.pkl``), read back only for
    kept messages, same-point terminals of different wires, and the
    realizes-graph multiset when its array fast path is unavailable or
    disagrees.

    Streaming peak memory is one chunk plus one bucket reload plus the
    O(network) state built once here: the node index
    (:class:`~repro.layout.validate._NodeIndex`: four int64 rect
    columns, two of them a grid build's own node columns, plus a key ->
    row dict for dict nodes only), the two band indexes (a few int64
    arrays per node), and for a staged graph the packed edge codes with
    their wanted and counted vectors (three int64 arrays per distinct
    edge).  Building that state is the pass's allocation burst: each
    band index sorts its rects once (one packed sort), and the codes
    come from one packing of the staged graph's canonical edge rows,
    counted as codes and never unpacked back into rows (a few int64
    arrays per staged edge at a time; at B_14 that keeps the burst
    about 40 MiB below what unpacking and repacking took).  Each
    chunk's net endpoints are one int array that the
    terminal lookup and the realizes-graph counter share: a grid
    chunk's column nets hand theirs over (33 bytes a wire), other nets
    are parsed into one.  A bucket reload holds about ``1 /
    num_buckets`` of ``segments.i64`` and of one via file (48 bytes a
    row each; the segments as their two orientations once the track
    sweep is done), and the via-vs-segment sweep expands those via
    columns into point queries on the layers that hold segments of the
    orientation it checks (about one a column at L = 2), with a few
    arrays of that length on top.  Pick ``num_buckets >= (segments.i64
    + vias_y.i64 bytes) / memory_budget_bytes`` to bound the reload
    size.  The spill directory — a temporary one, or, when
    ``spill_dir`` is given, a fresh ``repro-chunked-*`` subdirectory of
    it, so passes that share a ``spill_dir`` never share a file — is
    created at the first spill.  ``close()`` (which ``finalize`` calls,
    also when it raises) closes the spill files' handles and removes a
    temporary spill directory; a subdirectory of a caller's
    ``spill_dir`` is left in place with its files.
    """

    def __init__(
        self,
        nodes,
        model: LayoutModel,
        graph: Optional[Graph] = None,
        check_nodes: bool = True,
        check_vias: bool = True,
        num_buckets: int = 8,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.nodes = nodes
        self.model = model
        self.graph = graph
        self.check_nodes = check_nodes
        self.check_vias = check_vias
        self.nb = max(1, int(num_buckets))
        self._spill_dir = spill_dir
        self._dir: Optional[str] = None
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        # spill stores by file stem, one per row family: the segments,
        # then the via columns keyed by y and by x
        stems = ("segments", "vias_y", "vias_x")[:3 if check_vias else 1]
        self._stores = {s: _SpillStore(s, self.nb, 6) for s in stems}
        self._nets = _NetFile()
        self._held: Optional[WireTable] = None
        self._chunks = 0
        self._t_layer = _Tally()
        self._t_contig = _Tally()
        self._t_avoid = _Tally()
        self._wire_off = 0
        self._bend_off = 0  # global ordinal of the next spilled bend
        self._node_index = ni = _NodeIndex(nodes)
        # wires-avoid-nodes: band indexes over the (fixed) nodes, built once
        self._bi: Dict[bool, Optional[_BandIndex]] = {True: None, False: None}
        if check_nodes and len(ni):
            rx, ry, rx2, ry2 = ni.rx, ni.ry, ni.rx2, ni.ry2
            self._bi[True] = _BandIndex(ry, ry2, rx, rx2)
            self._bi[False] = _BandIndex(rx, rx2, ry, ry2)
        # realizes-graph per-edge counter while viable; the exact multiset
        # is rebuilt from the nets only if finalize needs it
        self._fast: Optional[Dict] = (
            _fast_template(graph) if graph is not None else None
        )
        self._unplaced = 0  # net endpoints naming no node of ``nodes``
        self._finalized = False

    # -- feeding ---------------------------------------------------------

    def feed(self, t: WireTable) -> None:
        if self._finalized:
            raise RuntimeError("validator already finalized")
        tmp = ValidationReport(ok=True)
        _vt_layer_discipline(t, self.model, tmp)
        self._t_layer.add(tmp.num_errors, tmp.errors)
        # the chunk's net endpoints as one int array, read by the
        # terminal lookup and, at the same arity, the realizes counter
        index = self._node_index
        k = index.k
        ends = (_end_rows(t.nets, k)
                if k is not None and t.num_wires else None)
        tmp = ValidationReport(ok=True)
        self._unplaced += _vt_contiguity_terminals(
            t, self.nodes, index, tmp, ends
        )
        self._t_contig.add(tmp.num_errors, tmp.errors)
        if self.check_nodes:
            self._feed_avoid(t)
        f = self._fast
        if f is not None and t.num_wires:
            if f["k"] != k:
                ends = _end_rows(t.nets, f["k"])
            if not _count_nets(f, ends):
                self._fast = None
        if not self._chunks:
            self._held = t
        else:
            if self._held is not None:
                # the held first chunk spills first, with wire ids from 0
                held, self._held = self._held, None
                self._spill(held, 0)
            self._spill(t, self._wire_off)
        self._chunks += 1
        self._wire_off += t.num_wires

    def _root(self) -> str:
        """The spill directory, created at the first spill: a temporary
        one, or a fresh subdirectory of the caller's ``spill_dir`` (so
        passes that share a ``spill_dir`` never share a file)."""
        if self._dir is None:
            if self._spill_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-chunked-"
                )
                self._dir = self._tmpdir.name
            else:
                os.makedirs(self._spill_dir, exist_ok=True)
                self._dir = tempfile.mkdtemp(
                    prefix="repro-chunked-", dir=self._spill_dir
                )
        return self._dir

    def _spill(self, t: WireTable, w_off: int) -> None:
        """Append chunk ``t``'s row families to the spill stores — the
        segments bucketed by track, the via columns by ``y`` and by
        ``x`` — and its nets to the net file."""
        root = self._root()
        stores, nb = self._stores, self.nb
        segs = _segment_rows(t, w_off)
        stores["segments"].add(
            root, _buckets_of(nb, segs[2]), np.stack(segs, axis=1)
        )
        del segs
        if self.check_vias:
            vias, n_bends = _via_rows(t, w_off, self._bend_off)
            self._bend_off += n_bends
            rows = np.stack(vias, axis=1)
            stores["vias_y"].add(root, _buckets_of(nb, vias[1]), rows)
            stores["vias_x"].add(root, _buckets_of(nb, vias[0]), rows)
        self._nets.add(root, w_off, t.nets)

    def _feed_avoid(self, t: WireTable) -> None:
        if not self.nodes or t.num_segments == 0:
            return
        horiz = t.is_horizontal
        hit = np.zeros(t.num_segments, dtype=bool)
        for is_h in (True, False):
            si = np.flatnonzero(horiz if is_h else ~horiz)
            if not si.size:
                continue
            fix = (t.y1 if is_h else t.x1)[si]
            lo = (t.x1 if is_h else t.y1)[si]
            hi = (t.x2 if is_h else t.y2)[si]
            hit[si] = self._bi[is_h].hits(fix, lo, hi)
        count = int(hit.sum())
        if not count:
            return

        def msgs():
            w_of = t.wire_of
            for i in np.flatnonzero(hit).tolist():
                net = t.nets[int(w_of[i])]
                if horiz[i]:
                    yield (
                        f"wire {net}: H segment y={int(t.y1[i])} "
                        f"x[{int(t.x1[i])},{int(t.x2[i])}] crosses a node interior"
                    )
                else:
                    yield (
                        f"wire {net}: V segment x={int(t.x1[i])} "
                        f"y[{int(t.y1[i])},{int(t.y2[i])}] crosses a node interior"
                    )

        self._t_avoid.add(count, msgs())

    # -- finalization ----------------------------------------------------

    def _held_families(self) -> Iterator[Iterator]:
        """The held chunk's families as one bucket: its segments, then its
        via columns, made at first use and handed out as both the ``y``-
        and the ``x``-keyed family."""
        t = self._held

        def families() -> Iterator[List[np.ndarray]]:
            yield _segment_rows(t, 0)
            vias = _via_rows(t, 0, 0)[0]
            yield vias
            yield vias

        yield families()

    def _bucket_families(self) -> Iterator[Iterator]:
        """Each spill bucket's families, reloaded one bucket at a time and
        one family at a time: its segments, then its ``y``- and its
        ``x``-keyed via columns in key order.  Buckets no row reached are
        skipped."""

        def families(parts) -> Iterator[List[np.ndarray]]:
            segs, *vias = parts
            yield _load_parts(segs, 6)
            # a bucket's via columns come back chunk by chunk, and the
            # via-vs-segment sweep keeps its first hits in query order,
            # which must be the one-chunk order: sort them by key
            for p in vias:
                yield _load_parts(p, 6, sort_col=5)

        for k in range(self.nb):
            parts = [store.parts[k] for store in self._stores.values()]
            if any(parts):
                yield families(parts)

    def finalize(self) -> ValidationReport:
        """The report.  A held chunk (exactly one was fed) is swept in
        memory one check at a time; otherwise each spill bucket is
        reloaded and swept (:meth:`_bucket_families`).  Either way each
        check's keyed messages re-sort into the one-chunk emission order
        before the per-orientation and global caps apply."""
        if self._finalized:
            raise RuntimeError("validator already finalized")
        self._finalized = True
        try:
            return self._report()
        finally:
            self.close()

    def _report(self) -> ValidationReport:
        self._close_spills()
        rep = ValidationReport(ok=True)
        rep.checks_run.append("layer-discipline")
        _bulk(rep, self._t_layer.count, iter(self._t_layer.msgs))
        rep.checks_run.append("contiguity-terminals")
        _bulk(rep, self._t_contig.count, iter(self._t_contig.msgs))
        by_kind: Dict[Tuple, _KeyedTally] = defaultdict(_KeyedTally)
        if self._held is not None:
            nets = _NetReader.of_nets(self._held.nets)
            buckets = self._held_families()
        else:
            nets = _NetReader(self._nets.index)
            buckets = self._bucket_families()
        for families in buckets:
            for check, res in _grouped_checks(families, nets,
                                              self.check_vias):
                by_kind[check].add(*res)
        rep.checks_run.append("track-overlap")
        kt = by_kind[("tracks", None)]
        _bulk(rep, kt.count, iter(kt.merged()))
        if self.check_vias:
            rep.checks_run.append("via-conflicts")
            kt = by_kind[("viacol", None)]
            _bulk(rep, kt.count, iter(kt.merged()))
            seg_count = 0
            seg_msgs: List[str] = []
            for is_h in (True, False):
                kt = by_kind[("viaseg", is_h)]
                seg_count += kt.count
                seg_msgs.extend(kt.merged()[:MAX_ERRORS_KEPT])
            _bulk(rep, seg_count, iter(seg_msgs))
            rep.checks_run.append("terminals-distinct")
            kt = by_kind[("terms", None)]
            _bulk(rep, kt.count, iter(kt.merged()))
        if self.check_nodes:
            _vt_nodes_disjoint(self.nodes, self._node_index, rep)
            rep.checks_run.append("wires-avoid-nodes")
            _bulk(rep, self._t_avoid.count, iter(self._t_avoid.msgs))
        if self.graph is not None:
            rep.checks_run.append("realizes-graph")
            f = self._fast
            # equal edge multisets with every endpoint placed place every
            # graph node: a purely staged graph has no isolated nodes
            if not (
                f is not None and self._unplaced == 0
                and np.array_equal(f["got"], f["counts"])
            ):
                _realizes_fallback(
                    _net_multiset(nets), set(self.nodes), self.graph, rep
                )
        return rep

    def _close_spills(self) -> None:
        """Close every append handle; the spilled extents become readable."""
        for store in self._stores.values():
            store.close()
        self._nets.close()

    def close(self) -> None:
        self._held = None
        self._close_spills()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def validate_table_chunked(
    chunks: Iterable[WireTable],
    nodes,
    model: LayoutModel,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
    num_buckets: int = 8,
    spill_dir: Optional[str] = None,
) -> ValidationReport:
    """Validate a chunk stream; byte-identical report to running
    :func:`~repro.layout.validate.validate_table` on the concatenation.
    A stream of one chunk is swept in memory and writes no file."""
    v = ChunkedValidator(
        nodes, model, graph=graph, check_nodes=check_nodes,
        check_vias=check_vias, num_buckets=num_buckets, spill_dir=spill_dir,
    )
    try:
        for t in chunks:
            v.feed(t)
        return v.finalize()
    finally:
        v.close()
