"""Spill-format, cleanup and cross-chunk pinning for the chunked validator.

* **footprint** — the spill directory holds one raw int64 file per
  row family (the segments, and the via columns keyed by ``y`` and by
  ``x``) plus one net file, whatever the chunk count, and each column
  file is exactly ``8 * ncols * rows`` bytes (no pickled rows);
* **one chunk, no disk** — a validator fed exactly one chunk (which is
  what ``validate_layout`` is) sweeps it in
  memory: no file even under a given ``spill_dir``, and no temporary
  directory, which a second chunk is the first to need;
* **cleanup** — a chunk source that raises mid-stream leaves no
  temporary spill directory and no open file handle behind, through
  :func:`validate_table_chunked` and through a bare
  :class:`ChunkedValidator`;
* **torn spill** — a spill file cut short before ``finalize`` is an
  ``OSError`` naming the file, the offset and the byte counts, and the
  failed ``finalize`` still removes a temporary spill directory;
* **cross-chunk nets** — spilled rows carry global wire ids instead of
  nets, so two wires of one net sharing a terminal point (not an error)
  and two wires of different nets sharing one (an error) must stay
  distinguishable when each pair straddles a chunk boundary,
  and the realizes-graph multiset rebuilt from the net file must list
  its mismatches in the monolithic order; the per-edge counter counts a
  net only toward the edge whose packed code it matches exactly, and
  nets whose endpoints are not ints never take the array fast path.
"""

import itertools
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.layout import (
    ChunkedValidator,
    Layout,
    Rect,
    build_grid_layout,
    chunked_grid_table,
    collinear_layout,
    grid_graph,
    thompson_model,
    validate_layout,
    validate_table_chunked,
)
from repro.layout.validate import _vt_columns
from repro.layout.wiretable import WireTable
from repro.topology.complete import complete_multigraph
from repro.topology.graph import Graph
from repro.transform.swap_butterfly import SwapButterfly

from tests.oracles.validate import validate_layout_legacy

# columns per spilled row, by spill file stem: one file per row family
NCOLS = {"segments": 6, "vias_y": 6, "vias_x": 6}


def assert_reports_identical(got, want) -> None:
    assert got.checks_run == want.checks_run
    assert got.ok == want.ok
    assert got.num_errors == want.num_errors
    assert got.errors == want.errors


# ---------------------------------------------------------------------------
# spill footprint
# ---------------------------------------------------------------------------


def _expected_rows(t: WireTable):
    """Rows each spill file must hold for table ``t`` (a valid layout:
    every wire contiguous): every segment once, and every via column
    (each wire's start and end, and each bend) once per key axis."""
    n_vias = len(_vt_columns(t)[0])
    assert n_vias == 2 * t.num_wires + t.num_vias()
    return {"segments": t.num_segments, "vias_y": n_vias, "vias_x": n_vias}


def _pass_dirs(spill_dir) -> list:
    """The subdirectories validator passes made under ``spill_dir``."""
    return sorted(p for p in Path(spill_dir).iterdir() if p.is_dir())


def test_spill_files_do_not_grow_with_chunks(tmp_path):
    ks = (3, 3, 3)
    graph = grid_graph(SwapButterfly.from_ks(ks))
    want_rows = _expected_rows(chunked_grid_table(ks).table())
    want_files = sorted([f"{s}.i64" for s in NCOLS] + ["nets.pkl"])
    chunk_counts = []
    for budget in (1 << 20, 32 << 10):
        build = chunked_grid_table(ks, memory_budget_bytes=budget)
        d = tmp_path / f"b{budget}"
        rep, _summ = build.validate_and_summarize(graph=graph, spill_dir=str(d))
        assert rep.ok
        chunk_counts.append(sum(1 for _ in build.chunks()))
        # the pass writes into one subdirectory of its own
        (sub,) = _pass_dirs(d)
        # the same files at every budget, whatever the chunk count
        assert sorted(os.listdir(sub)) == want_files
        for stem, ncols in NCOLS.items():
            size = os.path.getsize(sub / f"{stem}.i64")
            assert size == 8 * ncols * want_rows[stem], stem
    assert chunk_counts[0] < chunk_counts[1]


def test_passes_sharing_a_spill_dir_keep_apart(tmp_path):
    """Two validators given one ``spill_dir`` and fed interleaved chunks
    of two builds return the reports each returns alone: each pass
    spills into a subdirectory of its own, kept after the pass."""
    cases = [((2, 2, 2), "forward"), ((3, 2, 1), "reversed")]
    builds = [chunked_grid_table(ks, track_order=order,
                                 memory_budget_bytes=8192)
              for ks, order in cases]

    def validator(i, spill_dir):
        b = builds[i]
        return ChunkedValidator(
            b.nodes, b.model,
            graph=grid_graph(SwapButterfly.from_ks(cases[i][0])),
            spill_dir=str(spill_dir),
        )

    alone = []
    for i, b in enumerate(builds):
        v = validator(i, tmp_path / f"alone{i}")
        for t in b.chunks():
            v.feed(t)
        alone.append(v.finalize())
    shared = tmp_path / "shared"
    vs = [validator(i, shared) for i in range(2)]
    for pair in itertools.zip_longest(*(b.chunks() for b in builds)):
        for v, t in zip(vs, pair):
            if t is not None:
                v.feed(t)
    for v, want in zip(vs, alone):
        assert_reports_identical(v.finalize(), want)
    assert all(rep.ok for rep in alone)
    assert len(_pass_dirs(shared)) == 2


# ---------------------------------------------------------------------------
# a one-chunk pass touches no disk
# ---------------------------------------------------------------------------


class _TempDirRequested(RuntimeError):
    pass


def _no_temp_dir(*args, **kwargs):
    raise _TempDirRequested("a temporary spill directory was requested")


def _grid_333():
    res = build_grid_layout((3, 3, 3))
    return res.layout, res.graph


def test_one_chunk_writes_no_file_under_spill_dir(tmp_path):
    lay, graph = _grid_333()
    d = tmp_path / "spill"
    d.mkdir()
    rep = validate_table_chunked([lay.wire_table()], lay.nodes, lay.model,
                                 graph=graph, spill_dir=str(d))
    assert rep.ok
    assert os.listdir(d) == []


def test_validate_layout_needs_no_temp_dir(monkeypatch):
    lay, graph = _grid_333()
    want = validate_layout(lay, graph)
    monkeypatch.setattr(tempfile, "TemporaryDirectory", _no_temp_dir)
    assert_reports_identical(validate_layout(lay, graph), want)
    assert want.ok


def test_second_chunk_starts_the_spill(monkeypatch):
    lay, graph = _grid_333()
    t = lay.wire_table()
    half = t.num_wires // 2
    chunks = [t.slice_wires(0, half), t.slice_wires(half, t.num_wires)]
    monkeypatch.setattr(tempfile, "TemporaryDirectory", _no_temp_dir)
    with pytest.raises(_TempDirRequested):
        validate_table_chunked(chunks, lay.nodes, lay.model, graph=graph)


# ---------------------------------------------------------------------------
# cleanup when the chunk source raises
# ---------------------------------------------------------------------------


class _SourceFailed(RuntimeError):
    pass


def _raising_chunks(t: WireTable, chunk: int = 3, fail_at: int = 2):
    for i, lo in enumerate(range(0, t.num_wires, chunk)):
        if i == fail_at:
            raise _SourceFailed("chunk source failed")
        yield t.slice_wires(lo, lo + chunk)


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _leftover_spill_dirs(root) -> list:
    return [p for p in os.listdir(root) if p.startswith("repro-chunked-")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open files")
@pytest.mark.parametrize("how", ["serial", "validator"])
def test_source_error_leaves_no_spill_dir_or_handle(tmp_path, monkeypatch,
                                                     how):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    lay = collinear_layout(6, 2).layout
    graph = complete_multigraph(6, 2)
    chunks = _raising_chunks(lay.wire_table())
    before = _fd_count()
    with pytest.raises(_SourceFailed):
        if how == "validator":
            v = ChunkedValidator(lay.nodes, lay.model, graph=graph)
            try:
                for t in chunks:
                    v.feed(t)
            finally:
                v.close()
        else:
            validate_table_chunked(chunks, lay.nodes, lay.model, graph=graph)
    assert _leftover_spill_dirs(tmp_path) == []
    assert _fd_count() == before


@pytest.mark.parametrize("where", ["spill_dir", "temporary"])
def test_torn_spill_file_raises_oserror(tmp_path, monkeypatch, where):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    ks = (2, 2, 2)
    lay = build_grid_layout(ks).layout
    t = lay.wire_table()
    given = str(tmp_path / "spill") if where == "spill_dir" else None
    v = ChunkedValidator(lay.nodes, lay.model,
                         graph=grid_graph(SwapButterfly.from_ks(ks)),
                         spill_dir=given)
    for lo in range(0, t.num_wires, 100):
        v.feed(t.slice_wires(lo, lo + 100))
    root = (str(_pass_dirs(given)[0]) if given
            else str(tmp_path / _leftover_spill_dirs(tmp_path)[0]))
    path = os.path.join(root, "segments.i64")
    os.truncate(path, os.path.getsize(path) // 2)
    with pytest.raises(OSError, match=(
        r"segments\.i64 is torn: at byte offset \d+ expected \d+ bytes, "
        r"read \d+"
    )):
        v.finalize()
    assert _leftover_spill_dirs(tmp_path) == []
    # a caller's spill directory keeps its files
    assert os.path.exists(path) == (where == "spill_dir")


# ---------------------------------------------------------------------------
# terminals and realizes-graph across chunk boundaries
# ---------------------------------------------------------------------------


def _shared_terminal_table():
    """Four wires over four 4x4 nodes on one row.  ``a1``/``a2`` are two
    wires of net (0, 1) ending on the same point of node 1 (legal
    terminal sharing); ``b`` (1, 2) and ``c`` (3, 2) are different nets
    ending on the same point of node 2 (a terminals-distinct error).
    Emission order a1, b, a2, c puts each pair in different chunks at
    chunk sizes 1 and 2."""
    nodes = {i: Rect(10 * i, 0, 4, 4) for i in range(4)}
    V, H = 1, 2
    wires = [
        ((0, 1), [(2, 4, 2, 6, V), (2, 6, 12, 6, H), (12, 6, 12, 4, V)]),
        ((1, 2), [(13, 4, 13, 8, V), (13, 8, 22, 8, H), (22, 8, 22, 4, V)]),
        ((0, 1), [(3, 4, 3, 7, V), (3, 7, 12, 7, H), (12, 7, 12, 4, V)]),
        ((3, 2), [(32, 4, 32, 9, V), (32, 9, 22, 9, H), (22, 9, 22, 4, V)]),
    ]
    segs = np.array([s for _net, ss in wires for s in ss], dtype=np.int64)
    table = WireTable.from_segment_arrays(
        [net for net, _ss in wires],
        np.arange(len(wires) + 1, dtype=np.int64) * 3,
        *segs.T,
    )
    return table, nodes


def _graph_missing_one_edge(staged: bool) -> Graph:
    # edges 0-1 x2 and 1-2: wire (3, 2) has no graph edge
    g = Graph()
    if staged:
        g.add_edges_from(np.array([[0, 1], [0, 1], [1, 2]], dtype=np.int64))
    else:
        g.add_edge(0, 1, 2)
        g.add_edge(1, 2)
    return g


@pytest.mark.parametrize("staged", [True, False])
@pytest.mark.parametrize("chunk", [1, 2])
def test_shared_terminals_and_realizes_fallback_across_chunks(staged, chunk):
    table, nodes = _shared_terminal_table()
    model = thompson_model()
    graph = _graph_missing_one_edge(staged)
    want = validate_table_chunked([table], nodes, model, graph=graph)
    # the fixture exercises what it claims to
    assert "terminal point (22, 4) shared by wires (1, 2) and (3, 2)" \
        in want.errors
    assert not any("(12, 4) shared" in e for e in want.errors)
    assert "wire (2, 3) x1 has no graph edge" in want.errors
    chunks = [table.slice_wires(lo, lo + chunk)
              for lo in range(0, table.num_wires, chunk)]
    got = validate_table_chunked(chunks, nodes, model, graph=graph)
    assert_reports_identical(got, want)


def _row_table(nets, keys):
    """One three-segment wire per net over 4x4 nodes ``keys`` placed in
    a row, each wire on its own columns and track, so only the nets can
    be wrong."""
    nodes = {key: Rect(10 * i, 0, 4, 4) for i, key in enumerate(keys)}
    segs = []
    for j, (u, v) in enumerate(nets):
        xu, xv, y = nodes[u].x + 1 + j, nodes[v].x + 1 + j, 6 + j
        segs += [(xu, 4, xu, y, 1), (xu, y, xv, y, 2), (xv, y, xv, 4, 1)]
    table = WireTable.from_segment_arrays(
        list(nets), np.arange(len(nets) + 1, dtype=np.int64) * 3,
        *np.array(segs, dtype=np.int64).T,
    )
    return table, nodes


# (graph edges, nets): the second net is no graph edge, yet the packing
# frame of the edges' rows would give it the code of the edge it misses
COUNTER_CASES = {
    # edges (0, 1), (2, 3) pack in the frame lo 0..2, hi 1..3; (0, 2)
    # packs inside it to a code that is no edge
    "in-frame": ([(0, 1), (2, 3)], [(0, 1), (0, 2)]),
    # hi = 6 lies above the frame and carries into lo: (2, 3)'s code
    "above": ([(0, 1), (2, 3)], [(0, 1), (1, 6)]),
    # rows (lo0, lo1, hi0, hi1): hi1 = 0 lies below the frame and
    # borrows from hi0, giving ((0, 0), (1, 1))'s code
    "below": ([((0, 0), (2, 1)), ((0, 0), (1, 1))],
              [((0, 0), (2, 1)), ((0, 0), (2, 0))]),
}


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_counter_counts_only_exact_edge_codes(case, chunk):
    edges, nets = COUNTER_CASES[case]
    keys = list(dict.fromkeys(x for e in edges + nets for x in e))
    table, nodes = _row_table(nets, keys)
    model = thompson_model()

    def graph():
        g = Graph()
        g.add_edges_from(np.array(edges, dtype=np.int64))
        return g

    want = validate_table_chunked([table], nodes, model, graph=graph())
    assert want.errors == [
        f"graph edge {edges[1]} x1 has no wire",
        f"wire {nets[1]} x1 has no graph edge",
    ]
    legacy = validate_layout_legacy(
        Layout(model, nodes=nodes, table=table), graph()
    )
    assert legacy.errors == want.errors
    chunks = [table.slice_wires(lo, lo + chunk)
              for lo in range(0, table.num_wires, chunk)]
    got = validate_table_chunked(chunks, nodes, model, graph=graph())
    assert_reports_identical(got, want)


@pytest.mark.parametrize("chunk", [1, 4])
def test_string_nets_take_the_exact_fallback(chunk):
    """Nets and nodes keyed ``"0"``..``"3"`` against a staged int graph:
    an int64 cast would read the nets as the graph's edges and every
    endpoint is placed, yet no net is a graph edge and no graph node is
    placed, which only the exact fallback reports."""
    table, nodes = _shared_terminal_table()
    table.nets = [tuple(str(x) for x in net) for net in table.nets]
    nodes = {str(k): r for k, r in nodes.items()}
    model = thompson_model()

    def graph():
        g = Graph()
        g.add_edges_from(
            np.array([[0, 1], [1, 2], [0, 1], [3, 2]], dtype=np.int64)
        )
        return g

    want = validate_table_chunked([table], nodes, model, graph=graph())
    legacy = validate_layout_legacy(
        Layout(model, nodes=nodes, table=table), graph()
    )
    assert want.num_errors == legacy.num_errors
    assert sorted(want.errors) == sorted(legacy.errors)
    assert "graph node 0 not placed" in want.errors
    assert "wire ('0', '1') x2 has no graph edge" in want.errors
    chunks = [table.slice_wires(lo, lo + chunk)
              for lo in range(0, table.num_wires, chunk)]
    got = validate_table_chunked(chunks, nodes, model, graph=graph())
    assert_reports_identical(got, want)
