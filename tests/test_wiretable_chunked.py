"""Chunked out-of-core WireTable pinning.

Property tests (hypothesis) that the grid chunk source and the chunked
validator are **byte-identical** to the legacy builders in
``tests/oracles`` and the one-chunk validator at arbitrary
``memory_budget_bytes`` — from no budget (one chunk, which is what
``build_grid_layout`` returns) down to budgets forcing one-group
chunks — for tables, validation reports (verdict, error count, kept
messages, check list), and summary stats.  The collinear and 2-D grid
builders build in memory: their tables must equal the legacy ones, and
random ``slice_wires`` chunkings of them must validate and summarize
exactly as one chunk does.  Mutated tables (collinear K_6 x 2 and the
B_6 grid) must report the same at every chunk and bucket split, and
the mutations that reach the realizes-graph check and node placement
are also held to the legacy oracle in ``tests/oracles``.  Two B_6
grids with more via-vs-segment hits than ``MAX_ERRORS_KEPT``, spread
over the whole table, pin which hits the capped report keeps at every
chunk and bucket split: H segments through rows of via columns, and V
segments through columns of them.  A ``tracemalloc`` guard pins that the chunked B_14 grid build's peak
allocation stays under the declared budget, i.e. the budget knob is
real, not advisory.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.layout import (
    ChunkedValidator,
    Layout,
    Rect,
    chunked_grid_table,
    collinear_layout,
    build_grid2d_layout,
    build_grid_layout,
    grid_graph,
    summarize_chunks,
    thompson_model,
    validate_table_chunked,
    wires_per_chunk,
)
from repro.layout.chunked import _WIRE_BYTES
from repro.layout.collinear import track_assignment, track_assignment_arrays
from repro.layout.validate import MAX_ERRORS_KEPT
from repro.layout.wiretable import WireTable
from repro.topology.complete import complete_multigraph
from repro.topology.graph import Graph
from repro.transform.swap_butterfly import SwapButterfly

from tests.oracles.builders import (
    build_grid2d_layout_legacy,
    build_grid_layout_legacy,
    collinear_layout_legacy,
)
from tests.oracles.validate import validate_layout_legacy

SLOW = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

budgets = st.one_of(
    st.none(),
    st.just(1),  # forces 1-wire chunks (collinear) / 1-group chunks (grid)
    st.integers(min_value=_WIRE_BYTES, max_value=64 * _WIRE_BYTES),
    st.integers(min_value=1, max_value=1 << 22),
)


def assert_tables_identical(got: WireTable, want: WireTable) -> None:
    assert got.num_wires == want.num_wires
    assert got.nets == want.nets
    for col in ("indptr", "x1", "y1", "x2", "y2", "layer"):
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and np.array_equal(a, b), col
    assert got == want


def assert_reports_identical(got, want) -> None:
    assert got.checks_run == want.checks_run
    assert got.ok == want.ok
    assert got.num_errors == want.num_errors
    assert got.errors == want.errors


def assert_chunked_matches(build, layout, graph, num_buckets=4) -> None:
    mono = layout.wire_table()
    assert_tables_identical(build.table(), mono)
    want = validate_table_chunked([mono], build.nodes, build.model,
                                  graph=graph)
    got = validate_table_chunked(
        build.chunks(), build.nodes, build.model, graph=graph,
        num_buckets=num_buckets,
    )
    assert_reports_identical(got, want)
    assert summarize_chunks(build.chunks(), build.nodes, build.model) == \
        layout.summary()


# a chunking of a table: ``None`` puts every wire in its own chunk,
# a list gives the cut points (reduced into the table's wire range)
cuts = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=8),
)


def assert_slicings_match(layout, want, graph, cuts, num_buckets=4) -> None:
    """``layout``'s table equals the legacy ``want`` table, and its
    ``slice_wires`` chunks cut at ``cuts`` validate and summarize
    exactly as the one chunk does (``graph()`` gives the graph each
    validator checks)."""
    t = layout.wire_table()
    assert_tables_identical(t, want.wire_table())
    nw = t.num_wires
    bounds = (range(nw + 1) if cuts is None
              else sorted({0, nw, *(c % (nw + 1) for c in cuts)}))
    chunks = [t.slice_wires(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    nodes, model = layout.nodes, layout.model
    one = validate_table_chunked([t], nodes, model, graph=graph())
    assert_reports_identical(
        validate_table_chunked(chunks, nodes, model, graph=graph(),
                               num_buckets=num_buckets),
        one,
    )
    assert summarize_chunks(chunks, nodes, model) == \
        summarize_chunks([t], nodes, model) == layout.summary()


# ---------------------------------------------------------------------------
# build + validate + stats identity per builder
# ---------------------------------------------------------------------------


@SLOW
@given(
    n=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=1, max_value=3),
    order=st.sampled_from(["forward", "reversed"]),
    cuts=cuts,
)
def test_collinear_chunked_identity(n, m, order, cuts):
    assert_slicings_match(
        collinear_layout(n, m, order=order).layout,
        collinear_layout_legacy(n, m, order=order).layout,
        lambda: complete_multigraph(n, m), cuts,
    )


@SLOW
@given(
    ks=st.sampled_from([(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1),
                        (2, 1, 1, 1), (3, 2, 1)]),
    recirculating=st.booleans(),
    budget=budgets,
)
def test_grid_chunked_identity(ks, recirculating, budget):
    c = chunked_grid_table(ks, recirculating=recirculating,
                           memory_budget_bytes=budget)
    res = build_grid_layout_legacy(ks, recirculating=recirculating)
    assert_chunked_matches(c, res.layout, res.graph)


@SLOW
@given(
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    split=st.booleans(),
    cuts=cuts,
)
def test_grid2d_chunked_identity(rows, cols, seed, split, cuts):
    def mkgraph(n, salt):
        g = Graph()
        g.add_nodes(range(n))
        r = np.random.default_rng([seed, salt])
        for a in range(n):
            for b in range(a + 1, n):
                for _ in range(int(r.integers(0, 3))):
                    g.add_edge(a, b)
        return g

    row_graphs = {r: mkgraph(cols, 2 * r) for r in range(rows)}
    col_graphs = {c: mkgraph(rows, 2 * c + 1) for c in range(cols)}
    rg, cg = row_graphs.__getitem__, col_graphs.__getitem__
    res = build_grid2d_layout(rows, cols, rg, cg, split_channels=split)
    want = build_grid2d_layout_legacy(rows, cols, rg, cg,
                                      split_channels=split)
    assert list(res.graph.edges()) == list(want.graph.edges())
    assert_slicings_match(res.layout, want.layout, lambda: want.graph, cuts)


# ---------------------------------------------------------------------------
# validator identity on *invalid* tables at arbitrary chunk/bucket splits
# ---------------------------------------------------------------------------


def _mutate(t: WireTable, nodes, which: str, rng):
    """Mutated copies of ``t`` and ``nodes`` (the node map both
    validators see)."""
    m = WireTable(nets=list(t.nets), indptr=t.indptr.copy(),
                  x1=t.x1.copy(), y1=t.y1.copy(),
                  x2=t.x2.copy(), y2=t.y2.copy(), layer=t.layer.copy())
    nodes = dict(nodes)
    nw = t.num_wires
    wires = np.arange(nw)
    h = np.flatnonzero((m.y1 == m.y2) & (m.x1 != m.x2))
    if which == "layer":
        m.layer[int(rng.integers(0, t.num_segments))] = 99
    elif which == "overlap" and h.size >= 2:
        i, j = h[0], h[int(rng.integers(1, h.size))]
        m.y1[i] = m.y2[i] = m.y1[j]
    elif which == "many-overlaps" and h.size >= 2:
        m.y1[h] = m.y2[h] = m.y1[h[0]]
    elif which == "contiguity":
        m.x2[t.indptr[1] - 1] += 3
    elif which == "bad-net":
        m.nets[int(rng.integers(0, t.num_wires))] = (997, 998, 0)
    elif which == "terminal-clash" and t.num_wires >= 2:
        s0, s1 = t.indptr[0], t.indptr[1]
        m.x1[s1] = m.x1[s0]
        m.y1[s1] = m.y1[s0]
    elif which == "node-interior" and h.size:
        k = h[int(rng.integers(0, h.size))]
        m.y1[k] = m.y2[k] = 1
    elif which == "dup-wire":
        # the copy lands last, mostly in another chunk than its original
        m = m.permuted(np.append(wires, rng.integers(0, nw)))
    elif which == "drop-wire":
        m = m.permuted(np.delete(wires, rng.integers(0, nw)))
    elif which == "redirect-net":
        # every net still names a graph edge; two edge counts are off by one
        i = int(rng.integers(0, nw))
        edge = {t.nets[i][0], t.nets[i][1]}
        others = [j for j in range(nw) if {t.nets[j][0], t.nets[j][1]} != edge]
        m.nets[i] = t.nets[others[int(rng.integers(0, len(others)))]]
    elif which == "unplace-node":
        # the edge multiset stays intact; one endpoint loses its footprint
        del nodes[t.nets[int(rng.integers(0, nw))][0]]
    return m, nodes


MUTATIONS = ["layer", "overlap", "many-overlaps", "contiguity", "bad-net",
             "terminal-clash", "node-interior", "dup-wire", "drop-wire",
             "redirect-net", "unplace-node"]
# the kinds that reach the realizes-graph counter and node placement
# across chunk boundaries; these are also held to the legacy oracle
GRAPH_MUTATIONS = MUTATIONS[-4:]


def _mutation_case(case: str):
    """``(layout, graph factory)``: collinear K_6 x 2 (int nodes, a
    per-edge graph) or the B_6 grid (tuple nodes, a staged graph).  Each
    validator gets a fresh graph, because the exact fallback
    materialises the one it reads and a materialised graph never takes
    the array fast path."""
    if case == "collinear":
        return collinear_layout(6, 2).layout, lambda: complete_multigraph(6, 2)
    sb = SwapButterfly.from_ks((2, 2, 2))
    return build_grid_layout((2, 2, 2)).layout, lambda: grid_graph(sb)


@SLOW
@example(case="grid", which="dup-wire", chunk_wires=7, num_buckets=255,
         seed=0)
@example(case="grid", which="drop-wire", chunk_wires=40, num_buckets=256,
         seed=1)
@example(case="grid", which="redirect-net", chunk_wires=1, num_buckets=257,
         seed=2)
@example(case="grid", which="unplace-node", chunk_wires=13,
         num_buckets=1000, seed=3)
@given(
    case=st.sampled_from(["collinear", "grid"]),
    which=st.sampled_from(MUTATIONS),
    chunk_wires=st.integers(min_value=1, max_value=40),
    num_buckets=st.one_of(
        st.integers(min_value=1, max_value=9),
        st.sampled_from([255, 256, 257, 1000]),
    ),
    seed=st.integers(min_value=0, max_value=999),
)
def test_mutated_validation_identity(case, which, chunk_wires, num_buckets,
                                     seed):
    lay, graph = _mutation_case(case)
    t, nodes = _mutate(lay.wire_table(), lay.nodes, which,
                       np.random.default_rng(seed))
    want = validate_table_chunked([t], nodes, lay.model, graph=graph())
    chunks = (t.slice_wires(lo, lo + chunk_wires)
              for lo in range(0, t.num_wires, chunk_wires))
    got = validate_table_chunked(chunks, nodes, lay.model, graph=graph(),
                                 num_buckets=num_buckets)
    assert_reports_identical(got, want)
    if which in GRAPH_MUTATIONS:
        legacy = validate_layout_legacy(
            Layout(lay.model, nodes=nodes, table=t), graph()
        )
        assert not want.ok and not legacy.ok
        assert want.checks_run == legacy.checks_run
        assert want.num_errors == legacy.num_errors
        # same messages; order differs by design (the sweeps emit sorted)
        if want.num_errors <= MAX_ERRORS_KEPT:
            assert sorted(want.errors) == sorted(legacy.errors)


def _through_via_rows_table():
    """The B_6 grid with two wires put first: each one H segment on the
    V layer (layer 1) from the left side of the row's first node to a
    side of its last node, through a row of via columns.  Row 14 holds
    24 wire starts and 24 bends, row 21 24 wire ends and 24 bends, each
    from wires spread over the whole table.  That makes 2 errors before
    the via-vs-segment check (one layer error a wire) and 96
    via-vs-segment hits."""
    lay = build_grid_layout((2, 2, 2)).layout
    V = 1
    new = WireTable.from_segment_arrays(
        [((0, 0), (12, 6), "row14"), ((1, 0), (13, 6), "row21")],
        np.arange(3, dtype=np.int64),
        *np.array([(0, 14, 389, 14, V), (0, 21, 393, 21, V)],
                  dtype=np.int64).T,
    )
    return WireTable.concat([new, lay.wire_table()]), lay


def _through_via_cols_table():
    """The V-segment twin of :func:`_through_via_rows_table`: the B_6
    grid with three wires put first, each one V segment on the H layer
    (layer 2) through a column of via columns, each column from wires
    spread over the whole table.  Column 54 (the right sides of the
    nodes at x = 50) holds 32 wire starts, column 329 (the left sides
    of the nodes there) 32 wire ends, and column 387 8 bends.  The first
    two wires run between sides of their nodes; the third misses its
    nodes at both ends.  That makes 5 errors before the via-vs-segment
    check (one layer error a wire, two contiguity errors) and 71
    via-vs-segment hits (the end at row 13 lies below the second
    wire)."""
    lay = build_grid_layout((2, 2, 2)).layout
    H = 2
    new = WireTable.from_segment_arrays(
        [((0, 4), (51, 4), "col54"), ((12, 2), (63, 2), "col329"),
         ((12, 6), (63, 6), "col387")],
        np.arange(4, dtype=np.int64),
        *np.array([(54, 13, 54, 185, H), (329, 14, 329, 185, H),
                   (387, 14, 387, 185, H)], dtype=np.int64).T,
    )
    return WireTable.concat([new, lay.wire_table()]), lay


@pytest.mark.parametrize("num_buckets", [1, 2, 3, 8])
@pytest.mark.parametrize("chunk_wires", [1, 5, 17, 100])
def test_error_cap_across_buckets(chunk_wires, num_buckets):
    """More than ``MAX_ERRORS_KEPT`` via-vs-segment hits, kept in the
    one-chunk query order (every wire start, then every end, then every
    bend), although a spill bucket's via columns come back chunk by
    chunk: a chunk's bends before a later chunk's starts.  The hits of H
    segments meet the ``y``-keyed via columns, those of V segments the
    ``x``-keyed ones."""
    sb = SwapButterfly.from_ks((2, 2, 2))
    for fixture, before, hits in ((_through_via_rows_table, 2, 96),
                                  (_through_via_cols_table, 5, 71)):
        t, lay = fixture()
        want = validate_table_chunked([t], lay.nodes, lay.model,
                                      graph=grid_graph(sb))
        through = [e for e in want.errors
                   if " passes through via of wire " in e]
        # the fixture reaches the cap inside the via-vs-segment check
        assert len(want.errors) == MAX_ERRORS_KEPT
        assert len(through) == MAX_ERRORS_KEPT - before
        assert want.num_errors > hits
        chunks = (t.slice_wires(lo, lo + chunk_wires)
                  for lo in range(0, t.num_wires, chunk_wires))
        got = validate_table_chunked(chunks, lay.nodes, lay.model,
                                     graph=grid_graph(sb),
                                     num_buckets=num_buckets)
        assert_reports_identical(got, want)


def test_overlapping_node_bands():
    """Nodes of two heights give y-bands (0, 4) and (0, 8) that overlap,
    so the band index takes its per-band branch; one wire runs at y = 2,
    inside the overlap, through the taller node's interior."""
    nodes = {0: Rect(0, 0, 4, 4), 1: Rect(10, 0, 4, 8), 2: Rect(20, 2, 4, 4)}
    V, H = 1, 2
    wires = [
        # (0, 1) over the top: clear of every interior
        ((0, 1), [(2, 4, 2, 10, V), (2, 10, 12, 10, H), (12, 10, 12, 8, V)]),
        # (0, 2) along y = 2 from node 0's side to node 2's corner
        ((0, 2), [(4, 2, 20, 2, H)]),
    ]
    segs = np.array([sg for _net, ss in wires for sg in ss], dtype=np.int64)
    t = WireTable.from_segment_arrays(
        [net for net, _ss in wires], np.array([0, 3, 4], dtype=np.int64),
        *segs.T,
    )
    model = thompson_model()
    assert not ChunkedValidator(nodes, model)._bi[True].disjoint

    def graph():
        g = Graph()
        g.add_edges_from(np.array([[0, 1], [0, 2]], dtype=np.int64))
        return g

    want = validate_table_chunked([t], nodes, model, graph=graph())
    got = validate_table_chunked(
        [t.slice_wires(i, i + 1) for i in range(t.num_wires)],
        nodes, model, graph=graph(),
    )
    assert_reports_identical(got, want)
    legacy = validate_layout_legacy(
        Layout(model, nodes=nodes, table=t), graph()
    )

    def crossings(rep):
        return sorted(e for e in rep.errors if "crosses a node interior" in e)

    assert crossings(want) == crossings(legacy) == [
        "wire (0, 2): H segment y=2 x[4,20] crosses a node interior"
    ]


def test_empty_stream_matches_empty_table():
    lay = collinear_layout(4, 1).layout
    empty = lay.wire_table().slice_wires(0, 0)
    want = validate_table_chunked([empty], lay.nodes, lay.model,
                                  graph=complete_multigraph(4, 1))
    got = validate_table_chunked([], lay.nodes, lay.model,
                                 graph=complete_multigraph(4, 1))
    assert_reports_identical(got, want)
    assert not want.ok  # graph edges have no wires


# ---------------------------------------------------------------------------
# budget semantics
# ---------------------------------------------------------------------------


def test_wires_per_chunk_knob():
    assert wires_per_chunk(None) == sys.maxsize
    assert wires_per_chunk(1) == 1
    assert wires_per_chunk(_WIRE_BYTES * 10) == 10
    with pytest.raises(ValueError, match="positive"):
        wires_per_chunk(0)
    with pytest.raises(ValueError, match="positive"):
        wires_per_chunk(-5)


def test_collinear_needs_two_nodes():
    with pytest.raises(ValueError, match="need n >= 2 nodes, got 1"):
        collinear_layout(1)


@pytest.mark.parametrize("build", [
    lambda order: collinear_layout(5, order=order),
    lambda order: chunked_grid_table((2, 2, 2), track_order=order),
    lambda order: build_grid_layout((2, 2, 2), track_order=order),
    lambda order: track_assignment(5, order),
    lambda order: track_assignment_arrays(5, order),
], ids=[
    "collinear_layout", "chunked_grid_table",
    "build_grid_layout", "track_assignment", "track_assignment_arrays",
])
def test_track_order_is_forward_or_reversed(build):
    # a bogus order used to lay out the forward tracks under its own name
    for order in ("bogus", "Reversed", ""):
        with pytest.raises(ValueError, match="'forward' or 'reversed'"):
            build(order)


def test_unbudgeted_build_enumerates_once(monkeypatch):
    """No budget means one chunk: the grid source yields one, the grid
    builder plans it with one ``_grid_cats`` call, and the 2-D builder
    splits each channel graph once (``rows + cols`` ``_side_subgraphs``
    calls, not a second round for the emission pass)."""
    import repro.layout.chunked as chunked
    import repro.layout.grid2d as grid2d

    assert sum(1 for _ in chunked_grid_table((2, 2, 2)).chunks()) == 1
    calls = []
    for mod, name in ((chunked, "_grid_cats"), (grid2d, "_side_subgraphs")):
        real = getattr(mod, name)
        monkeypatch.setattr(
            mod, name,
            lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a),
        )
    build_grid_layout((2, 2, 2))
    assert calls.count("_grid_cats") == 1
    rows, cols = 3, 4
    build_grid2d_layout(rows, cols, lambda r: complete_multigraph(cols, 2),
                        lambda c: complete_multigraph(rows, 1))
    assert calls.count("_side_subgraphs") == rows + cols


def test_chunked_build_surface():
    ks, budget = (2, 2, 2), 8192
    c = chunked_grid_table(ks, memory_budget_bytes=budget)
    assert c.chunk_wires == wires_per_chunk(budget)
    assert sum(1 for _ in c.chunks()) > 1
    assert c.name.startswith("grid-B6")
    graph = grid_graph(SwapButterfly.from_ks(ks))
    rep, summary = c.validate_and_summarize(graph=graph)
    assert rep.ok
    lay = build_grid_layout(ks).layout
    assert summary == lay.summary()
    assert c.summary() == lay.summary()
    assert c.validate_and_summarize()[0].ok


def test_summary_reuses_consumed_stats_pass():
    # validate_and_summarize already streamed every chunk once; a later
    # summary() must serve the cached stats, not restream the chunks
    ks = (2, 2, 1)
    c = chunked_grid_table(ks, memory_budget_bytes=8192)
    want = build_grid_layout(ks).layout.summary()
    _rep, summ = c.validate_and_summarize(
        graph=grid_graph(SwapButterfly.from_ks(ks))
    )
    assert summ == want
    calls = []
    real = c._chunks
    object.__setattr__(
        c, "_chunks",
        lambda *a, **kw: calls.append(1) or real(*a, **kw),
    )
    assert c.summary() == want
    assert not calls, "summary() restreamed chunks after a stats pass"
    # and the cache hands out copies, not the internal dict
    c.summary()["wires"] = -1
    assert c.summary() == want


@pytest.mark.slow
def test_b14_grid_build_peak_under_budget():
    """The declared budget bounds the chunked B_14 build's peak
    allocations: stream every chunk of the (5, 5, 4) grid — ~10^5 wires
    — under a 24 MiB budget and tracemalloc must never see more than
    the budget live at once (the monolithic table alone is bigger)."""
    budget = 24 << 20
    ks = (5, 5, 4)
    c = chunked_grid_table(ks, memory_budget_bytes=budget)
    tracemalloc.start()
    tracemalloc.reset_peak()
    wires = 0
    nchunks = 0
    for t in c.chunks():
        wires += t.num_wires
        nchunks += 1
    _cur, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert nchunks > 1, "budget did not force chunking"
    assert wires > 100_000
    assert peak < budget, f"peak {peak} bytes exceeds budget {budget}"


def test_chunk_floor_is_one_group():
    # grid budgets below one block's working set clamp to one group per
    # chunk rather than splitting a block (closure requirement)
    c = chunked_grid_table((2, 1, 1), memory_budget_bytes=1)
    sizes = [t.num_wires for t in c.chunks()]
    assert len(sizes) >= 4
    res = build_grid_layout((2, 1, 1))
    assert sum(sizes) == res.layout.wire_table().num_wires
