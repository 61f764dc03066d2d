"""Parallel chunked build+validate pinning.

Differential property tests that :func:`repro.layout.parallel_validate`
is **byte-identical** to the monolithic validator — verdict, error
count, capped message list, checks-run list and summary stats — at
every worker count (including the inline ``workers=1`` path), for every
chunk source (recipe-backed collinear and grid builds, plus a plain
iterable of pre-sliced tables) and at budgets down to 1-wire chunks.
Error *content* identity is pinned by mutating tables into invalid ones
and splitting them at arbitrary chunk boundaries before the fan-out.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.layout import (
    build_grid_layout,
    chunked_collinear_table,
    chunked_grid_table,
    collinear_layout,
    parallel_validate,
    validate_table,
    validate_table_chunked,
)
from repro.layout.chunked import _WIRE_BYTES
from repro.layout.wiretable import WireTable
from repro.topology.complete import complete_multigraph

SLOW = settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

budgets = st.one_of(
    st.none(),
    st.just(1),  # 1-wire (collinear) / 1-group (grid) chunks
    st.integers(min_value=_WIRE_BYTES, max_value=64 * _WIRE_BYTES),
)


def assert_reports_identical(got, want) -> None:
    assert got.checks_run == want.checks_run
    assert got.ok == want.ok
    assert got.num_errors == want.num_errors
    assert got.errors == want.errors


# ---------------------------------------------------------------------------
# recipe sources: every worker count reproduces the monolithic verdict
# ---------------------------------------------------------------------------


@SLOW
@given(
    n=st.integers(min_value=2, max_value=6),
    m=st.integers(min_value=1, max_value=2),
    budget=budgets,
    workers=st.sampled_from([1, 2]),
)
def test_parallel_collinear_identity(n, m, budget, workers):
    build = chunked_collinear_table(n, m, memory_budget_bytes=budget)
    lay = collinear_layout(n, m).layout
    graph = complete_multigraph(n, m)
    want = validate_table(lay.wire_table(), build.nodes, build.model,
                          graph=graph)
    rep, summ = parallel_validate(build, graph=graph, workers=workers,
                                  want_stats=True)
    assert_reports_identical(rep, want)
    assert summ == lay.summary()


@SLOW
@given(
    ks=st.sampled_from([(2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 1, 1, 1)]),
    recirculating=st.booleans(),
    budget=budgets,
    workers=st.sampled_from([1, 2, 3]),
)
def test_parallel_grid_identity(ks, recirculating, budget, workers):
    build = chunked_grid_table(ks, recirculating=recirculating,
                               memory_budget_bytes=budget)
    res = build_grid_layout(ks, recirculating=recirculating)
    want = validate_table(res.layout.wire_table(), build.nodes, build.model,
                          graph=res.graph)
    rep, summ = parallel_validate(build, graph=res.graph, workers=workers,
                                  want_stats=True)
    assert_reports_identical(rep, want)
    assert summ == res.layout.summary()


# ---------------------------------------------------------------------------
# invalid tables: capped error messages survive arbitrary span splits
# ---------------------------------------------------------------------------


def _mutate(t: WireTable, which: str) -> WireTable:
    m = WireTable(nets=list(t.nets), indptr=t.indptr.copy(),
                  x1=t.x1.copy(), y1=t.y1.copy(),
                  x2=t.x2.copy(), y2=t.y2.copy(), layer=t.layer.copy())
    h = np.flatnonzero((m.y1 == m.y2) & (m.x1 != m.x2))
    if which == "layer":
        m.layer[0] = 99
    elif which == "many-overlaps":
        m.y1[h] = m.y2[h] = m.y1[h[0]]
    elif which == "bad-net":
        m.nets[0] = (997, 998, 0)
    elif which == "terminal-clash":
        s0, s1 = t.indptr[0], t.indptr[1]
        m.x1[s1] = m.x1[s0]
        m.y1[s1] = m.y1[s0]
    return m


@SLOW
@given(
    which=st.sampled_from(
        ["layer", "many-overlaps", "bad-net", "terminal-clash"]),
    chunk_wires=st.integers(min_value=1, max_value=17),
    workers=st.sampled_from([1, 2, 3]),
)
def test_parallel_mutated_identity(which, chunk_wires, workers):
    lay = collinear_layout(6, 2).layout
    graph = complete_multigraph(6, 2)
    t = _mutate(lay.wire_table(), which)
    want = validate_table(t, lay.nodes, lay.model, graph=graph)
    chunks = [t.slice_wires(lo, lo + chunk_wires)
              for lo in range(0, t.num_wires, chunk_wires)]
    got = parallel_validate(chunks, lay.nodes, lay.model, graph=graph,
                            workers=workers)
    assert_reports_identical(got, want)
    if which == "many-overlaps":
        assert not want.ok and want.num_errors > len(want.errors)


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def test_workers_must_be_positive():
    build = chunked_collinear_table(4, 1)
    with pytest.raises(ValueError, match="workers"):
        parallel_validate(build, workers=0)
    with pytest.raises(ValueError, match="workers"):
        build.validate_and_summarize(workers=-2)


def test_generic_source_requires_nodes_and_model():
    with pytest.raises(ValueError, match="nodes and model"):
        parallel_validate([], workers=1)


def test_empty_source_matches_serial():
    lay = collinear_layout(4, 1).layout
    graph = complete_multigraph(4, 1)
    want = validate_table(lay.wire_table().slice_wires(0, 0), lay.nodes,
                          lay.model, graph=graph)
    for w in (1, 2):
        got, summ = parallel_validate([], lay.nodes, lay.model, graph=graph,
                                      workers=w, want_stats=True)
        assert_reports_identical(got, want)
        assert summ["wires"] == 0
    assert not want.ok  # graph edges have no wires


def test_more_workers_than_chunks_clamps():
    build = chunked_collinear_table(3, 1)  # 3 wires, single chunk
    rep = parallel_validate(build, graph=complete_multigraph(3, 1),
                            workers=8)
    assert rep.ok


def test_build_methods_dispatch_to_parallel():
    build = chunked_collinear_table(6, 1, memory_budget_bytes=4096)
    graph = complete_multigraph(6, 1)
    lay = collinear_layout(6, 1).layout
    rep, summ = build.validate_and_summarize(graph=graph, workers=2)
    assert rep.ok and summ == lay.summary()
    # the consumed-stats pass is reused: summary() must not restream
    assert build.summary() == lay.summary()
    b2 = chunked_collinear_table(6, 1, memory_budget_bytes=4096)
    assert b2.validate_and_summarize(graph=graph, workers=2)[0].ok


def test_validate_table_chunked_workers_kwarg():
    lay = collinear_layout(5, 1).layout
    t = lay.wire_table()
    graph = complete_multigraph(5, 1)
    chunks = [t.slice_wires(i, i + 2) for i in range(0, t.num_wires, 2)]
    want = validate_table(t, lay.nodes, lay.model, graph=graph)
    got = validate_table_chunked(chunks, lay.nodes, lay.model, graph=graph,
                                 workers=2)
    assert_reports_identical(got, want)
