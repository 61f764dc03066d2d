"""The validator's packed sorts and set-up, pinned to what they replace.

* ``_lexsort`` returns exactly ``np.lexsort``'s permutation (hypothesis
  over 1-7 keys of bool, uint8, int32, int64 and uint64, values near
  the ends of each type, ties, lengths 0-300 and nondecreasing trailing
  keys), and each of its three paths — one plain sort, one stable
  argsort, ``np.lexsort`` — is reached.
* The grouped sweeps of a budgeted B_9 pass and of a one-chunk B_8
  validation call neither ``np.lexsort`` nor ``np.unique``.
* ``_fast_template``, the realizes-graph counter's set-up, gives the
  frame, codes and counts of packing ``Graph.to_edge_array``'s rows.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.layout import (
    build_grid_layout,
    chunked_grid_table,
    grid_graph,
    validate_layout,
)
from repro.layout.chunked import _fast_template
from repro.layout.validate import _lexsort
from repro.topology.complete import complete_multigraph
from repro.topology.graph import Graph
from repro.topology.hypercube import hypercube_graph
from repro.transform.swap_butterfly import SwapButterfly

# dtype -> its (min, max)
_RANGES = {
    "bool": (0, 1),
    "uint8": (0, 255),
    "int32": (-(2 ** 31), 2 ** 31 - 1),
    "int64": (-(2 ** 63), 2 ** 63 - 1),
    "uint64": (0, 2 ** 64 - 1),
}
_WIDTHS = (1, 2, 3, 17, 1000, 2 ** 20, 2 ** 31, 2 ** 40, 2 ** 62, 2 ** 64)


@st.composite
def _key_sets(draw):
    """1-7 integer keys of one length: each of a random dtype, its values
    drawn from a window of the dtype's range (one value, a few, or wide)
    anchored at the low end, the high end or inside; the least
    significant key sorted if drawn so."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = []
    for _ in range(draw(st.integers(1, 7))):
        dtype = draw(st.sampled_from(sorted(_RANGES)))
        lo_d, hi_d = _RANGES[dtype]
        width = min(draw(st.sampled_from(_WIDTHS)), hi_d - lo_d + 1)
        lo = draw(st.one_of(
            st.just(lo_d), st.just(hi_d - width + 1),
            st.integers(lo_d, hi_d - width + 1),
        ))
        if dtype == "bool":
            vals = rng.integers(lo, lo + width, size=n) > 0
        else:
            vals = rng.integers(lo, lo + width - 1, size=n, dtype=dtype,
                                endpoint=True)
        keys.append(vals)
    if draw(st.booleans()):
        keys[0] = np.sort(keys[0])
    return keys


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(_key_sets())
@example([np.zeros(0, dtype=np.int64)])
@example([np.arange(5, dtype=np.uint64)])
@example([np.array([2 ** 64 - 1, 0, 2 ** 63, 2 ** 63 - 1], dtype=np.uint64),
          np.array([-(2 ** 63), 2 ** 63 - 1, 0, -1], dtype=np.int64)])
def test_lexsort_is_numpys(keys):
    want = np.lexsort(keys)
    got = _lexsort(keys)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("path", ["sort", "argsort", "lexsort"])
def test_lexsort_reaches_each_path(path, monkeypatch):
    """Packed keys and row index in 63 bits take one plain sort; packed
    keys alone a stable argsort; wider keys ``np.lexsort``."""
    rng = np.random.default_rng(7)
    n = 64
    span = {"sort": 2 ** 20, "argsort": 2 ** 60, "lexsort": 2 ** 40}[path]
    keys = [rng.integers(0, span, size=n) for _ in range(2)]
    if path != "lexsort":
        keys[0] = rng.integers(0, 2, size=n)  # one more bit
    called = []
    for name in ("argsort", "lexsort"):
        real = getattr(np, name)

        def spy(*a, _real=real, _name=name, **k):
            called.append(_name)
            return _real(*a, **k)

        monkeypatch.setattr(np, name, spy)
    got = _lexsort(keys)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, np.lexsort(keys))
    assert called == ([] if path == "sort" else [path])


def test_nondecreasing_trailing_key_is_dropped(monkeypatch):
    """A global wire id (nondecreasing along the rows) costs no bits: the
    other keys and the row index still fit one plain sort."""
    rng = np.random.default_rng(3)
    n = 4096
    wire = np.sort(rng.integers(0, 2 ** 40, size=n))
    keys = [wire, rng.integers(0, 2 ** 40, size=n), rng.integers(0, 2, n)]
    called = []
    monkeypatch.setattr(np, "argsort", lambda *a, **k: called.append(a))
    monkeypatch.setattr(np, "lexsort", lambda *a, **k: called.append(a))
    got = _lexsort(keys)
    monkeypatch.undo()
    assert called == []
    np.testing.assert_array_equal(got, np.lexsort(keys))


def _spy_calls(monkeypatch):
    """Record ``(name, caller file, caller function)`` for every call of
    ``np.lexsort`` and ``np.unique``."""
    calls = []
    for name in ("lexsort", "unique"):
        real = getattr(np, name)

        def spy(*a, _real=real, _name=name, **k):
            code = sys._getframe(1).f_code
            calls.append((_name, code.co_filename, code.co_name))
            return _real(*a, **k)

        monkeypatch.setattr(np, name, spy)
    return calls


def _from_validator(calls):
    return [c for c in calls
            if c[1].endswith(("layout/validate.py", "layout/chunked.py"))]


def test_budgeted_pass_sweeps_call_no_lexsort_or_unique(monkeypatch, tmp_path):
    ks = (3, 3, 3)
    graph = grid_graph(SwapButterfly.from_ks(ks))
    build = chunked_grid_table(ks, memory_budget_bytes=1 << 20)
    calls = _spy_calls(monkeypatch)
    rep, _summ = build.validate_and_summarize(graph=graph, spill_dir=tmp_path)
    monkeypatch.undo()
    assert rep.ok, rep.errors[:3]
    assert list(tmp_path.rglob("segments.i64")), "the pass did not spill"
    # the spy sees the grid source's own sorts, which stay np.lexsort
    assert any(c[2] == "_grid_cats" for c in calls)
    assert _from_validator(calls) == []


def test_one_chunk_validation_calls_no_lexsort_or_unique(monkeypatch):
    ks = (3, 3, 2)
    layout = build_grid_layout(ks).layout
    graph = grid_graph(SwapButterfly.from_ks(ks))
    calls = _spy_calls(monkeypatch)
    rep = validate_layout(layout, graph)
    monkeypatch.undo()
    assert rep.ok, rep.errors[:3]
    assert _from_validator(calls) == []


def _edge_array_template(graph):
    """The set-up's former route: export the distinct canonical edges of
    a purely staged graph, then pack them."""
    if graph._staged_arrays() is None:
        return None
    edges, counts = graph.to_edge_array()
    k = edges.shape[2] if edges.ndim == 3 else 0
    kk = k if k else 1
    packed = Graph._pack_rows(edges.reshape(len(counts), 2 * kk))
    if packed is None:
        return None
    codes, mins, ranges = packed
    return {"k": k, "kk": kk, "codes": codes, "mins": mins,
            "ranges": ranges, "counts": counts}


def _assert_template_equal(graph, staged=True):
    """``_fast_template(graph)`` is the former route's template, which is
    ``None`` exactly when the graph is not ``staged``."""
    want = _edge_array_template(graph)
    got = _fast_template(graph)
    assert (want is None) == (not staged)
    if want is None:
        assert got is None
        return
    assert (got["k"], got["kk"], got["ranges"]) == (
        want["k"], want["kk"], want["ranges"])
    for name in ("codes", "mins", "counts"):
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name])
    np.testing.assert_array_equal(got["got"], np.zeros_like(want["counts"]))


def _valid_ks():
    for ks in itertools.product((1, 2, 3), repeat=3):
        try:
            SwapButterfly.from_ks(ks)
        except ValueError:
            continue
        yield ks


@pytest.mark.parametrize("recirculating", [False, True])
@pytest.mark.parametrize("ks", list(_valid_ks()))
def test_template_equals_edge_array_route_grid(ks, recirculating):
    sb = SwapButterfly.from_ks(ks)
    # grid_graph adds the feedback edges one by one, which leaves no
    # purely staged graph; its staged twin stages them as an array
    _assert_template_equal(grid_graph(sb, recirculating=recirculating),
                           staged=not recirculating)
    if recirculating:
        g = sb.graph()
        rows = np.arange(sb.rows, dtype=np.int64)
        g.add_edges_from(np.stack([
            np.stack([rows, np.full(sb.rows, sb.n)], axis=1),
            np.stack([rows, np.zeros(sb.rows, np.int64)], axis=1),
        ], axis=1))
        _assert_template_equal(g)
        assert g.edge_multiset() == grid_graph(sb, True).edge_multiset()


def test_template_equals_edge_array_route_arity0_and_multigraph():
    _assert_template_equal(hypercube_graph(6))
    # K_7 three times over, staged as repeated rows and as a count
    pairs = np.array(list(itertools.combinations(range(7), 2)), np.int64)
    multi = Graph()
    multi.add_edges_from(np.concatenate([pairs, pairs[:, ::-1], pairs]))
    _assert_template_equal(multi)
    counted = Graph()
    counted.add_edges_from(pairs, count=3)
    _assert_template_equal(counted)
    assert counted.edge_multiset() == complete_multigraph(7, 3).edge_multiset()
    # staged in several chunks: reversed duplicates, per-edge counts
    g = Graph()
    g.add_edges_from(np.array([[3, 1], [1, 3], [2, 5], [9, 0]], np.int64))
    g.add_edges_from(np.array([[5, 2], [1, 3]], np.int64),
                     count=np.array([4, 2], np.int64))
    _assert_template_equal(g)
    t = Graph()
    t.add_edges_from(np.array([[[0, 1], [0, 0]], [[0, 0], [0, 1]],
                               [[2, 0], [1, 3]]], np.int64))
    _assert_template_equal(t)


def test_template_needs_a_staged_graph():
    g = hypercube_graph(3)
    g.nodes()  # materialises the adjacency
    assert _fast_template(g) is None
    assert _fast_template(Graph()) is None
