"""The grid layout's array-backed node map.

:class:`~repro.layout.grid_table.GridNodes` replaces a dict of one
``Rect`` per node.  It must read exactly like that dict (the reference
``build_grid_nodes_legacy`` in ``tests/oracles``): same keys, same
iteration order, same rects, and the same answer for every key a
caller may try, placed or not.  The validator reads its columns
instead of its rects, so it must give the same verdict with the array
map as with ``dict(nodes)`` on every mutated grid layout, and a valid
pass must make no ``Rect`` at all.  The same verdicts must come with
the grid's column nets (:class:`~repro.layout.grid_table.GridNets`) as
with ``list(nets)``.
"""

import itertools

import numpy as np
import pytest

from repro.layout import (
    Rect,
    build_grid_layout,
    chunked_grid_table,
    grid_dims,
    grid_graph,
    validate_table_chunked,
)
from repro.layout.grid_table import (
    _KIND, GridNets, GridNodes, build_grid_nodes,
)
from repro.transform.swap_butterfly import SwapButterfly

from tests.oracles.builders import build_grid_nodes_legacy
from tests import test_validator_mutations as layout_mutations
from tests.test_wiretable_chunked import (
    MUTATIONS as TABLE_MUTATIONS,
    _mutate,
    assert_reports_identical,
)

# grid_dims needs >= 3 levels and a node side >= 4, so (1, 1, 1) and
# W = 6 stand where a two-level ks and W = 1 would be rejected
KS = [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3, 3)]


def _pair(ks, W=4, L=2, recirculating=False):
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    sb = SwapButterfly.from_ks(dims.ks)
    return build_grid_nodes(sb, dims), build_grid_nodes_legacy(sb, dims)


@pytest.mark.parametrize("ks", KS, ids=lambda ks: "".join(map(str, ks)))
def test_nodes_match_reference(ks):
    for W, L, rec in itertools.product((4, 6), (2, 3, 4), (False, True)):
        nodes, ref = _pair(ks, W, L, rec)
        assert isinstance(nodes, GridNodes)
        assert list(nodes) == list(ref)
        assert list(nodes.keys()) == list(ref.keys())
        assert list(nodes.values()) == list(ref.values())
        assert list(nodes.items()) == list(ref.items())
        x, y, x2, y2 = nodes.rect_columns()
        assert x.tolist() == [r.x for r in ref.values()]
        assert y2.tolist() == [r.y2 for r in ref.values()]


def test_mapping_contract():
    nodes, ref = _pair((2, 2, 2), recirculating=True)
    assert len(nodes) == len(ref)
    assert nodes == ref and ref == nodes
    assert not (nodes != ref)
    assert dict(nodes) == ref
    assert list(dict(nodes)) == list(ref)
    for key in list(ref)[::37]:
        assert key in nodes
        assert nodes[key] == ref[key]
        assert nodes.get(key) == ref[key]
    other = dict(ref)
    other[(0, 0)] = Rect(0, 0, 5, 5)
    assert nodes != other
    with pytest.raises(TypeError):
        nodes[(0, 0)] = Rect(0, 0, 4, 4)
    with pytest.raises(ValueError):
        nodes.x[0] = 1


def test_keys_behave_as_in_the_reference_dict():
    nodes, ref = _pair((3, 2, 1))
    rows, stages = len(ref) // 7, 7
    keys = [
        ("a", 0), (0, "a"), (-1, 0), (0, -1), (rows, 0), (0, stages),
        (rows - 1, stages - 1), (np.int64(5), np.int64(3)),
        (np.int32(0), 0), (np.uint8(2), np.int16(6)), (True, 0), (1.0, 2),
        (1.5, 0), (0,), (0, 0, 0), 0, "a", None, (2**70, 0),
    ]
    missing = object()
    for key in keys:
        assert (key in nodes) == (key in ref), key
        assert nodes.get(key, missing) == ref.get(key, missing), key
        if key in ref:
            assert nodes[key] == ref[key]
        else:
            with pytest.raises(KeyError):
                nodes[key]
    for key in ([0, 0], ([0], 0)):
        for m in (nodes, ref):
            with pytest.raises(TypeError):
                key in m
    lookup = nodes.find_all(
        np.array([0, -1, rows, 5, rows - 1]), np.array([0, 0, 0, 3, 7])
    )
    assert lookup.tolist() == [
        list(ref).index((0, 0)), -1, -1, list(ref).index((5, 3)), -1,
    ]


def test_add_node_copies_to_a_dict():
    lay = build_grid_layout((1, 1, 1)).layout
    grid = lay.nodes
    assert isinstance(grid, GridNodes)
    with pytest.raises(ValueError, match="already placed"):
        lay.add_node((0, 0), Rect(0, 0, 4, 4))
    assert lay.nodes is grid
    lay.add_node(("io", 0), Rect(-10, -10, 4, 4))
    assert type(lay.nodes) is dict
    assert list(lay.nodes)[:-1] == list(grid)
    assert lay.nodes[("io", 0)] == Rect(-10, -10, 4, 4)
    assert len(grid) == len(lay.nodes) - 1
    assert lay.bounding_box()[:2] == (-10, -10)


@pytest.fixture
def count_rects(monkeypatch):
    made = []
    post_init = Rect.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Rect, "__post_init__", counting)
    return made


@pytest.mark.parametrize("budget", [None, 8192, 1])
def test_valid_pass_makes_no_rect(count_rects, budget):
    ks = (2, 2, 2)
    graph = grid_graph(SwapButterfly.from_ks(ks))
    build = chunked_grid_table(ks, memory_budget_bytes=budget)
    rep, summ = build.validate_and_summarize(graph=graph)
    assert rep.ok and summ["nodes"] == 448
    lay = build_grid_layout(ks).layout
    assert lay.summary() == summ
    assert count_rects == []


# ---------------------------------------------------------------------------
# verdict identity: array-backed nodes against dict(nodes)
# ---------------------------------------------------------------------------


def _column_nets(nets):
    """``nets`` as :class:`GridNets` when every net is a grid link
    ``((u, s), (v, t), kind)``; a list otherwise (a mutation's foreign
    net keeps its chunk's nets as tuples)."""
    ends, kinds = [], []
    for net in nets:
        try:
            (u, s), (v, t), kind = net
        except (TypeError, ValueError):
            return list(nets)
        if kind not in _KIND or {type(x) for x in (u, s, v, t)} != {int}:
            return list(nets)
        ends.append((u, s, v, t))
        kinds.append(_KIND.index(kind))
    return GridNets(np.array(ends, dtype=np.int64).reshape(-1, 4), kinds)


def _assert_same_verdicts(t, ks, model):
    """The array-backed nodes of the ``ks`` grid and ``dict(nodes)``,
    each with column nets and with ``list(nets)``, give one report on
    table ``t`` at budgets none, 8192 and 1: ``t`` is cut where the grid
    source cuts its chunks at that budget, the last chunk taking any
    wires a mutation added."""
    sb = SwapButterfly.from_ks(ks)
    nodes = build_grid_nodes(sb, grid_dims(ks))
    for budget in (None, 8192, 1):
        sizes = [c.num_wires for c in
                 chunked_grid_table(ks, memory_budget_bytes=budget).chunks()]
        cuts = np.cumsum([0] + sizes[:-1]).tolist() + [t.num_wires]
        reports = []
        for ns, nets_of in itertools.product(
            (nodes, dict(nodes)), (_column_nets, list),
        ):
            chunks = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                c = t.slice_wires(lo, hi)
                c.nets = nets_of(c.nets)
                chunks.append(c)
            reports.append(validate_table_chunked(
                chunks, ns, model, graph=grid_graph(sb), num_buckets=3,
            ))
        for rep in reports[1:]:
            assert_reports_identical(rep, reports[0])


@pytest.mark.parametrize(
    "mutation", layout_mutations.MUTATIONS, ids=lambda m: m.__name__,
)
def test_layout_mutation_verdicts(mutation):
    """``tests/test_validator_mutations.py``'s grid case."""
    lay, _graph = layout_mutations.fresh_grid()
    lay = layout_mutations.mutated(lay, mutation, 3)
    assert isinstance(lay.nodes, GridNodes)
    _assert_same_verdicts(lay.wire_table(), (1, 1, 1), lay.model)


# the one kind that edits the node map itself has no array-backed form
@pytest.mark.parametrize(
    "which", [w for w in TABLE_MUTATIONS if w != "unplace-node"],
)
def test_table_mutation_verdicts(which):
    """``tests/test_wiretable_chunked.py``'s B_6 grid case."""
    ks = (2, 2, 2)
    lay = build_grid_layout(ks).layout
    t, _nodes = _mutate(lay.wire_table(), lay.nodes, which,
                        np.random.default_rng(7))
    _assert_same_verdicts(t, ks, lay.model)
