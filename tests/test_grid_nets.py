"""The grid layout's column nets.

:class:`~repro.layout.grid_table.GridNets` replaces a list of one
``((u, s), (v, t), kind)`` tuple per wire.  It must read exactly like
the nets of the legacy object-per-wire builder in ``tests/oracles``:
same length, items, slices and order, and ``==`` to that list both
ways.  The table operations keep it columnar (``take``, ``concat``,
slices), it survives pickling and the validator's nets spill file in
narrow int columns, and it writes the service payload's ``nets_json``
byte for byte as ``json.dumps`` of the tuples.  A valid pass reads no
net at all.
"""

import itertools
import json
import os
import pickle

import numpy as np
import pytest

from repro.layout import (
    build_grid_layout,
    chunked_grid_table,
    grid_graph,
    validate_table_chunked,
)
from repro.layout import chunked
from repro.layout.chunked import _NetFile, _NetReader
from repro.layout.grid_table import GridNets
from repro.layout.wiretable import WireTable
from repro.service import normalize_params
from repro.service.handlers import compute
from repro.transform.swap_butterfly import SwapButterfly

from tests.oracles.builders import build_grid_layout_legacy
from tests.test_wiretable_chunked import assert_reports_identical

# the grid of tests/test_grid_nodes.py
KS = [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1), (3, 3, 3)]


def _legacy_nets(ks, **kw):
    return build_grid_layout_legacy(ks, **kw).layout.wire_table().nets


@pytest.fixture(scope="module")
def b6():
    """The recirculating B_6 grid's column nets and the legacy tuples."""
    nets = build_grid_layout((2, 2, 2), recirculating=True).layout \
        .wire_table().nets
    return nets, _legacy_nets((2, 2, 2), recirculating=True)


@pytest.mark.parametrize("ks", KS, ids=lambda ks: "".join(map(str, ks)))
def test_nets_match_reference(ks):
    for W, L, rec, order in itertools.product(
        (4, 6), (2, 3, 4), (False, True), ("forward", "reversed"),
    ):
        kw = dict(W=W, L=L, recirculating=rec, track_order=order)
        nets = build_grid_layout(ks, **kw).layout.wire_table().nets
        ref = _legacy_nets(ks, **kw)
        assert isinstance(nets, GridNets)
        assert len(nets) == len(ref)
        assert list(nets) == ref
        assert nets == ref and ref == nets


def test_items_and_slices(b6):
    nets, ref = b6
    n = len(ref)
    for i in (0, 1, 37, n - 1, -1, -n, np.int64(5), True):
        assert nets[i] == ref[i]
    (u, s), (v, t), kind = nets[7]
    assert all(type(x) is int for x in (u, s, v, t)) and type(kind) is str
    for i in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            nets[i]
    for i in (1.0, "1", None):
        with pytest.raises(TypeError):
            nets[i]
    for sl in (slice(None), slice(3, 40), slice(-10, None),
               slice(None, None, 3), slice(50, 10, -2), slice(5, 5),
               slice(n, n + 5)):
        part = nets[sl]
        assert isinstance(part, GridNets)
        assert list(part) == ref[sl] and part == ref[sl]
    assert nets[10:20][3] == ref[13]


def test_iteration_and_equality(b6):
    nets, ref = b6
    assert list(iter(nets)) == ref
    assert list(reversed(nets)) == ref[::-1]
    assert ref[9] in nets and nets.index(ref[9]) == 9
    assert nets.count(ref[9]) == ref.count(ref[9])
    assert nets == ref and ref == nets
    assert not (nets != ref) and not (ref != nets)
    assert nets == tuple(ref) and tuple(ref) == nets
    assert nets == nets[:] and not (nets != nets[:])
    other = list(ref)
    (u, s), (v, t), _kind = other[3]
    other[3] = ((u, s), (v, t), "feedback")
    for diff in (other, ref[:-1], ref + [ref[0]], [], ref[::-1]):
        assert nets != diff and diff != nets
        assert not (nets == diff) and not (diff == nets)
    assert nets != nets[:-1]
    assert nets != "abc" and nets != 5 and nets is not None


def test_read_only(b6):
    nets, _ref = b6
    with pytest.raises(TypeError):
        nets[0] = nets[1]
    with pytest.raises(ValueError):
        nets.ends[0, 0] = 1
    with pytest.raises(ValueError):
        nets.kind[0] = 0
    with pytest.raises(ValueError):
        nets[2:5].ends[0, 0] = 1


def test_take(b6):
    nets, ref = b6
    order = np.random.default_rng(3).permutation(len(ref))
    order = np.concatenate([order, order[:9]])
    got = nets.take(order)
    assert isinstance(got, GridNets)
    assert got == [ref[i] for i in order.tolist()]
    assert nets.take(np.zeros(0, dtype=np.int64)) == []


@pytest.mark.parametrize("budget", [8192, 1])
def test_concat_across_chunks(budget):
    ks = (2, 2, 2)
    chunks = list(chunked_grid_table(ks, memory_budget_bytes=budget).chunks())
    assert len(chunks) > 1
    assert all(isinstance(c.nets, GridNets) for c in chunks)
    whole = GridNets.concat([c.nets for c in chunks])
    assert whole == _legacy_nets(ks)
    table = WireTable.concat(chunks)
    assert isinstance(table.nets, GridNets) and table.nets == whole
    assert table == chunked_grid_table(ks).table()


def test_pickle_round_trip(b6):
    nets, ref = b6
    back = pickle.loads(pickle.dumps(nets))
    assert isinstance(back, GridNets) and back == nets and back == ref
    assert back.ends.dtype == np.int64 and back.kind.dtype == np.uint8
    assert not back.ends.flags.writeable
    # rows < 64 and stages <= 6: every endpoint fits a byte
    assert nets.__reduce__()[1][0].dtype == np.uint8
    assert len(pickle.dumps(nets)) < nets.ends.nbytes
    for ends, dtype in (([[0, 0, 300, 7]], np.uint16),
                        ([[2**40, 1, 0, 2]], np.uint64),
                        ([[-1, 0, 300, 7]], np.int64)):
        one = GridNets(np.array(ends), np.array([4]))
        assert one.__reduce__()[1][0].dtype == dtype
        back = pickle.loads(pickle.dumps(one))
        assert back == one and back.ends.dtype == np.int64
    assert pickle.loads(pickle.dumps(nets[:0])) == []


def test_spill_file_round_trip(tmp_path):
    """The nets file holds each chunk's columns, narrow, and reads back
    the same nets by global wire id."""
    ks = (2, 2, 2)
    chunks = list(chunked_grid_table(ks, memory_budget_bytes=8192).chunks())
    ref = _legacy_nets(ks)
    f = _NetFile()
    off = 0
    try:
        for c in chunks:
            f.add(str(tmp_path), off, c.nets)
            off += c.num_wires
    finally:
        f.close()
    assert os.path.getsize(f.path) < sum(c.nets.ends.nbytes for c in chunks)
    reader = _NetReader(f.index)
    for k, c in enumerate(chunks):
        back = reader.chunk(k)
        assert isinstance(back, GridNets) and back == c.nets
    gws = np.array([len(ref) - 1, 0, 400, 401, 5, len(ref) // 2])
    assert reader.take(gws) == [ref[i] for i in gws.tolist()]
    assert [reader(i) for i in range(len(ref))] == ref


def test_json_bytes_match_json_dumps(b6):
    nets, ref = b6
    assert nets.json_bytes() == json.dumps(ref).encode()
    assert nets[:0].json_bytes() == b"[]" == json.dumps([]).encode()
    assert nets[5:6].json_bytes() == json.dumps(ref[5:6]).encode()
    big = GridNets(np.array([[-3, 2**40, 0, 1]]), np.array([3]))
    assert big.json_bytes() == json.dumps(list(big)).encode()
    rev = build_grid_layout((3, 3, 3), L=3, track_order="reversed") \
        .layout.wire_table().nets
    assert rev.json_bytes() == json.dumps(list(rev)).encode()


@pytest.mark.parametrize("budget", [None, 8192, 1])
def test_service_payload_nets_json(budget):
    params = normalize_params("layout", {"ks": [2, 2, 2],
                                         "recirculating": True})
    ex = {} if budget is None else {"memory_budget_bytes": budget}
    _result, arrays = compute("layout", params, ex)
    ref = _legacy_nets((2, 2, 2), recirculating=True)
    assert bytes(arrays["nets_json"]) == json.dumps(ref).encode("utf-8")


def test_mixed_concat_falls_back_to_a_list():
    ks = (2, 2, 2)
    sb = SwapButterfly.from_ks(ks)
    build = chunked_grid_table(ks, memory_budget_bytes=8192)
    chunks = list(build.chunks())
    as_list = [WireTable(nets=list(c.nets), indptr=c.indptr, x1=c.x1,
                         y1=c.y1, x2=c.x2, y2=c.y2, layer=c.layer)
               for c in chunks[1::2]]
    mixed = [c if i % 2 == 0 else as_list[i // 2]
             for i, c in enumerate(chunks)]
    table = WireTable.concat(mixed)
    assert type(table.nets) is list
    assert table.nets == _legacy_nets(ks)
    whole = build.table()
    assert isinstance(whole.nets, GridNets) and table == whole
    nodes, model = build.nodes, build.model
    want = validate_table_chunked([whole], nodes, model,
                                  graph=grid_graph(sb))
    assert want.ok
    assert_reports_identical(
        validate_table_chunked([table], nodes, model, graph=grid_graph(sb)),
        want,
    )
    assert_reports_identical(
        validate_table_chunked(mixed, nodes, model, graph=grid_graph(sb),
                               num_buckets=3),
        want,
    )


@pytest.fixture
def net_reads(monkeypatch):
    """Every net tuple a :class:`GridNets` makes, and every chunk whose
    nets the validator parses back into endpoint rows."""
    reads = []
    getitem, iterate = GridNets.__getitem__, GridNets.__iter__
    parse = chunked._net_end_rows

    def counting_getitem(self, i):
        if not isinstance(i, slice):
            reads.append(("item", i))
        return getitem(self, i)

    def counting_iter(self):
        reads.append(("iter", len(self)))
        return iterate(self)

    def counting_parse(nets, k):
        reads.append(("parse", len(nets)))
        return parse(nets, k)

    monkeypatch.setattr(GridNets, "__getitem__", counting_getitem)
    monkeypatch.setattr(GridNets, "__iter__", counting_iter)
    monkeypatch.setattr(chunked, "_net_end_rows", counting_parse)
    return reads


@pytest.mark.parametrize("budget", [None, 8192, 1])
def test_valid_pass_makes_no_net_tuple(net_reads, budget):
    ks = (2, 2, 2)
    graph = grid_graph(SwapButterfly.from_ks(ks))
    build = chunked_grid_table(ks, memory_budget_bytes=budget)
    assert all(isinstance(c.nets, GridNets) for c in build.chunks())
    rep, summ = build.validate_and_summarize(graph=graph)
    assert rep.ok and summ["wires"] == 768
    assert net_reads == []
