"""Differential and property tests pinning the vectorized layout engine
to the legacy object geometry.

The columnar builders and the vectorized validator must be
*indistinguishable* from the object-per-wire originals in
``tests/oracles``: equal tables (the same wires in the same order) and
node maps, same track assignments, same verdicts on valid and corrupted
layouts.  The oracles are kept exactly for this purpose, so every test
here is an oracle comparison, not a golden file.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.layout.ccc_layout import ccc_2d_layout
from repro.layout.collinear import (
    chen_agrawal_track_count,
    collinear_layout,
    naive_track_count,
    optimal_track_count,
    track_assignment,
    track_assignment_arrays,
)
from repro.layout.geometry import LayerPair, THOMPSON_LAYERS
from repro.layout.grid2d import build_grid2d_layout
from repro.layout.grid_scheme import build_grid_layout
from repro.layout.multistage import build_multistage_layout
from repro.layout.validate import MAX_ERRORS_KEPT, validate_layout
from repro.layout.wiretable import WireTable, WireTableBuilder
from repro.topology.benes import benes_boundary_bits
from repro.topology.bitonic import BitonicNetwork
from repro.topology.complete import complete_multigraph
from repro.topology.isn import ISN
from repro.topology.omega import Omega

from tests.oracles.builders import (
    build_grid2d_layout_legacy,
    build_grid_layout_legacy,
    build_multistage_layout_legacy,
    ccc_2d_layout_legacy,
    collinear_layout_legacy,
)
from tests.oracles.validate import validate_layout_legacy
from tests.oracles.wires import (
    ObjectLayout,
    Segment,
    Wire,
    table_to_wires,
    wires_to_table,
)


def assert_same_layout(tab, leg):
    """Equal node maps and equal tables: the same nets and segment
    columns, wire for wire and in order."""
    assert tab.nodes == leg.nodes
    assert tab.wire_table() == leg.wire_table()


# ---------------------------------------------------------------------------
# collinear: table engine vs legacy engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 6, 8])
@pytest.mark.parametrize("mult", [1, 3])
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_collinear_table_matches_legacy(n, mult, order):
    t = collinear_layout(n, multiplicity=mult, order=order)
    l = collinear_layout_legacy(n, multiplicity=mult, order=order)
    assert t.track_of == l.track_of
    assert t.tracks_total == l.tracks_total
    assert_same_layout(t.layout, l.layout)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 11])
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_track_assignment_arrays_match_dict(n, order):
    a, b, t = track_assignment_arrays(n, order)
    want = track_assignment(n, order)
    got = dict(zip(zip(a.tolist(), b.tolist()), t.tolist()))
    assert got == want
    # sorted by (a, b), the object builder's iteration order
    pairs = list(zip(a.tolist(), b.tolist()))
    assert pairs == sorted(pairs)


def test_collinear_engine_validates_both_ways():
    cl = collinear_layout(6, multiplicity=2)
    g = cl.graph
    rep_v = validate_layout(cl.layout, g)
    rep_l = validate_layout_legacy(cl.layout, g)
    assert rep_v.ok and rep_l.ok
    assert rep_v.num_errors == rep_l.num_errors == 0
    assert rep_v.checks_run == rep_l.checks_run


# ---------------------------------------------------------------------------
# grid scheme: table engine vs legacy engine
# ---------------------------------------------------------------------------

GRID_CASES = [
    ((1, 1, 1), 2, "forward", False),
    ((2, 1, 1), 2, "reversed", False),
    ((2, 2, 1), 3, "forward", False),
    ((2, 2, 2), 2, "forward", False),
    ((2, 2, 2), 4, "reversed", True),
    ((2, 1, 1, 1), 2, "forward", False),  # l > 3: union column channels
    ((2, 1, 1, 1), 3, "reversed", True),
]


@pytest.mark.parametrize("ks,L,order,rec", GRID_CASES)
def test_grid_table_matches_legacy(ks, L, order, rec):
    t = build_grid_layout(ks, L=L, track_order=order, recirculating=rec)
    l = build_grid_layout_legacy(ks, L=L, track_order=order,
                                 recirculating=rec)
    assert_same_layout(t.layout, l.layout)


def test_grid_table_validates_like_legacy():
    res = build_grid_layout((2, 2, 1))
    g = res.graph
    rep_v = validate_layout(res.layout, g)
    rep_l = validate_layout_legacy(res.layout, g)
    assert rep_v.ok and rep_l.ok
    assert rep_v.checks_run == rep_l.checks_run


# ---------------------------------------------------------------------------
# grid2d: table engine vs legacy engine
# ---------------------------------------------------------------------------


def _complete_rows(n, mult=1):
    return lambda _i: complete_multigraph(n, mult)


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 4), (1, 5)])
@pytest.mark.parametrize("split", [False, True])
def test_grid2d_table_matches_legacy(rows, cols, split):
    kw = dict(split_channels=split)
    t = build_grid2d_layout(rows, cols, _complete_rows(cols),
                            _complete_rows(rows), **kw)
    l = build_grid2d_layout_legacy(rows, cols, _complete_rows(cols),
                                   _complete_rows(rows), **kw)
    assert_same_layout(t.layout, l.layout)
    rep = validate_layout(t.layout, t.graph)
    assert rep.ok, rep.errors[:3]


# ---------------------------------------------------------------------------
# CCC and stage-column layouts: WireTableBuilder vs the object builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("n", range(2, 9))
def test_ccc_table_matches_legacy(n, L):
    t, l = ccc_2d_layout(n, L=L), ccc_2d_layout_legacy(n, L=L)
    assert t.dims == l.dims
    assert_same_layout(t.layout, l.layout)


def test_ccc_uneven_split_matches_legacy():
    kw = dict(split=(1, 4), W=5, L=3)
    t, l = ccc_2d_layout(5, **kw), ccc_2d_layout_legacy(5, **kw)
    assert t.dims == l.dims
    assert_same_layout(t.layout, l.layout)


def _assert_same_multistage(rows, boundaries, **kw):
    t = build_multistage_layout(rows, boundaries, **kw)
    l = build_multistage_layout_legacy(rows, boundaries, **kw)
    assert t.dims == l.dims
    assert t.graph.same_as(l.graph)
    assert_same_layout(t.layout, l.layout)


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_omega_table_matches_legacy(n, L):
    om = Omega(n)
    _assert_same_multistage(om.rows, om.boundary_link_lists(), L=L,
                            name="omega")


# every stage-column layout that benchmarks/, examples/ and
# tests/test_multistage_bitonic.py build (omega is swept above)
STAGE_COLUMN_CASES = [
    pytest.param(64, list(range(6)), {"name": "bfly-cols"}, id="bfly-64"),
    pytest.param(16, list(range(4)), {"name": "butterfly"}, id="bfly-16"),
    pytest.param(16, list(range(4)), {"L": 4}, id="bfly-16-L4"),
    pytest.param(16, benes_boundary_bits(4), {"name": "benes"}, id="benes-16"),
    pytest.param(16, BitonicNetwork(4).boundaries, {"name": "bitonic"},
                 id="bitonic-16"),
    pytest.param(8, [0, 1, 2], {}, id="bfly-8"),
    pytest.param(8, benes_boundary_bits(3), {}, id="benes-8"),
    pytest.param(8, BitonicNetwork(3).boundaries, {}, id="bitonic-8"),
    pytest.param(32, [0, 4], {}, id="bits-0-4"),
] + [
    pytest.param(ISN.from_ks(ks).rows, ISN.from_ks(ks).boundary_link_lists(),
                 {"name": f"ISN{ks}"}, id=f"isn-{ks}")
    for ks in [(1, 1), (2, 1), (2, 2), (2, 2, 2)]
]


@pytest.mark.parametrize("rows,boundaries,kw", STAGE_COLUMN_CASES)
def test_stage_column_table_matches_legacy(rows, boundaries, kw):
    _assert_same_multistage(rows, boundaries, **kw)


# ---------------------------------------------------------------------------
# WireTable roundtrips and measurements
# ---------------------------------------------------------------------------


def test_wiretable_roundtrip_grid():
    res = build_grid_layout((2, 1, 1))
    t = res.layout.wire_table()
    wires = table_to_wires(t)
    t2 = wires_to_table(wires)
    assert t2.nets == t.nets
    for a, b in (
        (t.indptr, t2.indptr), (t.x1, t2.x1), (t.y1, t2.y1),
        (t.x2, t2.x2), (t.y2, t2.y2), (t.layer, t2.layer),
    ):
        np.testing.assert_array_equal(a, b)


def test_wiretable_equality():
    """Tables are ``==`` by nets, item by item whatever holds them, and
    by their six columns in dtype and values; cached paths do not count."""
    assert WireTable.empty() == WireTable.empty()
    t = build_grid_layout((2, 1, 1), recirculating=True).layout.wire_table()
    twin = wires_to_table(table_to_wires(t))
    assert type(twin.nets) is list and type(t.nets) is not list
    assert t == twin and twin == t and not (t != twin)
    t.paths()
    assert t == twin and t == t.permuted(np.arange(t.num_wires))

    def variant(**kw):
        cols = dict(nets=list(twin.nets), indptr=twin.indptr, x1=twin.x1,
                    y1=twin.y1, x2=twin.x2, y2=twin.y2, layer=twin.layer)
        cols.update(kw)
        return WireTable(**cols)

    assert t == variant(nets=tuple(twin.nets))
    nets = list(twin.nets)
    nets[2] = nets[3]
    layer = twin.layer.copy()
    layer[5] += 2
    for other in (
        variant(nets=nets), variant(layer=layer),
        variant(x2=twin.x2.astype(np.int32)),
        t.permuted(np.arange(t.num_wires)[::-1]), WireTable.empty(),
    ):
        assert t != other and other != t and not (t == other)
    assert t != "table" and t is not None


def test_wiretable_measurements_match_objects():
    res = build_grid_layout((2, 2, 1), L=3)
    t = res.layout.wire_table()
    wires = table_to_wires(t)
    assert t.total_wire_length() == sum(w.length for w in wires)
    assert t.max_wire_length() == max(w.length for w in wires)
    assert t.num_vias() == sum(len(w.vias()) for w in wires)
    np.testing.assert_array_equal(
        t.vias_per_wire(), [len(w.vias()) for w in wires]
    )
    assert t.layers_used() == sorted({s.layer for w in wires for s in w.segments})
    np.testing.assert_array_equal(
        t.wire_lengths(), [w.length for w in wires]
    )


def test_wiretable_paths_match_objects():
    res = build_grid_layout((1, 1, 1), recirculating=True)
    t = res.layout.wire_table()
    p = t.paths()
    assert not p.bad.any()
    for i, w in enumerate(table_to_wires(t)):
        s, e = int(p.pt_indptr[i]), int(p.pt_indptr[i + 1])
        pts = list(zip(p.px[s:e].tolist(), p.py[s:e].tolist()))
        assert pts == w.path_points()


def test_wiretable_rejects_bad_segments():
    nets = [("w",)]
    ind = np.array([0, 1])
    one = np.array([1])
    with pytest.raises(ValueError, match="axis-aligned"):
        WireTable.from_segment_arrays(nets, ind, one, one, one + 1, one + 2, one)
    with pytest.raises(ValueError, match="zero-length"):
        WireTable.from_segment_arrays(nets, ind, one, one, one, one, one)
    with pytest.raises(ValueError, match="layer"):
        WireTable.from_segment_arrays(nets, ind, one, one, one + 1, one, one * 0)


# ---------------------------------------------------------------------------
# randomized wires: table <-> objects (hypothesis, no new deps)
# ---------------------------------------------------------------------------


@st.composite
def rect_path(draw):
    """A rectilinear path with no immediate backtracking."""
    x = draw(st.integers(0, 40))
    y = draw(st.integers(0, 40))
    pts = [(x, y)]
    prev = None  # (axis, sign)
    for _ in range(draw(st.integers(1, 6))):
        axis = draw(st.booleans())
        sign = draw(st.booleans())
        if prev is not None and prev[0] == axis:
            sign = prev[1]  # same axis keeps direction: no backtrack
        d = draw(st.integers(1, 5)) * (1 if sign else -1)
        if axis:
            x += d
        else:
            y += d
        pts.append((x, y))
        prev = (axis, sign)
    return pts


# layer pairs that share a layer, so a straight run continuing from one
# leg into the next on that layer merges across the legs
_LEG_PAIRS = [THOMPSON_LAYERS, LayerPair(1, 4), LayerPair(3, 2),
              LayerPair(3, 4)]


@st.composite
def rect_legs(draw):
    """A :func:`rect_path` cut into consecutive legs that share their
    end points, each wired on its own layer pair."""
    pts = draw(rect_path())
    cuts = (sorted(draw(st.sets(st.integers(1, len(pts) - 2), max_size=3)))
            if len(pts) > 2 else [])
    ends = [0, *cuts, len(pts) - 1]
    return [(pts[a:b + 1], draw(st.sampled_from(_LEG_PAIRS)))
            for a, b in zip(ends, ends[1:])]


@settings(deadline=None, max_examples=60)
@given(st.lists(rect_legs(), min_size=1, max_size=5))
# a vertical run continuing on layer 1 from one leg into the next
@example(wire_legs=[[([(0, 0), (0, 3)], THOMPSON_LAYERS),
                     ([(0, 3), (0, 5), (4, 5)], LayerPair(1, 4))]])
def test_random_wires_roundtrip(wire_legs):
    wires = [Wire.from_legs(("net", i), legs)
             for i, legs in enumerate(wire_legs)]
    t = wires_to_table(wires)
    assert table_to_wires(t) == wires
    # the table builder's merge_legs gives the same segments
    tb = WireTableBuilder()
    for i, legs in enumerate(wire_legs):
        if len(legs) == 1:
            tb.add_path(("net", i), *legs[0])
        else:
            tb.add_legs(("net", i), legs)
    assert tb.build() == t
    p = t.paths()
    assert not p.bad.any()
    for i, w in enumerate(wires):
        s, e = int(p.pt_indptr[i]), int(p.pt_indptr[i + 1])
        got = list(zip(p.px[s:e].tolist(), p.py[s:e].tolist()))
        assert got == w.path_points()
        assert int(t.vias_per_wire()[i]) == len(w.vias())


# ---------------------------------------------------------------------------
# randomized corruption: both validators must agree on every verdict
# ---------------------------------------------------------------------------
# each mutation corrupts an ObjectLayout's wire list in place; the test
# hands the validators the table of the result


def _rand_shift_track(layout, rng):
    w = layout.wires[rng.randrange(len(layout.wires))]
    j = rng.randrange(len(w.segments))
    s = w.segments[j]
    dy = rng.choice([-2, -1, 1, 2])
    w.segments[j] = Segment(s.x1, s.y1 + dy, s.x2, s.y2 + dy, s.layer)


def _rand_relayer(layout, rng):
    w = layout.wires[rng.randrange(len(layout.wires))]
    j = rng.randrange(len(w.segments))
    s = w.segments[j]
    w.segments[j] = Segment(s.x1, s.y1, s.x2, s.y2, rng.randint(1, 5))


def _rand_drop(layout, rng):
    del layout.wires[rng.randrange(len(layout.wires))]


def _rand_duplicate(layout, rng):
    w = layout.wires[rng.randrange(len(layout.wires))]
    layout.wires.append(Wire(net=w.net, segments=list(w.segments)))


def _rand_translate(layout, rng):
    w = layout.wires[rng.randrange(len(layout.wires))]
    dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
    w.segments = [
        Segment(s.x1 + dx, s.y1 + dy, s.x2 + dx, s.y2 + dy, s.layer)
        for s in w.segments
    ]


def _rand_truncate(layout, rng):
    w = layout.wires[rng.randrange(len(layout.wires))]
    if len(w.segments) > 1:
        del w.segments[rng.randrange(len(w.segments))]


_RANDOM_MUTATIONS = [
    _rand_shift_track,
    _rand_relayer,
    _rand_drop,
    _rand_duplicate,
    _rand_translate,
    _rand_truncate,
]


def _assert_same_errors(rep_v, rep_l):
    """Same error count and, when none were dropped, the same messages;
    their order differs by design (the sweeps emit in sorted order)."""
    assert rep_v.num_errors == rep_l.num_errors
    if rep_v.num_errors <= MAX_ERRORS_KEPT:
        assert sorted(rep_v.errors) == sorted(rep_l.errors)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_random_mutation_verdict_parity(seed, n_mut):
    rng = random.Random(seed)
    cl = collinear_layout(5, multiplicity=2)
    obj, graph = ObjectLayout.of(cl.layout), cl.graph
    for _ in range(n_mut):
        _RANDOM_MUTATIONS[rng.randrange(len(_RANDOM_MUTATIONS))](obj, rng)
    layout = obj.to_layout()
    rep_v = validate_layout(layout, graph)
    rep_l = validate_layout_legacy(layout, graph)
    assert rep_v.ok == rep_l.ok
    assert rep_v.checks_run == rep_l.checks_run
    _assert_same_errors(rep_v, rep_l)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**9))
def test_random_mutation_verdict_parity_grid(seed):
    rng = random.Random(seed)
    res = build_grid_layout((1, 1, 1))
    obj, graph = ObjectLayout.of(res.layout), res.graph
    _RANDOM_MUTATIONS[rng.randrange(len(_RANDOM_MUTATIONS))](obj, rng)
    layout = obj.to_layout()
    rep_v = validate_layout(layout, graph)
    rep_l = validate_layout_legacy(layout, graph)
    assert rep_v.ok == rep_l.ok
    _assert_same_errors(rep_v, rep_l)


def _rand_through_via(layout, rng):
    """A foreign one-segment wire through a via point of another wire, on
    a random layer of either orientation."""
    vias = []
    for w in layout.wires:
        try:
            vias.extend(w.vias())
        except ValueError:  # an earlier mutation broke this wire's path
            continue
    x, y = vias[rng.randrange(len(vias))]
    layer = rng.randint(1, layout.model.num_layers)
    seg = (Segment(x - 1, y, x + 2, y, layer) if rng.randrange(2)
           else Segment(x, y - 1, x, y + 2, layer))
    layout.wires.insert(rng.randrange(len(layout.wires) + 1),
                        Wire(net=("mut", "via"), segments=[seg]))


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_random_mutation_verdict_parity_multilayer(seed, n_mut):
    """At L = 4 a via column spans up to four layers, two of each
    orientation, and the via-vs-segment sweep expands it only on the
    layers that hold segments of the orientation it checks."""
    rng = random.Random(seed)
    res = build_grid_layout((2, 1, 1), L=4)
    obj, graph = ObjectLayout.of(res.layout), res.graph
    mutations = _RANDOM_MUTATIONS + [_rand_through_via]
    for _ in range(n_mut):
        mutations[rng.randrange(len(mutations))](obj, rng)
    layout = obj.to_layout()
    rep_v = validate_layout(layout, graph)
    rep_l = validate_layout_legacy(layout, graph)
    assert rep_v.ok == rep_l.ok
    assert rep_v.checks_run == rep_l.checks_run
    _assert_same_errors(rep_v, rep_l)


# ---------------------------------------------------------------------------
# Appendix B oracle: brute-force minimal track counts for K_2..K_8
# ---------------------------------------------------------------------------


def _cut_lower_bound(n):
    """Max number of links whose open intervals cross a common cut — a hard
    lower bound on tracks (pairwise-overlapping links need distinct ones)."""
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return max(
        sum(1 for a, b in links if a <= x < b) for x in range(n - 1)
    )


def _greedy_left_edge(n):
    """Independent left-edge reimplementation: exact for interval graphs."""
    links = sorted(
        ((a, b) for a in range(n) for b in range(a + 1, n)),
        key=lambda e: (e[0], e[1]),
    )
    track_right = []  # rightmost endpoint per track
    for a, b in links:
        for t, r in enumerate(track_right):
            if r <= a:  # end-to-end chaining allowed
                track_right[t] = b
                break
        else:
            track_right.append(b)
    return len(track_right)


def _exact_min_tracks(n):
    """Exhaustive backtracking minimum coloring of the link conflict graph
    (open-interval overlaps).  Exponential; used only for tiny n."""
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    m = len(links)
    conflicts = [
        [
            j
            for j in range(m)
            if j != i
            and max(links[i][0], links[j][0]) < min(links[i][1], links[j][1])
        ]
        for i in range(m)
    ]

    def colorable(k):
        color = [-1] * m

        def rec(i):
            if i == m:
                return True
            used = {color[j] for j in conflicts[i] if color[j] >= 0}
            for c in range(k):
                if c not in used:
                    color[i] = c
                    if rec(i + 1):
                        return True
                    color[i] = -1
                if c > max(color[:i], default=-1):
                    break  # symmetry: first use of a fresh color only
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


@pytest.mark.parametrize("n", range(2, 9))
def test_appendix_b_minimal_track_oracle(n):
    lo = _cut_lower_bound(n)
    hi = _greedy_left_edge(n)
    assert lo == hi == optimal_track_count(n) == n * n // 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_appendix_b_exact_coloring_oracle(n):
    assert _exact_min_tracks(n) == optimal_track_count(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_track_assignment_achieves_oracle(n):
    assign = track_assignment(n)
    used = set(assign.values())
    assert used == set(range(optimal_track_count(n)))
    # conflict-freedom: same-track links chain end-to-end, never overlap
    by_track = {}
    for (a, b), t in assign.items():
        by_track.setdefault(t, []).append((a, b))
    for t, ivs in by_track.items():
        ivs.sort()
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 <= a2, f"track {t}: ({a1},{b1}) overlaps ({a2},{b2})"


def test_prior_bound_edge_cases():
    # K_2: the closed form gives 0; clamped to the single needed track
    assert chen_agrawal_track_count(2) == 1
    assert chen_agrawal_track_count(4) == 4
    assert chen_agrawal_track_count(8) == 20
    # non-powers round the exponent up
    assert chen_agrawal_track_count(5) == chen_agrawal_track_count(8)
    with pytest.raises(ValueError):
        chen_agrawal_track_count(1)
    for n in range(2, 9):
        assert naive_track_count(n) == n * (n - 1) // 2
        assert optimal_track_count(n) <= chen_agrawal_track_count(n) or n < 4
