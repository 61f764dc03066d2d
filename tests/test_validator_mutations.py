"""Failure-injection tests: the validator must catch every mutation class.

A validator that silently passes broken layouts would make the whole
reproduction vacuous, so we take known-good layouts and apply targeted
corruptions, asserting each is flagged.  Each mutation corrupts the
layout's wires as :class:`~tests.oracles.wires.Wire` objects in place;
:func:`mutated` hands the validators the table of the result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout.collinear import collinear_layout
from repro.layout.grid_scheme import build_grid_layout
from repro.layout.validate import MAX_ERRORS_KEPT, validate_layout

from tests.oracles.validate import validate_layout_legacy
from tests.oracles.wires import ObjectLayout, Segment, Wire


def fresh_collinear():
    cl = collinear_layout(6)
    return cl.layout, cl.graph


def fresh_grid():
    res = build_grid_layout((1, 1, 1))
    return res.layout, res.graph


FACTORIES = [fresh_collinear, fresh_grid]


def mutated(layout, mutation, i):
    """``layout`` with ``mutation(·, i)`` applied to its object wires."""
    obj = ObjectLayout.of(layout)
    mutation(obj, i)
    return obj.to_layout()


def mutate_layer_parity(layout, i):
    """Flip one segment onto the wrong-orientation layer."""
    w = layout.wires[i % len(layout.wires)]
    s = w.segments[0]
    bad_layer = 2 if s.layer % 2 == 1 else 1
    w.segments[0] = Segment(s.x1, s.y1, s.x2, s.y2, bad_layer)


def mutate_detach_terminal(layout, i):
    """Translate an entire wire so neither endpoint touches its node."""
    w = layout.wires[i % len(layout.wires)]
    w.segments = [
        Segment(s.x1 + 1000, s.y1 + 1000, s.x2 + 1000, s.y2 + 1000, s.layer)
        for s in w.segments
    ]


def mutate_duplicate_wire(layout, i):
    """Copy a wire verbatim: overlaps, shared terminals, extra edge."""
    w = layout.wires[i % len(layout.wires)]
    layout.wires.append(Wire(net=w.net, segments=list(w.segments)))


def mutate_drop_wire(layout, i):
    del layout.wires[i % len(layout.wires)]


def mutate_break_contiguity(layout, i):
    """Remove a middle segment of a multi-segment wire."""
    for j in range(len(layout.wires)):
        w = layout.wires[(i + j) % len(layout.wires)]
        if len(w.segments) >= 3:
            del w.segments[1]
            return
    pytest.skip("no multi-segment wire")


def mutate_via_passthrough(layout, i):
    """Run a foreign wire straight through another wire's via point."""
    for j in range(len(layout.wires)):
        w = layout.wires[(i + j) % len(layout.wires)]
        vias = w.vias()
        if vias:
            x, y = vias[0]
            layout.wires.append(
                Wire(net=("mut", "via"), segments=[Segment(x - 1, y, x + 1, y, 2)])
            )
            return
    pytest.skip("no via in layout")


def mutate_layer_overflow(layout, i):
    """Push a segment above the model's layer budget."""
    w = layout.wires[i % len(layout.wires)]
    s = w.segments[0]
    bad = s.layer + 2 * (layout.model.num_layers + 2)  # keep parity legal
    w.segments[0] = Segment(s.x1, s.y1, s.x2, s.y2, bad)


MUTATIONS = [
    mutate_layer_parity,
    mutate_detach_terminal,
    mutate_duplicate_wire,
    mutate_drop_wire,
    mutate_break_contiguity,
    mutate_via_passthrough,
    mutate_layer_overflow,
]


@pytest.mark.parametrize("factory", FACTORIES, ids=["collinear", "grid"])
@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_mutation_detected(factory, mutation):
    layout, graph = factory()
    assert validate_layout(layout, graph).ok
    rep = validate_layout(mutated(layout, mutation, 3), graph)
    assert not rep.ok, f"{mutation.__name__} went undetected"


@settings(deadline=None, max_examples=25)
@given(
    st.integers(0, 10_000),
    st.integers(0, len(MUTATIONS) - 1),
)
def test_mutation_detected_property(idx, which):
    layout, graph = fresh_collinear()
    rep = validate_layout(mutated(layout, MUTATIONS[which], idx), graph)
    assert not rep.ok


def test_two_mutations_counted(capsys=None):
    layout, graph = fresh_collinear()
    layout = mutated(layout, mutate_drop_wire, 0)
    layout = mutated(layout, mutate_layer_parity, 1)
    rep = validate_layout(layout, graph)
    assert rep.num_errors >= 2


@pytest.mark.parametrize("factory", FACTORIES, ids=["collinear", "grid"])
@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_mutation_verdict_parity(factory, mutation):
    """Vectorized and legacy validators reject every mutation identically."""
    layout, graph = factory()
    layout = mutated(layout, mutation, 3)
    rep_v = validate_layout(layout, graph)
    rep_l = validate_layout_legacy(layout, graph)
    assert not rep_v.ok and not rep_l.ok
    assert rep_v.checks_run == rep_l.checks_run
    assert rep_v.num_errors == rep_l.num_errors
    # same messages; order differs by design (the sweeps emit sorted)
    if rep_v.num_errors <= MAX_ERRORS_KEPT:
        assert sorted(rep_v.errors) == sorted(rep_l.errors)


@pytest.mark.parametrize("factory", FACTORIES, ids=["collinear", "grid"])
def test_via_conflict_message(factory):
    layout, graph = factory()
    layout = mutated(layout, mutate_via_passthrough, 0)
    for rep in (validate_layout(layout, graph), validate_layout_legacy(layout, graph)):
        assert any("via" in e for e in rep.errors), rep.errors[:5]


@pytest.mark.parametrize("factory", FACTORIES, ids=["collinear", "grid"])
def test_layer_overflow_message(factory):
    layout, graph = factory()
    layout = mutated(layout, mutate_layer_overflow, 0)
    for rep in (validate_layout(layout, graph), validate_layout_legacy(layout, graph)):
        assert any("layer" in e for e in rep.errors), rep.errors[:5]
