"""Public-API sanity: everything advertised in ``__all__`` exists and the
top-level quickstart from the README works verbatim."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.topology",
    "repro.transform",
    "repro.layout",
    "repro.packaging",
    "repro.analysis",
    "repro.algorithms",
    "repro.viz",
]


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_exports_resolve(pkg):
    mod = importlib.import_module(pkg)
    assert hasattr(mod, "__all__") and mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"{pkg}.{name} missing"


def test_no_duplicate_exports():
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        assert len(set(mod.__all__)) == len(mod.__all__), pkg


def test_readme_quickstart():
    from repro import build_grid_layout, validate_layout, verify_automorphism

    ks = (2, 2, 2)
    assert verify_automorphism(ks)
    res = build_grid_layout(ks, L=4)
    validate_layout(res.layout, res.graph).raise_if_failed()
    s = res.layout.summary()
    assert s["area"] > 0 and s["max_wire_length"] > 0


def test_one_wire_representation():
    """A layout's wires are stored one way: ``repro.layout`` defines no
    ``Wire`` or ``Segment``, and a ``Layout`` holds only a table."""
    import repro.layout
    import repro.layout.geometry
    from repro.layout import Layout, WireTable, thompson_model

    for mod in (repro.layout, repro.layout.geometry):
        for name in ("Wire", "Segment"):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    lay = Layout(model=thompson_model())
    for name in ("wires", "add_wire"):
        assert not hasattr(lay, name), name
    assert lay.wire_table() == WireTable.empty()


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_every_public_item_documented():
    """Every name in every subpackage __all__ carries a docstring — the
    API reference (docs/api.md) is generated from them."""
    import inspect

    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{pkg}.{name} lacks a docstring"
