"""One parameter spec for every front end.

``PARAM_SPECS`` (and ``EXEC_PARAM_SPECS``) in :mod:`repro.service.handlers`
are the only place a query parameter's name, type, default and bound are
written.  The ``repro`` CLI generates its query flags from them, HTTP
normalizes through them, the campaign grid checks the values it feeds
through them, and a campaign stage's proof argv is formatted from them.
These tests hold the front ends to one another.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.campaign import (
    STAGES,
    CampaignPoint,
    GridError,
    normalize_grid,
    run_stage,
    stage_argv,
)
from repro.campaign import grid as grid_mod
from repro.cli import _query_params, build_parser, main
from repro.service import make_server
from repro.service.handlers import (
    EXEC_PARAM_SPECS,
    PARAM_SPECS,
    QueryError,
    normalize_params,
    param_flag,
    params_argv,
    split_exec_params,
)

PARSER = build_parser()

#: The subcommand that asks each kind's query, and the flags it needs
#: besides the one under test; ``sim`` runs the engine's full window so
#: no drawn ``cycles`` or ``warmup`` trips the warmup < cycles rule.
CLI = {
    "layout": (["layout"], {"ks": "2,2,2"}),
    "dims": (["dims"], {"ks": "2,2,2"}),
    "package": (["package"], {"ks": "2,2,2"}),
    "benes": (["benes"], {"n": "3", "batch": "2"}),
    "sim": (["sim"], {"n": "3", "rate": "0.5", "cycles": "1000000",
                      "warmup": "0"}),
    "saturation": (["sim", "--saturation"], {"n": "3"}),
}
EXEC_FLAGS = {"memory_budget_bytes": "--memory-budget"}

#: ``(kind, param) -> grid spec key path`` for the grid-fed parameters.
GRID = {
    ("layout", "ks"): ("ks",),
    ("layout", "layers"): ("layers",),
    ("sim", "rate"): ("rate",),
    **{kp: ("config", k) for k, kp in grid_mod._SERVICE_PARAMS.items()},
    **{kp: ("config", k) for k, kp in grid_mod._EXEC_PARAMS.items()},
}
GRID_BASE_CONFIG = {"cycles": 1_000_000, "warmup": 0}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flag(kind: str, name: str):
    """The CLI flag of ``kind``'s parameter ``name``, or ``None``."""
    flag = EXEC_FLAGS.get(name, param_flag(name))
    sp = _subparsers(PARSER)[CLI[kind][0][0]]
    return flag if flag in sp._option_string_actions else None


def _conv(kind: str, name: str):
    if name in PARAM_SPECS[kind]:
        return PARAM_SPECS[kind][name][0]
    return EXEC_PARAM_SPECS[kind][name]


CASES = [
    (kind, name)
    for kind in PARAM_SPECS
    for name in [*PARAM_SPECS[kind], *EXEC_PARAM_SPECS.get(kind, {})]
    if not getattr(_conv(kind, name), "flag", False)  # nothing to draw
]


def test_every_parameter_is_shared_by_two_front_ends():
    for kind, name in CASES:
        fronts = 1 + (_flag(kind, name) is not None) + ((kind, name) in GRID)
        assert fronts >= 2, (kind, name)


def _around(lo, hi, integral: bool):
    """Numbers on and around the bounds ``lo``/``hi`` (``None``: open)."""
    edges = [b for b in (lo, hi) if b is not None] or [0]
    ints = st.one_of(*(st.integers(b - 3, b + 3) for b in edges),
                     st.integers(-10**20, 10**20))
    floats = st.one_of(
        st.sampled_from([float(b) + d for b in edges
                         for d in (-1.0, -0.5, 0.0, 0.5, 1.0)]),
        *(st.floats(b - 1e-6, b + 1e-6) for b in edges),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    return st.one_of(ints, floats) if integral else st.one_of(floats, ints)


def _values(conv):
    """JSON values to try for a parameter, drawn around its bound."""
    if getattr(conv, "choices", None):
        return st.one_of(st.sampled_from(conv.choices),
                         st.sampled_from(["", "Forward", "rows", "1"]),
                         st.integers(-2, 2))
    lo, hi = getattr(conv, "bounds", (None, None))
    if conv is PARAM_SPECS["layout"]["ks"][0]:
        # lo bounds each entry, hi bounds their sum
        entry = st.one_of(st.integers(lo - 2, lo + 2),
                          st.sampled_from([1.0, 2.0, 2.5]))
        return st.one_of(
            st.lists(entry, min_size=1, max_size=4),
            st.integers(hi - 3, hi + 3).map(lambda s: [s - 12, 6, 6]),
        )
    return _around(lo, hi, integral=isinstance(lo, int))


def _text(v) -> str:
    """The CLI / query-string spelling of a JSON value."""
    if isinstance(v, list):
        return ",".join(_text(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _cli_accepts(kind: str, name: str, text: str) -> bool:
    cmd, base = CLI[kind]
    argv = [*cmd, *(f"{param_flag(k)}={v}" for k, v in base.items()),
            f"{_flag(kind, name)}={text}"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            PARSER.parse_args(argv)
    except SystemExit as e:
        assert e.code == 2
        return False
    return True


def _http_accepts(kind: str, name: str, text: str) -> bool:
    # the GET route's path: query-string values go to query() verbatim
    try:
        design, _ex = split_exec_params(kind, {**CLI[kind][1], name: text})
        normalize_params(kind, design)
    except QueryError:
        return False
    return True


def _grid_accepts(kind: str, name: str, value) -> bool:
    path = GRID[(kind, name)]
    spec = {"ks": [[1, 1, 1]], "config": dict(GRID_BASE_CONFIG)}
    if path[0] == "config":
        spec["config"][path[1]] = value
    else:
        spec[path[0]] = [value]
    try:
        normalize_grid(spec)
    except GridError:
        return False
    return True


@pytest.mark.parametrize("kind, name", CASES,
                         ids=[f"{k}.{n}" for k, n in CASES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_front_ends_accept_the_same_values(kind, name, data):
    value = data.draw(_values(_conv(kind, name)))
    if (kind, name) == ("sim", "warmup"):
        # warmup < cycles (1,000,000 here) is the sim query's rule across
        # two parameters, not warmup's bound; a direct CLI run has no
        # such rule
        assume(value != 1_000_000)
    text = _text(value)
    verdicts = {"http": _http_accepts(kind, name, text)}
    if _flag(kind, name) is not None:
        verdicts["cli"] = _cli_accepts(kind, name, text)
    if (kind, name) in GRID:
        verdicts["grid"] = _grid_accepts(kind, name, value)
    assert len(set(verdicts.values())) == 1, (value, verdicts)


def test_help_names_each_bound():
    subs = _subparsers(PARSER)
    checked = 0
    for kind, name in CASES:
        flag = _flag(kind, name)
        if flag is None:
            continue
        sp = subs[CLI[kind][0][0]]
        action = sp._option_string_actions[flag]
        help_text = " ".join((action.help or "").split())
        assert " ".join(_conv(kind, name).describe.split()) in help_text, \
            (kind, name, action.help)
        assert " ".join(_conv(kind, name).describe.split()) in \
            " ".join(sp.format_help().split())
        checked += 1
    assert checked >= 20


def test_spec_defaults_reach_the_cli():
    # every generated flag of layout, dims, package and benes (benes'
    # n and batch aside: --perm and the single mode leave them unset)
    subs = _subparsers(PARSER)
    for kind, unset in (("layout", {}), ("dims", {}),
                        ("package", {"ks"}), ("benes", {"n", "batch"})):
        for name, (_conv_, default) in PARAM_SPECS[kind].items():
            action = subs[kind]._option_string_actions[param_flag(name)]
            expect = None if name in unset or default is ... else default
            assert action.default == expect, (kind, name)


def test_every_grid_config_key_has_a_campaign_run_flag():
    """``campaign run``'s flags are equivalent to the grid: each config
    key has a flag, and what the flag takes lands in the spec's config
    under that key, which the grid then accepts."""
    from repro.cli import _campaign_spec

    flags = {
        "node_side": ("--node-side", "5", 5),
        "track_order": ("--track-order", "reversed", "reversed"),
        "cycles": ("--cycles", "700", 700),
        "warmup": ("--warmup", "50", 50),
        "benes_batch": ("--benes-batch", "3", 3),
        "threshold": ("--threshold", "0.9", 0.9),
        "sat_max_n": ("--sat-max-n", "4", 4),
        "seed": ("--seed", "7", 7),
        "layout_memory_budget": ("--memory-budget", "65536", 65536),
    }
    assert set(flags) == set(grid_mod.CONFIG_DEFAULTS)
    run = ["campaign", "run", "--ks", "1,1,1"]
    for key, (flag, text, value) in flags.items():
        spec = _campaign_spec(PARSER.parse_args([*run, flag, text]))
        assert spec["config"] == {key: value}, key
    argv = [*run, *(a for flag, text, _v in flags.values()
                    for a in (flag, text))]
    spec = _campaign_spec(PARSER.parse_args(argv))
    assert spec["config"] == {k: v for k, (_f, _t, v) in flags.items()}
    cfg = normalize_grid(spec)["config"]
    assert all(cfg[k] == v for k, (_f, _t, v) in flags.items())
    # the threshold flag is typed by the saturation query's converter
    with pytest.raises(SystemExit), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        PARSER.parse_args([*run, "--threshold", "inf"])
    with pytest.raises(QueryError) as want:
        _conv("saturation", "threshold")("inf", "threshold")
    assert f"argument --threshold: {want.value}" in err.getvalue()


def test_params_argv_formats_normalized_params():
    p = normalize_params("layout", {"ks": [3, 2, 1], "recirculating": True,
                                    "layers": 4})
    assert params_argv("layout", p) == [
        "--ks", "3,2,1", "--layers", "4", "--node-side", "4",
        "--track-order", "forward", "--recirculating",
    ]
    # None and False are left out; a missing parameter takes its default
    assert params_argv("sim", {"n": 4, "rate": 0.5}) == [
        "-n", "4", "--rate", "0.5", "--cycles", "600", "--warmup", "100",
        "--seed", "0",
    ]


#: A point and a non-default config: every primary query's params differ
#: from the CLI's defaults.
POINT = CampaignPoint(index=0, ks=(2, 1, 1), layers=4, pin_limit=None,
                      rate=0.7)
CONFIG = normalize_grid({
    "ks": [[2, 1, 1]],
    "config": {"cycles": 300, "warmup": 30, "seed": 5, "node_side": 5,
               "track_order": "reversed", "benes_batch": 5,
               "sat_max_n": 0},
})["config"]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_argv_round_trips(stage):
    """Replaying a stage's proof argv asks for the query the stage ran:
    parsed by the CLI and collected back, it normalizes to the params of
    the stage's primary result (the saturation stage's is its sim)."""
    argv = stage_argv(stage, POINT, CONFIG)
    rec = run_stage(stage, POINT, CONFIG, store=None)
    assert rec["status"] == "ok" and rec["proof"]["argv"] == argv
    result = rec["result"]["sim"] if stage == "saturation" else rec["result"]
    kind = result["kind"]
    assert argv[:2] == ["repro", kind]
    args = PARSER.parse_args(argv[1:])
    assert normalize_params(kind, _query_params(args, kind)) == \
        result["params"]


@pytest.mark.parametrize("argv", [
    ["layout", "--ks", "2,2,2", "--layers", "65"],
    ["layout", "--ks", "2,2,2", "--memory-budget", "0"],
    ["dims", "--ks", "13,13"],
    ["package", "--ks", "2,2", "--rows-per-module", "0"],
    ["benes", "-n", "3", "--batch", "0"],
    ["sim", "-n", "4", "--saturation", "--cycles", "0"],
    ["sim", "-n", "13"],
])
def test_parse_time_rejection_creates_no_cache_dir(argv, tmp_path, capsys):
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert not cache.exists()
    err = capsys.readouterr().err
    msgs = [l for l in err.splitlines()
            if l and not l.startswith(("usage:", " "))]
    assert len(msgs) == 1 and msgs[0].startswith(f"repro {argv[0]}: ")


@pytest.fixture
def http_base():
    srv = make_server(port=0, store=None, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    thread.join(timeout=10)
    srv.server_close()


def test_http_out_of_bound_is_400(http_base):
    try:
        with urllib.request.urlopen(
            f"{http_base}/v1/layout?ks=2,2,2&layers=65"
        ) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as e:
        status, body = e.code, e.read()
    assert status == 400
    assert json.loads(body)["error"] == "layers must be in [2, 64], got 65"


def test_one_spec_line_reaches_every_front_end(monkeypatch):
    """A bound and a default changed in ``PARAM_SPECS`` alone reach the
    CLI (parsed and in ``--help``), HTTP and the grid."""
    from repro.service.handlers import _bounded_int

    monkeypatch.setitem(PARAM_SPECS["layout"], "layers",
                        (_bounded_int(2, 8), 3))
    with pytest.raises(QueryError, match=r"in \[2, 8\], got 9"):
        normalize_params("layout", {"ks": "2,2,2", "layers": "9"})
    with pytest.raises(GridError, match=r"in \[2, 8\], got 9"):
        normalize_grid({"ks": [[1, 1, 1]], "layers": [9]})
    assert normalize_grid({"ks": [[1, 1, 1]]})["layers"] == [3]
    parser = build_parser()
    assert parser.parse_args(["layout", "--ks", "2,2,2"]).layers == 3
    with contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit):
        parser.parse_args(["layout", "--ks", "2,2,2", "--layers", "9"])
    help_text = " ".join(_subparsers(parser)["layout"].format_help().split())
    assert "wiring layers L; in [2, 8], default 3" in help_text
    # the grid's config defaults are the spec's
    for key, (kind, param) in grid_mod._SERVICE_PARAMS.items():
        assert grid_mod.CONFIG_DEFAULTS[key] == PARAM_SPECS[kind][param][1]
