"""Design-query handlers: validate params, compute, cache, serve.

One handler per query *kind*, so the ``repro`` subcommands, the HTTP
front end (:mod:`repro.service.server`), the campaign runner and the
benchmark in ``bench/`` all go through one cached path:

``layout``
    build + validate a grid-scheme butterfly layout; summary metrics and
    wire-length statistics, WireTable columns as the array payload.
``dims``
    closed-form grid-scheme dimensions (no payload).
``package``
    exact-vs-closed-form pin accounting for the row / nucleus / naive
    partition schemes; module-id codes as the payload.
``benes``
    route a seeded batch of permutations through the Benes engine;
    crossing statistics, the switch-settings tensor as the payload.
``saturation``
    bisection search for the queued-routing saturation rate (no payload).
``sim``
    one seeded queued-routing run at a fixed injection rate; throughput,
    accepted fraction, latency and queue statistics (no payload).

Results are plain JSON-native dicts and contain **no timings or other
nondeterminism** — a warm hit must serve bytes identical to the cold
compute, which ``tests/test_service.py`` gates on.  Parameters are
normalized (defaults filled, types coerced) *before* keying so every
spelling of the same query shares one cache entry; anything malformed
raises :class:`QueryError`, which the server maps to HTTP 400.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .store import ArtifactStore, cache_key

__all__ = [
    "QUERY_KINDS", "QueryError", "normalize_params", "split_exec_params",
    "param_flag", "params_argv", "benes_answer", "compute", "query",
]

Arrays = Optional[Dict[str, np.ndarray]]


class QueryError(ValueError):
    """Malformed query (unknown kind / bad parameter vector) -> HTTP 4xx."""


# ----------------------------------------------------------------------
# parameter schemas
# ----------------------------------------------------------------------

def _renders(conv: Callable, describe: str, **attrs: object) -> Callable:
    """Attach to ``conv`` what a front end needs to render it:
    ``describe`` names the accepted values (the CLI's help text), and
    ``bounds`` ``(lo, hi)``, ``choices`` or ``flag`` (an ``_as_bool``
    parameter, a bare CLI flag) say the same as data."""
    conv.describe = describe
    conv.__dict__.update(attrs)
    return conv


def _as_int(v: object, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise QueryError(f"{name} must be an integer, got {v!r}")
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError) as e:  # int(inf)
        raise QueryError(f"{name} must be an integer, got {v!r}") from e
    if isinstance(v, float) and v != i:
        raise QueryError(f"{name} must be an integer, got {v!r}")
    return i

def _as_float(v: object, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise QueryError(f"{name} must be a number, got {v!r}")
    try:
        f = float(v)
    except (TypeError, ValueError, OverflowError) as e:  # float(10**400)
        raise QueryError(f"{name} must be a number, got {v!r}") from e
    if not math.isfinite(f):
        raise QueryError(f"{name} must be finite, got {v!r}")
    return f

_renders(_as_float, "a finite number")

def _as_bool(v: object, name: str) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "1", "yes"):
        return True
    if isinstance(v, str) and v.lower() in ("false", "0", "no"):
        return False
    raise QueryError(f"{name} must be a boolean, got {v!r}")

_renders(_as_bool, "a flag", flag=True)

#: The service's cap on ``sum(ks)``, the butterfly dimension n.
MAX_KS_SUM = 24

def _as_ks(v: object, name: str = "ks") -> list:
    """A parameter vector: ``[3, 3, 3]`` or the CLI spelling ``"3,3,3"``."""
    if isinstance(v, str):
        v = [x for x in v.replace(" ", "").split(",") if x]
    if not isinstance(v, (list, tuple)) or not v:
        raise QueryError(f"{name} must be a non-empty list of integers")
    ks = [_as_int(x, name) for x in v]
    if any(k < 1 for k in ks):
        raise QueryError(f"{name} entries must be >= 1, got {ks}")
    if sum(ks) > MAX_KS_SUM:
        raise QueryError(
            f"sum({name}) capped at {MAX_KS_SUM} for the service, "
            f"got {sum(ks)}"
        )
    return ks

# for ks, ``bounds`` are the least entry and the largest sum
_renders(_as_ks, f"entries >= 1, sum <= {MAX_KS_SUM}",
         bounds=(1, MAX_KS_SUM))

def _as_choice(choices: Tuple[str, ...]) -> Callable[[object, str], str]:
    def conv(v: object, name: str) -> str:
        if v not in choices:
            raise QueryError(f"{name} must be one of {choices}, got {v!r}")
        return str(v)
    return _renders(conv, "one of " + ", ".join(choices), choices=choices)

def _bounded_int(lo: int, hi: int) -> Callable[[object, str], int]:
    def conv(v: object, name: str) -> int:
        i = _as_int(v, name)
        if not lo <= i <= hi:
            raise QueryError(f"{name} must be in [{lo}, {hi}], got {i}")
        return i
    return _renders(conv, f"in [{lo}, {hi}]", bounds=(lo, hi))

def _rate(v: object, name: str) -> float:
    f = _as_float(v, name)
    if not 0.0 < f <= 1.0:
        raise QueryError(f"{name} must be in (0, 1], got {f}")
    return f

_renders(_rate, "in (0, 1]", bounds=(0.0, 1.0))

def _optional(conv: Callable[[object, str], object]) -> Callable:
    def wrapped(v: object, name: str) -> object:
        if v is None or v == "":
            return None
        return conv(v, name)
    wrapped.__dict__.update(conv.__dict__)
    return wrapped

def _positive_int(v: object, name: str) -> int:
    i = _as_int(v, name)
    if i < 1:
        raise QueryError(f"{name} must be a positive integer, got {i}")
    return i

_renders(_positive_int, "a positive integer", bounds=(1, None))


#: ``kind -> {param: (converter, default)}``; a default of ``...`` marks
#: the parameter required.  This is the one place a query parameter's
#: name, type, default and bound are written: the HTTP layer reuses the
#: converters to coerce query-string values (so GET and POST queries key
#: identically), the ``repro`` CLI generates its query flags from them
#: (:func:`param_flag`, each converter's ``describe`` in the help), the
#: campaign grid checks the values it feeds through them, and a
#: campaign's proof argv is :func:`params_argv` of the stage's query.
PARAM_SPECS: Dict[str, Dict[str, Tuple[Callable, object]]] = {
    "layout": {
        "ks": (_as_ks, ...),
        "layers": (_bounded_int(2, 64), 2),
        "node_side": (_bounded_int(1, 64), 4),
        "track_order": (_as_choice(("forward", "reversed")), "forward"),
        "recirculating": (_as_bool, False),
    },
    "dims": {
        "ks": (_as_ks, ...),
        "layers": (_bounded_int(2, 64), 2),
        "node_side": (_bounded_int(1, 64), 4),
    },
    "package": {
        "ks": (_as_ks, ...),
        "scheme": (_as_choice(("row", "nucleus", "naive", "all")), "all"),
        "rows_per_module": (_optional(_bounded_int(1, 1 << 20)), None),
    },
    "benes": {
        "n": (_bounded_int(1, 16), ...),
        "batch": (_bounded_int(1, 100_000), 8),
        "seed": (_bounded_int(0, 2**31 - 1), 0),
    },
    "saturation": {
        "n": (_bounded_int(1, 12), ...),
        "cycles": (_bounded_int(1, 1_000_000), 1500),
        "threshold": (_as_float, 0.95),
        "seed": (_bounded_int(0, 2**31 - 1), 0),
        "drain": (_optional(_bounded_int(0, 1_000_000)), None),
    },
    "sim": {
        "n": (_bounded_int(1, 12), ...),
        "rate": (_rate, ...),
        "cycles": (_bounded_int(1, 1_000_000), 600),
        "warmup": (_bounded_int(0, 1_000_000), 100),
        "seed": (_bounded_int(0, 2**31 - 1), 0),
        "drain": (_optional(_bounded_int(0, 1_000_000)), None),
    },
}

QUERY_KINDS = tuple(PARAM_SPECS)

#: Execution knobs: how to compute, never what to compute.  They are
#: split off *before* normalization, excluded from the cache key and
#: from ``result["params"]`` — same design, same artifact, so a warm
#: cache serves identical bytes whatever budget produced them (every
#: budget streams the same layout from the same chunk source, and the
#: budgeted route's result and payload are byte-identical to the
#: unbudgeted one's).
EXEC_PARAM_SPECS: Dict[str, Dict[str, Callable]] = {
    "layout": {"memory_budget_bytes": _optional(_positive_int)},
}


def param_flag(name: str) -> str:
    """The CLI flag of parameter ``name``: ``n`` -> ``-n``,
    ``node_side`` -> ``--node-side``."""
    return "-" + name if len(name) == 1 else "--" + name.replace("_", "-")


def params_argv(kind: str, params: Dict[str, object]) -> List[str]:
    """The CLI flags that ask for ``kind`` at ``params``, in spec order
    (``repro <kind>`` takes them; ``saturation`` has no subcommand of its
    own).  A parameter missing from ``params`` takes its spec default,
    so the flags name every value of the normalized params; ``None`` and
    ``False`` are left out, ``True`` is a bare flag, and a list is
    joined with commas."""
    argv: List[str] = []
    for name, (_conv, default) in PARAM_SPECS[kind].items():
        v = params.get(name, default)
        if v is None or v is False:
            continue
        argv.append(param_flag(name))
        if isinstance(v, list):
            argv.append(",".join(str(x) for x in v))
        elif v is not True:
            argv.append(str(v))
    return argv


def split_exec_params(
    kind: str, params: Dict[str, object]
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """``(design_params, exec_params)`` with exec knobs validated and
    removed; unknown keys stay in ``design_params`` for
    :func:`normalize_params` to reject."""
    spec = EXEC_PARAM_SPECS.get(kind, {})
    if not isinstance(params, dict) or not spec:
        return params, {}
    rest = dict(params)
    ex: Dict[str, object] = {}
    for name, conv in spec.items():
        if name in rest:
            val = conv(rest.pop(name), name)
            if val is not None:
                ex[name] = val
    return rest, ex


def normalize_params(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """Validated params with defaults filled — the dict that gets keyed.

    Raises :class:`QueryError` on unknown kind, unknown or missing
    parameters, or values outside the service's bounds — including a
    ``sim`` whose ``warmup`` leaves no measured window (``warmup >=
    cycles``), which would answer an acceptance of 0.0.
    """
    if kind not in PARAM_SPECS:
        raise QueryError(
            f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    spec = PARAM_SPECS[kind]
    if not isinstance(params, dict):
        raise QueryError(f"params must be an object, got {type(params).__name__}")
    unknown = set(params) - set(spec)
    if unknown:
        raise QueryError(f"unknown parameter(s) for {kind}: {sorted(unknown)}")
    out: Dict[str, object] = {}
    for name, (conv, default) in spec.items():
        if name in params:
            out[name] = conv(params[name], name)
        elif default is ...:
            raise QueryError(f"missing required parameter {name!r} for {kind}")
        else:
            out[name] = default
    if kind == "sim" and out["warmup"] >= out["cycles"]:
        raise QueryError(
            f"sim needs warmup < cycles (a measured window), got "
            f"warmup={out['warmup']}, cycles={out['cycles']}"
        )
    return out


# ----------------------------------------------------------------------
# compute kernels (cache misses)
# ----------------------------------------------------------------------

def _layout_payload(t) -> Dict[str, np.ndarray]:
    # a grid table's column nets (GridNets) format their JSON from their
    # columns, byte for byte what json.dumps writes for the tuples
    return {
        "indptr": t.indptr, "x1": t.x1, "y1": t.y1,
        "x2": t.x2, "y2": t.y2, "layer": t.layer,
        "nets_json": np.frombuffer(t.nets.json_bytes(), dtype=np.uint8),
    }


def _layout_result(p: Dict, rep, summary: Dict, ws) -> Dict:
    return {
        "kind": "layout",
        "params": p,
        "valid": bool(rep.ok),
        "errors": [str(e) for e in rep.errors[:10]],
        "summary": {k: int(v) for k, v in summary.items()},
        "wire_stats": {
            k: v for k, v in ws.as_row("grid").items()
            if k not in ("layout", "wires", "max")
        },
    }


def _compute_layout(
    p: Dict[str, object], ex: Optional[Dict[str, object]] = None
) -> Tuple[Dict, Arrays]:
    budget = (ex or {}).get("memory_budget_bytes")
    if budget is None:
        from ..analysis.wirestats import wire_stats
        from ..layout import build_grid_layout, validate_layout

        res = build_grid_layout(
            tuple(p["ks"]), W=p["node_side"], L=p["layers"],
            track_order=p["track_order"], recirculating=p["recirculating"],
        )
        rep = validate_layout(res.layout, res.graph)
        summary = res.layout.summary()
        ws = wire_stats(res.layout)
        t = res.layout.wire_table()
        return _layout_result(p, rep, summary, ws), _layout_payload(t)

    # budgeted route: stream the build under the byte budget and validate
    # it in one streaming pass — result and payload are byte-identical to
    # the unbudgeted route above, which is why the budget may not enter
    # the cache key
    from ..analysis.wirestats import wire_stats_from_lengths
    from ..layout import chunked_grid_table, grid_graph
    from ..transform.swap_butterfly import SwapButterfly

    build = chunked_grid_table(
        tuple(p["ks"]), W=p["node_side"], L=p["layers"],
        track_order=p["track_order"], recirculating=p["recirculating"],
        memory_budget_bytes=budget,
    )
    graph = grid_graph(
        SwapButterfly.from_ks(tuple(p["ks"])), p["recirculating"]
    )
    rep, summary = build.validate_and_summarize(graph=graph)
    # the array payload is O(wires) by definition; a second enumeration
    # assembles it and the wire-length stats
    table = build.table()
    ws = wire_stats_from_lengths(table.wire_lengths())
    return _layout_result(p, rep, summary, ws), _layout_payload(table)


def _compute_dims(p: Dict[str, object]) -> Tuple[Dict, Arrays]:
    from ..layout import grid_dims

    d = grid_dims(tuple(p["ks"]), W=p["node_side"], L=p["layers"])
    return {
        "kind": "dims",
        "params": p,
        "summary": {k: int(v) for k, v in d.summary().items()},
    }, None


def _compute_package(p: Dict[str, object]) -> Tuple[Dict, Arrays]:
    from ..packaging import (
        NaiveRowPartition,
        NucleusPartition,
        RowPartition,
        count_off_module_links,
        naive_offmodule_per_module,
        nucleus_partition_module_bound,
        row_partition_offmodule_per_module,
    )
    from ..topology.bits import ilog2, is_power_of_two
    from ..topology.butterfly import Butterfly
    from ..transform.swap_butterfly import SwapButterfly

    ks = tuple(p["ks"])
    sb = SwapButterfly.from_ks(ks)
    n, k1 = sb.n, sb.params.ks[0]
    schemes = (
        ["row", "nucleus", "naive"] if p["scheme"] == "all" else [p["scheme"]]
    )
    rows, all_ok = [], True
    arrays: Dict[str, np.ndarray] = {}
    for scheme in schemes:
        if scheme == "row":
            part = RowPartition.natural(sb)
            rep = count_off_module_links(part)
            closed = row_partition_offmodule_per_module(sb.params.ks)
            exact, ok = rep.max_per_module, rep.max_per_module == closed
            modules, avg = rep.num_modules, float(rep.avg_per_node)
            ea = sb.cached_edge_array()
            arrays["row_module_ids"] = np.asarray(
                part.module_ids(ea[:, 0, 0], ea[:, 0, 1])
            )
        elif scheme == "nucleus":
            part = NucleusPartition(sb)
            rep = count_off_module_links(part)
            closed = nucleus_partition_module_bound(k1)
            exact, ok = rep.max_per_module, rep.max_per_module <= closed
            modules, avg = rep.num_modules, float(rep.avg_per_node)
            ea = sb.cached_edge_array()
            arrays["nucleus_module_ids"] = np.asarray(
                part.module_ids(ea[:, 0, 0], ea[:, 0, 1])
            )
        else:
            m = p["rows_per_module"] or (1 << k1)
            part = NaiveRowPartition(Butterfly(n), m)
            pins = part.exact_pin_counts()
            exact = max(pins.values(), default=0)
            if is_power_of_two(m):
                closed = naive_offmodule_per_module(n, ilog2(m))
                ok = exact == closed
            else:  # the paper's ~2-links-per-node estimate
                closed = 2 * m * (n + 1)
                ok = exact <= closed
            modules = part.num_modules
            avg = float(part.avg_per_node())
            arrays["naive_pin_counts"] = np.array(
                [pins[k] for k in sorted(pins)], dtype=np.int64
            )
        all_ok &= ok
        rows.append(
            {
                "scheme": scheme,
                "modules": int(modules),
                "pins closed-form": int(closed),
                "pins exact": int(exact),
                "avg links/node": round(avg, 4),
                "match": "OK" if ok else "FAILED",
            }
        )
    result = {
        "kind": "package",
        "params": p,
        "n": int(n),
        "schemes": rows,
        "all_match": bool(all_ok),
    }
    return result, arrays


def benes_answer(
    p: Dict[str, object], workers: Optional[int] = None
) -> Tuple[Dict, Arrays]:
    """The ``benes`` answer for normalized params: route ``batch`` seeded
    permutations of ``2**n`` terminals in one vectorized pass and
    summarize the crossings.  ``workers`` fans the routing out over a
    pool; it shapes the compute, never the answer, so it is no query
    parameter and never enters a cache key."""
    from ..algorithms.benes_routing import (
        apply_settings_batch,
        num_switch_stages,
        route_permutations,
    )

    n, batch, seed = p["n"], p["batch"], p["seed"]
    N = 1 << n
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(N) for _ in range(batch)])
    settings = route_permutations(perms, workers=workers)
    realized_ok = bool(np.array_equal(apply_settings_batch(settings), perms))
    counts = settings.count_crossed()
    result = {
        "kind": "benes",
        "params": p,
        "terminals": N,
        "switches": num_switch_stages(n) * (N // 2),
        "realized_ok": realized_ok,
        "crossed": {
            "min": int(counts.min()),
            "mean": float(counts.mean()),
            "max": int(counts.max()),
        },
    }
    arrays = {
        "perms": perms.astype(np.int64),
        "crossed": settings.crossed.astype(np.uint8),
    }
    return result, arrays


def _compute_saturation(p: Dict[str, object]) -> Tuple[Dict, Arrays]:
    from ..algorithms.queued_routing import saturation_per_node_rate

    rate = saturation_per_node_rate(
        p["n"], cycles=p["cycles"], threshold=p["threshold"],
        seed=p["seed"], drain=p["drain"],
    )
    return {
        "kind": "saturation",
        "params": p,
        "rate_per_node": float(rate),
        "paper_wall": 1.0 / (p["n"] + 1),
    }, None


def _compute_sim(p: Dict[str, object]) -> Tuple[Dict, Arrays]:
    from ..algorithms.queued_routing import simulate_butterfly_queued

    res = simulate_butterfly_queued(
        p["n"], p["rate"], cycles=p["cycles"], warmup=p["warmup"],
        seed=p["seed"], drain=p["drain"],
    )
    latency = float(res.avg_latency)
    return {
        "kind": "sim",
        "params": p,
        "offered": int(res.offered),
        "delivered": int(res.delivered_total),
        "throughput_per_input": float(res.throughput_per_input),
        "accepted_fraction": float(res.accepted_fraction),
        # inf (nothing completed) is not strict JSON; serve null instead
        "avg_latency": latency if math.isfinite(latency) else None,
        "max_queue": int(res.max_queue),
    }, None


_COMPUTE: Dict[str, Callable[[Dict], Tuple[Dict, Arrays]]] = {
    "layout": _compute_layout,
    "dims": _compute_dims,
    "package": _compute_package,
    "benes": benes_answer,
    "saturation": _compute_saturation,
    "sim": _compute_sim,
}


def compute(
    kind: str,
    params: Dict[str, object],
    exec_params: Optional[Dict[str, object]] = None,
) -> Tuple[Dict, Arrays]:
    """Run the query uncached; params must already be normalized.

    ``exec_params`` (already split/validated) steer *how* the answer is
    computed — they never change the answer's bytes.

    Engine-level ``ValueError``s (a parameter vector the constructions
    reject, e.g. ``k_i > k1``) surface as :class:`QueryError` so the
    HTTP layer answers 400, not 500.
    """
    try:
        if kind in EXEC_PARAM_SPECS:
            return _COMPUTE[kind](params, exec_params)
        return _COMPUTE[kind](params)
    except QueryError:
        raise
    except ValueError as e:
        raise QueryError(f"{kind}: {e}") from e


def query(
    kind: str,
    params: Dict[str, object],
    store: Optional[ArtifactStore] = None,
    info: Optional[Dict[str, object]] = None,
) -> Dict:
    """Answer a design query, serving from ``store`` when possible; with
    no store the cache is off and the query computes.

    Misses compute under the store's single-flight lock, so concurrent
    identical queries compute once.  ``info`` (if given) receives
    ``cache`` (``"hit"`` / ``"miss"`` / ``"off"``) and ``key``.

    Execution knobs (``memory_budget_bytes`` for ``layout``) ride along
    inside ``params``, as the HTTP layer passes query strings through
    verbatim.  They are validated, stripped before normalization, and
    excluded from the cache key: they choose the compute strategy, not
    the artifact.  A key that is neither a design parameter nor an
    execution knob, such as ``workers``, is a :class:`QueryError`.
    """
    params, ex = split_exec_params(kind, params)
    p = normalize_params(kind, params)
    if info is None:
        info = {}
    info["key"] = key = cache_key(kind, p)
    if store is None:
        info["cache"] = "off"
        return compute(kind, p, ex)[0]
    cached = store.get(kind, p)
    if cached is not None:
        info["cache"] = "hit"
        return cached
    with store.single_flight(key):
        cached = store.get(kind, p)  # the winner may have landed it
        if cached is not None:
            info["cache"] = "hit"
            return cached
        result, arrays = compute(kind, p, ex)
        store.put(kind, p, result, arrays)
    info["cache"] = "miss"
    return result
