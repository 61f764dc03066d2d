"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the library's main entry points:

==============  ========================================================
``verify``      check the ISN -> butterfly automorphism for a parameter
                vector
``layout``      build + validate a wire-level butterfly layout; print
                area and wire-length statistics, optionally write an
                SVG; ``--memory-budget`` streams the build and its
                validation out-of-core in one serial chunked pass
``dims``        closed-form layout dimensions (works at any ``n``)
``collinear``   optimal collinear layout of ``K_N``
``board``       the Section 5.2 board calculator
``package``     exact vs closed-form pin accounting for one parameter
                vector (row / nucleus / naive schemes) or a packaging
                parameter search under pin/size limits (``-n``;
                ``--exact`` verifies every candidate against the
                columnar link count); ``--json`` writes the report
``multilevel``  per-level pins of a nested packaging hierarchy
``hypercube``   2-D hypercube layout (companion-claim extension)
``ccc``         cube-connected-cycles layout (extension)
``omega``       omega-network layout + destination-tag routing check
``sim``         dynamic queued-routing simulator: single runs, rate
                sweeps, per-cycle trace export, saturation search
``sort``        run the bitonic sorting network
``isn-layout``  stage-column layout of an ISN itself
``benes``       Benes permutation routing: single perms (``--perm``)
                or a seeded batch in one vectorized pass (``--batch``,
                ``--workers``); ``--json`` writes the report
``fft``         run an FFT over an ISN flow graph, compare with numpy
``figures``     print the paper's text figures (1, 2, 4)
``serve``       HTTP design-query service over the artifact cache
                (``--port``, ``--cache-dir``; see
                :mod:`repro.service.server` for the routes)
``campaign``    checkpointed design-space sweeps: ``run`` expands a
                JSON/flag-declared grid into staged jobs (layout ->
                package -> benes -> saturation; the layout proof
                re-checks the cached layout and its payload SHA-256)
                sharded across ``--workers``, checkpointing every
                stage under ``runs/<run_id>/``; ``resume`` re-runs
                only the missing/damaged checkpoints (byte-identical
                outputs); ``status`` and ``frontier`` inspect a run
                tree
``cache``       artifact-cache admin: ``ls`` entries, ``verify``
                (re-hash everything, quarantine corruption), ``gc``
==============  ========================================================

The query-shaped subcommands (``layout``, ``dims``, ``package`` report
mode, ``benes`` batch mode, ``sim --saturation``) answer through the
:mod:`repro.service` handler layer, so repeated parameter points are
served from the content-addressed cache (``--cache-dir`` overrides the
location, ``--no-cache`` opts out); a ``[cache hit|miss <key>]`` note
goes to stderr so stdout stays parseable.

Bad input exits 2 with one ``<command>: <message>`` line on stderr,
whether argparse, the service layer or an engine rejects it.  The
subcommands that run an engine directly (``collinear``, ``hypercube``,
``ccc``, ``omega``, ``sort``, ``isn-layout``) also exit 2 above a
declared bound on their size parameter, derived from the engine's size
arithmetic and :data:`MAX_DIRECT_WIRES` wires or
:data:`MAX_SORT_VALUES` values, before the engine allocates anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from .analysis.comparison import format_table

__all__ = ["main", "build_parser"]


def _ks(value: str) -> tuple:
    try:
        ks = tuple(int(x) for x in value.replace(" ", "").split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad parameter vector {value!r}") from e
    if not ks:
        raise argparse.ArgumentTypeError("empty parameter vector")
    return ks


def _float_list(value: str) -> tuple:
    try:
        return tuple(float(x) for x in value.replace(" ", "").split(",") if x)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad float list {value!r}") from e


def _int_list(value: str) -> tuple:
    try:
        return tuple(int(x) for x in value.replace(" ", "").split(",") if x)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad int list {value!r}") from e


def _pin_list(value: str) -> tuple:
    """Comma list of pin limits; ``none``/``null`` means unlimited."""
    out = []
    for x in value.replace(" ", "").split(","):
        if not x:
            continue
        if x.lower() in ("none", "null", "-"):
            out.append(None)
            continue
        try:
            out.append(int(x))
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"bad pin limit {x!r}") from e
    return tuple(out)


def _positive_int(s: str) -> int:
    """argparse type for flags that must be positive integers; a bad
    value is an argparse error, so the process exits 2."""
    try:
        v = int(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {s!r}"
        ) from e
    if v < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {s!r}"
        )
    return v


#: Declared upper bounds of the subcommands that run an engine directly
#: rather than a cached query, in the sizes the engines build: the wires
#: of a wire-level layout (built, validated and measured in memory) and
#: the values of a sort.  :func:`_check_bound` turns each into
#: a bound on the command's parameter before the engine allocates.
MAX_DIRECT_WIRES = 1 << 20
MAX_SORT_VALUES = 1 << 24


def _check_bound(name: str, value: int, size: Callable[[int], int],
                 cap: int, unit: str) -> None:
    """Raise ``ValueError`` (exit 2) when ``value`` exceeds the largest
    parameter whose engine size ``size(n)`` (growing with ``n``) stays
    within ``cap``.  That parameter is found counting up from 1, so the
    engine's arithmetic never runs at a far-off value."""
    top = 0
    while size(top + 1) <= cap:
        top += 1
    if value > top:
        raise ValueError(
            f"{name} must be <= {top} ({unit}, bound {cap:,}), got {value}"
        )


def _add_cache_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cache-dir", type=str, default=None,
                    help="artifact-cache directory (default $REPRO_CACHE_DIR "
                         "or ~/.cache/repro)")
    sp.add_argument("--no-cache", action="store_true",
                    help="compute without reading or writing the cache")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'VLSI Layout and Packaging of "
        "Butterfly Networks' (SPAA 2000)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify the ISN -> butterfly automorphism")
    v.add_argument("--ks", type=_ks, required=True, help="e.g. 3,3,3")
    v.add_argument("--materialize", action="store_true",
                   help="full graph comparison instead of generator check")

    l = sub.add_parser("layout", help="build + validate a butterfly layout")
    l.add_argument("--ks", type=_ks, required=True)
    l.add_argument("--layers", type=int, default=2)
    l.add_argument("--node-side", type=int, default=4)
    l.add_argument("--track-order", choices=["forward", "reversed"],
                   default="forward")
    l.add_argument("--recirculating", action="store_true",
                   help="add the wrap-around feedback channel")
    l.add_argument("--svg", type=str, default=None,
                   help="also draw the layout as SVG")
    l.add_argument("--json", type=str, default=None,
                   help="write the query result as JSON")
    l.add_argument("--memory-budget", type=_positive_int, default=None,
                   metavar="BYTES",
                   help="build + validate out-of-core in chunks sized to "
                        "this working-set byte budget (answer bytes are "
                        "identical; the cache key is unchanged)")
    _add_cache_opts(l)

    d = sub.add_parser("dims", help="closed-form layout dimensions")
    d.add_argument("--ks", type=_ks, required=True)
    d.add_argument("--layers", type=int, default=2)
    d.add_argument("--node-side", type=int, default=4)
    d.add_argument("--json", type=str, default=None,
                   help="write the dimensions report as JSON")
    _add_cache_opts(d)

    c = sub.add_parser("collinear", help="collinear layout of K_N")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("--multiplicity", type=int, default=1)
    c.add_argument("--order", choices=["forward", "reversed"], default="forward")
    c.add_argument("--svg", type=str, default=None)
    c.add_argument("--tracks", action="store_true", help="print the track map")

    b = sub.add_parser("board", help="Section 5.2 board calculator")
    b.add_argument("--ks", type=_ks, default=(3, 3, 3))
    b.add_argument("--pins", type=int, default=64)
    b.add_argument("--chip-side", type=int, default=20)
    b.add_argument("--layers", type=int, default=2)
    b.add_argument("--svg", type=str, default=None,
                   help="write a chip-grid schematic SVG")

    pk = sub.add_parser(
        "package", help="exact vs closed-form pin accounting / optimizer sweep"
    )
    pk.add_argument("--ks", type=_ks, default=None,
                    help="report mode: parameter vector, e.g. 3,3,3")
    pk.add_argument("--scheme", choices=["row", "nucleus", "naive", "all"],
                    default="all", help="partition scheme(s) to report")
    pk.add_argument("--rows-per-module", type=int, default=None,
                    help="naive-scheme module size (default 2**k1; need "
                         "not be a power of two)")
    pk.add_argument("-n", type=int, default=None,
                    help="sweep mode: optimize over parameter vectors for B_n")
    pk.add_argument("--max-pins", type=int, default=None)
    pk.add_argument("--max-nodes", type=int, default=None)
    pk.add_argument("--max-l", type=int, default=4)
    pk.add_argument("--top", type=int, default=8)
    pk.add_argument("--exact", action="store_true",
                    help="verify every candidate against the columnar count")
    pk.add_argument("--json", type=str, default=None,
                    help="write the report as JSON")
    _add_cache_opts(pk)

    m = sub.add_parser("multilevel", help="nested hierarchy pin accounting")
    m.add_argument("--ks", type=_ks, required=True)

    h = sub.add_parser("hypercube", help="2-D hypercube layout (extension)")
    h.add_argument("-n", type=int, required=True)
    h.add_argument("--layers", type=int, default=2)
    h.add_argument("--svg", type=str, default=None)

    cc = sub.add_parser("ccc", help="cube-connected cycles layout (extension)")
    cc.add_argument("-n", type=int, required=True)
    cc.add_argument("--layers", type=int, default=2)
    cc.add_argument("--svg", type=str, default=None)

    om = sub.add_parser("omega", help="omega network layout + routing check")
    om.add_argument("-n", type=int, required=True)
    om.add_argument("--layers", type=int, default=2)

    si = sub.add_parser("sim", help="dynamic queued-routing simulator")
    si.add_argument("-n", type=int, required=True, help="butterfly dimension")
    si.add_argument("--rate", type=float, default=0.8,
                    help="per-input injection rate (default 0.8)")
    si.add_argument("--rates", type=_float_list, default=None,
                    help="comma list of rates: sweep mode, e.g. 0.2,0.5,0.8")
    si.add_argument("--cycles", type=int, default=2000)
    si.add_argument("--warmup", type=int, default=200)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--seeds", type=_int_list, default=None,
                    help="comma list of seeds (sweep mode)")
    si.add_argument("--drain", type=int, default=None,
                    help="drain-phase budget in cycles (default 4*(n+1))")
    si.add_argument("--workers", type=_positive_int, default=None,
                    help="multiprocessing workers for sweeps")
    si.add_argument("--batch", type=_positive_int, default=16,
                    help="jobs batched per arbitration loop (default 16)")
    si.add_argument("--trace-csv", type=str, default=None,
                    help="write the per-cycle StatsTrace as CSV (single run)")
    si.add_argument("--trace-json", type=str, default=None,
                    help="write the per-cycle StatsTrace as JSON (single run)")
    si.add_argument("--saturation", action="store_true",
                    help="search the saturation per-node rate instead")
    _add_cache_opts(si)

    so = sub.add_parser("sort", help="run the bitonic sorting network")
    so.add_argument("-n", type=int, required=True, help="2**n values")
    so.add_argument("--seed", type=int, default=0)

    isn = sub.add_parser("isn-layout", help="stage-column layout of an ISN")
    isn.add_argument("--ks", type=_ks, required=True)
    isn.add_argument("--layers", type=int, default=2)

    bn = sub.add_parser("benes", help="Benes permutation routing")
    bn.add_argument("-n", type=int, default=None, help="2**n terminals")
    bn.add_argument("--permutations", type=int, default=3,
                    help="random permutations to route one by one")
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--perm", type=_int_list, default=None,
                    help="route this explicit permutation, e.g. 3,1,0,2")
    bn.add_argument("--batch", type=_positive_int, default=None,
                    help="batch mode: route this many seeded permutations "
                         "in one vectorized pass")
    bn.add_argument("--workers", type=_positive_int, default=None,
                    help="multiprocessing workers for --batch")
    bn.add_argument("--json", type=str, default=None,
                    help="write the report as JSON")
    _add_cache_opts(bn)

    sv = sub.add_parser(
        "serve", help="HTTP design-query service over the artifact cache"
    )
    sv.add_argument("--host", type=str, default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8421,
                    help="TCP port (0 binds an ephemeral port; default 8421)")
    sv.add_argument("--max-requests", type=int, default=None,
                    help="serve this many requests then exit (smoke tests)")
    sv.add_argument("--quiet", action="store_true",
                    help="suppress per-request access logging")
    _add_cache_opts(sv)

    cg = sub.add_parser(
        "campaign", help="checkpointed design-space sweeps over the grid"
    )
    cgs = cg.add_subparsers(dest="action", required=True)

    cr = cgs.add_parser("run", help="expand a grid and run every stage")
    cr.add_argument("--grid", type=str, default=None,
                    help="JSON grid file (authoritative; see "
                         "repro.campaign.grid for the schema)")
    cr.add_argument("--ks", type=_ks, action="append", default=None,
                    help="inline axis: repeatable parameter vector, "
                         "e.g. --ks 2,1,1 --ks 2,2,1")
    cr.add_argument("--layers", type=_int_list, default=None,
                    help="inline axis: comma list of wiring layers L")
    cr.add_argument("--pin-limit", type=_pin_list, default=None,
                    help="inline axis: comma list of pins/module caps "
                         "('none' = unlimited)")
    cr.add_argument("--rates", type=_float_list, default=None,
                    help="inline axis: comma list of injection rates")
    cr.add_argument("--node-side", type=int, default=None)
    cr.add_argument("--track-order", choices=["forward", "reversed"],
                    default=None)
    cr.add_argument("--cycles", type=int, default=None)
    cr.add_argument("--warmup", type=int, default=None)
    cr.add_argument("--benes-batch", type=int, default=None)
    cr.add_argument("--sat-max-n", type=int, default=None,
                    help="run the saturation bisection only when n <= this")
    cr.add_argument("--seed", type=int, default=None,
                    help="campaign base seed (per-point seeds derive)")
    cr.add_argument("--run-id", type=str, default=None,
                    help="run directory name (default c<spec digest>)")
    cr.add_argument("--runs-dir", type=str, default="runs",
                    help="parent directory for run trees (default runs/)")
    cr.add_argument("--workers", type=_positive_int, default=None,
                    help="multiprocessing workers sharding the points")
    cr.add_argument("--memory-budget", type=_positive_int, default=None,
                    metavar="BYTES",
                    help="run the layout stage out-of-core in chunks "
                         "sized to this working-set byte budget")
    cr.add_argument("--json", type=str, default=None,
                    help="write the run summary as JSON")
    cr.add_argument("--cache-dir", type=str, default=None,
                    help="artifact-cache directory (default "
                         "<run dir>/cache, so artifacts live in the run "
                         "tree and double as cache entries)")
    cr.add_argument("--no-cache", action="store_true",
                    help="compute without reading or writing the cache")

    for name, hlp in (
        ("resume", "re-run only missing/damaged checkpoints of a run"),
        ("status", "per-stage completion summary of a run tree"),
        ("frontier", "Pareto frontier of a run's completed points"),
    ):
        sp = cgs.add_parser(name, help=hlp)
        sp.add_argument("run_dir", type=str, help="runs/<run_id> directory")
        sp.add_argument("--json", type=str, default=None,
                        help="write the report as JSON")
        if name == "resume":
            sp.add_argument("--workers", type=_positive_int, default=None)
            sp.add_argument("--cache-dir", type=str, default=None)
            sp.add_argument("--no-cache", action="store_true")

    ca = sub.add_parser(
        "cache", help="artifact-cache admin: ls / verify / gc"
    )
    ca.add_argument("action", choices=["ls", "verify", "gc"])
    ca.add_argument("--cache-dir", type=str, default=None,
                    help="artifact-cache directory (default $REPRO_CACHE_DIR "
                         "or ~/.cache/repro)")
    ca.add_argument("--max-age-days", type=float, default=None,
                    help="gc: also drop entries older than this many days")
    ca.add_argument("--json", type=str, default=None,
                    help="write the report as JSON")

    f = sub.add_parser("fft", help="FFT over an ISN flow graph")
    f.add_argument("--ks", type=_ks, required=True)
    f.add_argument("--seed", type=int, default=0)

    sub.add_parser("figures", help="print the paper's text figures")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.command.replace('-', '_')}"]
    try:
        return handler(args)
    except ValueError as e:
        # engines reject out-of-range parameters with ValueError; report
        # it like an argparse error instead of a traceback
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


def _store_for(args):
    """The :class:`~repro.service.ArtifactStore` the flags select, or
    ``None`` when caching is off."""
    from .service import ArtifactStore, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    return ArtifactStore(getattr(args, "cache_dir", None) or default_cache_dir())


def _service_query(kind: str, params: dict, args) -> dict:
    """One cached design query; cache disposition goes to stderr so
    stdout stays identical whether the answer was computed or served.
    Malformed queries exit 2 like argparse errors do."""
    from .service import QueryError, query

    info: dict = {}
    try:
        result = query(kind, params, store=_store_for(args), info=info)
    except QueryError as e:
        print(f"{kind}: {e}", file=sys.stderr)
        raise SystemExit(2) from e
    print(f"[cache {info['cache']} {info['key'][:12]}]", file=sys.stderr)
    return result


def _write_json(report: dict, path: Optional[str]) -> None:
    import json

    if not path:
        return
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_verify(args) -> int:
    from .transform import verify_automorphism

    ok = verify_automorphism(args.ks, materialize=args.materialize)
    n = sum(args.ks)
    mode = "graph comparison" if args.materialize else "generator check"
    print(f"ISN{args.ks} -> B_{n} automorphism ({mode}): {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_layout(args) -> int:
    import time

    params = {
        "ks": list(args.ks),
        "layers": args.layers,
        "node_side": args.node_side,
        "track_order": args.track_order,
        "recirculating": args.recirculating,
    }
    if args.memory_budget is not None:
        from .layout import grid_chunk_estimate

        est = grid_chunk_estimate(
            tuple(args.ks), W=args.node_side, L=args.layers,
            recirculating=args.recirculating,
            memory_budget_bytes=args.memory_budget,
        )
        print(
            f"[chunked {est['chunks']} chunks x "
            f"{est['wires_per_chunk']} wires, "
            f"~{est['est_chunk_bytes'] / (1 << 20):.1f} MiB per chunk]",
            file=sys.stderr,
        )
        params["memory_budget_bytes"] = args.memory_budget
    t0 = time.perf_counter()
    result = _service_query("layout", params, args)
    query_s = time.perf_counter() - t0
    print(
        f"validation (table): {'OK' if result['valid'] else 'FAILED'}  "
        f"[query {query_s:.3f} s]"
    )
    if not result["valid"]:
        for e in result["errors"]:
            print(f"  {e}")
        return 1
    rows = [
        {"metric": k, "value": v} for k, v in result["summary"].items()
    ]
    rows += [
        {"metric": k, "value": v}
        for k, v in result["wire_stats"].items()
    ]
    print(format_table(rows))
    _write_json(result, args.json)
    if args.svg:
        # the answer carries no geometry; the drawing needs the wires
        from .layout import build_grid_layout
        from .viz.svg import save_svg

        res = build_grid_layout(
            args.ks, W=args.node_side, L=args.layers,
            track_order=args.track_order, recirculating=args.recirculating,
        )
        print(f"wrote {save_svg(res.layout, args.svg, scale=1.5)}")
    return 0


def _cmd_dims(args) -> int:
    result = _service_query(
        "dims",
        {"ks": list(args.ks), "layers": args.layers,
         "node_side": args.node_side},
        args,
    )
    rows = [{"metric": k, "value": v} for k, v in result["summary"].items()]
    print(format_table(rows))
    _write_json(result, args.json)
    return 0


def _cmd_collinear(args) -> int:
    from .layout import collinear_layout, validate_layout
    from .viz.ascii import collinear_figure
    from .viz.svg import save_svg

    # one wire per link of K_n x multiplicity; below n = 2 every size is
    # 0 and the engine rejects n itself, and multiplicity 1 has passed
    # the check on n
    _check_bound("n", args.n, lambda n: n * (n - 1) // 2, MAX_DIRECT_WIRES,
                 "n(n-1)/2 wires at multiplicity 1")
    if args.n >= 2 and args.multiplicity > 1:
        links = args.n * (args.n - 1) // 2
        _check_bound("multiplicity", args.multiplicity, lambda m: m * links,
                     MAX_DIRECT_WIRES,
                     f"multiplicity*n(n-1)/2 wires at n = {args.n}")
    cl = collinear_layout(args.n, multiplicity=args.multiplicity, order=args.order)
    rep = validate_layout(cl.layout, cl.graph)
    s = cl.summary()
    print(
        f"K_{args.n} x{args.multiplicity} ({args.order}): {s['tracks']} tracks, "
        f"max wire {s['max_wire_length']}, area {s['area']}, "
        f"valid={'OK' if rep.ok else 'FAILED'}"
    )
    if args.tracks:
        print(collinear_figure(args.n, args.order))
    if args.svg:
        print(f"wrote {save_svg(cl.layout, args.svg, scale=4)}")
    return 0 if rep.ok else 1


def _cmd_board(args) -> int:
    from .packaging import ChipSpec, board_design
    from .viz.board_svg import save_board_svg

    d = board_design(
        args.ks, ChipSpec(max_pins=args.pins, side=args.chip_side), layers=args.layers
    )
    rows = [{"metric": k, "value": v} for k, v in d.summary().items()]
    print(format_table(rows))
    if args.svg:
        print(f"wrote {save_board_svg(d, args.svg)}")
    return 0


def _cmd_package(args) -> int:
    from .packaging import optimize_packaging

    if (args.ks is None) == (args.n is None):
        print("package: give exactly one of --ks (report) or -n (sweep)",
              file=sys.stderr)
        return 2

    report: dict
    if args.ks is not None:
        result = _service_query(
            "package",
            {"ks": list(args.ks), "scheme": args.scheme,
             "rows_per_module": args.rows_per_module},
            args,
        )
        rows, all_ok = result["schemes"], result["all_match"]
        print(f"B_{result['n']} pin accounting for ks={tuple(args.ks)} "
              f"(closed form vs columnar exact):")
        print(format_table(rows))
        report = {
            "mode": "report",
            "ks": list(args.ks),
            "n": result["n"],
            "schemes": rows,
            "all_match": all_ok,
        }
        ret = 0 if all_ok else 1
    else:
        cands = optimize_packaging(
            args.n,
            max_nodes_per_module=args.max_nodes,
            max_pins_per_module=args.max_pins,
            max_l=args.max_l,
            exact=args.exact,
        )
        rows = [
            {
                "ks": c.ks,
                "scheme": c.scheme,
                "modules": c.num_modules,
                "max nodes": c.max_nodes_per_module,
                "pins": c.pins_per_module,
                **({"pins exact": c.exact_pins} if args.exact else {}),
                "avg links/node": round(float(c.avg_links_per_node), 4),
            }
            for c in cands[: args.top]
        ]
        if cands:
            print(format_table(rows))
        else:
            print("no feasible design")
        report = {
            "mode": "sweep",
            "n": args.n,
            "exact": args.exact,
            "max_pins": args.max_pins,
            "max_nodes": args.max_nodes,
            "num_candidates": len(cands),
            "top": [
                {**r, "ks": list(r["ks"])} for r in rows
            ],
        }
        ret = 0 if cands else 1
    _write_json(report, args.json)
    return ret


def _cmd_multilevel(args) -> int:
    from .packaging.multilevel import multilevel_design

    rows = [
        {
            "level": s.level,
            "rows/module": 1 << s.row_bits,
            "modules": s.num_modules,
            "nodes/module": s.nodes_per_module,
            "pins (ours)": s.pins_per_module,
            "pins (naive)": s.naive_pins_same_size,
        }
        for s in multilevel_design(args.ks)
    ]
    print(format_table(rows))
    return 0


def _cmd_hypercube(args) -> int:
    from .layout.hypercube_layout import hypercube_2d_layout
    from .layout.validate import validate_layout
    from .viz.svg import save_svg

    # one wire per edge of Q_n
    _check_bound("n", args.n, lambda n: n << (n - 1), MAX_DIRECT_WIRES,
                 "n*2**(n-1) wires")
    res = hypercube_2d_layout(args.n, L=args.layers)
    rep = validate_layout(res.layout, res.graph)
    s = res.layout.summary()
    print(
        f"Q_{args.n} (L={args.layers}): area {s['area']}, max wire "
        f"{s['max_wire_length']}, valid={'OK' if rep.ok else 'FAILED'}"
    )
    if args.svg:
        print(f"wrote {save_svg(res.layout, args.svg, scale=2)}")
    return 0 if rep.ok else 1


def _cmd_ccc(args) -> int:
    from .layout.ccc_layout import ccc_2d_layout
    from .layout.validate import validate_layout
    from .viz.svg import save_svg

    # one wire per edge of CCC(n): n*2**n cycle and n*2**(n-1) cube edges
    _check_bound("n", args.n, lambda n: 3 * n << (n - 1), MAX_DIRECT_WIRES,
                 "3n*2**(n-1) wires")
    res = ccc_2d_layout(args.n, L=args.layers)
    rep = validate_layout(res.layout, res.graph)
    s = res.layout.summary()
    print(
        f"CCC({args.n}) (L={args.layers}): {s['nodes']} nodes, area "
        f"{s['area']}, max wire {s['max_wire_length']}, "
        f"valid={'OK' if rep.ok else 'FAILED'}"
    )
    if args.svg:
        print(f"wrote {save_svg(res.layout, args.svg, scale=2)}")
    return 0 if rep.ok else 1


def _cmd_omega(args) -> int:
    from .layout.multistage import build_multistage_layout
    from .layout.validate import validate_layout
    from .topology.omega import Omega, destination_tag_route

    _check_bound("n", args.n, lambda n: Omega(n).num_edges,
                 MAX_DIRECT_WIRES, "2n*2**n wires")
    om = Omega(args.n)
    res = build_multistage_layout(
        om.rows, om.boundary_link_lists(), L=args.layers, name="omega"
    )
    rep = validate_layout(res.layout, res.graph)
    checked = 0
    for dst in range(om.rows):
        path = destination_tag_route(args.n, 0, dst)
        for st_, (x, y) in enumerate(zip(path, path[1:])):
            assert res.graph.has_edge((x, st_), (y, st_ + 1))
        checked += 1
    print(
        f"omega({args.n}): area {res.layout.area}, "
        f"valid={'OK' if rep.ok else 'FAILED'}, "
        f"destination-tag routes checked: {checked}"
    )
    return 0 if rep.ok else 1


def _cmd_sim(args) -> int:
    from .algorithms.queued_routing import (
        simulate_butterfly_queued,
        sweep_rates,
    )

    if args.saturation:
        result = _service_query(
            "saturation",
            {"n": args.n, "cycles": args.cycles, "seed": args.seed,
             "drain": args.drain},
            args,
        )
        print(
            f"saturation per-node rate for n={args.n}: "
            f"{result['rate_per_node']:.4f} "
            f"(paper's 1/(n+1) wall: {result['paper_wall']:.4f})"
        )
        return 0

    rates = list(args.rates) if args.rates else [args.rate]
    seeds = list(args.seeds) if args.seeds else [args.seed]
    want_trace = bool(args.trace_csv or args.trace_json)
    if len(rates) * len(seeds) == 1:
        res = simulate_butterfly_queued(
            args.n, rates[0], cycles=args.cycles, warmup=args.warmup,
            seed=seeds[0], drain=args.drain, trace=want_trace,
        )
        if args.trace_csv:
            print(f"wrote {res.trace.to_csv(args.trace_csv)}")
        if args.trace_json:
            print(f"wrote {res.trace.to_json(args.trace_json)}")
        results = [res]
    else:
        if want_trace:
            print("sim: --trace-* apply to single runs only", file=sys.stderr)
            return 2
        results = sweep_rates(
            args.n, rates, cycles=args.cycles, warmup=args.warmup,
            seeds=seeds, drain=args.drain, workers=args.workers,
            batch=args.batch,
        )
    rows = []
    for i, res in enumerate(results):
        rows.append(
            {
                "rate/input": res.rate_per_input,
                "seed": seeds[i % len(seeds)],
                "offered": res.offered,
                "delivered": res.delivered_total,
                "throughput/input": round(res.throughput_per_input, 4),
                "accepted": round(res.accepted_fraction, 4),
                "avg latency": (
                    round(res.avg_latency, 2)
                    if res.avg_latency != float("inf") else "inf"
                ),
                "max queue": res.max_queue,
            }
        )
    print(format_table(rows))
    return 0


def _cmd_sort(args) -> int:
    import numpy as np

    from .topology.bitonic import bitonic_num_stages, bitonic_sort

    stages = bitonic_num_stages(args.n)  # rejects n < 1 before allocating
    _check_bound("n", args.n, lambda n: 1 << n, MAX_SORT_VALUES,
                 "2**n values")
    rng = np.random.default_rng(args.seed)
    x = rng.integers(0, 1000, size=1 << args.n)
    y = bitonic_sort(x)
    ok = bool(np.array_equal(y, np.sort(x)))
    print(
        f"bitonic sorter: {1 << args.n} values through "
        f"{stages} compare-exchange stages, "
        f"sorted={'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def _cmd_isn_layout(args) -> int:
    from .layout.multistage import build_multistage_layout
    from .layout.validate import validate_layout
    from .topology.isn import ISN

    # the one-level ISN of a given sum(ks) has the fewest wires
    _check_bound("sum(ks)", sum(args.ks),
                 lambda n: ISN.from_ks((n,)).num_edges, MAX_DIRECT_WIRES,
                 "2n*2**n wires at n = sum(ks)")
    isn = ISN.from_ks(args.ks)
    res = build_multistage_layout(
        isn.rows, isn.boundary_link_lists(), L=args.layers, name=f"ISN{args.ks}"
    )
    rep = validate_layout(res.layout, res.graph)
    print(
        f"ISN{args.ks}: {isn.rows} rows x {isn.stages} stages, area "
        f"{res.layout.area}, valid={'OK' if rep.ok else 'FAILED'}"
    )
    return 0 if rep.ok else 1


def _cmd_benes(args) -> int:
    import random
    import time

    from .algorithms.benes_routing import apply_settings, route_permutation

    if args.perm is not None:
        perm = list(args.perm)
        n = (len(perm) - 1).bit_length()
    elif args.n is not None:
        n = args.n
    else:
        print("benes: give -n or --perm", file=sys.stderr)
        return 2
    N = 1 << n
    total_switches = (2 * n - 1) * N // 2
    report: dict = {"n": n, "terminals": N, "switches": total_switches}

    if args.batch is not None:
        t0 = time.perf_counter()
        if args.workers:
            # an explicit worker count means "route right here, fanned
            # out" — workers shape the compute, never the answer, so
            # they are not part of any cache key
            import numpy as np

            from .algorithms.benes_routing import (
                apply_settings_batch,
                route_permutations,
            )

            rng = np.random.default_rng(args.seed)
            perms = np.array([rng.permutation(N) for _ in range(args.batch)])
            batch = route_permutations(perms, workers=args.workers)
            counts = batch.count_crossed()
            result = {
                "realized_ok": bool(
                    np.array_equal(apply_settings_batch(batch), perms)
                ),
                "crossed": {
                    "min": int(counts.min()),
                    "mean": float(counts.mean()),
                    "max": int(counts.max()),
                },
            }
        else:
            result = _service_query(
                "benes",
                {"n": n, "batch": args.batch, "seed": args.seed},
                args,
            )
        query_s = time.perf_counter() - t0
        ok = result["realized_ok"]
        c = result["crossed"]
        print(
            f"batch: {args.batch} perms, N={N}, answered in {query_s:.3f} s, "
            f"crossed switches min/mean/max "
            f"{c['min']}/{c['mean']:.1f}/{c['max']} "
            f"of {total_switches}, realized={'OK' if ok else 'MISMATCH'}"
        )
        report.update(
            mode="batch", batch=args.batch, seed=args.seed,
            query_seconds=query_s, realized_ok=ok, crossed=c,
        )
    else:
        if args.perm is not None:
            trials = [list(args.perm)]
        else:
            rng = random.Random(args.seed)
            trials = []
            for _ in range(args.permutations):
                perm = list(range(N))
                rng.shuffle(perm)
                trials.append(perm)
        ok = True
        perm_rows = []
        for trial, perm in enumerate(trials):
            settings = route_permutation(perm)
            realized = apply_settings(settings)
            match = realized == perm
            ok &= match
            crossed = settings.count_crossed()
            print(
                f"perm {trial}: N={N}, crossed switches "
                f"{crossed}/{total_switches}, "
                f"realized={'OK' if match else 'MISMATCH'}"
            )
            perm_rows.append(
                {"perm": perm, "crossed": crossed, "realized_ok": match}
            )
        report.update(
            mode="single", permutations=perm_rows, realized_ok=ok,
        )
    _write_json(report, args.json)
    return 0 if report["realized_ok"] else 1


def _cmd_serve(args) -> int:
    from .service import ArtifactStore, default_cache_dir, make_server

    cache_dir = args.cache_dir or default_cache_dir()
    store = None if args.no_cache else ArtifactStore(cache_dir)
    srv = make_server(args.host, args.port, store=store, quiet=args.quiet)
    host, port = srv.server_address[:2]
    print(
        f"repro serve: http://{host}:{port} "
        f"(cache: {'off' if store is None else cache_dir})"
    )
    try:
        if args.max_requests is not None:
            for _ in range(args.max_requests):
                srv.handle_request()
        else:  # pragma: no cover - interactive loop
            srv.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive loop
        pass
    finally:
        srv.server_close()
    return 0


def _campaign_spec(args) -> dict:
    """The grid spec the flags declare: ``--grid`` file verbatim, else
    the inline axes + config flags."""
    import json

    if args.grid is not None:
        if args.ks is not None:
            print("campaign run: --grid and --ks are exclusive",
                  file=sys.stderr)
            raise SystemExit(2)
        with open(args.grid) as fh:
            return json.load(fh)
    if not args.ks:
        print("campaign run: give --grid FILE or at least one --ks",
              file=sys.stderr)
        raise SystemExit(2)
    spec: dict = {"ks": [list(ks) for ks in args.ks]}
    for axis, value in (
        ("layers", args.layers),
        ("pin_limit", args.pin_limit),
        ("rate", args.rates),
    ):
        if value is not None:
            spec[axis] = list(value)
    config = {
        k: v
        for k, v in (
            ("node_side", args.node_side),
            ("track_order", args.track_order),
            ("cycles", args.cycles),
            ("warmup", args.warmup),
            ("benes_batch", args.benes_batch),
            ("sat_max_n", args.sat_max_n),
            ("seed", args.seed),
            ("layout_memory_budget", args.memory_budget),
        )
        if v is not None
    }
    if config:
        spec["config"] = config
    return spec


def _campaign_report(summary: dict) -> None:
    c = summary["counts"]
    print(
        f"campaign {summary['run_id']}: {summary['points']} point(s), "
        f"{summary['stages_run']} stage(s) run this pass, "
        f"{c['complete']} complete, {c['failed']} failed, "
        f"{summary['frontier_points']} on the frontier"
    )
    print(f"run tree: {summary['run_dir']}")


def _cmd_campaign(args) -> int:
    import os

    from .campaign import (
        CampaignError,
        GridError,
        build_manifest,
        load_run,
        pareto_frontier,
        render_frontier,
        resume_run,
        run_status,
        start_run,
    )

    try:
        if args.action == "run":
            summary = start_run(
                _campaign_spec(args),
                runs_dir=args.runs_dir,
                run_id=args.run_id,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                workers=args.workers,
                log=print,
            )
            _campaign_report(summary)
            with open(os.path.join(summary["run_dir"], "frontier.txt")) as fh:
                print(fh.read(), end="")
            _write_json(summary, args.json)
            return 0 if summary["counts"]["failed"] == 0 else 1

        if args.action == "resume":
            summary = resume_run(
                args.run_dir,
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                workers=args.workers,
                log=print,
            )
            _campaign_report(summary)
            _write_json(summary, args.json)
            return 0 if summary["counts"]["failed"] == 0 else 1

        if args.action == "status":
            status = run_status(args.run_dir)
            rows = [
                {"stage": stage, **counts}
                for stage, counts in status["stage_counts"].items()
            ]
            print(
                f"campaign {status['run_id']} "
                f"[spec {status['spec_digest']}]: "
                f"{status['counts']['complete']}/{status['counts']['points']} "
                f"point(s) complete, {status['counts']['failed']} failed"
            )
            print(format_table(rows))
            _write_json(status, args.json)
            return 0

        # frontier: recompute from the on-disk records (read-only, so it
        # also works on a live or interrupted run)
        grid, run_id = load_run(args.run_dir)
        frontier = pareto_frontier(build_manifest(args.run_dir, grid, run_id))
        print(render_frontier(frontier), end="")
        _write_json(frontier, args.json)
        return 0
    except (CampaignError, GridError) as e:
        print(f"campaign: {e}", file=sys.stderr)
        return 2


def _cmd_cache(args) -> int:
    from .service import ArtifactStore, default_cache_dir

    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.action == "ls":
        entries = store.ls()
        if entries:
            print(format_table([e.as_row() for e in entries]))
        s = store.stats()
        print(
            f"{s['entries']} entries, {s['bytes']} bytes, "
            f"{s['quarantined']} quarantined  [{store.root}]"
        )
        _write_json({"action": "ls", **s}, args.json)
        return 0
    if args.action == "verify":
        rep = store.verify()
        print(
            f"verified {rep['checked']} entries: {rep['ok']} ok, "
            f"{rep['quarantined']} corrupt (quarantined)"
        )
        for key in rep["corrupt"]:
            print(f"  CORRUPT {key}")
        _write_json({"action": "verify", **rep}, args.json)
        return 1 if rep["corrupt"] else 0
    # gc
    max_age_s = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    rep = store.gc(max_age_s=max_age_s)
    print(f"gc: removed {rep['removed']} entries, "
          f"freed {rep['freed_bytes']} bytes")
    _write_json({"action": "gc", **rep}, args.json)
    return 0


def _cmd_fft(args) -> int:
    import numpy as np

    from .algorithms.fft import fft_via_isn
    from .topology.isn import ISN

    isn = ISN.from_ks(args.ks)
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=isn.rows) + 1j * rng.normal(size=isn.rows)
    err = float(np.max(np.abs(fft_via_isn(x, isn) - np.fft.fft(x))))
    print(
        f"FFT over ISN{args.ks}: {isn.rows} points, {isn.stages} stages, "
        f"max |err| vs numpy = {err:.2e}"
    )
    return 0 if err < 1e-9 else 1


def _cmd_figures(args) -> int:
    from .topology.isn import ISN
    from .transform.swap_butterfly import SwapButterfly
    from .viz.ascii import collinear_figure, isn_schedule_figure, swap_butterfly_figure

    print("Figure 1 (4x4 ISN):")
    print(isn_schedule_figure(ISN.from_ks((1, 1))))
    print(swap_butterfly_figure(SwapButterfly.from_ks((1, 1))))
    print("\nFigure 2 (8x8 / 16x16 swap-butterflies):")
    for ks in [(2, 1), (2, 2)]:
        print(swap_butterfly_figure(SwapButterfly.from_ks(ks)))
        print()
    print("Figure 4 (collinear K_9):")
    print(collinear_figure(9))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
