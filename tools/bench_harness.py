#!/usr/bin/env python
"""Reproducible benchmark harness for the graph core and layout engine.

Times the vectorized bulk construction path against the per-edge
reference path for the paper's networks (swap-butterflies, butterflies,
swap networks) at dimensions up to ``--max-n``, times layout build +
validation for the grid scheme, pits the columnar WireTable layout
engine against the object-per-wire original (with a wire-for-wire
parity check), times the queued-routing simulator
(vectorized engine vs the pure-Python reference, single and batched,
with a packet-for-packet parity check), times the columnar packaging
engine against the per-link legacy enumerator (build + row/nucleus pin
counts, with a per-module-dict parity check, plus an exact-count
optimizer sweep at n = 16 that the object loops could not touch), times
the batched Benes routing engine against the legacy recursion (with a
bit-for-bit settings parity check), and runs a curated subset of the
``benchmarks/bench_*.py`` pytest-benchmark suite.  Results are written to ``BENCH_<date>.json`` in the repo root
(or ``--out``).

Usage::

    PYTHONPATH=src python tools/bench_harness.py            # full run
    PYTHONPATH=src python tools/bench_harness.py --smoke    # CI-sized run
    PYTHONPATH=src python tools/bench_harness.py --sim-smoke  # engine only
    PYTHONPATH=src python tools/bench_harness.py --layout-smoke  # layout only
    PYTHONPATH=src python tools/bench_harness.py --packaging-smoke  # pins only
    PYTHONPATH=src python tools/bench_harness.py --benes-smoke  # benes only
    PYTHONPATH=src python tools/bench_harness.py --serve-smoke  # service only
    PYTHONPATH=src python tools/bench_harness.py --campaign-smoke  # campaign only
    PYTHONPATH=src python tools/bench_harness.py --max-n 12 --out /tmp/b.json

Methodology: each timed section runs ``gc.collect()`` first and reports
the best of ``--repeats`` runs (cold-start allocator noise and GC churn
over millions of live objects otherwise dominate; see the per-section
``repeats`` field in the output).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.layout.grid_scheme import build_grid_layout  # noqa: E402
from repro.layout.validate import (  # noqa: E402
    validate_layout,
    validate_layout_legacy,
)
from repro.topology.butterfly import Butterfly  # noqa: E402
from repro.topology.graph import Graph  # noqa: E402
from repro.topology.swap import SwapNetwork, SwapNetworkParams  # noqa: E402
from repro.transform.swap_butterfly import SwapButterfly  # noqa: E402

#: The curated pytest-benchmark subset: one figure, one theorem, one
#: layout-engine and one scalability bench — enough to catch regressions
#: in every layer without running the whole (slow) suite.
CURATED_BENCHES = [
    "bench_fig1_isn_transform.py",
    "bench_fig2_swap_butterfly.py",
    "bench_fig4_collinear_k9.py",
    "bench_sec3_thompson.py",
    "bench_node_scalability.py",
]


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- per-edge reference constructors (the pre-vectorization code path) ----


def _swap_butterfly_per_edge(sb: SwapButterfly) -> Graph:
    g = Graph()
    for s in range(sb.stages):
        for u in range(sb.rows):
            g.add_node((u, s))
    for u, v, _kind in sb.links():
        g.add_edge(u, v)
    return g


def _butterfly_per_edge(b: Butterfly) -> Graph:
    g = Graph()
    for node in b.nodes():
        g.add_node(node)
    for u, v in b.edges():
        g.add_edge(u, v)
    return g


def _swap_network_per_edge(sn: SwapNetwork) -> Graph:
    g = Graph()
    g.add_nodes(range(sn.num_nodes))
    for u, v in sn.nucleus_links():
        g.add_edge(u, v)
    for level in range(2, sn.params.l + 1):
        for u, v in sn.inter_cluster_links(level):
            g.add_edge(u, v)
    return g


def bench_construction(
    ns: Sequence[int], repeats: int, per_edge_max_n: int
) -> List[Dict]:
    """Bulk vs per-edge construction across network families."""
    out: List[Dict] = []
    for n in ns:
        ks = SwapNetworkParams.for_dimension(n, 3).ks
        cases = [
            ("swap-butterfly", SwapButterfly.from_ks(ks),
             lambda o: o.graph(), _swap_butterfly_per_edge),
            ("butterfly", Butterfly(n),
             lambda o: o.graph(), _butterfly_per_edge),
            ("swap-network", SwapNetwork(SwapNetworkParams(ks)),
             lambda o: o.graph(), _swap_network_per_edge),
        ]
        for name, obj, bulk, per_edge in cases:
            bulk(obj)  # warm-up
            bulk_s = _best_of(lambda: bulk(obj), repeats)
            entry: Dict = {
                "network": name,
                "n": n,
                "ks": list(ks),
                "num_edges": bulk(obj).num_edges,
                "bulk_s": bulk_s,
                "repeats": repeats,
            }
            if n <= per_edge_max_n:
                per_edge_s = _best_of(lambda: per_edge(obj), repeats)
                entry["per_edge_s"] = per_edge_s
                entry["speedup"] = per_edge_s / bulk_s if bulk_s else None
            out.append(entry)
            print(
                f"  {name:15s} n={n:2d}: bulk {bulk_s * 1e3:9.2f} ms"
                + (
                    f"  per-edge {entry['per_edge_s'] * 1e3:9.2f} ms"
                    f"  speedup {entry['speedup']:6.1f}x"
                    if "per_edge_s" in entry
                    else "  (per-edge skipped)"
                )
            )
    return out


def bench_validation(ks_list: Sequence[Sequence[int]], repeats: int) -> List[Dict]:
    """Grid-scheme layout build + full validation."""
    out: List[Dict] = []
    for ks in ks_list:
        gc.collect()
        t0 = time.perf_counter()
        res = build_grid_layout(tuple(ks))
        build_s = time.perf_counter() - t0

        def run() -> None:
            validate_layout(res.layout, res.graph).raise_if_failed()

        run()  # warm-up + correctness
        validate_s = _best_of(run, repeats)
        out.append(
            {
                "ks": list(ks),
                "n": sum(ks),
                "num_wires": res.layout.num_wires(),
                "build_s": build_s,
                "validate_s": validate_s,
                "repeats": repeats,
            }
        )
        print(
            f"  grid layout ks={list(ks)}: build {build_s:7.2f} s  "
            f"validate {validate_s:7.2f} s"
        )
    return out


def bench_layout_engines(
    ks_list: Sequence[Sequence[int]], repeats: int, legacy_repeats: int = 1
) -> List[Dict]:
    """Columnar WireTable engine vs the object-per-wire original.

    For each size: build with both engines, check wire-for-wire parity
    (same nets, same segments, same order, same node rects), then time
    the vectorized validator against the legacy checker on the same
    geometry.  The legacy side runs ``legacy_repeats`` times (it is the
    slow side; best-of-many would only waste minutes).
    """
    out: List[Dict] = []
    for ks in ks_list:
        ks = tuple(ks)
        gc.collect()
        t0 = time.perf_counter()
        res_t = build_grid_layout(ks, engine="table")
        table_build_s = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        res_l = build_grid_layout(ks, engine="legacy")
        legacy_build_s = time.perf_counter() - t0

        # wire-for-wire parity, order included.  to_wires() keeps the
        # native table intact, so validation below stays columnar.
        wt = res_t.layout.wire_table().to_wires()
        wl = res_l.layout.wires
        parity = (
            res_t.layout.nodes == res_l.layout.nodes
            and len(wt) == len(wl)
            and all(
                a.net == b.net and a.segments == b.segments
                for a, b in zip(wt, wl)
            )
        )
        del wt

        def vec() -> None:
            validate_layout(res_t.layout, res_t.graph).raise_if_failed()

        vec()  # warm-up + correctness
        vec_validate_s = _best_of(vec, repeats)

        def leg() -> None:
            validate_layout_legacy(res_l.layout, res_l.graph).raise_if_failed()

        legacy_validate_s = _best_of(leg, legacy_repeats)

        entry = {
            "ks": list(ks),
            "n": sum(ks),
            "num_wires": res_t.layout.num_wires(),
            "num_segments": res_t.layout.segment_count(),
            "wire_parity": parity,
            "table_build_s": table_build_s,
            "legacy_build_s": legacy_build_s,
            "vec_validate_s": vec_validate_s,
            "legacy_validate_s": legacy_validate_s,
            "repeats": repeats,
            "legacy_repeats": legacy_repeats,
            "speedup_build": legacy_build_s / table_build_s,
            "speedup_validate": legacy_validate_s / vec_validate_s,
            "speedup_total": (legacy_build_s + legacy_validate_s)
            / (table_build_s + vec_validate_s),
        }
        out.append(entry)
        print(
            f"  layout engines ks={list(ks)}: build {table_build_s:6.2f} s "
            f"vs {legacy_build_s:6.2f} s ({entry['speedup_build']:.1f}x)  "
            f"validate {vec_validate_s:6.2f} s vs {legacy_validate_s:6.2f} s "
            f"({entry['speedup_validate']:.1f}x)  total "
            f"{entry['speedup_total']:.1f}x  "
            f"parity {'OK' if parity else 'FAILED'}"
        )
    return out


def bench_queued_routing(
    n: int, cycles: int, warmup: int, rate: float, repeats: int, batch: int
) -> Dict:
    """Vectorized queued-routing engine vs the pure-Python reference.

    Times three things interleaved (so machine-load drift hits both
    engines alike, best-of-``repeats`` each): the legacy loop, a single
    vectorized run, and a ``batch``-job batched run — the production
    :func:`sweep_rates` shape.  Also checks packet-for-packet parity of
    the two engines and exercises the ``StatsTrace`` CSV/JSON export.
    """
    from repro.algorithms.queued_routing import (  # noqa: PLC0415
        _run_batch,
        simulate_butterfly_queued,
        simulate_butterfly_queued_legacy,
    )

    jobs = [(rate, s) for s in range(batch)]
    # warm-up: allocator, lookup tables, numpy dispatch caches
    simulate_butterfly_queued(n, rate, cycles=min(cycles, 300),
                              warmup=min(warmup, 30), seed=3)
    _run_batch(n, jobs, min(cycles, 300), min(warmup, 30), None)
    legacy_s = vec_s = batch_s = float("inf")
    vres = lres = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        lres = simulate_butterfly_queued_legacy(
            n, rate, cycles=cycles, warmup=warmup, seed=3)
        legacy_s = min(legacy_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        vres = simulate_butterfly_queued(
            n, rate, cycles=cycles, warmup=warmup, seed=3)
        vec_s = min(vec_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _run_batch(n, jobs, cycles, warmup, None)
        batch_s = min(batch_s, time.perf_counter() - t0)
    parity = all(
        getattr(vres, f) == getattr(lres, f)
        for f in ("offered", "delivered", "drained", "in_flight")
    ) and abs(vres.avg_latency - lres.avg_latency) < 1e-9

    tr = simulate_butterfly_queued(
        min(n, 5), 0.7, cycles=400, warmup=50, trace=True).trace
    with tempfile.TemporaryDirectory() as tmp:
        tr.to_csv(os.path.join(tmp, "sim_trace.csv"))
        tr.to_json(os.path.join(tmp, "sim_trace.json"))

    entry = {
        "n": n,
        "rate_per_input": rate,
        "cycles": cycles,
        "warmup": warmup,
        "repeats": repeats,
        "batch_jobs": batch,
        "legacy_s": legacy_s,
        "vectorized_s": vec_s,
        "batch_s": batch_s,
        "batch_per_job_s": batch_s / batch,
        "speedup_single": legacy_s / vec_s,
        "speedup_batched": batch * legacy_s / batch_s,
        "parity": parity,
        "delivered_total": vres.delivered + vres.drained,
        "trace_cycles": int(tr.cycle.size),
    }
    print(
        f"  queued-routing n={n}: legacy {legacy_s:7.3f} s  "
        f"vectorized {vec_s:7.3f} s ({entry['speedup_single']:.1f}x)  "
        f"batch[{batch}] {batch_s / batch:7.3f} s/job "
        f"({entry['speedup_batched']:.1f}x)  "
        f"parity {'OK' if parity else 'FAILED'}"
    )
    return entry


def bench_packaging(
    ks_list: Sequence[Sequence[int]],
    repeats: int,
    legacy_repeats: int = 1,
    exact_sweep_n: Optional[int] = None,
    exact_workers: Optional[int] = None,
) -> Dict:
    """Columnar packaging engine vs the per-link legacy enumerator.

    Each timed run is build + count from scratch — construct the
    swap-butterfly and count off-module links of both the row and the
    nucleus partition — so the speedup covers the whole pin-accounting
    path, not just the inner kernel.  Parity checks totals *and* the
    per-module dicts.  ``exact_sweep_n`` additionally times the
    ``optimize_packaging(..., exact=True)`` sweep (columnar only: the
    legacy loops made it infeasible at n = 16).
    """
    from repro.packaging.optimizer import optimize_packaging  # noqa: PLC0415
    from repro.packaging.partition import (  # noqa: PLC0415
        NucleusPartition,
        RowPartition,
    )
    from repro.packaging.pins import (  # noqa: PLC0415
        count_off_module_links,
        count_off_module_links_legacy,
    )

    entries: List[Dict] = []
    for ks in ks_list:
        ks = tuple(ks)

        def columnar():
            sb = SwapButterfly.from_ks(ks)
            return (
                count_off_module_links(RowPartition.natural(sb)),
                count_off_module_links(NucleusPartition(sb)),
            )

        def legacy():
            sb = SwapButterfly.from_ks(ks)
            return (
                count_off_module_links_legacy(RowPartition.natural(sb)),
                count_off_module_links_legacy(NucleusPartition(sb)),
            )

        crow, cnuc = columnar()  # warm-up + parity data
        lrow, lnuc = legacy()
        parity = all(
            a.off_module_links == b.off_module_links
            and a.num_modules == b.num_modules
            and a.per_module == b.per_module
            and a.nodes_per_module == b.nodes_per_module
            for a, b in ((crow, lrow), (cnuc, lnuc))
        )
        col_s = _best_of(columnar, repeats)
        leg_s = _best_of(legacy, legacy_repeats)
        entry = {
            "ks": list(ks),
            "n": sum(ks),
            "num_links": crow.total_links,
            "row_off_module": crow.off_module_links,
            "nucleus_off_module": cnuc.off_module_links,
            "columnar_s": col_s,
            "legacy_s": leg_s,
            "repeats": repeats,
            "legacy_repeats": legacy_repeats,
            "parity": parity,
            "speedup": leg_s / col_s if col_s else None,
        }
        entries.append(entry)
        print(
            f"  packaging ks={list(ks)}: build+count {col_s * 1e3:8.2f} ms "
            f"vs {leg_s * 1e3:8.2f} ms ({entry['speedup']:.1f}x)  "
            f"parity {'OK' if parity else 'FAILED'}"
        )

    sweep = None
    if exact_sweep_n is not None:
        gc.collect()
        t0 = time.perf_counter()
        cands = optimize_packaging(
            exact_sweep_n, exact=True, workers=exact_workers
        )
        sweep_s = time.perf_counter() - t0
        verified = all(
            c.exact_pins is not None and c.exact_pins <= c.pins_per_module
            for c in cands
        )
        sweep = {
            "n": exact_sweep_n,
            "num_candidates": len(cands),
            "workers": exact_workers,
            "exact_sweep_s": sweep_s,
            "all_verified": verified,
        }
        print(
            f"  exact optimizer sweep n={exact_sweep_n}: "
            f"{len(cands)} candidates verified in {sweep_s:.2f} s "
            f"({'OK' if verified else 'FAILED'})"
        )
    return {"counts": entries, "exact_sweep": sweep}


def bench_benes(
    n: int, batch: int, repeats: int, legacy_count: int, parity_rows: int
) -> Dict:
    """Batched Benes routing engine vs the legacy recursion.

    Routes a seeded ``(batch, 2**n)`` permutation batch through
    :func:`route_permutations`, times the legacy recursion on
    ``legacy_count`` of the same permutations (the slow side; the total
    is scaled to the batch size), and gates on two kinds of parity:
    settings bit-for-bit identical to ``route_permutation_legacy`` on an
    exhaustive N=4 grid plus ``parity_rows`` rows of the batch, and
    ``apply_settings_batch`` realizing exactly the input permutations.
    """
    import itertools  # noqa: PLC0415

    from repro.algorithms.benes_routing import (  # noqa: PLC0415
        apply_settings_batch,
        route_permutation_legacy,
        route_permutations,
    )

    rng = np.random.default_rng(12345)
    N = 1 << n
    perms = np.array([rng.permutation(N) for _ in range(batch)])
    route_permutations(perms[: max(1, batch // 10)])  # warm-up
    batch_s = float("inf")
    settings = None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        settings = route_permutations(perms)
        batch_s = min(batch_s, time.perf_counter() - t0)

    gc.collect()
    t0 = time.perf_counter()
    legacy = [route_permutation_legacy(perms[i].tolist())
              for i in range(legacy_count)]
    legacy_s = time.perf_counter() - t0
    legacy_est_s = legacy_s / legacy_count * batch

    parity = all(
        np.array_equal(settings.crossed[i], legacy[i].to_array())
        for i in range(min(parity_rows, legacy_count))
    )
    for small in itertools.permutations(range(4)):
        got = route_permutations([list(small)]).crossed[0]
        want = route_permutation_legacy(list(small)).to_array()
        parity &= np.array_equal(got, want)
    realized_ok = bool(np.array_equal(apply_settings_batch(settings), perms))

    entry = {
        "n": n,
        "batch": batch,
        "repeats": repeats,
        "legacy_count": legacy_count,
        "batch_s": batch_s,
        "per_perm_s": batch_s / batch,
        "legacy_est_s": legacy_est_s,
        "legacy_per_perm_s": legacy_s / legacy_count,
        "speedup": legacy_est_s / batch_s,
        "settings_parity": parity,
        "realized_ok": realized_ok,
        "mean_crossed": float(settings.count_crossed().mean()),
    }
    print(
        f"  benes n={n}: batch[{batch}] {batch_s:7.3f} s "
        f"({batch_s / batch * 1e3:.2f} ms/perm)  legacy "
        f"{legacy_s / legacy_count * 1e3:.2f} ms/perm "
        f"({entry['speedup']:.1f}x)  settings parity "
        f"{'OK' if parity else 'FAILED'}  realized "
        f"{'OK' if realized_ok else 'FAILED'}"
    )
    return entry


def bench_serve(ks: Sequence[int], warm_repeats: int = 5) -> Dict:
    """Cached design-query service: cold compute vs warm cache hit.

    Runs the ``layout`` query against a throwaway artifact store — the
    cold call builds, validates and serializes the layout; the warm
    calls must read it back from disk.  Gates on the warm result being
    byte-identical (canonical JSON) to the cold one; the full-run
    acceptance floor is a 100x warm speedup at ``B_12``.
    """
    from repro.service import ArtifactStore, canonical_json, query  # noqa: PLC0415

    ks = tuple(ks)
    params = {"ks": list(ks)}
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(os.path.join(tmp, "cache"))
        info_cold: Dict = {}
        gc.collect()
        t0 = time.perf_counter()
        cold = query("layout", dict(params), store=store, info=info_cold)
        cold_s = time.perf_counter() - t0

        warm = None
        info_warm: Dict = {}
        warm_s = float("inf")
        for _ in range(warm_repeats):
            info_warm = {}
            t0 = time.perf_counter()
            warm = query("layout", dict(params), store=store, info=info_warm)
            warm_s = min(warm_s, time.perf_counter() - t0)

        byte_identical = canonical_json(cold) == canonical_json(warm)
        entry = {
            "ks": list(ks),
            "n": sum(ks),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s else None,
            "warm_repeats": warm_repeats,
            "cold_status": info_cold.get("cache"),
            "warm_status": info_warm.get("cache"),
            "byte_identical": byte_identical,
            "key": info_cold.get("key"),
        }
    print(
        f"  serve ks={list(ks)}: cold {cold_s:7.3f} s  warm "
        f"{warm_s * 1e3:7.3f} ms ({entry['speedup']:.0f}x)  "
        f"{info_cold.get('cache')}/{info_warm.get('cache')}  "
        f"byte-identical {'OK' if byte_identical else 'FAILED'}"
    )
    return entry


def bench_serve_http(ks: Sequence[int] = (2, 2, 2)) -> Dict:
    """HTTP smoke for ``repro serve``: in-process server on an ephemeral
    port, one cold and one warm ``/v1/layout`` query (bodies must be
    byte-identical, headers must flip miss -> hit), then a bit-flipped
    payload that ``ArtifactStore.verify()`` must flag and quarantine."""
    import threading  # noqa: PLC0415
    import urllib.request  # noqa: PLC0415

    from repro.service import ArtifactStore, make_server  # noqa: PLC0415

    ks = tuple(ks)
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(os.path.join(tmp, "cache"))
        srv = make_server(host="127.0.0.1", port=0, store=store, quiet=True)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            url = (
                f"http://127.0.0.1:{srv.server_address[1]}/v1/layout"
                f"?ks={','.join(map(str, ks))}"
            )
            gc.collect()
            t0 = time.perf_counter()
            with urllib.request.urlopen(url) as resp:
                cold_body = resp.read()
                cold_status = resp.headers.get("X-Repro-Cache")
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            with urllib.request.urlopen(url) as resp:
                warm_body = resp.read()
                warm_status = resp.headers.get("X-Repro-Cache")
            warm_s = time.perf_counter() - t0
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.server_close()

        # flip one payload byte on disk; verify() must catch it
        payloads = [
            os.path.join(dirpath, f)
            for dirpath, _dirs, files in os.walk(os.path.join(tmp, "cache"))
            for f in files
            if f == "payload.npz"
        ]
        with open(payloads[0], "r+b") as fh:
            fh.seek(100)
            b = fh.read(1)
            fh.seek(100)
            fh.write(bytes([b[0] ^ 0xFF]))
        vrep = store.verify()

    entry = {
        "ks": list(ks),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else None,
        "cold_status": cold_status,
        "warm_status": warm_status,
        "byte_identical": cold_body == warm_body,
        "verify_after_bitflip": vrep,
        "corruption_caught": len(vrep["corrupt"]) >= 1
        and vrep["quarantined"] >= 1,
    }
    print(
        f"  serve http ks={list(ks)}: cold {cold_s * 1e3:7.2f} ms "
        f"({cold_status})  warm {warm_s * 1e3:7.2f} ms ({warm_status})  "
        f"byte-identical {'OK' if entry['byte_identical'] else 'FAILED'}  "
        f"bit-flip {'caught' if entry['corruption_caught'] else 'MISSED'}"
    )
    return entry


#: The campaign smoke grid: every 3+-level partition of n = 6 (equal
#: per-point simulation cost, so worker sharding has a fair target), one
#: rate, full stage pipeline including the saturation bisection.
CAMPAIGN_SMOKE_SPEC = {
    "ks": [[3, 2, 1], [2, 2, 2], [2, 2, 1, 1], [2, 1, 1, 1, 1],
           [3, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
    "rate": [0.8],
    "config": {"cycles": 3000, "warmup": 300, "benes_batch": 32,
               "sat_max_n": 6},
}


def bench_campaign(workers: int = 3) -> Dict:
    """Campaign orchestrator: worker sharding + kill/resume byte-identity.

    Three cold runs of the smoke grid, each in its own run tree with its
    own run-local cache: serial, sharded across ``workers``, and a
    sharded run that then gets damaged (one stage record truncated
    mid-write, another deleted along with the manifest) and resumed.
    Gates: the sharded and resumed manifests/frontiers must be
    byte-identical to the serial run's, the resume must re-run only the
    damaged checkpoints, every per-point verify proof must hold, and
    sharding must actually pay for itself.
    """
    from repro.campaign import resume_run, start_run  # noqa: PLC0415

    spec = CAMPAIGN_SMOKE_SPEC

    def outputs(run_dir: str):
        with open(os.path.join(run_dir, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        with open(os.path.join(run_dir, "frontier.json"), "rb") as fh:
            frontier = fh.read()
        return manifest, frontier

    with tempfile.TemporaryDirectory() as tmp:
        gc.collect()
        t0 = time.perf_counter()
        serial = start_run(spec, runs_dir=os.path.join(tmp, "serial"),
                           run_id="bench")
        serial_s = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        sharded = start_run(spec, runs_dir=os.path.join(tmp, "sharded"),
                            run_id="bench", workers=workers)
        sharded_s = time.perf_counter() - t0

        m_serial, f_serial = outputs(serial["run_dir"])
        identical_sharded = outputs(sharded["run_dir"]) == (m_serial, f_serial)

        manifest = json.loads(m_serial)
        proofs_verified = all(
            q["verified"]
            for point in manifest["points"]
            for stage in point["stages"].values()
            for q in stage["queries"]
        )

        # third run, then simulate a mid-flight kill: truncate one stage
        # record (torn write), delete another plus the manifest
        victim = start_run(spec, runs_dir=os.path.join(tmp, "victim"),
                           run_id="bench", workers=workers)
        vdir = victim["run_dir"]
        with open(os.path.join(vdir, "points", "p0002", "stages",
                               "saturation.json"), "r+b") as fh:
            fh.truncate(23)
        os.unlink(os.path.join(vdir, "points", "p0004", "stages",
                               "benes.json"))
        os.unlink(os.path.join(vdir, "manifest.json"))
        resumed = resume_run(vdir)
        identical_resumed = outputs(vdir) == (m_serial, f_serial)

    total_stages = serial["stages_run"]
    entry = {
        "points": serial["points"],
        "total_stages": total_stages,
        "workers": workers,
        "serial_s": serial_s,
        "sharded_s": sharded_s,
        "speedup": serial_s / sharded_s if sharded_s else None,
        "byte_identical_sharded": identical_sharded,
        "resume_stages_run": resumed["stages_run"],
        "resume_partial": 0 < resumed["stages_run"] < total_stages,
        "byte_identical_resumed": identical_resumed,
        "proofs_verified": proofs_verified,
        "failed_points": serial["counts"]["failed"],
        "frontier_points": serial["frontier_points"],
    }
    print(
        f"  campaign {entry['points']} pts/{total_stages} stages: serial "
        f"{serial_s:6.2f} s  sharded[{workers}] {sharded_s:6.2f} s "
        f"({entry['speedup']:.1f}x)  sharded bytes "
        f"{'OK' if identical_sharded else 'FAILED'}  resume "
        f"{resumed['stages_run']}/{total_stages} stages, bytes "
        f"{'OK' if identical_resumed else 'FAILED'}  proofs "
        f"{'OK' if proofs_verified else 'FAILED'}"
    )
    return entry


def _gate_campaign(entry: Dict) -> int:
    """Shared hard gates for the campaign section (smoke and full)."""
    if not entry["byte_identical_sharded"]:
        print("ERROR: sharded campaign manifest/frontier differ from the "
              "serial run", file=sys.stderr)
        return 1
    if not entry["byte_identical_resumed"] or not entry["resume_partial"]:
        print(f"ERROR: damaged campaign resume ran "
              f"{entry['resume_stages_run']}/{entry['total_stages']} stages "
              f"and byte-identity "
              f"{'held' if entry['byte_identical_resumed'] else 'BROKE'}",
              file=sys.stderr)
        return 1
    if not entry["proofs_verified"]:
        print("ERROR: a campaign verify-gate proof failed its digest "
              "cross-check", file=sys.stderr)
        return 1
    if entry["failed_points"]:
        print(f"ERROR: {entry['failed_points']} smoke-grid point(s) failed",
              file=sys.stderr)
        return 1
    # the speedup floor scales with the cores actually available: on a
    # single-core runner sharding cannot win wall-clock, so gate on the
    # overhead staying bounded instead
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        floor = 2.0 if cpus >= 4 else 1.2
        if entry["speedup"] < floor:
            print(f"WARNING: campaign sharding speedup "
                  f"{entry['speedup']:.1f}x below the {floor}x floor "
                  f"({cpus} cpus)", file=sys.stderr)
            return 1
    elif entry["sharded_s"] > entry["serial_s"] * 1.5:
        print(f"WARNING: campaign sharding overhead "
              f"{entry['sharded_s']:.2f} s vs {entry['serial_s']:.2f} s "
              f"serial on a single-core runner", file=sys.stderr)
        return 1
    return 0


def run_curated_benches(benches: Sequence[str]) -> Optional[List[Dict]]:
    """Run the curated pytest-benchmark subset; fold in its stats."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "pytest_bench.json")
        cmd = [
            sys.executable, "-m", "pytest",
            *[os.path.join("benchmarks", b) for b in benches],
            "--benchmark-only", "-q", f"--benchmark-json={json_path}",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:])
            print(proc.stderr[-2000:], file=sys.stderr)
            raise SystemExit(f"curated benchmark run failed ({proc.returncode})")
        with open(json_path) as fh:
            data = json.load(fh)
    out = []
    for b in data.get("benchmarks", []):
        out.append(
            {
                "name": b["name"],
                "mean_s": b["stats"]["mean"],
                "stddev_s": b["stats"]["stddev"],
                "rounds": b["stats"]["rounds"],
            }
        )
        print(f"  {b['name']:45s} mean {b['stats']['mean'] * 1e3:9.2f} ms")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: small dimensions, no curated suite")
    ap.add_argument("--sim-smoke", action="store_true",
                    help="queued-routing engine smoke only: parity, "
                         "speedup and trace export at a CI-sized load")
    ap.add_argument("--layout-smoke", action="store_true",
                    help="layout engine smoke only: wire-for-wire parity "
                         "and build+validate speedup at a CI-sized size")
    ap.add_argument("--packaging-smoke", action="store_true",
                    help="packaging engine smoke only: per-module-dict "
                         "parity and build+count speedup at a CI-sized "
                         "size plus a small exact optimizer sweep")
    ap.add_argument("--benes-smoke", action="store_true",
                    help="Benes routing engine smoke only: bit-for-bit "
                         "settings parity vs the recursion and batched "
                         "speedup at a CI-sized batch")
    ap.add_argument("--serve-smoke", action="store_true",
                    help="cached design-query service smoke only: HTTP "
                         "cold/warm byte-identity, warm >= 2x cold, and "
                         "bit-flip corruption detection")
    ap.add_argument("--campaign-smoke", action="store_true",
                    help="campaign orchestrator smoke only: serial vs "
                         "sharded byte-identity, damaged-run resume, "
                         "verify-gate proofs and a sharding speedup floor")
    ap.add_argument("--max-n", type=int, default=16,
                    help="largest butterfly dimension to construct (default 16)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repetitions per measurement; best is reported")
    ap.add_argument("--out", type=str, default=None,
                    help="output JSON path (default BENCH_<date>.json in repo root)")
    args = ap.parse_args(argv)

    if args.smoke:
        ns = [n for n in (6, 8, 10) if n <= args.max_n]
        val_ks = [(2, 2, 2)]
        per_edge_max_n = 10
        repeats = 1
    else:
        ns = [n for n in (8, 10, 12, 14, 16) if n <= args.max_n]
        val_ks = [(2, 2, 2), (3, 3, 3), (4, 4, 4)]
        per_edge_max_n = min(args.max_n, 16)
        repeats = args.repeats

    date = _dt.date.today().isoformat()
    out_path = args.out or os.path.join(REPO_ROOT, f"BENCH_{date}.json")

    if args.layout_smoke:
        print("layout engine smoke (wire parity + build/validate speedup):")
        entries = bench_layout_engines([(2, 2, 2)], repeats=2)
        report = {
            "generated": date,
            "layout_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "layout_engines": entries,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        e = entries[0]
        if not e["wire_parity"]:
            print("ERROR: table engine layout diverged wire-for-wire from "
                  "the legacy builder", file=sys.stderr)
            return 1
        if e["speedup_total"] < 2.0:
            print(f"WARNING: layout engine speedup {e['speedup_total']:.1f}x "
                  f"below 2x smoke floor", file=sys.stderr)
            return 1
        return 0

    if args.packaging_smoke:
        print("packaging engine smoke (dict parity + build/count speedup):")
        section = bench_packaging([(3, 3, 3)], repeats=3, exact_sweep_n=10)
        report = {
            "generated": date,
            "packaging_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "packaging": section,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        e = section["counts"][0]
        if not e["parity"]:
            print("ERROR: columnar pin counts diverged from the legacy "
                  "enumerator", file=sys.stderr)
            return 1
        if e["speedup"] < 2.0:
            print(f"WARNING: packaging speedup {e['speedup']:.1f}x below "
                  f"2x smoke floor", file=sys.stderr)
            return 1
        if not section["exact_sweep"]["all_verified"]:
            print("ERROR: exact optimizer sweep failed verification",
                  file=sys.stderr)
            return 1
        return 0

    if args.benes_smoke:
        print("benes routing smoke (settings parity + batched speedup):")
        entry = bench_benes(n=6, batch=200, repeats=2,
                            legacy_count=50, parity_rows=20)
        report = {
            "generated": date,
            "benes_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "benes_routing": entry,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        if not entry["settings_parity"] or not entry["realized_ok"]:
            print("ERROR: batched Benes engine diverged from the legacy "
                  "recursion", file=sys.stderr)
            return 1
        if entry["speedup"] < 2.0:
            print(f"WARNING: benes speedup {entry['speedup']:.1f}x below "
                  f"2x smoke floor", file=sys.stderr)
            return 1
        return 0

    if args.serve_smoke:
        print("service smoke (HTTP byte-identity + corruption detection):")
        entry = bench_serve_http(ks=(2, 2, 2))
        report = {
            "generated": date,
            "serve_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "serve": entry,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        if not entry["byte_identical"]:
            print("ERROR: warm HTTP response differs from the cold compute",
                  file=sys.stderr)
            return 1
        if entry["warm_status"] != "hit" or entry["cold_status"] != "miss":
            print(f"ERROR: cache headers wrong (cold "
                  f"{entry['cold_status']}, warm {entry['warm_status']})",
                  file=sys.stderr)
            return 1
        if not entry["corruption_caught"]:
            print("ERROR: bit-flipped payload not quarantined by verify()",
                  file=sys.stderr)
            return 1
        if entry["speedup"] < 2.0:
            print(f"WARNING: warm hit speedup {entry['speedup']:.1f}x below "
                  f"2x smoke floor", file=sys.stderr)
            return 1
        return 0

    if args.campaign_smoke:
        print("campaign smoke (sharding + kill/resume byte-identity):")
        entry = bench_campaign(workers=3)
        report = {
            "generated": date,
            "campaign_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "campaign": entry,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        return _gate_campaign(entry)

    if args.sim_smoke:
        print("queued-routing smoke (parity + speedup + trace export):")
        entry = bench_queued_routing(
            n=6, cycles=1500, warmup=150, rate=0.8, repeats=2, batch=8)
        report = {
            "generated": date,
            "sim_smoke": True,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "queued_routing": entry,
        }
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")
        if not entry["parity"]:
            print("ERROR: vectorized engine diverged from the reference",
                  file=sys.stderr)
            return 1
        if entry["speedup_batched"] < 2.0:
            print(f"WARNING: batched sim speedup "
                  f"{entry['speedup_batched']:.1f}x below 2x floor",
                  file=sys.stderr)
            return 1
        return 0

    print(f"construction (bulk vs per-edge, best of {repeats}):")
    construction = bench_construction(ns, repeats, per_edge_max_n)
    print("layout build + validation:")
    validation = bench_validation(val_ks, repeats)
    print("layout engines (columnar WireTable vs object-per-wire):")
    layout_engines = bench_layout_engines(val_ks, repeats)
    print("queued-routing simulator (legacy vs vectorized, interleaved):")
    if args.smoke:
        queued = bench_queued_routing(
            n=6, cycles=1500, warmup=150, rate=0.8, repeats=2, batch=8)
    else:
        queued = bench_queued_routing(
            n=8, cycles=2000, warmup=200, rate=0.8,
            repeats=max(repeats, 5), batch=16)
    print("packaging engine (columnar vs per-link legacy):")
    if args.smoke:
        packaging = bench_packaging([(3, 3, 3)], repeats=2, exact_sweep_n=10)
    else:
        packaging = bench_packaging(
            [(3, 3, 3), (4, 4, 4), (5, 5, 4)], repeats=repeats,
            exact_sweep_n=min(args.max_n, 16),
        )
    print("benes routing engine (batched vs legacy recursion):")
    if args.smoke:
        benes = bench_benes(n=6, batch=200, repeats=2,
                            legacy_count=50, parity_rows=20)
    else:
        benes = bench_benes(n=10, batch=1000, repeats=max(repeats, 3),
                            legacy_count=25, parity_rows=10)
    print("cached design-query service (cold compute vs warm hit):")
    serve = bench_serve(max(val_ks, key=sum), warm_repeats=5)
    print("campaign orchestrator (sharding + kill/resume byte-identity):")
    campaign = bench_campaign(workers=3)
    curated = None
    if not args.smoke:
        print("curated benchmark subset:")
        curated = run_curated_benches(CURATED_BENCHES)

    report = {
        "generated": date,
        "smoke": args.smoke,
        "max_n": args.max_n,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "construction": construction,
        "validation": validation,
        "layout_engines": layout_engines,
        "queued_routing": queued,
        "packaging": packaging,
        "benes_routing": benes,
        "serve": serve,
        "campaign": campaign,
        "curated_benchmarks": curated,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")

    # sanity gate: the vectorized path must actually be faster
    worst = min(
        (e["speedup"] for e in construction
         if e["network"] == "swap-butterfly" and e["n"] >= 12
         and e.get("speedup")),
        default=None,
    )
    if worst is not None and worst < 3.0:
        print(f"WARNING: swap-butterfly speedup {worst:.1f}x below 3x target",
              file=sys.stderr)
        return 1
    if not queued["parity"]:
        print("ERROR: vectorized queued-routing engine diverged from the "
              "reference", file=sys.stderr)
        return 1
    if any(not e["wire_parity"] for e in layout_engines):
        print("ERROR: table engine layout diverged wire-for-wire from the "
              "legacy builder", file=sys.stderr)
        return 1
    largest = max(layout_engines, key=lambda e: e["num_wires"])
    if not args.smoke and largest["speedup_total"] < 10.0:
        print(f"WARNING: layout engine speedup {largest['speedup_total']:.1f}x "
              f"at ks={largest['ks']} below the 10x acceptance floor",
              file=sys.stderr)
        return 1
    if any(not e["parity"] for e in packaging["counts"]):
        print("ERROR: columnar pin counts diverged from the legacy "
              "enumerator", file=sys.stderr)
        return 1
    big_pkg = max(packaging["counts"], key=lambda e: e["num_links"])
    if not args.smoke and big_pkg["speedup"] < 10.0:
        print(f"WARNING: packaging speedup {big_pkg['speedup']:.1f}x at "
              f"ks={big_pkg['ks']} below the 10x acceptance floor",
              file=sys.stderr)
        return 1
    if packaging["exact_sweep"] and not packaging["exact_sweep"]["all_verified"]:
        print("ERROR: exact optimizer sweep failed verification",
              file=sys.stderr)
        return 1
    if not benes["settings_parity"] or not benes["realized_ok"]:
        print("ERROR: batched Benes engine diverged from the legacy "
              "recursion", file=sys.stderr)
        return 1
    if not args.smoke and benes["speedup"] < 10.0:
        print(f"WARNING: benes speedup {benes['speedup']:.1f}x below the "
              f"10x acceptance floor", file=sys.stderr)
        return 1
    if not serve["byte_identical"]:
        print("ERROR: warm cache hit differs byte-for-byte from the cold "
              "compute", file=sys.stderr)
        return 1
    if not args.smoke and serve["speedup"] < 100.0:
        print(f"WARNING: warm-hit speedup {serve['speedup']:.0f}x at "
              f"ks={serve['ks']} below the 100x acceptance floor",
              file=sys.stderr)
        return 1
    return _gate_campaign(campaign)


if __name__ == "__main__":
    raise SystemExit(main())
