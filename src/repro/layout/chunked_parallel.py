"""Multi-worker chunked build+validate with a byte-identical reduce.

The serial chunked pipeline (:mod:`repro.layout.chunked`) streams a
layout's chunks through one :class:`ChunkedValidator`.  This module fans
that stream out over a ``multiprocessing`` pool while keeping the final
:class:`~repro.layout.validate.ValidationReport` and summary dict
**byte-identical** to the serial path at any worker count and budget
(pinned by ``tests/test_chunked_parallel.py``):

* the producer splits the build's picklable chunk *descriptors* into one
  contiguous span per worker, so span order equals emission order;
* bulk inputs every chunk needs (track assignments, block-id arrays) are
  published once through the :mod:`repro.backend.shm` handoff and
  attached zero-copy in each worker;
* each worker materialises and validates its span with a private
  :class:`ChunkedValidator` in *span-local* numbering (wire offsets,
  via-section positions, terminal sequence all start at 0), spills the
  first chunk the validator holds in memory, closes its append handles
  and returns its tallies, spill extents, net-file index and counters;
* the reducer computes each worker's global offsets by prefix sum,
  registers the spill extents with per-column additive rebase vectors
  (applied at reload, never rewriting bytes) and the net-file entries
  with their wire starts shifted by the span's wire offset, merges the
  streaming tallies and realizes-graph array accumulators in span order,
  then runs the very same :func:`~repro.layout.chunked._reduce_finalize`
  the serial path uses — with the bucket sweeps themselves dispatched
  to the pool.

Determinism argument, check by check: streaming tallies cap their first
20 messages and chunks-in-span-order equals chunks-in-emission-order;
grouped checks sort by globally-unique keys after rebase, so partition
boundaries are invisible; the merged net-file index is in global wire
order, so a realizes-graph multiset rebuilt from it has the monolithic
first-occurrence order the fallback's message selection depends on;
and the array fast path folds through the associative
``Graph._aggregate_rows``.

``workers=1`` runs the same worker functions inline (no pool, no shared
memory) — handy for determinism checks and coverage.  A worker process
that dies mid-span surfaces as a clean ``RuntimeError`` and the shared
block is still unlinked on the way out (``ExitStack`` owns it).
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend.shm import attach_cached, share_arrays
from ..topology.graph import Graph
from .chunked import (
    ChunkStats,
    ChunkedBuild,
    ChunkedValidator,
    _fast_stub,
    _fast_template,
    _reduce_finalize,
    _sweep_job,
    chunked_collinear_table,
    chunked_grid_table,
)
from .validate import ValidationReport

__all__ = ["parallel_validate"]

# one rebuilt ChunkedBuild per recipe per worker process; when the pool
# forks, pre-seeding the parent entry makes the rebuild free
_RECIPE_CACHE: Dict[Tuple, ChunkedBuild] = {}


def _build_from_recipe(recipe: Tuple) -> ChunkedBuild:
    b = _RECIPE_CACHE.get(recipe)
    if b is None:
        kind = recipe[0]
        if kind == "collinear":
            _, n, mult, node_side, order, budget = recipe
            b = chunked_collinear_table(
                n, mult, node_side=node_side, order=order,
                memory_budget_bytes=budget,
            )
        elif kind == "grid":
            _, ks, W, L, track_order, recirc, budget = recipe
            b = chunked_grid_table(
                ks, W=W, L=L, track_order=track_order,
                recirculating=recirc, memory_budget_bytes=budget,
            )
        else:
            raise ValueError(f"unknown recipe kind {kind!r}")
        _RECIPE_CACHE[recipe] = b
    return b


def _offsets_for(
    name: str, w: int, gw: int, bend: int, term: int
) -> Tuple[int, ...]:
    """Per-column rebase vector lifting a worker's span-local spill rows
    into global numbering: wire ids shift by the span's wire offset,
    via-query section positions by the start/end (sections 0/1) or bend
    (section 2) count, terminal arrival sequence by the terminal count."""
    if name == "tracks":
        return (0, 0, 0, 0, 0, w)
    if name in ("viacol", "seg_h", "seg_v"):
        return (0, 0, 0, 0, w)
    if name.startswith("qry_"):
        sec = int(name[-1])
        return (0, 0, 0, w, gw if sec < 2 else bend, 0)
    if name == "terms":
        return (0, 0, term, w)
    raise ValueError(f"unknown spill store {name!r}")


def _feed_span(payload: Tuple) -> Dict:
    """Worker: materialise + validate one contiguous descriptor span with
    span-local numbering; return tallies, spill extents, the net-file
    index and counters.

    Runs in a pool process (or inline for ``workers=1``); never calls
    ``finalize`` — it spills the chunk its validator holds, closes its
    append handles and hands the spill and net files, which live in a
    parent-owned directory, to the reducer.
    """
    (widx, span, pack, nodes_model, fast_kk, check_nodes,
     check_vias, nb, spill_root, want_stats) = payload
    if span[0] == "recipe":
        build = _build_from_recipe(span[1])
        nodes, model = build.nodes, build.model
        views = attach_cached(pack) if pack is not None else None

        def tables():
            for d in build.descriptors[span[2]:span[3]]:
                t = build._materialize(d, views)
                if t.num_wires:
                    yield t
    else:
        nodes, model = nodes_model

        def tables():
            yield from span[1]

    v = ChunkedValidator(
        nodes, model, graph=None, check_nodes=check_nodes,
        check_vias=check_vias, num_buckets=nb,
        spill_dir=os.path.join(spill_root, f"w{widx:03d}"),
    )
    if fast_kk is not None:
        v._fast = _fast_stub(*fast_kk)
    st = ChunkStats() if want_stats else None
    if os.environ.get("REPRO_TEST_CRASH_WORKER") == str(widx):
        os._exit(3)  # test seam: die mid-span without cleanup
    try:
        for t in tables():
            v.feed(t)
            if st is not None:
                st.feed(t)
        v._spill_held()
    finally:
        v.close()
    out = {
        "counts": (v._wire_off, v._gw_count, v._bend_count, v._term_count),
        "layer": (v._t_layer.count, v._t_layer.msgs),
        "contig": (v._t_contig.count, v._t_contig.msgs),
        "avoid": (v._t_avoid.count, v._t_avoid.msgs),
        "parts": {name: s.parts for name, s in v._stores.items()},
        "nets": v._nets.index,
        "fast": None,
        "stats": None,
    }
    if v._fast is not None:
        out["fast"] = (v._fast["uniq"], v._fast["agg"])
    if st is not None:
        out["stats"] = (
            st.wires, st.segments, st.total_wire_length,
            st.max_wire_length, st.vias, st.box,
        )
    return out


def _merge_results(v: ChunkedValidator, results: List[Dict]) -> None:
    """Fold worker results into the reducer validator in span order."""
    w_off = gw_off = bend_off = term_off = 0
    stores = v._stores
    for r in results:
        v._t_layer.add(*r["layer"])
        v._t_contig.add(*r["contig"])
        v._t_avoid.add(*r["avoid"])
        if v._fast is not None:
            if r["fast"] is None:
                v._fast = None  # some chunk fell off the array fast path
            else:
                uniq, agg = r["fast"]
                if len(uniq):
                    v._fast["uniq"], v._fast["agg"] = Graph._aggregate_rows(
                        np.concatenate([v._fast["uniq"], uniq]),
                        np.concatenate([v._fast["agg"], agg]),
                    )
        # span-order extension keeps the net index in global wire order,
        # which the realizes fallback's message selection depends on
        v._nets.index.extend(
            (start + w_off, path, pos) for start, path, pos in r["nets"]
        )
        for name, parts in r["parts"].items():
            off = _offsets_for(name, w_off, gw_off, bend_off, term_off)
            rebase = (off,) if any(off) else ()
            for k, extents in enumerate(parts):
                stores[name].parts[k].extend(e + rebase for e in extents)
        cw, cgw, cbend, cterm = r["counts"]
        w_off += cw
        gw_off += cgw
        bend_off += cbend
        term_off += cterm
    v._wire_off = w_off
    v._gw_count = gw_off
    v._bend_count = bend_off
    v._term_count = term_off


def _merge_stats(results: List[Dict]) -> ChunkStats:
    st = ChunkStats()
    for r in results:
        wires, segments, total, mx, vias, box = r["stats"]
        st.wires += wires
        st.segments += segments
        st.total_wire_length += total
        st.max_wire_length = max(st.max_wire_length, mx)
        st.vias += vias
        if box is not None:
            if st.box is None:
                st.box = box
            else:
                st.box = (
                    min(st.box[0], box[0]), min(st.box[1], box[1]),
                    max(st.box[2], box[2]), max(st.box[3], box[3]),
                )
    return st


def _gather(futs):
    try:
        return [f.result() for f in futs]
    except BrokenProcessPool as e:
        raise RuntimeError(
            "parallel chunked validate: a worker process died before "
            "returning its span; shared-memory blocks and spill "
            "directories are cleaned up on this error path"
        ) from e


def parallel_validate(
    source,
    nodes=None,
    model=None,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
    num_buckets: int = 8,
    spill_dir: Optional[str] = None,
    workers: int = 1,
    want_stats: bool = False,
) -> Union[ValidationReport, Tuple[ValidationReport, Dict[str, int]]]:
    """Parallel chunked build+validate over ``workers`` processes.

    ``source`` is a :class:`ChunkedBuild` (its ``nodes``/``model`` are
    used; a recipe source streams descriptors out-of-core) or any
    iterable of :class:`WireTable` chunks (buffered, then span-split).
    Returns the report, or ``(report, summary)`` with ``want_stats`` —
    both byte-identical to the serial path.
    """
    w = int(workers)
    if w < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    build = source if isinstance(source, ChunkedBuild) else None
    if build is not None:
        nodes, model = build.nodes, build.model
    elif nodes is None or model is None:
        raise ValueError(
            "nodes and model are required when source is not a ChunkedBuild"
        )
    recipe_mode = (
        build is not None
        and build.recipe is not None
        and build.descriptors is not None
    )
    if recipe_mode:
        items: List = build.descriptors
    elif build is not None:
        items = list(build.chunks())
    else:
        items = list(source)
    n_items = len(items)
    if n_items == 0:
        v = ChunkedValidator(
            nodes, model, graph=graph, check_nodes=check_nodes,
            check_vias=check_vias,
            num_buckets=num_buckets, spill_dir=spill_dir,
        )
        try:
            rep = v.finalize()
        finally:
            v.close()
        if want_stats:
            return rep, ChunkStats().summary(nodes, model)
        return rep
    w = min(w, n_items)
    base, rem = divmod(n_items, w)
    bounds = [0]
    for i in range(w):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    fast_tpl = _fast_template(graph) if graph is not None else None
    fast_kk = (fast_tpl["k"], fast_tpl["kk"]) if fast_tpl is not None else None
    if recipe_mode:
        # forked workers inherit the already-built source for free
        _RECIPE_CACHE.setdefault(build.recipe, build)

    with ExitStack() as stack:
        if spill_dir is None:
            root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-parallel-")
            )
        else:
            os.makedirs(spill_dir, exist_ok=True)
            root = spill_dir
        pack = None
        if recipe_mode and w > 1 and build._bulk is not None:
            bulk = build._bulk()
            if bulk:
                pack = stack.enter_context(share_arrays(**bulk))
        payloads = []
        for widx in range(w):
            lo, hi = bounds[widx], bounds[widx + 1]
            span = (
                ("recipe", build.recipe, lo, hi) if recipe_mode
                else ("tables", items[lo:hi])
            )
            payloads.append((
                widx, span, pack,
                None if recipe_mode else (nodes, model),
                fast_kk, check_nodes, check_vias,
                num_buckets, root, want_stats,
            ))
        ex = None
        if w > 1:
            ex = stack.enter_context(ProcessPoolExecutor(max_workers=w))
            results = _gather([ex.submit(_feed_span, p) for p in payloads])
        else:
            results = [_feed_span(p) for p in payloads]

        v = ChunkedValidator(
            nodes, model, graph=graph, check_nodes=check_nodes,
            check_vias=check_vias, num_buckets=num_buckets,
        )
        _merge_results(v, results)
        v._finalized = True

        def run_jobs(sweeps):
            if ex is None:
                return [_sweep_job(p) for p in sweeps]
            return _gather([ex.submit(_sweep_job, p) for p in sweeps])

        rep = _reduce_finalize(v, run_jobs)
        summ = (
            _merge_stats(results).summary(nodes, model)
            if want_stats else None
        )
    if want_stats:
        return rep, summ
    return rep
