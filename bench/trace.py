"""Spans around calls into each layer's public functions.

The program carries no instrumentation of its own, so the benchmark
records spans from outside: :meth:`Tracer.install` replaces each target
attribute in :data:`TARGETS` with a wrapper that opens a span, and
:meth:`Tracer.uninstall` puts the originals back.  A target is wrapped
at the attribute its caller resolves at call time — a module global
read by a from-import inside a function body, or a class attribute —
so every call the layer above makes passes through the wrapper.

A span is ``[name, parent_id, start, end, iteration, counters]``; its id
is its index in :attr:`Tracer.spans`.  Spans stay in memory until the
run ends.  Each timed iteration has one root span named ``iteration``.
A span's self time is its duration minus the durations of its direct
children (calls are serial, so children never overlap), which makes the
self times of one iteration sum to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "iteration"

_now = time.perf_counter


def _put_bytes(args, key) -> Dict[str, int]:
    d = args[0].entry_dir(key)
    return {"bytes": sum(os.path.getsize(os.path.join(d, f))
                         for f in os.listdir(d))}


def _layout_wires(args, res) -> Dict[str, int]:
    return {"wires": int(res.layout.wire_table().num_wires)}


def _sim_counts(args, res) -> Dict[str, int]:
    return {"cycles": int(res.cycles + res.drain_cycles),
            "delivered": int(res.delivered_total)}


def _perms(args, res) -> Dict[str, int]:
    return {"perms": len(args[0])}


def _chunk_wires(args, res) -> Dict[str, int]:
    return {"wires": int(args[1].num_wires)}


#: ``(module, attribute, span name, counters)``.  A callable span name
#: receives the call's positional args; ``counters(args, result)``
#: returns the span's counters.
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("repro.campaign", "start_run", "campaign.start_run", None),
    ("repro.campaign.orchestrator", "run_stage",
     lambda a: "campaign.stage." + a[0], None),
    ("repro.campaign.stages", "query", "service.query", None),
    ("repro.service", "query", "service.query", None),
    ("repro.service.handlers", "compute",
     lambda a: "service.compute." + a[0], None),
    ("repro.service.store", "ArtifactStore.get", "store.get", None),
    ("repro.service.store", "ArtifactStore.put", "store.put", _put_bytes),
    ("repro.service.store", "ArtifactStore.load_arrays",
     "store.load_arrays", None),
    ("repro.layout", "build_grid_layout", "layout.build", _layout_wires),
    ("repro.layout", "validate_layout", "layout.validate", None),
    ("repro.layout", "grid_graph", "chunked.graph", None),
    ("repro.analysis.wirestats", "wire_stats", "analysis.wire_stats", None),
    ("repro.algorithms.queued_routing", "simulate_butterfly_queued",
     "sim.simulate", _sim_counts),
    ("repro.algorithms.queued_routing", "saturation_per_node_rate",
     "sim.saturation", None),
    ("repro.algorithms.benes_routing", "route_permutations",
     "benes.route", _perms),
    ("repro.algorithms.benes_routing", "apply_settings_batch",
     "benes.apply", None),
    ("repro.packaging", "count_off_module_links",
     "packaging.count_links", None),
    ("repro.packaging", "NaiveRowPartition.exact_pin_counts",
     "packaging.exact_pins", None),
    ("repro.layout.chunked", "ChunkedBuild.validate_and_summarize",
     "chunked.validate_and_summarize", None),
    ("repro.layout.chunked", "ChunkedValidator.feed", "chunked.feed",
     _chunk_wires),
    ("repro.layout.chunked", "ChunkedValidator.finalize",
     "chunked.finalize", None),
    ("repro.layout.chunked", "ChunkStats.feed", "chunked.stats", None),
)

STAGES = ("layout", "validate", "package", "benes", "saturation")
COMPUTE_KINDS = ("layout", "sim", "saturation", "benes", "package")


def resolve(module: str, attr: str) -> Tuple[object, str]:
    """``(owner, name)`` such that ``getattr(owner, name)`` is the target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.iteration = -1
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._roots: Dict[int, list] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _call(self, fn, name, count, args, kwargs):
        if callable(name):
            name = name(args)
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
               self.iteration, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = _now()
            self._stack.pop()
        if count is not None:
            rec[5] = count(args, result)
        return result

    @contextlib.contextmanager
    def root(self, iteration: int) -> Iterator[None]:
        """The root span of one timed iteration."""
        self.iteration = iteration
        rec = [ROOT, -1, 0.0, 0.0, iteration, {}]
        self._roots[iteration] = rec
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = _now()
        try:
            yield
        finally:
            rec[3] = _now()
            self._stack.pop()

    def note(self, iteration: int, **counters: int) -> None:
        """Attach counters measured outside the timed region (spill files,
        say) to the iteration's root span."""
        root = self._roots.get(iteration)
        if root is not None:
            root[5].update(counters)

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            owner, aname = resolve(module, attr)
            fn = getattr(owner, aname)
            wrapper = functools.wraps(fn)(
                lambda *a, _fn=fn, _n=name, _c=count, **k:
                self._call(_fn, _n, _c, a, k)
            )
            self._saved.append((owner, aname, owner.__dict__[aname]))
            setattr(owner, aname, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, aname, original = self._saved.pop()
            setattr(owner, aname, original)

    def dump(self) -> Dict[str, object]:
        return {"workload": self.workload,
                "fields": ["name", "parent", "start", "end", "iteration",
                           "counters"],
                "spans": self.spans}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _aggregate(spans: List[list], ids: List[int]):
    """Per-name inclusive and self time, call count and summed counters
    over the spans ``ids`` of one iteration."""
    child = defaultdict(float)
    for i in ids:
        p = spans[i][1]
        if p >= 0:
            child[p] += spans[i][3] - spans[i][2]
    incl, self_t, n = defaultdict(float), defaultdict(float), defaultdict(int)
    counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    probes = 0
    for i in ids:
        name, parent, t0, t1, _it, ctr = spans[i]
        incl[name] += t1 - t0
        self_t[name] += t1 - t0 - child[i]
        n[name] += 1
        for k, v in (ctr or {}).items():
            counts[name][k] += v
        if name == "sim.simulate" and parent >= 0 \
                and spans[parent][0] == "sim.saturation":
            probes += 1
    return incl, self_t, n, counts, probes


def iteration_layers(incl, self_t, n, counts, probes) -> Dict[str, float]:
    """Every per-layer metric of one traced iteration, from its
    :func:`_aggregate`.

    Times are shares of the iteration's root span in percent, so a layer
    the workload bypasses reads 0 and the shares of self times add up to
    100; ``trace.iter_s`` is the root span itself.
    """
    root = incl[ROOT]

    def pct(x: float) -> float:
        return 100.0 * x / root

    m: Dict[str, float] = {
        "trace.iter_s": root,
        "bench.self_pct": pct(self_t[ROOT]),
        "campaign.self_pct": pct(self_t["campaign.start_run"]),
        "campaign.stages_run": sum(n[f"campaign.stage.{s}"] for s in STAGES),
    }
    for s in STAGES:
        m[f"campaign.stage.{s}_pct"] = pct(incl[f"campaign.stage.{s}"])
    queries = n["service.query"]
    computes = sum(n[f"service.compute.{k}"] for k in COMPUTE_KINDS)
    m.update({
        "service.query_n": queries,
        "service.compute_n": computes,
        "service.hit_ratio": (queries - computes) / queries if queries else 0.0,
        "service.query_self_pct": pct(self_t["service.query"]),
        "service.layout_payload_pct": pct(self_t["service.compute.layout"]),
        "service.benes_perm_gen_pct": pct(self_t["service.compute.benes"]),
    })
    for k in COMPUTE_KINDS:
        m[f"service.compute.{k}_pct"] = pct(incl[f"service.compute.{k}"])
    for op in ("get", "put", "load_arrays"):
        m[f"store.{op}_pct"] = pct(incl[f"store.{op}"])
        m[f"store.{op}_n"] = n[f"store.{op}"]
    m["store.put_bytes"] = counts["store.put"]["bytes"]
    m.update({
        "layout.build_pct": pct(incl["layout.build"]),
        "layout.validate_pct": pct(incl["layout.validate"]),
        "layout.wires": counts["layout.build"]["wires"],
        "analysis.wire_stats_pct": pct(incl["analysis.wire_stats"]),
        "chunked.graph_pct": pct(incl["chunked.graph"]),
        "chunked.emit_pct": pct(self_t["chunked.validate_and_summarize"]),
        "chunked.feed_pct": pct(incl["chunked.feed"]),
        "chunked.stats_pct": pct(incl["chunked.stats"]),
        "chunked.finalize_pct": pct(incl["chunked.finalize"]),
        "chunked.chunks": n["chunked.feed"],
        "chunked.wires": counts["chunked.feed"]["wires"],
        "chunked.spill_bytes": counts[ROOT]["spill_bytes"],
        "chunked.spill_files": counts[ROOT]["spill_files"],
        "sim.simulate_pct": pct(incl["sim.simulate"]),
        "sim.simulate_n": n["sim.simulate"],
        "sim.cycles": counts["sim.simulate"]["cycles"],
        "sim.delivered": counts["sim.simulate"]["delivered"],
        "sim.saturation_pct": pct(incl["sim.saturation"]),
        "sim.saturation_probes": probes,
        "benes.route_pct": pct(incl["benes.route"]),
        "benes.apply_pct": pct(incl["benes.apply"]),
        "benes.perms": counts["benes.route"]["perms"],
        "packaging.count_links_pct": pct(incl["packaging.count_links"]),
        "packaging.exact_pins_pct": pct(incl["packaging.exact_pins"]),
    })
    return m


def layer_metrics(spans: List[list]) -> Tuple[Dict[str, List[float]], float]:
    """Per-layer metric samples, one per traced iteration, and the largest
    gap between an iteration's root span and the sum of its self times,
    as a share of the root (zero up to rounding)."""
    iterations: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        iterations[s[4]].append(i)
    out: Dict[str, List[float]] = defaultdict(list)
    gap = 0.0
    for ids in iterations.values():
        agg = _aggregate(spans, ids)
        root = agg[0][ROOT]
        gap = max(gap, abs(sum(agg[1].values()) - root) / root)
        for k, v in iteration_layers(*agg).items():
            out[k].append(v)
    return out, gap
