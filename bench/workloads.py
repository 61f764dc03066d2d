"""The benchmark's four workloads, and the child process that runs one.

Each workload is a closed loop with one client: the loop calls a public
entry point of the program, waits for the answer, checks it and calls
again.  Execution knobs (campaign ``workers``, ``layout_workers``, the
chunked validator's ``workers``) stay unset: on a 2-core machine a pool
would measure the scheduler, not the program.

``run.py`` starts this file once per workload::

    python bench/workloads.py --workload campaign_cold --seed 0 \\
        --seconds 25 --trace 0 --scratch DIR --result FILE

The child sets the workload up (at least :data:`SETUPS` times), runs
timed iterations until the next one would overrun ``--seconds``, sets
the workload up again, and writes the medians and quartiles of its
samples to ``--result``.  Only the program's calls are inside the timed
region; fresh directories, cache clears, correctness checks, clean-up,
a ``sync`` and the :class:`HostSpeed` reference run outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

import repro.campaign as campaign
import repro.layout as layout
import repro.service as service
from repro.backend import get_backend
from repro.transform.swap_butterfly import SwapButterfly

from trace import Tracer, layer_metrics

#: A run sets its workload up at least SETUPS times and for at least
#: SETUP_MIN_S seconds before the timed phase, and an untraced run as
#: often again after it; ``setup_s`` is the median of them all.
SETUPS = 2
SETUP_MIN_S = 1.0

#: Timings are reported in reference seconds: the measured time times
#: REF_S over the run's median time of the :class:`HostSpeed` work, which
#: took 20-27 ms on the 2-core VM the benchmark was set up on.  The
#: work is timed before every set-up and, during the timed phase, before
#: the first iteration that starts REF_EVERY_S or more after the last
#: sample.
REF_S = 0.020
REF_EVERY_S = 0.5

_now = time.perf_counter


def _canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


class Tally:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _lru_cached() -> List[object]:
    """Every lru-cached function of the loaded ``repro`` modules."""
    found: Dict[int, object] = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or mod is None:
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and \
                    hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


def _tree_stats(path: str):
    files = size = 0
    for dirpath, _dirs, names in os.walk(path):
        for f in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, f))
    return files, size


class Workload:
    """One workload: ``setup`` (repeatable), then per iteration
    ``before`` (untimed), ``iteration`` (timed), ``after`` (untimed;
    checks the answer and returns counters for the trace)."""

    name = ""

    def __init__(self, seed: int, scratch: str, smoke: bool,
                 tally: Tally) -> None:
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        self.tally = tally

    def dir(self, *parts: str) -> str:
        return os.path.join(self.scratch, self.name, *parts)

    def setup(self) -> None:
        pass

    def before(self, i: int) -> None:
        pass

    def iteration(self, i: int) -> None:
        raise NotImplementedError

    def after(self, i: int) -> Dict[str, int]:
        return {}


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

def _grid(ks, layers, seed, cycles, benes_batch, sat_max_n):
    return {
        "ks": ks, "layers": layers, "rate": [0.8],
        "config": {"cycles": cycles, "warmup": cycles // 10,
                   "benes_batch": benes_batch, "sat_max_n": sat_max_n,
                   "seed": seed},
    }


class _Campaign(Workload):
    # 6 points, 30 stages; n = 8..9 keeps one cold run near 1.5 s so a
    # run holds well over ten.  Layers {2, 4} make the second point of
    # each ks a within-run cache hit for package, benes and saturation.
    KS = [[3, 3, 2], [4, 2, 2], [3, 3, 3]]
    SMOKE_KS = [[2, 2, 2], [3, 2, 1]]

    def __init__(self, *a, **k) -> None:
        super().__init__(*a, **k)
        if self.smoke:
            self.grid = _grid(self.SMOKE_KS, [2], self.seed, 300, 8, 6)
        else:
            self.grid = _grid(self.KS, [2, 4], self.seed, 1500, 64, 8)
        self.expected: Optional[str] = None

    def run(self, runs_dir: str, cache_dir: str, grid=None) -> Dict:
        return campaign.start_run(grid or self.grid, runs_dir=runs_dir,
                                  run_id="bench", cache_dir=cache_dir)

    def check_run(self, runs_dir: str) -> str:
        """Check one finished run tree; returns the digest of its
        ``manifest.json`` and ``frontier.json`` bytes."""
        run_dir = os.path.join(runs_dir, "bench")
        with open(os.path.join(run_dir, "manifest.json"), "rb") as fh:
            manifest_bytes = fh.read()
        with open(os.path.join(run_dir, "frontier.json"), "rb") as fh:
            frontier_bytes = fh.read()
        man = json.loads(manifest_bytes)
        t = self.tally
        t.check(man["counts"]["failed"] == 0, "campaign points failed")
        for p in man["points"]:
            t.check(p["complete"], f"{p['id']} incomplete")
            st = p["stages"]
            for name, rec in st.items():
                t.check(rec["status"] == "ok", f"{p['id']} {name} {rec['status']}")
                for q in rec["queries"]:
                    t.check(q["verified"], f"{p['id']} {name} proof unverified")
            t.check(st["layout"]["summary"]["valid"], f"{p['id']} layout invalid")
            t.check(st["package"]["summary"]["all_match"],
                    f"{p['id']} package mismatch")
            t.check(st["benes"]["summary"]["realized_ok"],
                    f"{p['id']} benes not realized")
        return _digest(manifest_bytes, frontier_bytes)


class CampaignCold(_Campaign):
    """Every iteration runs the grid with a fresh run tree and a fresh
    cache, and with the grid's lru caches cleared, so it pays what a
    fresh ``repro campaign run`` process pays."""

    name = "campaign_cold"

    def setup(self) -> None:
        warm = _grid([[2, 2, 1]] if self.smoke else [[2, 2, 2], [3, 2, 1]],
                     [2], self.seed, 300, 8, 6)
        d = self.dir("setup")
        self.run(os.path.join(d, "runs"), os.path.join(d, "cache"), warm)
        shutil.rmtree(d)
        self.cached = _lru_cached()

    def before(self, i: int) -> None:
        for fn in self.cached:
            fn.cache_clear()

    def iteration(self, i: int) -> None:
        d = self.dir(f"it{i}")
        self.run(os.path.join(d, "runs"), os.path.join(d, "cache"))

    def after(self, i: int) -> Dict[str, int]:
        d = self.dir(f"it{i}")
        digest = self.check_run(os.path.join(d, "runs"))
        if self.expected is None:
            self.expected = digest
        self.tally.check(digest == self.expected,
                         "manifest/frontier bytes differ across iterations")
        shutil.rmtree(d)
        return {}


class CampaignWarm(_Campaign):
    """Every iteration reruns the grid into a fresh run tree against one
    cache the set-up filled: every stage is a cache hit."""

    name = "campaign_warm"

    fills = 0

    def setup(self) -> None:
        # an earlier `repro campaign run` process fills the cache, so this
        # process holds only what the warm reads need
        if self.fills:
            shutil.rmtree(self.fill)
        self.fills += 1
        self.fill = self.dir(f"fill{self.fills}")
        os.makedirs(self.fill)
        grid = os.path.join(self.fill, "grid.json")
        with open(grid, "w") as fh:
            json.dump(self.grid, fh)
        self.cache = os.path.join(self.fill, "cache")
        runs = os.path.join(self.fill, "runs")
        subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "run", "--grid", grid,
             "--run-id", "bench", "--runs-dir", runs,
             "--cache-dir", self.cache],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        self.expected = self.check_run(runs)

    def iteration(self, i: int) -> None:
        self.run(self.dir(f"it{i}"), self.cache)

    def after(self, i: int) -> Dict[str, int]:
        digest = self.check_run(self.dir(f"it{i}"))
        self.tally.check(digest == self.expected,
                         "warm manifest/frontier bytes differ from the cold fill")
        shutil.rmtree(self.dir(f"it{i}"))
        return {}


# ----------------------------------------------------------------------
# out-of-core layout
# ----------------------------------------------------------------------

class LayoutChunked(Workload):
    """``chunked_grid_table(...).validate_and_summarize`` under a memory
    budget, with the spill directory inside the scratch tree.  The
    iterations take the two track orders in turns of two, the seed
    picking which comes first: a run holds both orders whatever its
    seed, and a traced run traces both."""

    name = "layout_chunked"

    def __init__(self, *a, **k) -> None:
        super().__init__(*a, **k)
        # B_10 under 4 MiB streams 22 chunks into 1,838 spill files, the
        # shape of a B_14 run under 64 MiB (~24 chunks, ~2,060 files) in
        # ~1.3 s instead of ~21 s
        self.ks = (3, 3, 3) if self.smoke else (4, 3, 3)
        self.budget = (1 if self.smoke else 4) << 20
        self.orders = (("forward", "reversed") if self.seed % 2 == 0
                       else ("reversed", "forward"))
        self.expected: Dict[str, Dict[str, int]] = {}

    def order(self, i: int) -> str:
        return self.orders[i // 2 % 2]

    def validate(self, ks, order: str, spill_dir: str):
        graph = layout.grid_graph(SwapButterfly.from_ks(ks))
        build = layout.chunked_grid_table(
            ks, W=4, L=2, track_order=order,
            memory_budget_bytes=self.budget,
        )
        return build.validate_and_summarize(graph=graph, spill_dir=spill_dir)

    def setup(self) -> None:
        d = self.dir("setup")
        for order in self.orders:
            self.validate((2, 2, 2) if self.smoke else (3, 3, 3), order,
                          os.path.join(d, order))
        shutil.rmtree(d)

    def iteration(self, i: int) -> None:
        self.rep, self.summ = self.validate(self.ks, self.order(i),
                                            self.dir(f"it{i}"))

    def after(self, i: int) -> Dict[str, int]:
        t, rep, summ, order = self.tally, self.rep, self.summ, self.order(i)
        n = sum(self.ks)
        t.check(rep.ok and rep.num_errors == 0,
                f"chunked layout invalid ({order}): {rep.errors[:3]}")
        t.check(summ["wires"] == 2 * n * 2 ** n,
                f"wires {summ['wires']} != 2 n 2^n")
        dims_area = layout.grid_dims(self.ks, W=4, L=2).area
        t.check(summ["area"] <= dims_area,
                f"area {summ['area']} > grid_dims area {dims_area}")
        if order not in self.expected:
            self.expected[order] = summ
            if self.smoke:
                self.cross_check(order)
        t.check(summ == self.expected[order],
                f"chunked summary ({order}) differs across iterations")
        files, size = _tree_stats(self.dir(f"it{i}"))
        shutil.rmtree(self.dir(f"it{i}"))
        return {"spill_files": files, "spill_bytes": size}

    def cross_check(self, order: str) -> None:
        """``build_grid_layout`` and ``validate_layout`` must agree with the
        chunked pass (small sizes only: it holds the whole table)."""
        res = layout.build_grid_layout(self.ks, W=4, L=2, track_order=order)
        mono = layout.validate_layout(res.layout, res.graph)
        self.tally.check(res.layout.summary() == self.summ,
                         "chunked summary != monolithic summary")
        self.tally.check((mono.ok, mono.num_errors, mono.errors)
                         == (self.rep.ok, self.rep.num_errors, self.rep.errors),
                         "chunked verdict != monolithic verdict")


# ----------------------------------------------------------------------
# routing engines
# ----------------------------------------------------------------------

class RoutingSweep(Workload):
    """Uncached queued-routing and Benes queries through
    ``repro.service.query(..., store=None)``."""

    name = "routing_sweep"

    def __init__(self, *a, **k) -> None:
        super().__init__(*a, **k)
        rng = random.Random(self.seed)
        seed = lambda: rng.randrange(2 ** 31 - 1)  # noqa: E731
        if self.smoke:
            n, cycles, bn, batch = 6, 300, 6, 16
        else:
            n, cycles, bn, batch = 10, 1000, 12, 64
        self.queries = [
            ("sim", {"n": n, "rate": r, "cycles": cycles,
                     "warmup": cycles // 10, "seed": seed()})
            for r in (0.3, 0.6, 0.9)
        ] + [
            ("saturation", {"n": n, "cycles": cycles // 2, "seed": seed()}),
            ("benes", {"n": bn, "batch": batch, "seed": seed()}),
        ]
        self.expected: Optional[str] = None

    def setup(self) -> None:
        # a short pass over the same query shapes, so the first timed
        # iteration does not pay first-call costs
        for kind, p in self.queries:
            short = dict(p, **{k: max(1, p[k] // 10) for k in
                               ("cycles", "warmup", "batch") if k in p})
            service.query(kind, short, store=None)

    def iteration(self, i: int) -> None:
        self.results = []
        for kind, p in self.queries:
            self.results.append(service.query(kind, p, store=None))

    def after(self, i: int) -> Dict[str, int]:
        t = self.tally
        for (kind, _p), r in zip(self.queries, self.results):
            t.attempted += 1
            if kind == "sim":
                t.check(r["delivered"] <= r["offered"], "sim delivered > offered")
            elif kind == "saturation":
                t.check(r["rate_per_node"] <= r["paper_wall"] * (1 + 1e-12),
                        "saturation rate above the paper's wall")
            else:
                t.check(r["realized_ok"], "benes settings do not realize perms")
        digest = _digest(_canonical(self.results))
        if self.expected is None:
            self.expected = digest
        t.check(digest == self.expected, "same-seed results differ")
        return {}


WORKLOADS = {w.name: w for w in (CampaignCold, CampaignWarm, LayoutChunked,
                                 RoutingSweep)}


# ----------------------------------------------------------------------
# the child process
# ----------------------------------------------------------------------

def settle() -> None:
    """Leave set-up behind before timing: collect its garbage, hand its
    freed heap back to the kernel (so the RSS high-water mark starts from
    what is live) and flush its files (so their write-back does not land
    in the timed phase)."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    os.sync()


def reset_peak_rss() -> str:
    """Reset the kernel's RSS high-water mark; returns the source that
    :func:`peak_rss_mib` will read."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return "VmHWM"
    except OSError:
        return "ru_maxrss"


def peak_rss_mib(source: str) -> float:
    if source == "VmHWM":
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """Samples the host's speed by timing a fixed piece of Python and
    numpy work that does not touch the program.

    The benchmark was set up on a small shared VM whose speed drifts:
    for stretches of seconds to minutes everything, this work included,
    runs 20-40% slower, and CPU time moves with wall time, so no
    statistic within a 25 s run filters it out.  Over ten 25 s
    stretches of each workload, the median iteration time spread
    0.10-0.18 (quartile distance over median), and divided by the median
    time of this work over the same stretch, 0.02-0.07.  Its two
    0.8 MB arrays, allocated before set-up, count in every workload's
    ``peak_rss_mib``."""

    def __init__(self) -> None:
        # scrambled by multiplicative hashing: importing numpy.random
        # would add 2 MiB to every workload's peak RSS
        self.data = (np.arange(100_000, dtype=np.uint64) * 2654435761
                     % (1 << 32)).astype(np.float64)
        self.buf = np.empty_like(self.data)
        self.samples: List[float] = []
        self.last = -math.inf

    def _work(self) -> None:
        s = 0
        for i in range(150_000):
            s += i * i
        d: Dict[int, str] = {}
        for i in range(30_000):
            d[i & 4095] = str(i)
        for _ in range(8):
            np.copyto(self.buf, self.data)
            self.buf.sort()

    def sample(self, due: bool = True) -> None:
        """Time the work, if ``due`` or REF_EVERY_S has passed since the
        last sample."""
        if not due and _now() - self.last < REF_EVERY_S:
            return
        t0 = _now()
        self._work()
        self.last = _now()
        self.samples.append(self.last - t0)

    def scale(self) -> float:
        """Reference seconds per measured second over this run."""
        return REF_S / statistics.median(self.samples)


def summarize(samples: List[float], scale: float = 1.0) -> Dict[str, float]:
    """Median (the reported value), quartiles and count of ``samples``
    times ``scale``; a single sample is its own quartile."""
    samples = [s * scale for s in samples]
    q1 = q3 = samples[0]
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def time_setups(w: Workload, host: HostSpeed, setup_s: List[float]) -> None:
    """Set ``w`` up SETUPS times and for SETUP_MIN_S seconds at least,
    sampling ``host`` before each and appending each set-up time to
    ``setup_s``."""
    start = len(setup_s)
    while len(setup_s) - start < SETUPS or sum(setup_s[start:]) < SETUP_MIN_S:
        host.sample()
        t0 = _now()
        w.setup()
        setup_s.append(_now() - t0)
        os.sync()


def run(args) -> Dict[str, object]:
    tally = Tally()
    w = WORKLOADS[args.workload](args.seed, args.scratch, args.smoke, tally)
    host = HostSpeed()
    setup_s: List[float] = []
    time_setups(w, host, setup_s)
    tracer = Tracer(w.name) if args.trace else None
    settle()
    rss_source = reset_peak_rss()
    walls: List[float] = []
    traced_walls: List[float] = []
    costs: List[float] = []
    # traced runs alternate untraced and traced iterations, so the
    # tracing overhead is measured in the same run
    min_iters = 2 if tracer else 1
    t_start = _now()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        t_iter = _now()
        host.sample(due=False)
        w.before(i)
        try:
            if traced:
                tracer.install()
            try:
                t0 = _now()
                with tracer.root(i) if traced else contextlib.nullcontext():
                    w.iteration(i)
                wall = _now() - t0
            finally:
                if traced:
                    tracer.uninstall()
            notes = w.after(i)
            # Flush the iteration's writes and deletions before the next
            # one starts.  Left pending, this churn of run trees and spill
            # files -- the benchmark's, not a user's -- piles up and
            # doubles the system time of later iterations' file calls.
            os.sync()
        except Exception:  # noqa: BLE001 - a failed call is a failed op
            traceback.print_exc()
            tally.check(False, f"iteration {i} raised "
                               f"{sys.exc_info()[0].__name__}")
            break
        (traced_walls if traced else walls).append(wall)
        if traced:
            tracer.note(i, **notes)
        i += 1
        costs.append(_now() - t_iter)
        if i >= min_iters and \
                _now() - t_start + statistics.median(costs) > args.seconds:
            break
    peak = peak_rss_mib(rss_source)
    if tracer is None and walls:
        # set up again after the timed phase, so that setup_s samples the
        # host at two moments half a minute apart
        time_setups(w, host, setup_s)
    out: Dict[str, object] = {
        "workload": w.name, "iterations": i, "traced_iterations":
        len(traced_walls), "rss_source": rss_source,
        "numpy": np.__version__, "backend": get_backend().name,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures, "metrics": {},
    }
    if not walls:
        return out
    if tracer is None:
        # the measured seconds stay in the report beside the metrics
        out.update(wall_samples=walls, setup_samples=setup_s,
                   ref_samples=host.samples, ref_scale=host.scale())
        out["metrics"] = {
            "setup_s": summarize(setup_s, host.scale()),
            "wall_s": summarize(walls, host.scale()),
            "peak_rss_mib": summarize([peak]),
        }
    elif traced_walls:
        samples, out["self_time_error"] = layer_metrics(tracer.spans)
        metrics = {k: summarize(v) for k, v in samples.items()}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls),
            "q1": None, "q3": None, "n": len(traced_walls)}
        out["metrics"] = metrics
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    out = run(args)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
