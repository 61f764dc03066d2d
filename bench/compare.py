"""Compare two benchmark results metric by metric.

    python3 bench/compare.py OLD.json NEW.json
    python3 bench/compare.py --pairs DIR

``OLD.json`` and ``NEW.json`` are reports written by ``run.py --out``,
or JSON lists of such reports (several runs of one commit, like the
files in ``bench/results/``).  ``--pairs DIR`` reads the runs of the
parent from ``DIR/old/*.json`` and of the change from ``DIR/new/*.json``
and pairs them in name order; run the pairs alternating which side goes
first.

One row per (workload, metric) gives each side's median and quartiles.
With two or more runs a side's numbers are taken across its runs; with
one run they are the run's own, and its spread is the quartile distance
divided by the square root of the sample count (the scale of the
median's own error).  A row is

* ``regressed`` when the new median is worse than the old by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` when either side's spread, as a share of its median,
  is wider than the bound, unless every new run beats every old run;
* ``improved`` (pairs mode) when the change wins at least 9 of every 10
  pairs, ties counting for neither, and the medians differ by more than
  the quartile distance of the old runs;
* ``ok`` otherwise.  Per-layer metrics have no bound and are listed
  for reference.

A workload whose failed count grew is ``regressed``.  The exit code is
1 if any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> List[Dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc if isinstance(doc, list) else [doc]


def side(runs: List[Dict], workload: str, metric: str) -> Optional[Dict]:
    """Median, quartiles, spread and per-run values of one metric."""
    entries = [r["workloads"][workload]["metrics"][metric] for r in runs
               if metric in r["workloads"].get(workload, {}).get("metrics", {})]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
    else:
        e = entries[0]
        med, q1, q3 = e["value"], e["q1"], e["q3"]
        if q1 is None or not med:
            spread = 0.0
        else:
            spread = (q3 - q1) / med / math.sqrt(e["n"])
    return {"median": med, "q1": q1, "q3": q3, "spread": abs(spread),
            "values": values}


def judge(old: Dict, new: Dict, bound: Optional[float], lower: bool,
          pairs: int) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if lower else -1.0
    worse = sign * (new["median"] - old["median"]) / old["median"]
    if worse > bound:
        return "regressed"
    if pairs:
        wins = sum(sign * (n - o) < 0
                   for o, n in zip(old["values"], new["values"]))
        if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and \
                abs(new["median"] - old["median"]) > old["q3"] - old["q1"]:
            return "improved"
    if max(old["spread"], new["spread"]) > bound:
        if sign * (max(new["values"]) if lower else min(new["values"])) < \
                sign * (min(old["values"]) if lower else max(old["values"])):
            return "ok"
        return "unresolved"
    return "ok"


def _f(v) -> str:
    return "-" if v is None else f"{v:.5g}"


def compare(old_runs: List[Dict], new_runs: List[Dict], spec: Dict,
            pairs: int = 0, out=sys.stdout) -> int:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    print(f"{'workload':15} {'metric':30} {'unit':>6} {'old median':>11} "
          f"{'[q1, q3]':>23} {'new median':>11} {'[q1, q3]':>23} "
          f"{'change':>8}  status", file=out)
    workloads = [w for w in old_runs[0]["workloads"]
                 if any(w in r["workloads"] for r in new_runs)]
    for w in workloads:
        old_failed, new_failed = (
            max(r["workloads"][w]["failed"] for r in runs if w in r["workloads"])
            for runs in (old_runs, new_runs))
        if new_failed > old_failed:
            bad += 1
            print(f"{w:15} {'failed':30} {'count':>6} {old_failed:>11} "
                  f"{'':>23} {new_failed:>11} {'':>23} {'':>8}  regressed",
                  file=out)
        for name, m in declared.items():
            o, n = side(old_runs, w, name), side(new_runs, w, name)
            if o is None or n is None:
                continue
            status = judge(o, n, m.get("bound"), m["better"] == "lower", pairs)
            bad += status in ("regressed", "unresolved")
            change = ((n["median"] - o["median"]) / o["median"] * 100
                      if o["median"] else 0.0)
            print(f"{w:15} {name:30} {m['unit']:>6} {_f(o['median']):>11} "
                  f"{'[' + _f(o['q1']) + ', ' + _f(o['q3']) + ']':>23} "
                  f"{_f(n['median']):>11} "
                  f"{'[' + _f(n['q1']) + ', ' + _f(n['q3']) + ']':>23} "
                  f"{change:>+7.2f}%  {status}", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--pairs", metavar="DIR",
                    help="DIR/old/*.json and DIR/new/*.json, paired by name")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.pairs:
        old = [r for f in sorted(glob.glob(os.path.join(args.pairs, "old", "*.json")))
               for r in load_runs(f)]
        new = [r for f in sorted(glob.glob(os.path.join(args.pairs, "new", "*.json")))
               for r in load_runs(f)]
        pairs = min(len(old), len(new))
        if pairs < MIN_PAIRS:
            print(f"{pairs} pairs: at least {MIN_PAIRS} are needed to claim "
                  f"a gain", file=sys.stderr)
        old, new = old[:pairs], new[:pairs]
    elif args.old and args.new:
        old, new, pairs = load_runs(args.old), load_runs(args.new), 0
    else:
        ap.error("give OLD NEW or --pairs DIR")
    if not old or not new:
        ap.error("no runs to compare")
    # traced and untraced runs carry different metrics; compare like
    # with like
    rc = 0
    for traced in (0, 1):
        o = [r for r in old if r["header"]["trace"] == traced]
        n = [r for r in new if r["header"]["trace"] == traced]
        if o and n:
            rc |= compare(o, n, spec, pairs if not traced else 0)
    return rc


if __name__ == "__main__":
    sys.exit(main())
