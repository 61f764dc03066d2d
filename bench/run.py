"""Run the repository benchmark and print every metric it defines.

    python3 bench/run.py --seed 0 --out report.json       # all workloads
    python3 bench/run.py --seed 0 --trace 1               # per-layer run
    python3 bench/run.py --smoke                          # tiny sizes, ~15 s
    python3 bench/run.py --workload campaign_warm --seed 3 --seconds 25 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units and bounds.  Each workload runs in its own
child process (``bench/workloads.py``) with the thread and backend
environment pinned, so ``peak_rss_mib`` and ``setup_s`` are its own.
All scratch files live under one directory in ``.bench_tmp/`` that is
removed on exit.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
The exit code is 1 if any correctness check or operation failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env(scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=scratch)
    return env


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_child(workload: str, args, scratch: str) -> Dict:
    """Run one workload in a child process; returns its result, or a
    failed result when the child crashed or timed out."""
    wdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    result = os.path.join(wdir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH, "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", wdir, "--result", result]
    if args.smoke:
        cmd.append("--smoke")
    if args.spans:
        cmd += ["--spans", f"{args.spans}.{workload}.json"]
    try:
        # the child's stdout joins our stderr: our stdout ends with the
        # result line and nothing else
        proc = subprocess.run(cmd, env=child_env(wdir), cwd=ROOT,
                              stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        with open(result) as fh:
            out = json.load(fh)
        if proc.returncode:
            raise RuntimeError(f"exit code {proc.returncode}")
    except (OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        return {"workload": workload, "attempted": 1, "failed": 1,
                "failures": [f"child process failed: {e}"], "metrics": {}}
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
    return out


def attach_units(res: Dict, declared: List[Dict]) -> None:
    """Keep the declared metrics, in declared order, each with its unit;
    a declared metric the child did not produce is a failure."""
    got = res.get("metrics", {})
    res["metrics"] = {}
    for m in declared:
        if m["name"] in got:
            res["metrics"][m["name"]] = dict(got[m["name"]], unit=m["unit"])
        elif res["failed"] == 0:
            res["failed"] = 1
            res["attempted"] += 1
            res.setdefault("failures", []).append(f"no metric {m['name']}")
    res["correct"] = res["failed"] == 0


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_table(report: Dict, out) -> None:
    for name, res in report["workloads"].items():
        print(f"== {name}: {res.get('iterations', 0)} iterations, "
              f"{res['attempted']} attempted, {res['failed']} failed", file=out)
        for f in res.get("failures", []):
            print(f"   FAILED: {f}", file=out)
        ratio = res["metrics"].get("trace.overhead_ratio")
        if ratio:
            print(f"   tracing overhead (traced/untraced wall): "
                  f"{ratio['value']:.4f}", file=out)
        print(f"   {'metric':34} {'unit':>8} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>6}", file=out)
        for m, v in res["metrics"].items():
            print(f"   {m:34} {v['unit']:>8} {_fmt(v['value']):>12} "
                  f"{_fmt(v['q1']):>12} {_fmt(v['q3']):>12} {v['n']:>6}",
                  file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the benchmark defined by BENCHMARK.json.")
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload (default: "
                         "BENCHMARK.json run_seconds; 1 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: report per-layer metrics from traced iterations")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes of every workload")
    ap.add_argument("--out", help="write the full report here")
    ap.add_argument("--spans", metavar="PREFIX",
                    help="with --trace 1, write each workload's raw spans "
                         "to PREFIX.<workload>.json")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.spans:
        args.spans = os.path.abspath(args.spans)

    # SIGTERM unwinds like an exception, so the scratch tree still goes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        results = {w: run_child(w, args, scratch) for w in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = next(iter(results.values()))
    report = {
        "schema": 1,
        "header": {
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "git_commit": git_commit(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": first.get("numpy"),
            "backend": first.get("backend"),
            "platform": platform.platform(),
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
        },
        "workloads": results,
    }
    for res in results.values():
        attach_units(res, declared)
    report["attempted"] = sum(r["attempted"] for r in results.values())
    report["failed"] = sum(r["failed"] for r in results.values())
    report["correct"] = report["failed"] == 0
    print_table(report, sys.stdout)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    single = len(results) == 1
    line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            (m if single else f"{w}/{m}"): {"value": v["value"],
                                            "unit": v["unit"]}
            for w, res in results.items()
            for m, v in res["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
