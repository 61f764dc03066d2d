"""Smoke tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import compare

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(tmp_path_factory, traced: bool):
    """One smoke run; returns its result line, its report and its dir."""
    d = tmp_path_factory.mktemp("bench")
    flags = ["--trace", "1", "--spans", str(d / "spans")] if traced else []
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--out", str(d / "report.json"), *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(d / "report.json") as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh), d


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory, traced=False)


@pytest.fixture(scope="module")
def smoke_traced(tmp_path_factory):
    return _run(tmp_path_factory, traced=True)


def _assert_metrics(line, report, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert list(report["workloads"]) == workloads
    for w in workloads:
        res = report["workloads"][w]
        assert res["correct"], res["failures"]
        for m in declared:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), (w, m["name"])
            assert line["metrics"][f"{w}/{m['name']}"] == {
                "value": got["value"], "unit": m["unit"]}


def test_smoke_emits_every_end_to_end_metric(smoke):
    line, report, _dir = smoke
    _assert_metrics(line, report, SPEC["end_to_end"])
    header = report["header"]
    for key in ("cpu_count", "python", "numpy", "git_commit", "backend",
                "seed"):
        assert key in header
    assert header["backend"] == "numpy"
    for res in report["workloads"].values():
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_trace_emits_every_per_layer_metric(smoke_traced):
    line, report, out_dir = smoke_traced
    _assert_metrics(line, report, SPEC["per_layer"])
    for w, res in report["workloads"].items():
        # self times of all spans of an iteration add up to its root span
        assert res["self_time_error"] < 1e-9, w
        with open(out_dir / f"spans.{w}.json") as fh:
            dump = json.load(fh)
        roots = [s for s in dump["spans"] if s[0] == "iteration"]
        assert dump["workload"] == w
        assert len(roots) == res["traced_iterations"] >= 1
        pct = [v["value"] for k, v in res["metrics"].items()
               if k.endswith("_pct")]
        assert all(0.0 <= p <= 100.0 for p in pct), w
    layers = {w: r["metrics"] for w, r in report["workloads"].items()}
    # each workload exercises its layer and bypasses the others
    assert layers["campaign_cold"]["layout.validate_pct"]["value"] > 0
    assert layers["campaign_cold"]["store.put_n"]["value"] > 0
    assert layers["campaign_warm"]["service.hit_ratio"]["value"] == 1.0
    assert layers["campaign_warm"]["service.compute_n"]["value"] == 0
    assert layers["layout_chunked"]["chunked.spill_files"]["value"] > 0
    assert layers["layout_chunked"]["layout.validate_pct"]["value"] == 0
    assert layers["routing_sweep"]["benes.perms"]["value"] > 0
    assert layers["routing_sweep"]["store.get_n"]["value"] == 0


def test_compare_flags_a_regression(smoke):
    _line, report, _dir = smoke
    out = io.StringIO()
    compare.compare([report], [report], SPEC, out=out)
    assert "regressed" not in out.getvalue()
    worse = copy.deepcopy(report)
    worse["workloads"]["routing_sweep"]["metrics"]["wall_s"]["value"] *= 1.5
    out = io.StringIO()
    assert compare.compare([report], [worse], SPEC, out=out) == 1
    rows = [r for r in out.getvalue().splitlines() if "regressed" in r]
    assert len(rows) == 1 and "routing_sweep" in rows[0] and "wall_s" in rows[0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
