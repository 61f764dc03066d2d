"""Tests for the checkpointed campaign orchestrator.

The load-bearing property throughout: a campaign's ``manifest.json``
and ``frontier.json`` are *byte-identical* however the run got there —
one pass, interrupted-and-resumed, serial or sharded across workers.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CONFIG_DEFAULTS,
    CampaignError,
    CampaignPoint,
    GridError,
    build_manifest,
    derive_seed,
    expand_points,
    load_run,
    normalize_grid,
    pareto_frontier,
    render_frontier,
    resume_run,
    run_stage,
    run_status,
    spec_digest,
    stage_argv,
    start_run,
)
from repro.campaign.orchestrator import (
    _load_stage_record,
    _seal,
    write_json_atomic,
)
from repro.cli import main
from repro.service import ArtifactStore, handlers

#: Two valid points (the layout engine needs >= 3 levels and k_i <= k1),
#: sized so the whole pipeline runs in seconds.
SPEC = {
    "ks": [[1, 1, 1], [2, 1, 1]],
    "rate": [0.7],
    "config": {"cycles": 120, "warmup": 20, "benes_batch": 2,
               "sat_max_n": 3},
}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _outputs(run_dir: str):
    return (_read(os.path.join(run_dir, "manifest.json")),
            _read(os.path.join(run_dir, "frontier.json")))


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted serial run of SPEC, shared by the identity
    tests (they only read it)."""
    runs = str(tmp_path_factory.mktemp("baseline"))
    summary = start_run(SPEC, runs_dir=runs, run_id="base")
    return summary


class TestGrid:
    def test_normalize_fills_defaults(self):
        g = normalize_grid({"ks": [[2, 1, 1]]})
        assert g["layers"] == [2] and g["pin_limit"] == [None]
        assert g["rate"] == [0.8] and g["config"] == CONFIG_DEFAULTS

    def test_normalize_rejects(self):
        for bad in (
            [],  # not a dict
            {},  # no ks
            {"ks": []},
            {"ks": [[0, 1]]},
            {"ks": [[1] * 30]},  # sum cap
            {"ks": [[1, 1, 1]], "bogus": 1},
            {"ks": [[1, 1, 1]], "layers": [1]},
            {"ks": [[1, 1, 1]], "rate": [0.0]},
            {"ks": [[1, 1, 1]], "pin_limit": [0]},
            {"ks": [[1, 1, 1]], "config": {"bogus": 1}},
            {"ks": [[1, 1, 1]], "config": {"track_order": "sideways"}},
            # no measured sim window: acceptance and throughput would be 0
            {"ks": [[1, 1, 1]], "config": {"cycles": 100, "warmup": 100}},
            # outside the bound of the service parameter each one feeds
            {"ks": [[1, 1, 1]], "config": {"threshold": None}},
            {"ks": [[1, 1, 1]], "config": {"threshold": [1]}},
            {"ks": [[1, 1, 1]], "config": {"threshold": True}},
            {"ks": [[1, 1, 1]], "config": {"threshold": "nan"}},
            {"ks": [[1, 1, 1]], "config": {"threshold": float("inf")}},
            {"ks": [[1, 1, 1]], "config": {"node_side": 0}},
            {"ks": [[1, 1, 1]], "config": {"node_side": 65}},
            {"ks": [[1, 1, 1]], "config": {"benes_batch": 0}},
            {"ks": [[1, 1, 1]], "config": {"warmup": -1}},
            {"ks": [[1, 1, 1]], "config": {"cycles": 2_000_000}},
        ):
            with pytest.raises(GridError):
                normalize_grid(bad)

    def test_expansion_order_is_stable(self):
        g = normalize_grid(
            {"ks": [[1, 1, 1], [2, 1, 1]], "layers": [2, 4],
             "rate": [0.5, 0.9]}
        )
        pts = expand_points(g)
        assert [p.point_id for p in pts[:3]] == ["p0000", "p0001", "p0002"]
        assert len(pts) == 8
        # ks outermost, then layers, then pin_limit, then rate
        assert (pts[0].ks, pts[0].layers, pts[0].rate) == ((1, 1, 1), 2, 0.5)
        assert (pts[1].ks, pts[1].layers, pts[1].rate) == ((1, 1, 1), 2, 0.9)
        assert (pts[4].ks, pts[4].layers) == ((2, 1, 1), 2)
        assert pts[4].n == 4

    def test_spec_digest_canonical(self):
        a = normalize_grid({"ks": [[1, 1, 1]], "rate": [0.8]})
        b = normalize_grid({"rate": [0.8], "ks": [[1, 1, 1]]})
        assert spec_digest(a) == spec_digest(b)
        c = normalize_grid({"ks": [[1, 1, 1]], "rate": [0.9]})
        assert spec_digest(a) != spec_digest(c)

    def test_exec_config_validated(self):
        g = normalize_grid(
            {"ks": [[1, 1, 1]], "config": {"layout_memory_budget": 4096}}
        )
        assert g["config"]["layout_memory_budget"] == 4096
        for bad in (0, -1, "two", 1.5):
            with pytest.raises(GridError):
                normalize_grid(
                    {"ks": [[1, 1, 1]],
                     "config": {"layout_memory_budget": bad}}
                )

    def test_spec_digest_ignores_exec_config(self):
        plain = normalize_grid({"ks": [[1, 1, 1]]})
        chunked = normalize_grid(
            {"ks": [[1, 1, 1]], "config": {"layout_memory_budget": 1 << 20}}
        )
        # same design grid -> same run id, however it executes
        assert spec_digest(plain) == spec_digest(chunked)
        other = normalize_grid({"ks": [[1, 1, 1]], "config": {"seed": 9}})
        assert spec_digest(plain) != spec_digest(other)

    def test_derive_seed_identity_not_order(self):
        s = derive_seed(0, "benes", [1, 1, 1])
        assert s == derive_seed(0, "benes", [1, 1, 1])
        assert 0 <= s < 2**31 - 1
        assert s != derive_seed(0, "benes", [2, 1, 1])
        assert s != derive_seed(1, "benes", [1, 1, 1])
        assert s != derive_seed(0, "sim", [1, 1, 1])


class TestStages:
    def test_stage_argv_shapes(self):
        p = CampaignPoint(index=0, ks=(2, 1, 1), layers=2, pin_limit=None,
                          rate=0.7)
        cfg = dict(CONFIG_DEFAULTS)
        assert stage_argv("layout", p, cfg)[:4] == \
            ["repro", "layout", "--ks", "2,1,1"]
        assert stage_argv("package", p, cfg)[1] == "package"
        assert "--batch" in stage_argv("benes", p, cfg)
        assert "--rate" in stage_argv("saturation", p, cfg)
        with pytest.raises(ValueError):
            stage_argv("nope", p, cfg)

    def test_layout_record_shape(self):
        p = CampaignPoint(index=0, ks=(1, 1, 1), layers=2, pin_limit=None,
                          rate=0.7)
        rec = run_stage("layout", p, dict(CONFIG_DEFAULTS), store=None)
        assert rec["status"] == "ok" and rec["proof"]["rc"] == 0
        assert rec["summary"]["valid"] and rec["summary"]["area"] == 3360
        q = rec["proof"]["queries"][0]
        assert q["kind"] == "layout" and len(q["key"]) == 64
        assert len(q["result_sha256"]) == 64 and q["verified"]

    def test_engine_rejection_is_deterministic_failure(self):
        # k_2 > k_1: the layout engine rejects this vector outright
        p = CampaignPoint(index=0, ks=(1, 2, 1), layers=2, pin_limit=None,
                          rate=0.7)
        rec1 = run_stage("layout", p, dict(CONFIG_DEFAULTS), store=None)
        rec2 = run_stage("layout", p, dict(CONFIG_DEFAULTS), store=None)
        assert rec1["status"] == "failed" and rec1["proof"]["rc"] == 2
        assert "k_i <= k1" in rec1["error"]
        assert rec1 == rec2  # same params -> same failure record

    def test_chunked_layout_stage_record_is_byte_identical(self):
        p = CampaignPoint(index=0, ks=(2, 1, 1), layers=2, pin_limit=None,
                          rate=0.7)
        plain = run_stage("layout", p, dict(CONFIG_DEFAULTS), store=None)
        chunked = run_stage(
            "layout", p,
            dict(CONFIG_DEFAULTS, layout_memory_budget=4096),
            store=None,
        )
        # exec knobs never reach the record: proof argv, cache key,
        # result digest and summary all match the monolithic stage
        assert chunked == plain


class TestFrontier:
    @staticmethod
    def _entry(pid, area, wire, pins, layers=2, ok=True):
        status = "ok" if ok else "failed"
        return {
            "id": pid,
            "params": {"ks": [1, 1, 1], "n": 3, "rate": 0.7,
                       "pin_limit": None, "layers": layers},
            "stages": {
                "layout": {
                    "status": status,
                    "summary": {"valid": ok, "area": area,
                                "total_wire_length": wire, "layers": layers},
                },
                "package": {"status": status, "summary": {"pins": pins}},
            },
        }

    def test_dominated_points_drop(self):
        manifest = {"points": [
            self._entry("p0000", 100, 50, 8),
            self._entry("p0001", 200, 90, 9),   # dominated by p0000
            self._entry("p0002", 90, 60, 8),    # trades area for wire
            self._entry("p0003", 100, 50, 8, ok=False),  # ineligible
        ]}
        f = pareto_frontier(manifest)
        assert [p["id"] for p in f["points"]] == ["p0002", "p0000"]
        assert f["considered"] == 3 and f["dominated"] == 1
        assert f["ineligible"] == 1

    def test_ties_all_survive(self):
        manifest = {"points": [
            self._entry("p0000", 100, 50, 8),
            self._entry("p0001", 100, 50, 8),  # equal vector: no dominance
        ]}
        f = pareto_frontier(manifest)
        assert len(f["points"]) == 2 and f["dominated"] == 0

    def test_render_empty_and_nonempty(self):
        empty = pareto_frontier({"points": []})
        assert "(empty frontier)" in render_frontier(empty)
        f = pareto_frontier({"points": [self._entry("p0000", 100, 50, 8)]})
        txt = render_frontier(f)
        assert "p0000" in txt and "1 frontier point(s)" in txt


class TestOrchestrator:
    def test_cold_run_completes_and_checkpoints(self, baseline):
        run_dir = baseline["run_dir"]
        assert baseline["points"] == 2
        assert baseline["stages_run"] == 8
        assert baseline["counts"]["failed"] == 0
        status = run_status(run_dir)
        assert status["counts"]["complete"] == 2
        assert status["outputs_written"]
        manifest = json.loads(_read(os.path.join(run_dir, "manifest.json")))
        p0 = manifest["points"][0]
        assert p0["id"] == "p0000" and p0["complete"]
        for stage in manifest["stage_order"]:
            assert p0["stages"][stage]["status"] in ("ok", "skipped")
            for q in p0["stages"][stage]["queries"]:
                assert q["verified"]

    def test_short_run_saturation_is_measured(self, baseline):
        """SPEC's 120-cycle saturation probes used to warm up for 200
        cycles and seal 0.0 for the n = 3 point beside its own sim's
        ``accepted_fraction: 1.0``."""
        path = os.path.join(baseline["run_dir"], "points", "p0000",
                            "stages", "saturation.json")
        summary = _load_stage_record(path)["summary"]
        assert summary["accepted_fraction"] == 1.0
        assert summary["saturation_rate"] == 0.25

    def test_noop_resume_is_byte_identical(self, baseline):
        run_dir = baseline["run_dir"]
        before = _outputs(run_dir)
        summary = resume_run(run_dir)
        assert summary["stages_run"] == 0
        assert _outputs(run_dir) == before

    def test_damage_resume_is_byte_identical(self, baseline, tmp_path):
        # fresh run (cache shared with baseline so recompute is cheap)
        cache = os.path.join(baseline["run_dir"], "cache")
        runs = str(tmp_path / "runs")
        s1 = start_run(SPEC, runs_dir=runs, run_id="base", cache_dir=cache)
        run_dir = s1["run_dir"]
        before = _outputs(run_dir)
        assert before == _outputs(baseline["run_dir"])
        # truncate one in-flight record, delete another, drop the outputs
        trunc = os.path.join(run_dir, "points", "p0001", "stages",
                             "package.json")
        with open(trunc, "r+b") as fh:
            fh.truncate(17)
        os.unlink(os.path.join(run_dir, "points", "p0000", "stages",
                               "benes.json"))
        os.unlink(os.path.join(run_dir, "manifest.json"))
        assert _load_stage_record(trunc) is None
        summary = resume_run(run_dir, cache_dir=cache)
        assert summary["stages_run"] == 2  # only the damaged checkpoints
        assert _outputs(run_dir) == before

    def test_tampered_record_fails_seal_and_recomputes(self, baseline,
                                                       tmp_path):
        cache = os.path.join(baseline["run_dir"], "cache")
        runs = str(tmp_path / "runs")
        s1 = start_run(SPEC, runs_dir=runs, run_id="base", cache_dir=cache)
        path = os.path.join(s1["run_dir"], "points", "p0000", "stages",
                            "layout.json")
        rec = json.loads(_read(path))
        rec["summary"]["area"] = 1  # lie, without resealing
        write_json_atomic(path, rec)
        assert _load_stage_record(path) is None
        summary = resume_run(s1["run_dir"], cache_dir=cache)
        assert summary["stages_run"] == 1
        assert _outputs(s1["run_dir"]) == _outputs(baseline["run_dir"])

    def test_worker_sharding_is_byte_identical(self, baseline, tmp_path):
        cache = os.path.join(baseline["run_dir"], "cache")
        s2 = start_run(SPEC, runs_dir=str(tmp_path / "runs"), run_id="base",
                       cache_dir=cache, workers=2)
        assert _outputs(s2["run_dir"]) == _outputs(baseline["run_dir"])

    def test_failed_points_checkpoint_and_resume(self, tmp_path):
        spec = {"ks": [[1, 1, 1], [1, 2, 1]],  # second point is rejected
                "config": {"cycles": 100, "warmup": 10, "benes_batch": 2,
                           "sat_max_n": 0}}
        runs = str(tmp_path / "runs")
        s1 = start_run(spec, runs_dir=runs, run_id="mix")
        assert s1["counts"]["failed"] == 1
        manifest = json.loads(_read(os.path.join(s1["run_dir"],
                                                 "manifest.json")))
        bad = manifest["points"][1]
        assert bad["stages"]["layout"]["status"] == "failed"
        before = _outputs(s1["run_dir"])
        summary = resume_run(s1["run_dir"])
        assert summary["stages_run"] == 0  # failures checkpoint too
        assert _outputs(s1["run_dir"]) == before
        f = json.loads(before[1])
        assert f["ineligible"] == 1 and len(f["points"]) == 1

    def test_start_refuses_existing_run(self, baseline):
        runs = os.path.dirname(baseline["run_dir"])
        with pytest.raises(CampaignError, match="resume"):
            start_run(SPEC, runs_dir=runs, run_id="base")

    def test_resume_refuses_non_run_dir(self, tmp_path):
        with pytest.raises(CampaignError, match="campaign.json"):
            resume_run(str(tmp_path))

    def test_resume_refuses_digest_mismatch(self, baseline, tmp_path):
        run_dir = str(tmp_path / "bad")
        os.makedirs(run_dir)
        doc = json.loads(
            _read(os.path.join(baseline["run_dir"], "campaign.json"))
        )
        doc["spec_digest"] = "0" * 12
        write_json_atomic(os.path.join(run_dir, "campaign.json"), doc)
        with pytest.raises(CampaignError, match="digest"):
            resume_run(run_dir)


class TestOlderRunTrees:
    """Run trees written while ``layout_workers`` was a config key (the
    knob of the deleted parallel layout validator) keep loading:
    ``normalize_grid`` drops the key, and the spec digest is unchanged
    because execution knobs never entered it."""

    #: ``spec_digest(normalize_grid(SPEC))`` as the older code wrote it
    SPEC_DIGEST = "1927a5cfd68f"

    def _older_campaign_json(self, layout_workers) -> dict:
        return {
            "run_schema": 1,
            "run_id": "base",
            "spec_digest": self.SPEC_DIGEST,
            "grid": {
                "ks": [[1, 1, 1], [2, 1, 1]], "layers": [2],
                "pin_limit": [None], "rate": [0.7],
                "config": {
                    "node_side": 4, "track_order": "forward",
                    "cycles": 120, "warmup": 20, "benes_batch": 2,
                    "sat_max_n": 3, "threshold": 0.95, "seed": 0,
                    "layout_memory_budget": None,
                    "layout_workers": layout_workers,
                },
            },
        }

    def test_spec_digest_is_pinned(self):
        assert spec_digest(normalize_grid(SPEC)) == self.SPEC_DIGEST

    def test_layout_workers_key_is_dropped(self):
        for val in (None, 2, 0, "two"):
            g = normalize_grid(
                {"ks": [[1, 1, 1]], "config": {"layout_workers": val}}
            )
            assert g == normalize_grid({"ks": [[1, 1, 1]]})

    @pytest.mark.parametrize("layout_workers", [None, 2])
    def test_load_status_and_resume_keep_run_id(self, baseline, tmp_path,
                                                layout_workers):
        run_dir = str(tmp_path / "base")
        shutil.copytree(baseline["run_dir"], run_dir)
        write_json_atomic(os.path.join(run_dir, "campaign.json"),
                          self._older_campaign_json(layout_workers))
        os.unlink(os.path.join(run_dir, "points", "p0001", "stages",
                               "benes.json"))
        grid, run_id = load_run(run_dir)
        assert run_id == "base"
        assert grid == normalize_grid(SPEC)
        status = run_status(run_dir)
        assert status["run_id"] == "base"
        assert status["spec_digest"] == self.SPEC_DIGEST
        assert status["counts"]["complete"] == 1
        summary = resume_run(run_dir)
        assert summary["run_id"] == "base" and summary["stages_run"] == 1
        assert _outputs(run_dir) == _outputs(baseline["run_dir"])

    def test_schema_1_records_and_validate_json_recompute(self, baseline,
                                                          tmp_path):
        """Records written while ``validate`` was a stage of its own carry
        ``"schema": 1``.  Sealed as they are, they fail the schema check
        and recompute; their ``stages/validate.json`` is ignored."""
        run_dir = str(tmp_path / "base")
        shutil.copytree(baseline["run_dir"], run_dir)
        for pid in ("p0000", "p0001"):
            stages = os.path.join(run_dir, "points", pid, "stages")
            for name in os.listdir(stages):
                path = os.path.join(stages, name)
                rec = json.loads(_read(path))
                write_json_atomic(path, _seal(dict(rec, schema=1)))
            layout = json.loads(_read(os.path.join(stages, "layout.json")))
            write_json_atomic(os.path.join(stages, "validate.json"),
                              _seal(dict(layout, stage="validate")))
        status = run_status(run_dir)
        assert status["counts"]["complete"] == 0
        assert status["stage_counts"]["layout"]["pending"] == 2
        assert "validate" not in status["stage_counts"]
        summary = resume_run(run_dir)
        assert summary["stages_run"] == 8
        assert _outputs(run_dir) == _outputs(baseline["run_dir"])

    def test_saturation_argv_without_warmup_still_verifies(self, baseline,
                                                           tmp_path):
        """Saturation records sealed while the proof argv left out
        ``--warmup`` keep their schema (2) and verify: a resume neither
        recomputes nor rewrites them."""
        run_dir = str(tmp_path / "base")
        shutil.copytree(baseline["run_dir"], run_dir)
        paths = [os.path.join(run_dir, "points", pid, "stages",
                              "saturation.json")
                 for pid in ("p0000", "p0001")]
        for path in paths:
            rec = json.loads(_read(path))
            argv = rec["proof"]["argv"]
            i = argv.index("--warmup")
            assert argv[i + 2] == "--seed"
            del argv[i:i + 2]
            write_json_atomic(path, _seal(rec))
        before = [_read(p) for p in paths]
        assert run_status(run_dir)["counts"]["complete"] == 2
        summary = resume_run(run_dir)
        assert summary["stages_run"] == 0
        assert [_read(p) for p in paths] == before


class TestLayoutProof:
    """The layout stage's proof re-reads its cache entry and checks the
    payload's SHA-256 without loading the arrays."""

    def test_flipped_payload_fails_point_then_recomputes(self, baseline,
                                                         tmp_path):
        cache = str(tmp_path / "cache")
        shutil.copytree(os.path.join(baseline["run_dir"], "cache"), cache)
        manifest = json.loads(
            _read(os.path.join(baseline["run_dir"], "manifest.json"))
        )
        key = manifest["points"][0]["stages"]["layout"]["queries"][0]["key"]
        store = ArtifactStore(cache)
        payload = os.path.join(store.entry_dir(key), "payload.npz")
        with open(payload, "r+b") as fh:
            fh.seek(os.path.getsize(payload) // 2)
            byte = fh.read(1)[0]
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte ^ 0x01]))  # same size: get() still hits

        flipped = start_run(SPEC, runs_dir=str(tmp_path / "flipped"),
                            run_id="base", cache_dir=cache)
        assert flipped["counts"]["failed"] == 1
        run_dir = flipped["run_dir"]
        m = json.loads(_read(os.path.join(run_dir, "manifest.json")))
        failed = [(p["id"], stage, st) for p in m["points"]
                  for stage, st in p["stages"].items()
                  if st["status"] == "failed"]
        assert [(pid, stage) for pid, stage, _ in failed] == \
            [("p0000", "layout")]
        rec = failed[0][2]
        assert rec["rc"] == 1 and rec["queries"][0]["verified"] is False
        assert rec["summary"]["valid"]  # the layout is fine, its artifact not
        assert not os.path.exists(store.entry_dir(key))
        assert os.path.isdir(os.path.join(cache, "quarantine", key))
        frontier = json.loads(_read(os.path.join(run_dir, "frontier.json")))
        assert frontier["ineligible"] == 1
        assert frontier["considered"] == 1

        # the quarantined entry is a miss: the next run recomputes it
        again = start_run(SPEC, runs_dir=str(tmp_path / "again"),
                          run_id="base", cache_dir=cache)
        assert again["counts"]["failed"] == 0
        assert _outputs(again["run_dir"]) == _outputs(baseline["run_dir"])

    def test_layout_entry_without_payload_fails_proof(self, baseline,
                                                      tmp_path):
        cache = str(tmp_path / "cache")
        shutil.copytree(os.path.join(baseline["run_dir"], "cache"), cache)
        grid = normalize_grid(SPEC)
        point = expand_points(grid)[0]
        store = ArtifactStore(cache)
        ok = run_stage("layout", point, grid["config"], store=store)
        assert ok["status"] == "ok"
        entry = store.entry_dir(ok["proof"]["queries"][0]["key"])
        manifest = json.loads(_read(os.path.join(entry, "manifest.json")))
        os.unlink(os.path.join(entry, manifest["payload"]["file"]))
        manifest["payload"] = None  # still a well-formed manifest
        with open(os.path.join(entry, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        rec = run_stage("layout", point, grid["config"], store=store)
        assert rec["status"] == "failed" and rec["proof"]["rc"] == 1
        assert rec["proof"]["queries"][0]["verified"] is False
        assert rec["summary"] == ok["summary"] and rec["result"] == ok["result"]

    def test_warm_run_loads_no_arrays(self, baseline, tmp_path, monkeypatch):
        calls = {"load_arrays": 0, "compute": 0}
        load_arrays, compute = ArtifactStore.load_arrays, handlers.compute

        def counting_load_arrays(self, *args, **kwargs):
            calls["load_arrays"] += 1
            return load_arrays(self, *args, **kwargs)

        def counting_compute(*args, **kwargs):
            calls["compute"] += 1
            return compute(*args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "load_arrays",
                            counting_load_arrays)
        monkeypatch.setattr(handlers, "compute", counting_compute)
        warm = start_run(SPEC, runs_dir=str(tmp_path / "runs"),
                         run_id="base",
                         cache_dir=os.path.join(baseline["run_dir"], "cache"))
        assert warm["stages_run"] == 8
        assert calls == {"load_arrays": 0, "compute": 0}
        assert _outputs(warm["run_dir"]) == _outputs(baseline["run_dir"])


class TestSharedCache:
    def test_two_processes_race_on_one_cache(self, tmp_path):
        """Two campaign processes on one ``--cache-dir`` race for the
        same keys: the single-flight locks leave identical results, no
        stale lock and no corrupt entry."""
        runs, cache = str(tmp_path / "runs"), str(tmp_path / "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "repro", "campaign", "run",
                "--ks", "2,2,1", "--ks", "3,1,1", "--layers", "2,3",
                "--cycles", "300", "--warmup", "30",
                "--runs-dir", runs, "--cache-dir", cache]
        procs = [
            subprocess.Popen(argv + ["--run-id", run_id], env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
            for run_id in ("a", "b")
        ]
        errs = [p.communicate(timeout=300)[1] for p in procs]
        assert [p.returncode for p in procs] == [0, 0], errs
        a, b = (_outputs(os.path.join(runs, r)) for r in ("a", "b"))
        ma, mb = json.loads(a[0]), json.loads(b[0])
        assert (ma.pop("run_id"), mb.pop("run_id")) == ("a", "b")
        assert ma == mb and ma["counts"]["complete"] == 4
        assert a[1] == b[1]
        assert os.listdir(os.path.join(cache, "locks")) == []
        assert ArtifactStore(cache).verify()["corrupt"] == []


class TestKillAndResume:
    def test_sigterm_mid_run_then_resume_matches_baseline(self, baseline,
                                                          tmp_path):
        """Interrupt a live campaign with SIGTERM, resume it, and demand
        the manifest and frontier match an uninterrupted run's bytes."""
        runs = str(tmp_path / "runs")
        run_dir = os.path.join(runs, "base")
        cache = os.path.join(baseline["run_dir"], "cache")
        grid_file = str(tmp_path / "grid.json")
        with open(grid_file, "w") as fh:
            json.dump(SPEC, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             "--grid", grid_file, "--runs-dir", runs, "--run-id", "base"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # wait for the first checkpoint to land, then pull the plug
        deadline = time.time() + 60
        first = os.path.join(run_dir, "points", "p0000", "stages",
                             "layout.json")
        while time.time() < deadline and proc.poll() is None:
            if os.path.exists(first):
                break
            time.sleep(0.02)
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            proc.kill()
            proc.wait()
        assert os.path.exists(os.path.join(run_dir, "campaign.json"))
        summary = resume_run(run_dir, cache_dir=cache)
        assert summary["counts"]["complete"] == 2
        assert _outputs(run_dir) == _outputs(baseline["run_dir"])

    def test_sigkill_leaves_no_torn_checkpoints(self, tmp_path):
        """Atomic writes mean a killed worker leaves whole records or
        nothing — every surviving stage file must pass its seal."""
        runs = str(tmp_path / "runs")
        run_dir = os.path.join(runs, "kill")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             "--ks", "1,1,1", "--ks", "2,1,1", "--cycles", "120",
             "--warmup", "20", "--benes-batch", "2", "--sat-max-n", "0",
             "--runs-dir", runs, "--run-id", "kill"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.time() + 60
        probe = os.path.join(run_dir, "points", "p0000", "stages",
                             "package.json")
        while time.time() < deadline and proc.poll() is None:
            if os.path.exists(probe):
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        found = 0
        for root, _dirs, files in os.walk(os.path.join(run_dir, "points")):
            for name in files:
                if name.endswith(".json") and root.endswith("stages"):
                    found += 1
                    assert _load_stage_record(
                        os.path.join(root, name)
                    ) is not None
        assert found > 0  # the run got far enough to checkpoint


class TestCampaignCLI:
    def test_run_status_frontier_resume(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        out_json = str(tmp_path / "summary.json")
        rc = main([
            "campaign", "run", "--ks", "1,1,1", "--rates", "0.7",
            "--cycles", "100", "--warmup", "10", "--benes-batch", "2",
            "--sat-max-n", "0", "--runs-dir", runs, "--run-id", "cli",
            "--json", out_json,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign cli:" in out and "frontier" in out
        with open(out_json) as fh:
            assert json.load(fh)["points"] == 1

        run_dir = os.path.join(runs, "cli")
        assert main(["campaign", "status", run_dir]) == 0
        assert "1/1 point(s) complete" in capsys.readouterr().out
        assert main(["campaign", "frontier", run_dir]) == 0
        assert "p0000" in capsys.readouterr().out
        assert main(["campaign", "resume", run_dir]) == 0
        assert "0 stage(s) run" in capsys.readouterr().out

    def test_run_requires_grid_or_ks(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "run"])
        assert "--grid FILE or at least one --ks" in capsys.readouterr().err

    def test_grid_file_and_ks_are_exclusive(self, tmp_path, capsys):
        grid = str(tmp_path / "g.json")
        with open(grid, "w") as fh:
            json.dump({"ks": [[1, 1, 1]]}, fh)
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--grid", grid, "--ks", "1,1,1"])
        assert "exclusive" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        grid = str(tmp_path / "g.json")
        for spec, msg in (
            ({"ks": [[1, 1, 1]], "bogus": 1}, "unknown grid key"),
            # used to escape as a TypeError traceback
            ({"ks": [[1, 1, 1]], "config": {"threshold": None}},
             "config.threshold must be a number"),
        ):
            with open(grid, "w") as fh:
                json.dump(spec, fh)
            rc = main(["campaign", "run", "--grid", grid,
                       "--runs-dir", str(tmp_path / "runs")])
            assert rc == 2
            err = capsys.readouterr().err
            assert msg in err and err.count("\n") == 1

    def test_status_on_missing_run_exits_2(self, tmp_path, capsys):
        rc = main(["campaign", "status", str(tmp_path / "nope")])
        assert rc == 2
        assert "campaign.json" in capsys.readouterr().err
