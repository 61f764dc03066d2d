"""Checkpointed campaign execution: run trees, sharding, resume.

One campaign is one *run tree*::

    runs/<run_id>/
      campaign.json                  # the normalized grid (written once)
      cache/                         # ArtifactStore (unless --cache-dir)
      points/<point_id>/
        point.json                   # the point's identity
        stages/<stage>.json          # sealed stage records (checkpoints)
      manifest.json                  # assembled from the stage records
      frontier.json                  # Pareto frontier document
      frontier.txt                   # rendered frontier table

Every file is written atomically (temp + ``os.replace``) and every
stage record is *sealed* with a content digest, so an interrupted run
leaves either a complete, verifiable checkpoint or detectable garbage —
``resume`` re-runs exactly the stages whose records are missing or fail
their seal, and nothing else.  Records, manifests and frontiers carry
no timestamps, hostnames or paths: an interrupted-and-resumed run
produces **byte-identical** ``manifest.json`` / ``frontier.json`` to an
uninterrupted one, whatever the worker count.

Sharding: points are independent, so incomplete points fan out across a
:mod:`multiprocessing` pool.  Workers share the artifact store (its
single-flight locks serialize duplicate computes) and write only inside
their own point directory; the parent assembles the manifest from disk
afterwards, in stable point order.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

from ..service.store import ArtifactStore, canonical_json
from .frontier import pareto_frontier, render_frontier
from .grid import expand_points, normalize_grid, spec_digest
from .stages import STAGE_SCHEMA_VERSION, STAGES, run_stage

__all__ = [
    "CampaignError",
    "RUN_SCHEMA_VERSION",
    "start_run",
    "resume_run",
    "run_status",
    "build_manifest",
    "load_run",
    "write_json_atomic",
]

RUN_SCHEMA_VERSION = 1

_CAMPAIGN = "campaign.json"
_MANIFEST = "manifest.json"
_FRONTIER = "frontier.json"
_FRONTIER_TXT = "frontier.txt"


class CampaignError(RuntimeError):
    """Unusable run tree or conflicting run request."""


# ----------------------------------------------------------------------
# deterministic atomic JSON
# ----------------------------------------------------------------------

def _json_bytes(obj: object) -> bytes:
    """Stable on-disk JSON: sorted keys, fixed indent, trailing newline."""
    return (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode("utf-8")


def write_json_atomic(path: str, obj: object) -> None:
    """Write ``obj`` as JSON via a same-directory temp + ``os.replace``
    so readers (and crashes) never observe a torn file."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_json_bytes(obj))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_json(path: str) -> Optional[Dict]:
    try:
        with open(path, "rb") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError,
            OSError):
        return None


# ----------------------------------------------------------------------
# sealed stage records
# ----------------------------------------------------------------------

def _seal(record: Dict) -> Dict:
    body = {k: v for k, v in record.items() if k != "record_sha256"}
    record["record_sha256"] = hashlib.sha256(canonical_json(body)).hexdigest()
    return record


def _load_stage_record(path: str) -> Optional[Dict]:
    """A stage record, or ``None`` if missing, truncated, tampered or
    from another schema version — any of which means 'recompute'."""
    rec = _load_json(path)
    if not isinstance(rec, dict) or rec.get("schema") != STAGE_SCHEMA_VERSION:
        return None
    seal = rec.get("record_sha256")
    body = {k: v for k, v in rec.items() if k != "record_sha256"}
    if seal != hashlib.sha256(canonical_json(body)).hexdigest():
        return None
    return rec


# ----------------------------------------------------------------------
# run-tree paths
# ----------------------------------------------------------------------

def _point_dir(run_dir: str, point_id: str) -> str:
    return os.path.join(run_dir, "points", point_id)


def _stage_path(run_dir: str, point_id: str, stage: str) -> str:
    return os.path.join(_point_dir(run_dir, point_id), "stages",
                        f"{stage}.json")


def _store_for(run_dir: str, cache_dir: Optional[str],
               use_cache: bool) -> Optional[ArtifactStore]:
    if not use_cache:
        return None
    return ArtifactStore(cache_dir or os.path.join(run_dir, "cache"))


# ----------------------------------------------------------------------
# point execution (worker side)
# ----------------------------------------------------------------------

def _run_point(args: Tuple) -> Tuple[str, int, Dict[str, str]]:
    """Run every missing stage of one point; returns ``(point_id,
    stages_executed, {stage: status})``.  Module-level so pool workers
    pickle it; everything needed is re-derived from the grid."""
    run_dir, grid, index, cache_dir, use_cache = args
    point = expand_points(grid)[index]
    config = grid["config"]
    store = _store_for(run_dir, cache_dir, use_cache)
    pdir = _point_dir(run_dir, point.point_id)
    point_json = os.path.join(pdir, "point.json")
    if _load_json(point_json) is None:
        write_json_atomic(point_json, point.params())
    executed = 0
    statuses: Dict[str, str] = {}
    for stage in STAGES:
        path = _stage_path(run_dir, point.point_id, stage)
        rec = _load_stage_record(path)
        if rec is None:
            rec = _seal(run_stage(stage, point, config, store=store,
                                  use_cache=use_cache))
            write_json_atomic(path, rec)
            executed += 1
        statuses[stage] = rec["status"]
    return point.point_id, executed, statuses


def _point_complete(run_dir: str, point_id: str) -> bool:
    return all(
        _load_stage_record(_stage_path(run_dir, point_id, stage)) is not None
        for stage in STAGES
    )


# ----------------------------------------------------------------------
# manifest / frontier assembly (parent side)
# ----------------------------------------------------------------------

def build_manifest(run_dir: str, grid: Dict, run_id: str) -> Dict:
    """Assemble the run manifest purely from on-disk stage records, in
    stable point order — execution order and worker count leave no
    trace, which is what makes resumes byte-identical."""
    points_out: List[Dict] = []
    counts = {"points": 0, "complete": 0, "failed": 0}
    stage_counts = {s: {"ok": 0, "failed": 0, "skipped": 0, "pending": 0}
                    for s in STAGES}
    for point in expand_points(grid):
        counts["points"] += 1
        stages_out: Dict[str, Dict] = {}
        complete, failed = True, False
        for stage in STAGES:
            rec = _load_stage_record(
                _stage_path(run_dir, point.point_id, stage)
            )
            if rec is None:
                complete = False
                stage_counts[stage]["pending"] += 1
                continue
            status = rec["status"]
            stage_counts[stage][status] += 1
            failed |= status == "failed"
            stages_out[stage] = {
                "status": status,
                "rc": rec["proof"]["rc"],
                "argv": rec["proof"]["argv"],
                "queries": rec["proof"]["queries"],
                "summary": rec["summary"],
                "error": rec["error"],
            }
        counts["complete"] += complete
        counts["failed"] += failed
        points_out.append(
            {
                "id": point.point_id,
                "params": point.params(),
                "complete": complete,
                "stages": stages_out,
            }
        )
    return {
        "run_schema": RUN_SCHEMA_VERSION,
        "run_id": run_id,
        "spec_digest": spec_digest(grid),
        "grid": grid,
        "stage_order": list(STAGES),
        "counts": counts,
        "stage_counts": stage_counts,
        "points": points_out,
    }


def _write_outputs(run_dir: str, manifest: Dict) -> Dict:
    frontier = pareto_frontier(manifest)
    write_json_atomic(os.path.join(run_dir, _MANIFEST), manifest)
    write_json_atomic(os.path.join(run_dir, _FRONTIER), frontier)
    txt = os.path.join(run_dir, _FRONTIER_TXT)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=run_dir)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(render_frontier(frontier))
        os.replace(tmp, txt)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return frontier


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def load_run(run_dir: str) -> Tuple[Dict, str]:
    """The run's normalized grid and run id, from ``campaign.json``."""
    doc = _load_json(os.path.join(run_dir, _CAMPAIGN))
    if doc is None:
        raise CampaignError(f"no campaign.json under {run_dir}")
    if doc.get("run_schema") != RUN_SCHEMA_VERSION:
        raise CampaignError(
            f"run schema {doc.get('run_schema')} != {RUN_SCHEMA_VERSION}"
        )
    grid = normalize_grid(doc["grid"])
    if spec_digest(grid) != doc["spec_digest"]:
        raise CampaignError("campaign.json spec digest mismatch")
    return grid, doc["run_id"]


def _execute(
    run_dir: str,
    grid: Dict,
    run_id: str,
    cache_dir: Optional[str],
    use_cache: bool,
    workers: Optional[int],
    log: Optional[Callable[[str], None]],
) -> Dict:
    points = expand_points(grid)
    todo = [p for p in points if not _point_complete(run_dir, p.point_id)]
    jobs = [(run_dir, grid, p.index, cache_dir, use_cache) for p in todo]
    executed_points = 0
    stages_run = 0
    if workers and workers > 1 and len(jobs) > 1:
        procs = min(workers, len(jobs))
        with multiprocessing.get_context().Pool(procs) as pool:
            for pid, executed, statuses in pool.imap_unordered(
                _run_point, jobs
            ):
                executed_points += executed > 0
                stages_run += executed
                if log:
                    log(f"  {pid}: {executed} stage(s) run "
                        f"[{' '.join(statuses[s][0] for s in STAGES)}]")
    else:
        for job in jobs:
            pid, executed, statuses = _run_point(job)
            executed_points += executed > 0
            stages_run += executed
            if log:
                log(f"  {pid}: {executed} stage(s) run "
                    f"[{' '.join(statuses[s][0] for s in STAGES)}]")
    manifest = build_manifest(run_dir, grid, run_id)
    frontier = _write_outputs(run_dir, manifest)
    return {
        "run_id": run_id,
        "run_dir": run_dir,
        "points": len(points),
        "resumed_points": len(todo),
        "executed_points": executed_points,
        "stages_run": stages_run,
        "counts": manifest["counts"],
        "frontier_points": len(frontier["points"]),
    }


def start_run(
    spec: Dict,
    runs_dir: str = "runs",
    run_id: Optional[str] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    workers: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Expand ``spec``, create ``runs/<run_id>/`` and run every stage of
    every point.  Refuses a run directory that already holds a campaign
    — that is what :func:`resume_run` is for."""
    grid = normalize_grid(spec)
    run_id = run_id or f"c{spec_digest(grid)}"
    run_dir = os.path.join(runs_dir, run_id)
    if os.path.exists(os.path.join(run_dir, _CAMPAIGN)):
        raise CampaignError(
            f"run {run_id} already exists under {runs_dir}; "
            f"use 'repro campaign resume'"
        )
    os.makedirs(run_dir, exist_ok=True)
    write_json_atomic(
        os.path.join(run_dir, _CAMPAIGN),
        {
            "run_schema": RUN_SCHEMA_VERSION,
            "run_id": run_id,
            "spec_digest": spec_digest(grid),
            "grid": grid,
        },
    )
    return _execute(run_dir, grid, run_id, cache_dir, use_cache, workers, log)


def resume_run(
    run_dir: str,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    workers: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Continue an interrupted (or extend a damaged) run: re-runs only
    the stages whose checkpoint records are missing or fail their seal,
    then rebuilds the manifest and frontier."""
    grid, run_id = load_run(run_dir)
    return _execute(run_dir, grid, run_id, cache_dir, use_cache, workers, log)


def run_status(run_dir: str) -> Dict:
    """Per-stage completion summary of a run tree, without executing
    anything (safe on a live run: records are read atomically)."""
    grid, run_id = load_run(run_dir)
    manifest = build_manifest(run_dir, grid, run_id)
    have_outputs = (
        _load_json(os.path.join(run_dir, _MANIFEST)) is not None
        and _load_json(os.path.join(run_dir, _FRONTIER)) is not None
    )
    return {
        "run_id": run_id,
        "run_dir": run_dir,
        "spec_digest": manifest["spec_digest"],
        "counts": manifest["counts"],
        "stage_counts": manifest["stage_counts"],
        "outputs_written": have_outputs,
    }
