"""Per-point stage pipeline: layout -> package -> benes -> saturation.

Each stage answers through the :mod:`repro.service` handler layer, so a
campaign's artifacts *are* cache entries — rerunning a grid whose points
were ever computed (by a campaign, the CLI or the HTTP service) serves
them back byte-identically instead of recomputing.

Every stage emits one JSON-native *stage record* carrying:

``status``
    ``ok`` / ``failed`` / ``skipped`` (skipped = out of the stage's
    bounds, e.g. the saturation bisection above ``sat_max_n``).
``summary``
    the headline metrics the run manifest and the Pareto frontier read.
``result``
    the full service result(s), checkpoint-grade: a resumed run loads
    this instead of recomputing.
``proof``
    the verify-gate record — the CLI-equivalent ``argv``, the stage's
    ``rc``, and one entry per service query with its cache key and the
    validated ``result_sha256`` (re-read from the artifact store and
    re-digested, so the proof attests what is actually on disk).  The
    layout entry's re-read also checks the payload's SHA-256, and the
    layout stage fails unless the layout is valid and that check holds.

Records contain **no timestamps, paths or cache dispositions** — a
resumed run must reproduce them byte-for-byte.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..service.handlers import (
    PARAM_SPECS,
    QueryError,
    normalize_params,
    params_argv,
    query,
    split_exec_params,
)
from ..service.store import ArtifactStore, cache_key, canonical_json
from .grid import CampaignPoint, derive_seed

__all__ = ["STAGES", "STAGE_SCHEMA_VERSION", "run_stage", "stage_argv"]

#: Stage order.  A stage's record depends only on the point and the
#: config, never on another stage's record.
STAGES: Tuple[str, ...] = ("layout", "package", "benes", "saturation")

#: Bump when the stage-record layout changes; resumed runs discard
#: records from other versions and recompute.  v2: the ``validate``
#: stage is folded into the layout stage's proof.
STAGE_SCHEMA_VERSION = 2


def _digest(result: Dict) -> str:
    return hashlib.sha256(canonical_json(result)).hexdigest()


def _primary_query(
    stage: str, point: CampaignPoint, config: Dict[str, object]
) -> Tuple[str, Dict[str, object]]:
    """The kind and params of the stage's primary query (the saturation
    stage's is its sim)."""
    if stage == "layout":
        return "layout", {
            "ks": list(point.ks),
            "layers": point.layers,
            "node_side": config["node_side"],
            "track_order": config["track_order"],
        }
    if stage == "package":
        return "package", {"ks": list(point.ks), "scheme": "all"}
    if stage == "benes":
        seed = derive_seed(config["seed"], "benes", list(point.ks))
        return "benes", {
            "n": point.n, "batch": config["benes_batch"], "seed": seed,
        }
    if stage == "saturation":
        seed = derive_seed(config["seed"], "sim", list(point.ks), point.rate)
        return "sim", {
            "n": point.n, "rate": point.rate, "cycles": config["cycles"],
            "warmup": config["warmup"], "seed": seed,
        }
    raise ValueError(f"unknown stage {stage!r}")


def stage_argv(
    stage: str, point: CampaignPoint, config: Dict[str, object]
) -> List[str]:
    """The CLI invocation that reproduces the stage's primary query."""
    kind, params = _primary_query(stage, point, config)
    return ["repro", kind, *params_argv(kind, params)]


def _n_cap(kind: str) -> int:
    """The largest ``n`` the service answers a ``kind`` query for."""
    return PARAM_SPECS[kind]["n"][0].bounds[1]


def _query_with_proof(
    kind: str,
    params: Dict[str, object],
    store: Optional[ArtifactStore],
    payload: bool = False,
) -> Tuple[Dict, Dict]:
    """Run one service query and attest it: the returned proof entry
    records the cache key and the digest of the result, with
    ``verified`` true only when re-reading the artifact store yields the
    same bytes (the verify-gate's "validated result digest") and, with
    ``payload``, an array payload whose SHA-256 matches.  Execution
    knobs in ``params`` reach the query but neither the key nor the
    re-read."""
    result = query(kind, params, store=store)
    p = normalize_params(kind, split_exec_params(kind, params)[0])
    digest = _digest(result)
    entry: Dict[str, object] = {
        "kind": kind,
        "key": cache_key(kind, p),
        "result_sha256": digest,
    }
    if store is not None:
        again = store.get(kind, p, payload=payload)
        entry["verified"] = again is not None and _digest(again) == digest
    else:
        entry["verified"] = True  # nothing on disk to cross-check
    return result, entry


def _record(
    stage: str,
    point: CampaignPoint,
    argv: List[str],
    *,
    status: str,
    rc: int,
    summary: Optional[Dict] = None,
    result: Optional[Dict] = None,
    queries: Optional[List[Dict]] = None,
    error: Optional[str] = None,
) -> Dict:
    return {
        "schema": STAGE_SCHEMA_VERSION,
        "stage": stage,
        "point": point.params(),
        "status": status,
        "summary": summary,
        "result": result,
        "error": error,
        "proof": {"argv": argv, "rc": rc, "queries": queries or []},
    }


def run_stage(
    stage: str,
    point: CampaignPoint,
    config: Dict[str, object],
    store: Optional[ArtifactStore] = None,
) -> Dict:
    """Execute one stage for one point and return its stage record;
    ``store=None`` runs it with the cache off.

    Engine rejections surface as ``status: failed`` records with the
    error text — deterministic, so failed points checkpoint and resume
    like successful ones.
    """
    argv = stage_argv(stage, point, config)
    kind, params = _primary_query(stage, point, config)
    try:
        if stage == "layout":
            # the execution knob changes how the answer is computed, not
            # the answer: it never enters the key, the proof or the argv
            budget = config.get("layout_memory_budget")
            if budget is not None:
                params["memory_budget_bytes"] = budget
            result, q = _query_with_proof(kind, params, store, payload=True)
            s = result["summary"]
            summary = {
                "valid": bool(result["valid"]),
                "area": s["area"],
                "total_wire_length": s["total_wire_length"],
                "layers": s["layers"],
                "wires": s["wires"],
                "vias": s["vias"],
            }
            error = None
            if not summary["valid"]:
                error = "layout failed validation"
            elif not q["verified"]:
                error = "layout artifact failed its store check"
            return _record(
                stage, point, argv,
                status="ok" if error is None else "failed",
                rc=0 if error is None else 1,
                summary=summary, result=result, queries=[q], error=error,
            )

        if stage == "package":
            result, q = _query_with_proof(kind, params, store)
            best = min(result["schemes"], key=lambda r: r["pins exact"])
            pins = int(best["pins exact"])
            feasible = point.pin_limit is None or pins <= point.pin_limit
            summary = {
                "pins": pins,
                "scheme": best["scheme"],
                "pin_limit": point.pin_limit,
                "feasible": feasible,
                "all_match": bool(result["all_match"]),
            }
            rc = 0 if result["all_match"] else 1
            return _record(
                stage, point, argv,
                status="ok" if rc == 0 else "failed", rc=rc,
                summary=summary, result=result, queries=[q],
            )

        if stage == "benes":
            if point.n > _n_cap(kind):
                return _record(stage, point, argv, status="skipped", rc=0,
                               error=f"n={point.n} above benes service cap")
            result, q = _query_with_proof(kind, params, store)
            rc = 0 if result["realized_ok"] else 1
            summary = {
                "realized_ok": bool(result["realized_ok"]),
                "mean_crossed": result["crossed"]["mean"],
                "batch": config["benes_batch"],
            }
            return _record(
                stage, point, argv,
                status="ok" if rc == 0 else "failed", rc=rc,
                summary=summary, result=result, queries=[q],
            )

        if stage == "saturation":
            if point.n > _n_cap(kind):
                return _record(stage, point, argv, status="skipped", rc=0,
                               error=f"n={point.n} above sim service cap")
            sim, q_sim = _query_with_proof(kind, params, store)
            queries = [q_sim]
            results: Dict[str, Dict] = {"sim": sim}
            sat_rate = None
            if point.n <= config["sat_max_n"]:
                sat_seed = derive_seed(config["seed"], "saturation",
                                       list(point.ks))
                sat, q_sat = _query_with_proof(
                    "saturation",
                    {"n": point.n, "cycles": config["cycles"],
                     "threshold": config["threshold"], "seed": sat_seed},
                    store,
                )
                queries.append(q_sat)
                results["saturation"] = sat
                sat_rate = sat["rate_per_node"]
            summary = {
                "rate": point.rate,
                "accepted_fraction": sim["accepted_fraction"],
                "throughput_per_input": sim["throughput_per_input"],
                "saturation_rate": sat_rate,
            }
            return _record(stage, point, argv, status="ok", rc=0,
                           summary=summary, result=results, queries=queries)

        raise ValueError(f"unknown stage {stage!r}")
    except QueryError as e:
        # same params -> same engine error text: failures checkpoint and
        # resume deterministically like results do
        return _record(stage, point, argv, status="failed", rc=2,
                       error=str(e))
