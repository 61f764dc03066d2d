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

from ..service.handlers import QueryError, normalize_params, query
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


def _layout_params(point: CampaignPoint, config: Dict) -> Dict[str, object]:
    return {
        "ks": list(point.ks),
        "layers": point.layers,
        "node_side": config["node_side"],
        "track_order": config["track_order"],
    }


def stage_argv(
    stage: str, point: CampaignPoint, config: Dict[str, object]
) -> List[str]:
    """The CLI invocation that reproduces the stage's primary query."""
    ks = ",".join(str(k) for k in point.ks)
    if stage == "layout":
        return [
            "repro", "layout", "--ks", ks,
            "--layers", str(point.layers),
            "--node-side", str(config["node_side"]),
            "--track-order", str(config["track_order"]),
        ]
    if stage == "package":
        return ["repro", "package", "--ks", ks, "--scheme", "all"]
    if stage == "benes":
        seed = derive_seed(config["seed"], "benes", list(point.ks))
        return [
            "repro", "benes", "-n", str(point.n),
            "--batch", str(config["benes_batch"]), "--seed", str(seed),
        ]
    if stage == "saturation":
        seed = derive_seed(config["seed"], "sim", list(point.ks), point.rate)
        return [
            "repro", "sim", "-n", str(point.n),
            "--rate", str(point.rate),
            "--cycles", str(config["cycles"]), "--seed", str(seed),
        ]
    raise ValueError(f"unknown stage {stage!r}")


def _exec_params(config: Dict[str, object]) -> Optional[Dict[str, object]]:
    """The layout stage's execution knob from campaign config, or
    ``None`` when it is unset (the monolithic path).  It never enters
    cache keys, proofs or argv — it changes how the answer is computed,
    not the answer."""
    budget = config.get("layout_memory_budget")
    return None if budget is None else {"memory_budget_bytes": budget}


def _query_with_proof(
    kind: str,
    params: Dict[str, object],
    store: Optional[ArtifactStore],
    use_cache: bool,
    exec_params: Optional[Dict[str, object]] = None,
    payload: bool = False,
) -> Tuple[Dict, Dict]:
    """Run one service query and attest it: the returned proof entry
    records the cache key and the digest of the result, with
    ``verified`` true only when re-reading the artifact store yields the
    same bytes (the verify-gate's "validated result digest") and, with
    ``payload``, an array payload whose SHA-256 matches."""
    result = query(kind, params, store=store, use_cache=use_cache,
                   exec_params=exec_params)
    digest = _digest(result)
    entry: Dict[str, object] = {
        "kind": kind,
        "key": normalize_key(kind, params),
        "result_sha256": digest,
    }
    if store is not None and use_cache:
        again = store.get(kind, normalize_params(kind, params),
                          payload=payload)
        entry["verified"] = again is not None and _digest(again) == digest
    else:
        entry["verified"] = True  # nothing on disk to cross-check
    return result, entry


def normalize_key(kind: str, params: Dict[str, object]) -> str:
    return cache_key(kind, normalize_params(kind, params))


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
    use_cache: bool = True,
) -> Dict:
    """Execute one stage for one point and return its stage record.

    Engine rejections surface as ``status: failed`` records with the
    error text — deterministic, so failed points checkpoint and resume
    like successful ones.
    """
    argv = stage_argv(stage, point, config)
    try:
        if stage == "layout":
            result, q = _query_with_proof(
                "layout", _layout_params(point, config), store, use_cache,
                exec_params=_exec_params(config), payload=True,
            )
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
            result, q = _query_with_proof(
                "package",
                {"ks": list(point.ks), "scheme": "all",
                 "rows_per_module": None},
                store, use_cache,
            )
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
            if point.n > 16:
                return _record(stage, point, argv, status="skipped", rc=0,
                               error=f"n={point.n} above benes service cap")
            seed = derive_seed(config["seed"], "benes", list(point.ks))
            result, q = _query_with_proof(
                "benes",
                {"n": point.n, "batch": config["benes_batch"], "seed": seed},
                store, use_cache,
            )
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
            if point.n > 12:
                return _record(stage, point, argv, status="skipped", rc=0,
                               error=f"n={point.n} above sim service cap")
            seed = derive_seed(config["seed"], "sim", list(point.ks), point.rate)
            sim, q_sim = _query_with_proof(
                "sim",
                {"n": point.n, "rate": point.rate,
                 "cycles": config["cycles"], "warmup": config["warmup"],
                 "seed": seed},
                store, use_cache,
            )
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
                    store, use_cache,
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
