"""Checkpointed design-space campaigns over the butterfly layout stack.

``repro campaign`` expands a declared parameter grid into staged jobs
(layout -> package -> benes -> saturation), shards them across workers,
checkpoints every stage under ``runs/<run_id>/`` and emits a Pareto
frontier (area / wire length / pins / layers).  The layout stage's proof
re-checks its cache entry, payload SHA-256 included.  Resuming an
interrupted run reproduces the manifest and frontier byte-for-byte.
"""

from .frontier import OBJECTIVES, pareto_frontier, render_frontier
from .grid import (
    CONFIG_DEFAULTS,
    CampaignPoint,
    GridError,
    derive_seed,
    expand_points,
    normalize_grid,
    spec_digest,
)
from .orchestrator import (
    RUN_SCHEMA_VERSION,
    CampaignError,
    build_manifest,
    load_run,
    resume_run,
    run_status,
    start_run,
    write_json_atomic,
)
from .stages import STAGE_SCHEMA_VERSION, STAGES, run_stage, stage_argv

__all__ = [
    "CONFIG_DEFAULTS",
    "OBJECTIVES",
    "RUN_SCHEMA_VERSION",
    "STAGES",
    "STAGE_SCHEMA_VERSION",
    "CampaignError",
    "CampaignPoint",
    "GridError",
    "build_manifest",
    "derive_seed",
    "expand_points",
    "load_run",
    "normalize_grid",
    "pareto_frontier",
    "render_frontier",
    "resume_run",
    "run_stage",
    "run_status",
    "spec_digest",
    "stage_argv",
    "start_run",
    "write_json_atomic",
]
