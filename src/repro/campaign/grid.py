"""Parameter-grid declaration and expansion for ``repro campaign``.

A *grid* is the JSON document (or the equivalent CLI flags) declaring
the design space one campaign sweeps — the paper's headline tables are
exactly such sweeps over ``(n, k1..kl, L, pin-limit, injection-rate)``.
Schema::

    {
      "ks":        [[2, 2], [1, 1, 1]],   # required axis: parameter vectors
      "layers":    [2],                   # wiring layers L (default [2])
      "pin_limit": [64],                  # pins/module cap, null = none
      "rate":      [0.8],                 # per-input injection rate
      "config": {                         # per-run knobs, not axes
        "node_side": 4,       # layout node square side W
        "track_order": "forward",
        "cycles": 600,        # simulated cycles (sim + saturation)
        "warmup": 100,        # sim warmup cycles
        "benes_batch": 8,     # permutations routed per point
        "sat_max_n": 6,       # run the saturation bisection only if n <= this
        "threshold": 0.95,    # saturation accepted-fraction threshold
        "seed": 0             # campaign base seed (per-point seeds derive)
      }
    }

Points are the cross product of the four axes, expanded in a *stable*
order (``ks`` outermost, then ``layers``, ``pin_limit``, ``rate``) so
point ids, derived seeds and manifests are identical across runs,
resumes and worker counts.  Everything downstream — stage records,
manifests, the Pareto frontier — is keyed by this expansion.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..service.handlers import PARAM_SPECS, QueryError
from ..service.store import canonical_json

__all__ = [
    "CampaignPoint",
    "GridError",
    "CONFIG_DEFAULTS",
    "EXEC_CONFIG_KEYS",
    "normalize_grid",
    "expand_points",
    "spec_digest",
    "derive_seed",
]


class GridError(ValueError):
    """Malformed campaign grid specification."""


#: Run-level knobs (not axes); all overridable via ``config``.
CONFIG_DEFAULTS: Dict[str, object] = {
    "node_side": 4,
    "track_order": "forward",
    "cycles": 600,
    "warmup": 100,
    "benes_batch": 8,
    "sat_max_n": 6,
    "threshold": 0.95,
    "seed": 0,
    "layout_memory_budget": None,
}

#: Execution knobs: they change *how* the layout stage computes (a
#: chunked out-of-core build), never *what* it computes — the stage
#: output bytes are identical with or without them.  They are therefore
#: stripped from :func:`spec_digest`, so run ids, derived seeds and
#: proofs from runs predating these knobs stay valid.
EXEC_CONFIG_KEYS = ("layout_memory_budget",)

_AXES = ("ks", "layers", "pin_limit", "rate")

#: Config keys that feed a service parameter: ``key -> (kind, param)``.
#: Each value must pass that parameter's :data:`PARAM_SPECS` converter,
#: so a grid the service would reject fails before any point runs.
_SERVICE_PARAMS = {
    "node_side": ("layout", "node_side"),
    "cycles": ("sim", "cycles"),
    "warmup": ("sim", "warmup"),
    "benes_batch": ("benes", "batch"),
    "threshold": ("saturation", "threshold"),
}


def _as_int(v: object, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise GridError(f"{what} must be an integer, got {v!r}")
    return v


def _norm_ks_axis(raw: object) -> List[List[int]]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError("grid 'ks' must be a non-empty list of k-vectors")
    out: List[List[int]] = []
    for ks in raw:
        if not isinstance(ks, (list, tuple)) or not ks:
            raise GridError(f"each ks entry must be a non-empty list, got {ks!r}")
        vec = [_as_int(k, "ks entry") for k in ks]
        if any(k < 1 for k in vec):
            raise GridError(f"ks entries must be >= 1, got {vec}")
        if sum(vec) > 24:
            raise GridError(f"sum(ks) capped at 24 per point, got {sum(vec)}")
        out.append(vec)
    return out


def _norm_layers_axis(raw: object) -> List[int]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError("grid 'layers' must be a non-empty list")
    out = [_as_int(v, "layers") for v in raw]
    if any(not 2 <= v <= 64 for v in out):
        raise GridError(f"layers must be in [2, 64], got {out}")
    return out


def _norm_pin_axis(raw: object) -> List[Optional[int]]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError("grid 'pin_limit' must be a non-empty list")
    out: List[Optional[int]] = []
    for v in raw:
        if v is None:
            out.append(None)
            continue
        i = _as_int(v, "pin_limit")
        if i < 1:
            raise GridError(f"pin_limit must be >= 1 or null, got {i}")
        out.append(i)
    return out


def _norm_rate_axis(raw: object) -> List[float]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError("grid 'rate' must be a non-empty list")
    out: List[float] = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise GridError(f"rate must be a number, got {v!r}")
        f = float(v)
        if not 0.0 < f <= 1.0:
            raise GridError(f"rate must be in (0, 1], got {f}")
        out.append(f)
    return out


def normalize_grid(spec: Dict[str, object]) -> Dict[str, object]:
    """Validated grid with axis defaults and config defaults filled.

    The returned dict is the *canonical* spec: it is what gets digested,
    written to ``campaign.json`` and embedded in the manifest, so two
    spellings of the same grid produce identical run trees.
    """
    if not isinstance(spec, dict):
        raise GridError(f"grid must be an object, got {type(spec).__name__}")
    unknown = set(spec) - set(_AXES) - {"config"}
    if unknown:
        raise GridError(f"unknown grid key(s): {sorted(unknown)}")
    if "ks" not in spec:
        raise GridError("grid requires a 'ks' axis")
    grid: Dict[str, object] = {
        "ks": _norm_ks_axis(spec["ks"]),
        "layers": _norm_layers_axis(spec.get("layers", [2])),
        "pin_limit": _norm_pin_axis(spec.get("pin_limit", [None])),
        "rate": _norm_rate_axis(spec.get("rate", [0.8])),
    }
    raw_cfg = spec.get("config", {})
    if not isinstance(raw_cfg, dict):
        raise GridError("grid 'config' must be an object")
    # ``layout_workers`` was an execution knob of the deleted parallel
    # layout validator.  Older run trees store it (usually null) in
    # campaign.json, which load_run re-normalizes, and it never entered
    # spec_digest: drop it so those runs still load under their run id.
    raw_cfg = {k: v for k, v in raw_cfg.items() if k != "layout_workers"}
    unknown = set(raw_cfg) - set(CONFIG_DEFAULTS)
    if unknown:
        raise GridError(f"unknown config key(s): {sorted(unknown)}")
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(raw_cfg)
    if cfg["track_order"] not in ("forward", "reversed"):
        raise GridError(f"bad track_order {cfg['track_order']!r}")
    for k in ("node_side", "cycles", "warmup", "benes_batch", "sat_max_n", "seed"):
        cfg[k] = _as_int(cfg[k], f"config.{k}")
    for k, (kind, param) in _SERVICE_PARAMS.items():
        try:
            cfg[k] = PARAM_SPECS[kind][param][0](cfg[k], f"config.{k}")
        except QueryError as e:
            raise GridError(str(e)) from None
    if cfg["warmup"] >= cfg["cycles"]:
        raise GridError(
            f"config.warmup must be below config.cycles (a measured sim "
            f"window), got warmup={cfg['warmup']}, cycles={cfg['cycles']}"
        )
    for k in EXEC_CONFIG_KEYS:
        if cfg[k] is not None:
            v = _as_int(cfg[k], f"config.{k}")
            if v < 1:
                raise GridError(
                    f"config.{k} must be a positive integer or null, got {v}"
                )
            cfg[k] = v
    grid["config"] = cfg
    return grid


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point — a single design to push through all
    stages.  ``index`` is the stable expansion position; ``point_id``
    (``p<index>``) names the point's directory in the run tree."""

    index: int
    ks: Tuple[int, ...]
    layers: int
    pin_limit: Optional[int]
    rate: float

    @property
    def point_id(self) -> str:
        return f"p{self.index:04d}"

    @property
    def n(self) -> int:
        return sum(self.ks)

    def params(self) -> Dict[str, object]:
        """JSON-native identity of the point (manifest / proof form)."""
        return {
            "ks": list(self.ks),
            "layers": self.layers,
            "pin_limit": self.pin_limit,
            "rate": self.rate,
            "n": self.n,
        }


def expand_points(grid: Dict[str, object]) -> List[CampaignPoint]:
    """The grid's cross product in stable order (``ks`` outermost)."""
    points: List[CampaignPoint] = []
    for ks in grid["ks"]:
        for layers in grid["layers"]:
            for pin_limit in grid["pin_limit"]:
                for rate in grid["rate"]:
                    points.append(
                        CampaignPoint(
                            index=len(points),
                            ks=tuple(ks),
                            layers=layers,
                            pin_limit=pin_limit,
                            rate=rate,
                        )
                    )
    return points


def spec_digest(grid: Dict[str, object]) -> str:
    """Short content digest of a normalized grid (run-id material).

    Execution knobs (:data:`EXEC_CONFIG_KEYS`) are excluded: the same
    design grid digests the same whether it runs monolithic or chunked,
    so resumes may change them freely mid-campaign.
    """
    g = dict(grid)
    cfg = g.get("config")
    if isinstance(cfg, dict):
        g["config"] = {
            k: v for k, v in cfg.items() if k not in EXEC_CONFIG_KEYS
        }
    return hashlib.sha256(canonical_json(g)).hexdigest()[:12]


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministic per-point seed: hash of ``(base_seed, *parts)``.

    Derived from the point's *identity*, never its execution order, so
    seeds survive regridding, resumes and worker sharding unchanged.
    """
    digest = hashlib.sha256(canonical_json([base_seed, list(parts)])).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)
