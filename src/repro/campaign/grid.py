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

from ..service.handlers import EXEC_PARAM_SPECS, PARAM_SPECS, QueryError
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


#: Config keys that feed a service parameter: ``key -> (kind, param)``.
#: Each takes that parameter's :data:`PARAM_SPECS` default and must
#: pass its converter, so a grid the service would reject fails before
#: any point runs.
_SERVICE_PARAMS = {
    "node_side": ("layout", "node_side"),
    "track_order": ("layout", "track_order"),
    "cycles": ("sim", "cycles"),
    "warmup": ("sim", "warmup"),
    "benes_batch": ("benes", "batch"),
    "threshold": ("saturation", "threshold"),
}

#: Run-level knobs (not axes); all overridable via ``config``.
CONFIG_DEFAULTS: Dict[str, object] = {
    **{k: PARAM_SPECS[kind][param][1]
       for k, (kind, param) in _SERVICE_PARAMS.items()},
    "sat_max_n": 6,
    "seed": 0,
    "layout_memory_budget": None,
}

#: Execution knobs: they change *how* the layout stage computes (a
#: chunked out-of-core build), never *what* it computes — the stage
#: output bytes are identical with or without them.  They are therefore
#: stripped from :func:`spec_digest`, so run ids, derived seeds and
#: proofs from runs predating these knobs stay valid.  Each value must
#: pass the converter of the :data:`EXEC_PARAM_SPECS` knob it feeds.
_EXEC_PARAMS = {"layout_memory_budget": ("layout", "memory_budget_bytes")}
EXEC_CONFIG_KEYS = tuple(_EXEC_PARAMS)

_AXES = ("ks", "layers", "pin_limit", "rate")


def _as_int(v: object, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise GridError(f"{what} must be an integer, got {v!r}")
    return v


def _as_number(v: object, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise GridError(f"{what} must be a number, got {v!r}")
    return v


def _spec_check(conv, v: object, what: str) -> object:
    """``conv(v)``, a service converter, with its rejection a
    :class:`GridError`."""
    try:
        return conv(v, what)
    except QueryError as e:
        raise GridError(str(e)) from None


def _axis(raw: object, name: str) -> list:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError(f"grid {name!r} must be a non-empty list")
    return list(raw)


def _norm_ks_axis(raw: object) -> List[List[int]]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise GridError("grid 'ks' must be a non-empty list of k-vectors")
    out: List[List[int]] = []
    for ks in raw:
        if not isinstance(ks, (list, tuple)) or not ks:
            raise GridError(f"each ks entry must be a non-empty list, got {ks!r}")
        vec = [_as_int(k, "ks entry") for k in ks]
        out.append(_spec_check(PARAM_SPECS["layout"]["ks"][0], vec, "ks"))
    return out


def _norm_layers_axis(raw: object) -> List[int]:
    conv = PARAM_SPECS["layout"]["layers"][0]
    return [_spec_check(conv, _as_int(v, "layers"), "layers")
            for v in _axis(raw, "layers")]


def _norm_pin_axis(raw: object) -> List[Optional[int]]:
    out: List[Optional[int]] = []
    for v in _axis(raw, "pin_limit"):
        if v is None:
            out.append(None)
            continue
        i = _as_int(v, "pin_limit")
        if i < 1:
            raise GridError(f"pin_limit must be >= 1 or null, got {i}")
        out.append(i)
    return out


def _norm_rate_axis(raw: object) -> List[float]:
    conv = PARAM_SPECS["sim"]["rate"][0]
    return [_spec_check(conv, _as_number(v, "rate"), "rate")
            for v in _axis(raw, "rate")]


def normalize_grid(spec: Dict[str, object]) -> Dict[str, object]:
    """Validated grid with axis defaults and config defaults filled.

    The returned dict is the *canonical* spec: it is what gets digested,
    written to ``campaign.json`` and embedded in the manifest, so two
    spellings of the same grid produce identical run trees.  Values are
    type-checked strictly as JSON (``2``, not ``"2"``, ``2.0`` or
    ``true``), then bounded by the service parameter each one feeds.
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
        "layers": _norm_layers_axis(
            spec.get("layers", [PARAM_SPECS["layout"]["layers"][1]])
        ),
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
    for k in ("node_side", "cycles", "warmup", "benes_batch", "sat_max_n", "seed"):
        cfg[k] = _as_int(cfg[k], f"config.{k}")
    for k, (kind, param) in _SERVICE_PARAMS.items():
        cfg[k] = _spec_check(PARAM_SPECS[kind][param][0], cfg[k], f"config.{k}")
    if cfg["warmup"] >= cfg["cycles"]:
        raise GridError(
            f"config.warmup must be below config.cycles (a measured sim "
            f"window), got warmup={cfg['warmup']}, cycles={cfg['cycles']}"
        )
    for k, (kind, param) in _EXEC_PARAMS.items():
        if cfg[k] is not None:
            cfg[k] = _spec_check(EXEC_PARAM_SPECS[kind][param],
                                 _as_int(cfg[k], f"config.{k}"), f"config.{k}")
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
