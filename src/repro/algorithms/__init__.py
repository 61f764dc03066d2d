"""Ascend/FFT dataflow execution and routing simulation on the topologies."""

from .ascend import AscendTrace, run_on_butterfly, run_on_isn
from .benes_routing import (
    BenesSettings,
    BenesSettingsBatch,
    apply_settings,
    apply_settings_batch,
    num_switch_stages,
    route_permutation,
    route_permutations,
)
from .fft import dit_combine, fft_via_butterfly, fft_via_isn
from .queued_routing import (
    SimResult,
    StatsTrace,
    saturation_per_node_rate,
    simulate_butterfly_queued,
    sweep_rates,
)
from .routing import RoutingDemand, measure_offmodule_traffic, path_rows

__all__ = [
    "AscendTrace",
    "BenesSettings",
    "BenesSettingsBatch",
    "route_permutation",
    "route_permutations",
    "apply_settings",
    "apply_settings_batch",
    "num_switch_stages",
    "run_on_butterfly",
    "run_on_isn",
    "dit_combine",
    "fft_via_butterfly",
    "fft_via_isn",
    "RoutingDemand",
    "measure_offmodule_traffic",
    "path_rows",
    "SimResult",
    "StatsTrace",
    "simulate_butterfly_queued",
    "sweep_rates",
    "saturation_per_node_rate",
]
