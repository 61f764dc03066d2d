"""Partitioning and packaging of butterfly networks (Sections 2 and 5)."""

from .baseline import (
    NaiveRowPartition,
    max_rows_within_pin_limit,
    naive_avg_per_node,
    naive_module_count,
    naive_offmodule_per_module,
    paper_estimate_max_rows,
    paper_estimate_module_count,
)
from .board import BoardDesign, ChipSpec, board_design, paper_board_example
from .hierarchy import HierarchicalDesign, LevelSpec, design_two_level
from .multilevel import LevelStats, multilevel_design, multilevel_pins
from .optimizer import (
    Candidate,
    enumerate_parameter_vectors,
    exact_pin_maxima,
    optimize_packaging,
)
from .partition import NucleusPartition, Partition, RowPartition
from .pins import (
    PinReport,
    count_off_module_links,
    nucleus_partition_module_bound,
    row_partition_avg_bound,
    row_partition_avg_per_node,
    row_partition_offmodule_per_module,
)

__all__ = [
    "Partition",
    "RowPartition",
    "NucleusPartition",
    "PinReport",
    "count_off_module_links",
    "row_partition_offmodule_per_module",
    "row_partition_avg_per_node",
    "row_partition_avg_bound",
    "nucleus_partition_module_bound",
    "NaiveRowPartition",
    "naive_offmodule_per_module",
    "naive_avg_per_node",
    "max_rows_within_pin_limit",
    "naive_module_count",
    "paper_estimate_max_rows",
    "paper_estimate_module_count",
    "ChipSpec",
    "BoardDesign",
    "board_design",
    "paper_board_example",
    "LevelSpec",
    "HierarchicalDesign",
    "design_two_level",
    "Candidate",
    "enumerate_parameter_vectors",
    "exact_pin_maxima",
    "optimize_packaging",
    "LevelStats",
    "multilevel_design",
    "multilevel_pins",
]
