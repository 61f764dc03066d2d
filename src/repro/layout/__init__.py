"""VLSI layout engines: geometry, validation, collinear layouts of complete
graphs, and the recursive grid layout scheme for butterflies under the
Thompson and multilayer 2-D grid models.

A layout's wires are one :class:`WireTable` (int64 segment arrays in
CSR layout): every builder emits one, :class:`Layout` holds it, and
the validator, the measurements and ``viz/`` read its columns.
:func:`validate_layout` runs sort/cummax sweeps over those columns —
it is the chunked validator (:class:`ChunkedValidator`) fed the whole table as one chunk,
so in-memory and out-of-core layouts go through one rule set.  Builds
take one route the same way: each layout family has one builder, a
chunk source (``chunked_*_table``) that streams the layout as chunks
sized to a ``memory_budget_bytes``; with no budget it yields one chunk,
and :func:`build_grid_layout`, :func:`collinear_layout` and
:func:`build_grid2d_layout` return that chunk as their table.  A
budgeted stream validates in one serial pass, spilling grouped-check
rows to disk from the second chunk on.  The original object-per-wire
builders and checker live in ``tests/oracles`` as differential oracles:
``tests/test_layout_vectorized.py`` pins the columnar builders to
equal tables and node maps, and the validator to identical verdicts
and error counts.  The builders whose wires have irregular shapes
(CCC, stage-column, generic collinear) emit through
:class:`WireTableBuilder`.  The ``repro layout`` CLI subcommand is one
cached build + validation + wire-statistics query."""

from .blocks import BlockDims, block_dims
from .collinear_generic import (
    GenericCollinearLayout,
    cut_congestion,
    generic_collinear_layout,
    left_edge_tracks,
    max_congestion,
)
from .ghc_layout import cycle_collinear_congestion, ghc_2d_layout, torus_2d_layout
from .grid2d import Grid2DDims, Grid2DResult, build_grid2d_layout
from .hypercube_layout import (
    hypercube_2d_area_estimate,
    hypercube_2d_dims,
    hypercube_2d_layout,
    hypercube_collinear_congestion,
)
from .ccc_layout import CccDims, ccc_2d_layout, ccc_graph
from .multistage import MultistageDims, MultistageResult, build_multistage_layout, multistage_dims
from .node_scaling import (
    HeteroDims,
    hetero_io_dims,
    io_node_threshold,
    paper_io_threshold,
)
from .multilayer3d import (
    footprint_3d,
    min_volume_3d,
    optimal_layers_3d,
    volume_3d,
    volume_sweep,
)
from .collinear import (
    CollinearLayout,
    chen_agrawal_track_count,
    collinear_layout,
    naive_track_count,
    optimal_track_count,
    track_assignment,
)
from .geometry import LayerPair, Rect, THOMPSON_LAYERS
from .grid_scheme import (
    GridDims, GridLayoutResult, build_grid_layout, grid_dims, grid_graph,
    max_wire_bounds,
)
from .model import Layout, LayoutModel, multilayer_model, thompson_model
from .tracks import TrackGrouping, base_layer_pair
from .validate import (
    ValidationReport,
    validate_layout,
    validate_table,
)
from .wiretable import WireTable, WireTableBuilder
from .chunked import (
    ChunkStats,
    ChunkedBuild,
    ChunkedValidator,
    chunked_collinear_table,
    chunked_grid2d_table,
    chunked_grid_table,
    grid_chunk_estimate,
    summarize_chunks,
    validate_table_chunked,
    wires_per_chunk,
)

__all__ = [
    "Rect",
    "LayerPair",
    "THOMPSON_LAYERS",
    "Layout",
    "LayoutModel",
    "thompson_model",
    "multilayer_model",
    "ValidationReport",
    "validate_layout",
    "validate_table",
    "WireTable",
    "WireTableBuilder",
    "ChunkStats",
    "ChunkedBuild",
    "ChunkedValidator",
    "chunked_collinear_table",
    "chunked_grid2d_table",
    "chunked_grid_table",
    "grid_chunk_estimate",
    "summarize_chunks",
    "validate_table_chunked",
    "wires_per_chunk",
    "CollinearLayout",
    "collinear_layout",
    "track_assignment",
    "optimal_track_count",
    "chen_agrawal_track_count",
    "naive_track_count",
    "TrackGrouping",
    "base_layer_pair",
    "BlockDims",
    "block_dims",
    "GridDims",
    "GridLayoutResult",
    "grid_dims",
    "grid_graph",
    "build_grid_layout",
    "max_wire_bounds",
    "cut_congestion",
    "max_congestion",
    "left_edge_tracks",
    "GenericCollinearLayout",
    "generic_collinear_layout",
    "Grid2DDims",
    "Grid2DResult",
    "build_grid2d_layout",
    "hypercube_2d_layout",
    "hypercube_2d_dims",
    "hypercube_2d_area_estimate",
    "hypercube_collinear_congestion",
    "ghc_2d_layout",
    "torus_2d_layout",
    "cycle_collinear_congestion",
    "footprint_3d",
    "volume_3d",
    "optimal_layers_3d",
    "min_volume_3d",
    "volume_sweep",
    "MultistageDims",
    "MultistageResult",
    "build_multistage_layout",
    "multistage_dims",
    "CccDims",
    "ccc_2d_layout",
    "ccc_graph",
    "HeteroDims",
    "hetero_io_dims",
    "io_node_threshold",
    "paper_io_threshold",
]
