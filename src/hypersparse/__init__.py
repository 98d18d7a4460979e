"""Hypergraph spectral sparsification toolkit.

Builds near-linear-size spectral sparsifiers of weighted hypergraphs by
sampling hyperedges against iteratively computed leverage-score overestimates,
and ships exhaustive verification oracles plus approximate mincut solvers.
"""

from .core import (
    HyperedgeError,
    Hypergraph,
    UnderlyingGraph,
    WeightedGraph,
    cut_value,
    energies,
    flatten,
    init_underlying,
    total_energy,
)
from .linalg import (
    DisconnectedError,
    Laplacian,
    ResistanceSketch,
    build_laplacian,
    build_sketch,
    effective_resistance_exact,
    foster_sum,
    resistance_table,
    sketch_resistance,
)
from .gsparse import sparsify_graph
from .overestimate import (
    MassBoundError,
    OverestimateConfig,
    OverestimateResult,
    compute_overestimate,
    default_rounds,
    validate_overestimate,
    weight_compute,
)
from .hsparse import (
    ScorePositivityError,
    SparsifierReport,
    SparsifyConfig,
    sample_count,
    sample_hyperedges,
    sparsify_hypergraph,
    sum_estimate,
)
from .verify import (
    energy_comparison_check,
    foster_check,
    verify_cut_sparsifier,
    verify_spectral_sampled,
)
from .apps import (
    FlowNetwork,
    global_mincut,
    lawler_reduction,
    max_flow,
    st_mincut,
)
from .hgio import (
    HgrFormatError,
    parse_hypergraph,
    parse_hypergraph_text,
    serialize_hypergraph,
    serialize_hypergraph_text,
)

__version__ = "0.1.0"
