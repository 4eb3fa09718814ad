"""Randomized padded decompositions of edge-weighted graphs.

The pipeline: find balanced shortest-path separators, place net points on the
separator paths as carving centers (each bound to the residual subgraph its
path lived in), then claim random-radius balls in center order. A verifier
checks the diameter, coverage, threatener, and padding guarantees, the last
one by Monte Carlo against a 2^(-beta*gamma) floor.
"""

from .graph import (
    GraphError,
    MaskError,
    Path,
    ShortestPaths,
    VertexMask,
    WeightedGraph,
    ball,
    components,
    dump_graph,
    farthest,
    load_graph,
    sssp,
    weighted_diameter,
)
from .sampler import (
    ParameterError,
    RngStream,
    TexpParams,
    derive_seed,
    texp_cdf,
    texp_icdf,
    texp_pdf,
    texp_sample,
    texp_sample_many,
)
from .nets import PathMetricView, greedy_net
from .separators import (
    NotATreeError,
    PathSeparator,
    SeparatorViolation,
    greedy_find,
    separator_lines,
    tree_centroid_find,
    validate_separator,
)
from .decomposer import (
    BallIndex,
    CenterRecord,
    CenterSequence,
    Cluster,
    CoverageError,
    DecompositionParams,
    Partition,
    baseline_decompose,
    beta_bound,
    carve,
    ceil_log2,
    choose_centers,
    decompose,
    dump_partition,
    format_partition,
)
from .verifier import (
    PaddingRecord,
    PaddingReport,
    ThreatenerReport,
    Violation,
    check_cluster_diameters,
    check_partition,
    check_recursion_depth,
    check_separators,
    estimate_padding,
    sample_vertices,
    threatener_report,
    wilson_lower_bound,
)
from .generators import KTreeSample, gen_grid, gen_ktree
from .harness import ConfigError, ExperimentConfig, run_experiment, write_report

__version__ = "0.1.0"
