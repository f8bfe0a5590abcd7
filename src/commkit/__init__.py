"""Community characterization toolkit.

Detects communities in undirected networks and characterizes them with
internal/external dominating sets and ratios, internal/external slopes,
keyword prediction from dominating sets, and per-community distance and
clustering statistics.
"""

__version__ = "0.1.0"

from .community import (
    Community,
    boundary,
    induced_subgraph,
    load_communities,
    neighbors_in,
    neighbors_out,
    write_communities,
)
from .detect import DetectParams, approximate_ppr, conductance, detect_communities, sweep_cut
from .distributions import DistributionSummary, summarize
from .domsets import DomSetResult, edr, greedy_eds, greedy_ids, idr
from .graph import Graph, count_triangles, load_graph, write_graph
from .keywords import (
    NodeMetadata,
    build_keyword_list,
    load_metadata,
    predict_keywords,
    prediction_curve,
)
from .metrics import (
    CommunityStats,
    aggregate_stats,
    clustering_coefficient,
    community_stats,
    triangle_split_analysis,
)
from .pipeline import RunConfig, run_pipeline
from .slopes import SlopeResult, eslope, islope, random_subset_ratio

__all__ = [
    "Community",
    "CommunityStats",
    "DetectParams",
    "DistributionSummary",
    "DomSetResult",
    "Graph",
    "NodeMetadata",
    "RunConfig",
    "SlopeResult",
    "aggregate_stats",
    "approximate_ppr",
    "boundary",
    "build_keyword_list",
    "clustering_coefficient",
    "community_stats",
    "conductance",
    "count_triangles",
    "detect_communities",
    "edr",
    "eslope",
    "greedy_eds",
    "greedy_ids",
    "idr",
    "induced_subgraph",
    "islope",
    "load_communities",
    "load_graph",
    "load_metadata",
    "neighbors_in",
    "neighbors_out",
    "predict_keywords",
    "prediction_curve",
    "random_subset_ratio",
    "run_pipeline",
    "summarize",
    "sweep_cut",
    "triangle_split_analysis",
    "write_communities",
    "write_graph",
]
