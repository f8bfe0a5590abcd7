"""Community characterization toolkit.

Detects communities in undirected networks and characterizes them with
internal/external dominating sets and ratios, internal/external slopes,
keyword prediction from dominating sets, and per-community distance and
clustering statistics.

Every name in ``__all__`` lives in one submodule, which is imported the
first time the name is read from the package (PEP 562).  A ``commkit``
subcommand runs as its own process, so importing every layer here would
make each stage pay for the layers it never runs.  The resolved name is
not kept in this module's globals: each read goes to the defining
module's attribute, so a binding replaced there (a monkeypatch, the
benchmark's tracer) shows through ``commkit.<name>`` and goes away with
its undoing.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "community": ("Community", "induced_subgraph", "load_communities", "split", "write_communities"),
    "config": ("DetectParams", "RunConfig"),
    "detect": ("approximate_ppr", "detect_communities", "ppr_thresholds", "sweep_cut"),
    "distributions": ("DistributionSummary", "summarize"),
    "domsets": ("DomSetResult", "greedy_eds", "greedy_ids", "idr"),
    "graph": ("Graph", "count_triangles", "load_graph"),
    "keywords": ("NodeMetadata", "build_keyword_list", "load_metadata", "predict_keywords", "prediction_curve"),
    "metrics": (
        "CommunityStats",
        "aggregate_stats",
        "clustering_coefficient",
        "community_stats",
        "triangle_split_analysis",
    ),
    "pipeline": ("run_pipeline",),
    "slopes": ("SlopeResult", "eslope", "islope", "random_subset_ratio"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
