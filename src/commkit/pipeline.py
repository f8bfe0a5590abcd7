"""Pipeline stages and their file formats.

Every stage is a pure function from loaded inputs to rows, plus a writer;
the CLI wires them together.  Identical configuration must give
byte-identical artifacts, so nothing here records timestamps and floats
are serialized with ``repr``.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from . import __version__
from .community import Community, load_communities, write_communities
from .detect import DetectedCommunity, DetectParams, detect_communities
from .distributions import DistributionSummary, summarize
from .domsets import DomSetResult, greedy_eds, greedy_ids
from .errors import CommkitError, ConfigError
from .graph import Graph, load_graph
from .keywords import NodeMetadata, build_keyword_list, predict_keywords, prediction_curve
from .metrics import (
    CommunityStats,
    NetworkSummary,
    aggregate_stats,
    community_stats,
    triangle_split_analysis,
)
from .slopes import SlopeResult, eslope, islope

T = TypeVar("T")
U = TypeVar("U")

CURVE_LENGTHS = list(range(5, 55, 5))
SPLIT_THRESHOLDS = (0.6, 0.8)


@dataclass(frozen=True)
class RunConfig:
    graph_path: str
    communities_path: str | None = None
    metadata_path: str | None = None
    k: int = 5
    p: float = 0.8
    detect: DetectParams = field(default_factory=DetectParams)
    bins: int = 20
    out_dir: str = "out"
    fmt: str = "csv"
    workers: int = 1

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}")
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")


def parallel_map(fn: Callable[[T], U], items: Sequence[T], workers: int) -> list[U]:
    """Order-preserving map, fanned out to a thread pool when workers > 1."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_table(path: Path, header: list[str], rows: list[list[object]], fmt: str) -> Path:
    """Write rows as CSV or a JSON array of objects, depending on ``fmt``."""
    if fmt == "csv":
        target = path.with_suffix(".csv")
        with target.open("w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    else:
        target = path.with_suffix(".json")
        payload = [dict(zip(header, row)) for row in rows]
        with target.open("w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    return target


def read_table(path: Path) -> list[dict[str, str]]:
    """Read back a table written by :func:`write_table` (either format)."""
    if path.suffix == ".json":
        with path.open() as f:
            return [{k: "" if v is None else str(v) for k, v in row.items()} for row in json.load(f)]
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _resolve_table(directory: Path, stem: str) -> Path:
    for suffix in (".csv", ".json"):
        candidate = directory / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing stage output {stem}.csv/.json in {directory}")


# ---------------------------------------------------------------------------
# stages


def load_inputs(config: RunConfig) -> tuple[Graph, list[Community], dict[str, NodeMetadata] | None]:
    """Load the graph and, when configured, communities and metadata."""
    graph = load_graph(config.graph_path)
    communities: list[Community] = []
    if config.communities_path:
        communities = load_communities(config.communities_path, graph)
    metadata = None
    if config.metadata_path:
        from .keywords import load_metadata

        metadata = load_metadata(config.metadata_path)
    return graph, communities, metadata


def stage_detect(graph: Graph, config: RunConfig, out: Path) -> list[Community]:
    detected = detect_communities(graph, config.detect)
    with (out / "communities.txt").open("w") as f:
        write_communities([d.community for d in detected], f)
    write_table(
        out / "communities_meta",
        ["community_id", "size", "conductance", "connected", "seed_node"],
        [
            [d.community.id, d.community.size, d.conductance, d.connected, graph.label(d.seed)]
            for d in detected
        ],
        config.fmt,
    )
    return [d.community for d in detected]


@dataclass(frozen=True)
class DomsetBundle:
    k_internal: DomSetResult
    k_external: DomSetResult
    p_internal: DomSetResult
    p_external: DomSetResult


def compute_domsets(graph: Graph, communities: list[Community], config: RunConfig) -> list[DomsetBundle]:
    def one(c: Community) -> DomsetBundle:
        return DomsetBundle(
            k_internal=greedy_ids(graph, c, k=config.k),
            k_external=greedy_eds(graph, c, k=config.k),
            p_internal=greedy_ids(graph, c, p=config.p),
            p_external=greedy_eds(graph, c, p=config.p),
        )

    return parallel_map(one, communities, config.workers)


def stage_domsets(
    graph: Graph, communities: list[Community], config: RunConfig, out: Path
) -> list[DomsetBundle]:
    bundles = compute_domsets(graph, communities, config)
    rows = []
    for bundle in bundles:
        for result in (bundle.k_internal, bundle.k_external, bundle.p_internal, bundle.p_external):
            labels = sorted(graph.label(v) for v in result.members)
            rows.append(
                [
                    result.community_id,
                    result.mode,
                    result.criterion,
                    result.criterion_value,
                    result.size,
                    result.achieved_ratio,
                    result.closed,
                    ";".join(labels),
                ]
            )
    write_table(
        out / "domsets",
        ["community_id", "mode", "criterion", "criterion_value", "set_size", "achieved_ratio", "closed", "members"],
        rows,
        config.fmt,
    )
    return bundles


def compute_slopes(
    graph: Graph,
    communities: list[Community],
    config: RunConfig,
    bundles: list[DomsetBundle] | None = None,
) -> list[tuple[SlopeResult, SlopeResult]]:
    """Slope pairs per community; without bundles only the p-mode sets are built."""
    if bundles is None:
        p_sets = [(None, None)] * len(communities)
    else:
        p_sets = [(b.p_internal, b.p_external) for b in bundles]

    def one(item: tuple[Community, tuple]) -> tuple[SlopeResult, SlopeResult]:
        c, (ids, eds) = item
        return islope(graph, c, p=config.p, domset=ids), eslope(graph, c, p=config.p, domset=eds)

    return parallel_map(one, list(zip(communities, p_sets)), config.workers)


def stage_slopes(
    graph: Graph,
    communities: list[Community],
    config: RunConfig,
    out: Path,
    bundles: list[DomsetBundle] | None = None,
) -> list[tuple[SlopeResult, SlopeResult]]:
    pairs = compute_slopes(graph, communities, config, bundles)
    rows = []
    for internal, external in pairs:
        for s in (internal, external):
            rows.append(
                [
                    s.community_id,
                    s.kind,
                    s.K,
                    s.observed_ratio,
                    s.expected_ratio,
                    s.slope,
                    # every open row is exact; readers such as bench/check.py still key on the column
                    "" if s.closed else "exact",
                    s.closed,
                ]
            )
    write_table(
        out / "slopes",
        ["community_id", "kind", "K", "observed", "expected", "slope", "estimator", "closed"],
        rows,
        config.fmt,
    )
    return pairs


def compute_stats(communities: list[Community], config: RunConfig) -> list[CommunityStats]:
    return parallel_map(community_stats, communities, config.workers)


def stage_metrics(communities: list[Community], config: RunConfig, out: Path) -> list[CommunityStats]:
    stats = compute_stats(communities, config)
    rows = [
        [
            s.community_id,
            s.size,
            s.apl,
            s.diameter,
            s.apl_penalized,
            s.diameter_penalized,
            s.ccc,
            s.triangles,
            s.connected_triples,
            s.component_count,
            s.boundary_size,
        ]
        for s in stats
    ]
    write_table(
        out / "community_stats",
        [
            "community_id",
            "size",
            "apl",
            "diameter",
            "apl_penalized",
            "diameter_penalized",
            "ccc",
            "triangles",
            "connected_triples",
            "component_count",
            "boundary_size",
        ],
        rows,
        config.fmt,
    )
    return stats


def stage_keywords(
    graph: Graph,
    communities: list[Community],
    metadata: dict[str, NodeMetadata],
    config: RunConfig,
    out: Path,
) -> None:
    candidate_lists = parallel_map(
        lambda c: build_keyword_list(c, metadata, p=config.p), communities, config.workers
    )
    max_length = max(CURVE_LENGTHS)
    with (out / "keyword_predictions.jsonl").open("w") as f:
        for community, candidates in zip(communities, candidate_lists):
            if not candidates:
                continue
            report = predict_keywords(community, metadata, max_length, candidates=candidates)
            for pred in report.predictions:
                json.dump(
                    {
                        "community_id": community.id,
                        "label": pred.label,
                        "predicted": list(pred.predicted),
                        "matched_fields": list(pred.matched_fields),
                    },
                    f,
                )
                f.write("\n")
    curve = prediction_curve(communities, metadata, CURVE_LENGTHS, p=config.p)
    write_table(
        out / "keyword_curve",
        ["keyword_number", "predicted_paper_number"],
        [[i, count] for i, count in curve],
        config.fmt,
    )


def stage_report(
    graph: Graph,
    stats: list[CommunityStats],
    bundles: list[DomsetBundle],
    slope_pairs: list[tuple[SlopeResult, SlopeResult]],
    config: RunConfig,
    out: Path,
) -> NetworkSummary:
    summary = aggregate_stats(
        graph,
        stats,
        [b.k_internal for b in bundles],
        [b.k_external for b in bundles],
        [b.p_internal for b in bundles],
        [b.p_external for b in bundles],
        [s for s, _ in slope_pairs],
        [s for _, s in slope_pairs],
    )
    write_table(
        out / "summary",
        list(asdict(summary)),
        [list(asdict(summary).values())],
        config.fmt,
    )

    splits = [triangle_split_analysis(stats, t) for t in SPLIT_THRESHOLDS]
    write_table(
        out / "triangle_split",
        [
            "threshold",
            "above_count",
            "above_mean_triangles",
            "above_empty",
            "below_count",
            "below_mean_triangles",
            "below_empty",
        ],
        [
            [
                split.threshold,
                split.above.count,
                split.above.mean_triangles,
                split.above.empty,
                split.below.count,
                split.below.mean_triangles,
                split.below.empty,
            ]
            for split in splits
        ],
        config.fmt,
    )

    variables: dict[str, list[float]] = {
        "islope": [s.slope for s, _ in slope_pairs],
        "eslope": [s.slope for _, s in slope_pairs if not s.closed],
        "size": [float(s.size) for s in stats],
        "ccc": [s.ccc for s in stats],
    }
    summaries = []
    for name, values in variables.items():
        if len(values) < 2:
            continue
        dist = summarize(values, bin_count=config.bins, variable=name)
        summaries.append(dist)
        _write_distribution(dist, config, out)
    write_table(
        out / "distributions_summary",
        ["variable", "count", "mean", "std", "skewness", "excess_kurtosis", "ks_stat", "degenerate"],
        [
            [d.variable, d.count, d.mean, d.std, d.skewness, d.excess_kurtosis, d.ks_stat, d.degenerate]
            for d in summaries
        ],
        config.fmt,
    )
    return summary


def _write_distribution(dist: DistributionSummary, config: RunConfig, out: Path) -> None:
    rows: list[list[object]] = [
        ["histogram", b.lower, b.width, b.count, "", ""] for b in dist.histogram
    ]
    rows += [["cumulative", "", "", "", v, frac] for v, frac in dist.cumulative]
    write_table(
        out / f"dist_{dist.variable}",
        ["part", "bin_lower", "bin_width", "count", "value", "fraction_le"],
        rows,
        config.fmt,
    )


# ---------------------------------------------------------------------------
# stage-output readers (report can run on prior outputs alone)


def read_domsets(directory: Path, graph: Graph) -> list[DomsetBundle]:
    rows = read_table(_resolve_table(directory, "domsets"))
    by_community: dict[str, dict[str, DomSetResult]] = {}
    for row in rows:
        closed = row["closed"] in ("true", "True")
        members = frozenset(
            graph.index(label) for label in row["members"].split(";") if label
        )
        result = DomSetResult(
            community_id=row["community_id"],
            mode=row["mode"],
            criterion=row["criterion"],
            criterion_value=float(row["criterion_value"]),
            members=members,
            achieved_ratio=None if row["achieved_ratio"] == "" else float(row["achieved_ratio"]),
            steps=(),
            closed=closed,
        )
        by_community.setdefault(row["community_id"], {})[f"{row['criterion']}_{row['mode']}"] = result
    bundles = []
    for community_id, parts in by_community.items():
        try:
            bundles.append(
                DomsetBundle(
                    k_internal=parts["k_internal"],
                    k_external=parts["k_external"],
                    p_internal=parts["p_internal"],
                    p_external=parts["p_external"],
                )
            )
        except KeyError as missing:
            raise CommkitError(
                f"domsets output incomplete for community {community_id!r}: missing {missing}"
            ) from None
    return bundles


def read_slopes(directory: Path) -> list[tuple[SlopeResult, SlopeResult]]:
    rows = read_table(_resolve_table(directory, "slopes"))
    by_community: dict[str, dict[str, SlopeResult]] = {}
    order: list[str] = []
    for row in rows:
        closed = row["closed"] in ("true", "True")
        result = SlopeResult(
            community_id=row["community_id"],
            kind=row["kind"],
            K=int(row["K"]),
            observed_ratio=None if row["observed"] == "" else float(row["observed"]),
            expected_ratio=None if row["expected"] == "" else float(row["expected"]),
            slope=None if row["slope"] == "" else float(row["slope"]),
            closed=closed,
        )
        if row["community_id"] not in by_community:
            order.append(row["community_id"])
        by_community.setdefault(row["community_id"], {})[row["kind"]] = result
    return [(by_community[cid]["internal"], by_community[cid]["external"]) for cid in order]


def read_stats(directory: Path) -> list[CommunityStats]:
    rows = read_table(_resolve_table(directory, "community_stats"))
    return [
        CommunityStats(
            community_id=row["community_id"],
            size=int(row["size"]),
            apl=float(row["apl"]),
            diameter=int(row["diameter"]),
            apl_penalized=float(row["apl_penalized"]),
            diameter_penalized=int(row["diameter_penalized"]),
            ccc=float(row["ccc"]),
            triangles=int(row["triangles"]),
            connected_triples=int(row["connected_triples"]),
            component_count=int(row["component_count"]),
            boundary_size=int(row["boundary_size"]),
        )
        for row in rows
    ]


# ---------------------------------------------------------------------------
# orchestration


def write_manifest(config: RunConfig, out: Path, notes: list[str]) -> None:
    manifest = {
        "tool": "commkit",
        "version": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "config": asdict(config),
        "notes": notes,
    }
    with (out / "manifest.json").open("w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_pipeline(config: RunConfig) -> NetworkSummary | None:
    """Run every stage in order; returns the summary (None without communities)."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    notes: list[str] = []

    graph, communities, metadata = load_inputs(config)
    if config.communities_path:
        notes.append(f"communities from {config.communities_path}")
    else:
        communities = stage_detect(graph, config, out)
        notes.append(f"detected {len(communities)} communities")
    if not communities:
        notes.append("no communities; characterization skipped")
        write_manifest(config, out, notes)
        return None

    bundles = stage_domsets(graph, communities, config, out)
    slope_pairs = stage_slopes(graph, communities, config, out, bundles)
    stats = stage_metrics(communities, config, out)
    if metadata is not None:
        stage_keywords(graph, communities, metadata, config, out)
    else:
        notes.append("no metadata; keyword stage skipped")
    summary = stage_report(graph, stats, bundles, slope_pairs, config, out)
    write_manifest(config, out, notes)
    return summary
