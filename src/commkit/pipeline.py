"""Pipeline stages and their file formats.

Every stage is a function of one :class:`Run`: the loaded inputs and the
record lists computed from them.  A list is computed on first use, inside
the stage that first needs it, and kept for the later stages of the same
process, so ``all`` computes each list once and a staged subcommand only
what its stage writes.  No stage reads a table: each subcommand computes
its records from its own ``--graph``, ``--communities`` and ``--metadata``.
:func:`run_pipeline` is the one loop behind ``all`` and every staged
subcommand.  A record is written as one row of its scalar fields (see
:func:`_write_records`); only tables whose columns are not a record's
fields name them by hand.  Identical configuration must give
byte-identical artifacts, so nothing here records timestamps and floats
are serialized with ``repr``.

At module level this imports only what configuration (:mod:`commkit.config`),
loading and the table writer need.  Each stage and each record list imports
its own layer when it runs, and :func:`parallel_map` imports the thread pool
only when it builds one: a ``commkit <stage>`` process then loads the
layers of that stage and no other.  A call-time ``from .x import f`` reads
the defining module's current binding, so a function replaced there (a
test's monkeypatch, the benchmark's tracer) is the one the stage calls.
"""

from __future__ import annotations

import csv
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, TypeVar, get_origin, get_type_hints

from . import __version__
from .community import Community, load_communities, write_communities
from .config import RunConfig
from .errors import CommkitError, ConfigError
from .graph import Graph, load_graph

if TYPE_CHECKING:
    from .domsets import DomSetResult
    from .keywords import NodeMetadata
    from .metrics import CommunityStats, NetworkSummary
    from .slopes import SlopeResult

T = TypeVar("T")
U = TypeVar("U")

CURVE_LENGTHS = list(range(5, 55, 5))
SPLIT_THRESHOLDS = (0.6, 0.8)


def parallel_map(fn: Callable[[T], U], items: Sequence[T], workers: int) -> list[U]:
    """Order-preserving map, fanned out to a thread pool when workers > 1."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

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


def _write_records(path: Path, cls: type, records: Sequence[object], fmt: str) -> Path:
    """Write one row per record: its fields in declaration order, tuple fields left out."""
    hints = get_type_hints(cls)
    columns = [name for name in cls._fields if get_origin(hints[name]) is not tuple]
    return write_table(path, columns, [[getattr(r, name) for name in columns] for r in records], fmt)


# ---------------------------------------------------------------------------
# one process's inputs and records


def load_inputs(config: RunConfig) -> tuple[Graph, list[Community], dict[str, NodeMetadata] | None]:
    """Load the graph and, when configured, communities and metadata."""
    graph = load_graph(config.graph_path)
    communities = load_communities(config.communities_path, graph) if config.communities_path else []
    metadata = None
    if config.metadata_path:
        from .keywords import load_metadata

        metadata = load_metadata(config.metadata_path)
    return graph, communities, metadata


class DomsetBundle(NamedTuple):
    k_internal: DomSetResult
    k_external: DomSetResult
    p_internal: DomSetResult
    p_external: DomSetResult


class Run:
    """One run's loaded inputs and the per-community records computed from them.

    Each record list is a ``cached_property``, like ``Community.adjacency``:
    it is computed when a stage first reads it and shared by every later
    stage of the process.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.out = Path(config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.graph, self.communities, self.metadata = load_inputs(config)

    @cached_property
    def p_internal(self) -> list[DomSetResult]:
        """The p-mode internal greedy set of each community."""
        from .domsets import greedy_ids

        p = self.config.p
        return parallel_map(lambda c: greedy_ids(c, p=p), self.communities, self.config.workers)

    @cached_property
    def p_external(self) -> list[DomSetResult]:
        """The p-mode external greedy set of each community."""
        from .domsets import greedy_eds

        p = self.config.p
        return parallel_map(lambda c: greedy_eds(c, p=p), self.communities, self.config.workers)

    @cached_property
    def bundles(self) -> list[DomsetBundle]:
        """All four greedy sets of each community."""
        from .domsets import greedy_eds, greedy_ids

        k = self.config.k
        k_sets = parallel_map(
            lambda c: (greedy_ids(c, k=k), greedy_eds(c, k=k)), self.communities, self.config.workers
        )
        return [DomsetBundle(*k_pair, pi, pe) for k_pair, pi, pe in zip(k_sets, self.p_internal, self.p_external)]

    @cached_property
    def slope_pairs(self) -> list[tuple[SlopeResult, SlopeResult]]:
        """ISlope and ESlope of each community, from its p-mode sets."""
        from .slopes import eslope, islope

        def one(item: tuple[Community, DomSetResult, DomSetResult]) -> tuple[SlopeResult, SlopeResult]:
            c, internal, external = item
            return islope(c, internal), eslope(c, external)

        return parallel_map(one, list(zip(self.communities, self.p_internal, self.p_external)), self.config.workers)

    @cached_property
    def stats(self) -> list[CommunityStats]:
        from .metrics import community_stats

        return parallel_map(community_stats, self.communities, self.config.workers)


# ---------------------------------------------------------------------------
# stages: each writes its tables and returns its records


def stage_detect(run: Run) -> list[Community]:
    """Detect the run's communities, in place of any loaded ones."""
    from .detect import detect_communities

    detected = detect_communities(run.graph, run.config.detect)
    with (run.out / "communities.txt").open("w") as f:
        write_communities([d.community for d in detected], f)
    write_table(
        run.out / "communities_meta",
        ["community_id", "size", "conductance", "connected", "seed_node"],
        [
            [d.community.id, d.community.size, d.conductance, d.connected, run.graph.label(d.seed)]
            for d in detected
        ],
        run.config.fmt,
    )
    run.communities = [d.community for d in detected]
    return run.communities


def stage_domsets(run: Run) -> list[DomsetBundle]:
    def joined(members: frozenset[int]) -> str:
        # a label holding ";" would make the members cell ambiguous to any reader of the table
        labels = sorted(run.graph.label(v) for v in members)
        for label in labels:
            if ";" in label:
                raise CommkitError(f"node label {label!r} contains ';', which separates the members of a domsets cell")
        return ";".join(labels)

    write_table(
        run.out / "domsets",
        ["community_id", "mode", "criterion", "criterion_value", "set_size", "achieved_ratio", "closed", "members"],
        [
            [r.community_id, r.mode, r.criterion, r.criterion_value, r.size, r.achieved_ratio, r.closed]
            + [joined(r.members)]
            for b in run.bundles
            for r in b
        ],
        run.config.fmt,
    )
    return run.bundles


def stage_slopes(run: Run) -> list[tuple[SlopeResult, SlopeResult]]:
    write_table(
        run.out / "slopes",
        ["community_id", "kind", "K", "observed", "expected", "slope", "estimator", "closed"],
        [
            # every open row is exact; readers such as bench/check.py still key on the column
            [s.community_id, s.kind, s.K, s.observed_ratio, s.expected_ratio, s.slope]
            + ["" if s.closed else "exact", s.closed]
            for pair in run.slope_pairs
            for s in pair
        ],
        run.config.fmt,
    )
    return run.slope_pairs


def stage_metrics(run: Run) -> list[CommunityStats]:
    from .metrics import CommunityStats

    _write_records(run.out / "community_stats", CommunityStats, run.stats, run.config.fmt)
    return run.stats


def stage_keywords(run: Run) -> None:
    """Keyword predictions and curve, each community's candidates listed by its p-IDS."""
    from .keywords import build_keyword_list, predict_keywords, prediction_curve

    metadata = run.metadata
    candidate_lists = parallel_map(
        lambda item: build_keyword_list(item[0], metadata, item[1]),
        list(zip(run.communities, run.p_internal)),
        run.config.workers,
    )
    scored = [
        (candidates, predict_keywords(community, metadata, max(CURVE_LENGTHS), candidates))
        for community, candidates in zip(run.communities, candidate_lists)
        if candidates
    ]
    with (run.out / "keyword_predictions.jsonl").open("w") as f:
        for _, report in scored:
            for pred in report.predictions:
                json.dump({"community_id": report.community_id, **pred._asdict()}, f)
                f.write("\n")
    curve = prediction_curve(scored, CURVE_LENGTHS)
    write_table(run.out / "keyword_curve", ["keyword_number", "predicted_paper_number"], curve, run.config.fmt)


def stage_report(run: Run) -> NetworkSummary:
    from .distributions import DistributionSummary, summarize
    from .metrics import NetworkSummary, TriangleSplit, aggregate_stats, triangle_split_analysis

    out, fmt, stats, bundles, slope_pairs = run.out, run.config.fmt, run.stats, run.bundles, run.slope_pairs
    summary = aggregate_stats(
        run.graph,
        stats,
        [b.k_internal for b in bundles],
        [b.k_external for b in bundles],
        [b.p_internal for b in bundles],
        [b.p_external for b in bundles],
        [s for s, _ in slope_pairs],
        [s for _, s in slope_pairs],
    )
    _write_records(out / "summary", NetworkSummary, [summary], fmt)
    splits = [triangle_split_analysis(stats, t) for t in SPLIT_THRESHOLDS]
    _write_records(out / "triangle_split", TriangleSplit, splits, fmt)

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
        dist = summarize(values, bin_count=run.config.bins, variable=name)
        summaries.append(dist)
        rows: list[list[object]] = [
            ["histogram", b.lower, b.width, b.count, "", ""] for b in dist.histogram
        ]
        rows += [["cumulative", "", "", "", v, frac] for v, frac in dist.cumulative]
        header = ["part", "bin_lower", "bin_width", "count", "value", "fraction_le"]
        write_table(out / f"dist_{name}", header, rows, fmt)
    _write_records(out / "distributions_summary", DistributionSummary, summaries, fmt)
    return summary


# ---------------------------------------------------------------------------
# orchestration

STAGES = ("detect", "domsets", "slopes", "metrics", "keywords", "report")
NO_COMMUNITIES = "no communities; characterization skipped"


def write_manifest(config: RunConfig, out: Path, notes: list[str]) -> None:
    manifest = {
        "tool": "commkit",
        "version": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "config": {**config._asdict(), "detect": config.detect._asdict()},
        "notes": notes,
    }
    with (out / "manifest.json").open("w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_pipeline(config: RunConfig, command: str = "all") -> object:
    """Run one of :data:`STAGES`, or ``all``, then write the manifest; returns the last stage's records.

    ``all`` detects only without ``--communities``, finds keywords only with
    ``--metadata``, and returns the summary, or None when there are no
    communities: every stage but detect is skipped then, writing nothing
    and returning None.
    """
    run = Run(config)
    if command == "keywords" and run.metadata is None:
        raise ConfigError("keywords stage needs --metadata")
    stages = [command] if command != "all" else [
        stage for stage in STAGES
        if (stage != "detect" or not config.communities_path) and (stage != "keywords" or run.metadata is not None)
    ]
    records = None
    for stage in stages:
        # looked up at call time, so a replaced binding (the benchmark's tracer) is the one run
        records = globals()[f"stage_{stage}"](run) if stage == "detect" or run.communities else None

    n = len(run.communities)
    if command == "all":
        given = config.communities_path
        notes = [f"communities from {given}" if given else f"detected {n} communities"]
        if not n:
            notes.append(NO_COMMUNITIES)
        elif run.metadata is None:
            notes.append("no metadata; keyword stage skipped")
    elif command == "detect":
        notes = [f"detected {n} communities"]
    else:
        notes = [f"stage {command} over {n} communities" if n else NO_COMMUNITIES]
    write_manifest(config, run.out, notes)
    return records
