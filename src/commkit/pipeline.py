"""Pipeline stages and their file formats.

Every stage is a function of one :class:`Run`: the loaded inputs and the
record lists computed from them.  A run knows its stages before it runs,
and the first stage after detection fills every list they read
(:data:`READS`) in one pass, which splits each community once and
computes all of its records from that split.  So ``all`` computes each
list once, a staged subcommand only what its stage writes, and no process
splits a community twice.  No stage reads a table: each subcommand
computes its records from its own ``--graph``, ``--communities`` and
``--metadata``.  :func:`run_pipeline` is the one loop behind ``all`` and
every staged subcommand.  A NamedTuple record is already a row: its
table's columns are its ``_fields``, and only tables whose columns are not
a record's fields name them by hand.  Identical configuration must give
byte-identical artifacts, so nothing here records timestamps and floats
are serialized with ``repr``.

Stages run serially, and every record list follows the communities'
order.  At module level this imports only what configuration
(:mod:`commkit.config`), loading and the table writer need.  Each stage,
and the pass for each record list it reads, imports its own layer when it
runs: a ``commkit <stage>`` process then loads the layers of that stage
and no other.  A call-time ``from .x import f`` reads the defining
module's current binding, so a function replaced there (a test's
monkeypatch, the benchmark's tracer) is the one the stage calls.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import __version__
from .community import Community, load_communities, write_communities
from .config import RunConfig
from .errors import ConfigError, InputError
from .graph import Graph, load_graph

if TYPE_CHECKING:
    from .domsets import DomSetResult
    from .keywords import NodeMetadata
    from .metrics import CommunityStats, NetworkSummary
    from .slopes import SlopeResult

CURVE_LENGTHS = list(range(5, 55, 5))
SPLIT_THRESHOLDS = (0.6, 0.8)

STAGES = ("detect", "domsets", "slopes", "metrics", "keywords", "report")
READS = {  # the per-community record lists each stage reads, by their names on Run
    "domsets": ("internal", "external"),
    "slopes": ("internal", "external", "slope_pairs"),
    "metrics": ("stats",),
    "keywords": ("internal",),
    "report": ("internal", "external", "slope_pairs", "stats"),
}


def _fmt(value: object) -> object:
    """A bool's CSV spelling; csv writes None as an empty cell and a float as its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]], fmt: str) -> Path:
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


class Run:
    """One process's loaded inputs and the per-community records its ``stages`` read.

    The record lists, one item per community, start empty:
    ``internal`` and ``external`` hold the greedy (k-set, p-set) pairs,
    ``slope_pairs`` the (ISlope, ESlope) pairs from the p-sets and
    ``stats`` the :class:`CommunityStats`.  :meth:`characterize` fills
    those that ``stages`` read.
    """

    def __init__(self, config: RunConfig, stages: Iterable[str] = STAGES):
        self.config = config
        self.graph, self.communities, self.metadata = load_inputs(config)
        self.out = Path(config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.reads = {name for stage in stages for name in READS.get(stage, ())}
        self.characterized = False
        self.internal, self.external, self.slope_pairs, self.stats = [], [], [], []

    def characterize(self) -> None:
        """Fill the record lists in ``reads``, in one pass over the communities.

        Each community is split once, its records are computed from that
        split, and the split is dropped before the next one is built.  Every
        stage after detection calls this first; only the first call computes.
        """
        if self.characterized:
            return
        self.characterized = True
        reads, k, p = self.reads, self.config.k, self.config.p
        if reads & {"internal", "external"}:
            from .domsets import greedy_eds, greedy_ids
        if "slope_pairs" in reads:
            from .slopes import eslope, islope
        if "stats" in reads:
            from .metrics import community_stats
        for community in self.communities:
            split = community.split()
            if "internal" in reads:
                self.internal.append(greedy_ids(split, k, p))
            if "external" in reads:
                self.external.append(greedy_eds(split, k, p))
            if "slope_pairs" in reads:
                (_, p_ids), (_, p_eds) = self.internal[-1], self.external[-1]
                self.slope_pairs.append((islope(split, p_ids), eslope(split, p_eds)))
            if "stats" in reads:
                self.stats.append(community_stats(split))
            del split


# ---------------------------------------------------------------------------
# stages: each writes its tables and returns its records


def stage_detect(run: Run) -> list[Community]:
    """Detect the run's communities."""
    from .detect import detect_communities

    detected = detect_communities(run.graph, run.config.detect)
    run.communities = [d.community for d in detected]
    with (run.out / "communities.txt").open("w") as f:
        write_communities(run.communities, f)
    write_table(
        run.out / "communities_meta",
        ["community_id", "size", "conductance", "connected", "seed_node"],
        [
            [d.community.id, d.community.size, d.conductance, d.connected, run.graph.label(d.seed)]
            for d in detected
        ],
        run.config.fmt,
    )
    return run.communities


def stage_domsets(run: Run) -> list[DomSetResult]:
    """Each community's k-internal, k-external, p-internal and p-external sets, in that order."""
    def joined(members: frozenset[int]) -> str:
        # a label holding ";" would make the members cell ambiguous to any reader of the table
        labels = sorted(run.graph.label(v) for v in members)
        for label in labels:
            if ";" in label:
                raise InputError(f"node label {label!r} contains ';', which separates the members of a domsets cell")
        return ";".join(labels)

    run.characterize()
    records = [r for (ki, pi), (ke, pe) in zip(run.internal, run.external) for r in (ki, ke, pi, pe)]
    write_table(
        run.out / "domsets",
        ["community_id", "mode", "criterion", "criterion_value", "set_size", "achieved_ratio", "closed", "members"],
        [
            [r.community_id, r.mode, r.criterion, r.criterion_value, r.size, r.achieved_ratio, r.closed]
            + [joined(r.members)]
            for r in records
        ],
        run.config.fmt,
    )
    return records


def stage_slopes(run: Run) -> list[tuple[SlopeResult, SlopeResult]]:
    run.characterize()
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

    run.characterize()
    write_table(run.out / "community_stats", CommunityStats._fields, run.stats, run.config.fmt)
    return run.stats


def stage_keywords(run: Run) -> None:
    """Keyword predictions and curve, each community's candidates listed by its p-IDS."""
    from .keywords import build_keyword_list, predict_keywords, prediction_curve

    run.characterize()
    scored = []
    for community, (_, p_ids) in zip(run.communities, run.internal):
        candidates = build_keyword_list(community, run.metadata, p_ids)
        if candidates:
            scored.append((candidates, predict_keywords(community, run.metadata, max(CURVE_LENGTHS), candidates)))
    with (run.out / "keyword_predictions.jsonl").open("w") as f:
        for _, report in scored:
            for pred in report.predictions:
                f.write(json.dumps({"community_id": report.community_id, **pred._asdict()}) + "\n")
    curve = prediction_curve(scored, CURVE_LENGTHS)
    write_table(run.out / "keyword_curve", ["keyword_number", "predicted_paper_number"], curve, run.config.fmt)


def stage_report(run: Run) -> NetworkSummary:
    from .distributions import DistributionSummary, summarize
    from .metrics import NetworkSummary, TriangleSplit, aggregate_stats, triangle_split_analysis

    run.characterize()
    out, fmt, stats, slope_pairs = run.out, run.config.fmt, run.stats, run.slope_pairs
    summary = aggregate_stats(run.graph, stats, run.internal, run.external, slope_pairs)
    write_table(out / "summary", NetworkSummary._fields, [summary], fmt)
    splits = [triangle_split_analysis(stats, t) for t in SPLIT_THRESHOLDS]
    write_table(out / "triangle_split", TriangleSplit._fields, splits, fmt)

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
    write_table(out / "distributions_summary", DistributionSummary._fields[:-2], [d[:-2] for d in summaries], fmt)
    return summary


# ---------------------------------------------------------------------------
# orchestration

NO_COMMUNITIES = "no communities; characterization skipped"


def write_manifest(run: Run, notes: list[str]) -> None:
    """``manifest.json``: the tool, its config, what the loaders dropped or left unmatched and the run's notes."""
    manifest = {
        "tool": "commkit",
        "version": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "config": {**run.config._asdict(), "detect": run.config.detect._asdict()},
        "load": run.graph.load_report._asdict(),
        "notes": notes,
    }
    if run.metadata is not None:
        missing = 0
        for label in run.metadata:
            try:
                run.graph.index(label)
            except InputError:
                missing += 1
        manifest["metadata"] = {"records": len(run.metadata), "labels_not_in_graph": missing}
    with (run.out / "manifest.json").open("w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_pipeline(config: RunConfig, command: str = "all") -> object:
    """Run one of :data:`STAGES`, or ``all``, then write the manifest; returns the last stage's records.

    Before any file is read, :class:`ConfigError` is raised for a command
    that is none of these, for ``detect`` with ``--communities``, for every
    other command but ``all`` without ``--communities``, and for ``keywords``
    also without ``--metadata``.  ``all`` detects only without
    ``--communities``, finds keywords only with ``--metadata``, and returns
    the summary, or None when there are no communities: every stage but
    detect is skipped then, writing nothing and returning None.
    """
    if command == "detect":
        if config.communities_path:
            raise ConfigError("detect reads no --communities; all characterizes them in place of detection")
    elif command != "all":
        if command not in STAGES:
            raise ConfigError(f"unknown command {command!r}")
        if not config.communities_path:
            raise ConfigError(f"{command} needs --communities")
        if command == "keywords" and not config.metadata_path:
            raise ConfigError("keywords needs --metadata")
    stages = [command] if command != "all" else [
        stage for stage in STAGES
        if (stage != "detect" or not config.communities_path) and (stage != "keywords" or config.metadata_path)
    ]
    run = Run(config, stages)
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
    write_manifest(run, notes)
    return records
