"""Pipeline stages and their file formats.

Every stage is a pure function from loaded inputs to records, plus a
writer; :func:`run_stage` feeds each stage the tables earlier stages
wrote, for ``all`` and the staged subcommands alike.  A record is written
as one row of its scalar fields (see :func:`_columns`); only tables whose
columns are not a record's fields name them by hand.  Identical
configuration must give byte-identical artifacts, so nothing here records
timestamps and floats are serialized with ``repr``.

At module level this imports only what configuration, loading and the
table codec need.  Each stage function and each stage-output reader
imports its own layer when it runs, and :func:`parallel_map` imports the
thread pool only when it builds one: a ``commkit <stage>`` process then
loads the layers of that stage and no other.  A call-time ``from .x
import f`` reads the defining module's current binding, so a function
replaced there (a test's monkeypatch, the benchmark's tracer) is the one
the stage calls.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import reduce
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar, get_args, get_origin, get_type_hints

from . import __version__
from .community import Community, load_communities, write_communities
from .detect import DetectParams
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


def read_table(path: Path) -> list[dict[str, str]]:
    """Read back a table written by :func:`write_table` (either format)."""
    try:
        if path.suffix == ".json":
            with path.open() as f:
                rows = json.load(f)
            if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
                raise ValueError("not a JSON array of objects")
            return [{k: "" if v is None else str(v) for k, v in row.items()} for row in rows]
        with path.open(newline="") as f:
            return list(csv.DictReader(f))
    except (csv.Error, ValueError) as err:  # ValueError covers JSON and UTF-8 decoding
        raise CommkitError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# records as table rows


def _columns(cls: type) -> list[tuple[str, tuple[str, ...]]]:
    """(column, attribute path) per scalar field of a record class, in declaration
    order; nested dataclasses are flattened as ``outer_inner``, tuples and sets left out."""
    hints = get_type_hints(cls)
    columns = []
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            columns += [(f"{f.name}_{name}", (f.name, *path)) for name, path in _columns(hint)]
        elif get_origin(hint) not in (tuple, frozenset):
            columns.append((f.name, (f.name,)))
    return columns


def _write_records(path: Path, cls: type, records: Sequence[object], fmt: str) -> Path:
    """Write one row per record, with the columns of :func:`_columns`."""
    columns = _columns(cls)
    rows = [[reduce(getattr, attrs, record) for _, attrs in columns] for record in records]
    return write_table(path, [name for name, _ in columns], rows, fmt)


def _parse(text: str, hint: object) -> object:
    """A cell as the type ``hint`` names: str, int, float, bool, or a union of them and None."""
    options = get_args(hint) or (hint,)
    if text == "" and type(None) in options:
        return None
    for option in options:
        if option is bool and text in ("true", "True", "false", "False"):
            return text in ("true", "True")
        if option in (int, float, str):
            try:
                return option(text)
            except ValueError:
                continue
    raise ValueError(f"expected {getattr(hint, '__name__', hint)}, got {text!r}")


def _read_records(
    path: Path,
    cls: type[T],
    renamed: dict[str, str] | None = None,
    parsers: dict[str, Callable[[str], object]] | None = None,
) -> list[T]:
    """Rebuild one record per row of a stage table.

    Every field is read from the column of its name, or the one ``renamed``
    gives, and parsed by its type hint or by ``parsers``, so a record read
    back equals the record that was written.  A missing table
    raises :class:`FileNotFoundError`; a missing or malformed cell raises
    :class:`CommkitError` naming file, row and column.
    """
    if not path.exists():
        raise FileNotFoundError(f"missing stage output {path.name} in {path.parent}")
    renamed, parsers = renamed or {}, parsers or {}
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    records = []
    for number, row in enumerate(read_table(path), start=1):
        values = {}
        for name in names:
            column = renamed.get(name, name)
            text = row.get(column)
            try:
                if text is None:
                    raise ValueError("missing")
                values[name] = parsers[name](text) if name in parsers else _parse(text, hints[name])
            except (ValueError, CommkitError) as err:
                raise CommkitError(f"{path}: row {number}, column {column!r}: {err}") from None
        records.append(cls(**values))
    return records


def _in_order(ids: Iterable[str], communities: list[Community], path: Path) -> None:
    """Raise unless ``ids`` are exactly the ids of ``communities``, in order."""
    for found, wanted in zip_longest(ids, (c.id for c in communities), fillvalue="end of table"):
        if found != wanted:
            mismatch = f"expected {wanted!r}, found {found!r}"
            raise CommkitError(f"{path.stem} output does not list the communities in order: {mismatch}")


def _by_community(
    records: list[T], part: Callable[[T], str], names: Sequence[str], communities: list[Community], path: Path
) -> list[list[T]]:
    """Records grouped per community, in the order of ``communities``, each group ordered by ``names``."""
    groups: dict[str, dict[str, T]] = {}
    for record in records:
        groups.setdefault(record.community_id, {})[part(record)] = record
    result = []
    for community_id, parts in groups.items():
        missing = [name for name in names if name not in parts]
        if missing:
            raise CommkitError(
                f"{path.stem} output incomplete for community {community_id!r}: missing {missing[0]!r}"
            )
        result.append([parts[name] for name in names])
    _in_order(groups, communities, path)
    return result


# ---------------------------------------------------------------------------
# stages


def load_inputs(config: RunConfig) -> tuple[Graph, list[Community], dict[str, NodeMetadata] | None]:
    """Load the graph and, when configured, communities and metadata."""
    graph = load_graph(config.graph_path)
    communities = load_communities(config.communities_path, graph) if config.communities_path else []
    metadata = None
    if config.metadata_path:
        from .keywords import load_metadata

        metadata = load_metadata(config.metadata_path)
    return graph, communities, metadata


def stage_detect(graph: Graph, config: RunConfig, out: Path) -> list[Community]:
    from .detect import detect_communities

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


def stage_domsets(
    graph: Graph, communities: list[Community], config: RunConfig, out: Path
) -> list[DomsetBundle]:
    from .domsets import greedy_eds, greedy_ids

    def one(c: Community) -> DomsetBundle:
        return DomsetBundle(
            k_internal=greedy_ids(c, k=config.k),
            k_external=greedy_eds(c, k=config.k),
            p_internal=greedy_ids(c, p=config.p),
            p_external=greedy_eds(c, p=config.p),
        )

    bundles = parallel_map(one, communities, config.workers)
    write_table(
        out / "domsets",
        ["community_id", "mode", "criterion", "criterion_value", "set_size", "achieved_ratio", "closed", "members"],
        [
            [r.community_id, r.mode, r.criterion, r.criterion_value, r.size, r.achieved_ratio, r.closed]
            + [";".join(sorted(graph.label(v) for v in r.members))]
            for b in bundles
            for r in (b.k_internal, b.k_external, b.p_internal, b.p_external)
        ],
        config.fmt,
    )
    return bundles


def stage_slopes(
    communities: list[Community], bundles: list[DomsetBundle], config: RunConfig, out: Path
) -> list[tuple[SlopeResult, SlopeResult]]:
    """Slope pairs per community, from its p-mode internal and external sets."""
    from .slopes import eslope, islope

    def one(item: tuple[Community, DomsetBundle]) -> tuple[SlopeResult, SlopeResult]:
        c, b = item
        return islope(c, b.p_internal), eslope(c, b.p_external)

    pairs = parallel_map(one, list(zip(communities, bundles)), config.workers)
    write_table(
        out / "slopes",
        ["community_id", "kind", "K", "observed", "expected", "slope", "estimator", "closed"],
        [
            # every open row is exact; readers such as bench/check.py still key on the column
            [s.community_id, s.kind, s.K, s.observed_ratio, s.expected_ratio, s.slope]
            + ["" if s.closed else "exact", s.closed]
            for pair in pairs
            for s in pair
        ],
        config.fmt,
    )
    return pairs


def stage_metrics(communities: list[Community], config: RunConfig, out: Path) -> list[CommunityStats]:
    from .metrics import CommunityStats, community_stats

    stats = parallel_map(community_stats, communities, config.workers)
    _write_records(out / "community_stats", CommunityStats, stats, config.fmt)
    return stats


def stage_keywords(
    communities: list[Community], metadata: dict[str, NodeMetadata], bundles: list[DomsetBundle],
    config: RunConfig, out: Path,
) -> None:
    """Keyword predictions and curve, each community's candidates listed by its p-IDS."""
    from .keywords import build_keyword_list, predict_keywords, prediction_curve

    candidate_lists = parallel_map(
        lambda item: build_keyword_list(item[0], metadata, item[1].p_internal),
        list(zip(communities, bundles)),
        config.workers,
    )
    scored = [
        (candidates, predict_keywords(community, metadata, max(CURVE_LENGTHS), candidates))
        for community, candidates in zip(communities, candidate_lists)
        if candidates
    ]
    with (out / "keyword_predictions.jsonl").open("w") as f:
        for _, report in scored:
            for pred in report.predictions:
                json.dump({"community_id": report.community_id, **asdict(pred)}, f)
                f.write("\n")
    curve = prediction_curve(scored, CURVE_LENGTHS)
    write_table(out / "keyword_curve", ["keyword_number", "predicted_paper_number"], curve, config.fmt)


def stage_report(
    graph: Graph,
    stats: list[CommunityStats],
    bundles: list[DomsetBundle],
    slope_pairs: list[tuple[SlopeResult, SlopeResult]],
    config: RunConfig,
    out: Path,
) -> NetworkSummary:
    from .distributions import DistributionSummary, summarize
    from .metrics import NetworkSummary, TriangleSplit, aggregate_stats, triangle_split_analysis

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
    _write_records(out / "summary", NetworkSummary, [summary], config.fmt)
    splits = [triangle_split_analysis(stats, t) for t in SPLIT_THRESHOLDS]
    _write_records(out / "triangle_split", TriangleSplit, splits, config.fmt)

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
        rows: list[list[object]] = [
            ["histogram", b.lower, b.width, b.count, "", ""] for b in dist.histogram
        ]
        rows += [["cumulative", "", "", "", v, frac] for v, frac in dist.cumulative]
        header = ["part", "bin_lower", "bin_width", "count", "value", "fraction_le"]
        write_table(out / f"dist_{name}", header, rows, config.fmt)
    _write_records(out / "distributions_summary", DistributionSummary, summaries, config.fmt)
    return summary


# ---------------------------------------------------------------------------
# stage-output readers: each table must list exactly ``communities``, in order


def read_domsets(
    graph: Graph, communities: list[Community], config: RunConfig, out: Path
) -> list[DomsetBundle]:
    """The four greedy sets per community, built with the configured k and p."""
    from .domsets import DomSetResult

    def members(text: str) -> frozenset[int]:
        return frozenset(graph.index(label) for label in text.split(";") if label)

    path = out / f"domsets.{config.fmt}"
    results = _read_records(path, DomSetResult, parsers={"members": members})
    for number, r in enumerate(results, start=1):
        wanted = config.k if r.criterion == "k" else config.p
        if r.criterion_value != wanted:
            built = f"sets built with {r.criterion}={r.criterion_value!r}"
            raise CommkitError(f"{path}: row {number}: {built}, but --{r.criterion} is {wanted!r}")
    parts = [f.name for f in fields(DomsetBundle)]
    groups = _by_community(results, lambda r: f"{r.criterion}_{r.mode}", parts, communities, path)
    return [DomsetBundle(*group) for group in groups]


def read_slopes(
    communities: list[Community], config: RunConfig, out: Path
) -> list[tuple[SlopeResult, SlopeResult]]:
    from .slopes import SlopeResult

    path = out / f"slopes.{config.fmt}"
    renamed = {"observed_ratio": "observed", "expected_ratio": "expected"}
    results = _read_records(path, SlopeResult, renamed=renamed)
    pairs = _by_community(results, lambda s: s.kind, ("internal", "external"), communities, path)
    return [tuple(pair) for pair in pairs]


def read_stats(communities: list[Community], config: RunConfig, out: Path) -> list[CommunityStats]:
    from .metrics import CommunityStats

    path = out / f"community_stats.{config.fmt}"
    stats = _read_records(path, CommunityStats)
    _in_order((s.community_id for s in stats), communities, path)
    return stats


# ---------------------------------------------------------------------------
# orchestration

STAGES = ("detect", "domsets", "slopes", "metrics", "keywords", "report")
NO_COMMUNITIES = "no communities; characterization skipped"


def run_stage(
    command: str, graph: Graph, communities: list[Community], metadata: dict[str, NodeMetadata] | None,
    config: RunConfig, out: Path,
) -> object:
    """Run one of :data:`STAGES` over ``communities``, on the tables in ``out``; returns its records.

    Every stage but detect writes nothing and returns None when there are no communities.
    """
    if command == "detect":
        return stage_detect(graph, config, out)
    if command == "keywords" and metadata is None:
        raise ConfigError("keywords stage needs --metadata")
    if not communities:
        return None
    if command == "domsets":
        return stage_domsets(graph, communities, config, out)
    if command == "slopes":
        return stage_slopes(communities, read_domsets(graph, communities, config, out), config, out)
    if command == "metrics":
        return stage_metrics(communities, config, out)
    if command == "keywords":
        bundles = read_domsets(graph, communities, config, out)
        return stage_keywords(communities, metadata, bundles, config, out)
    if command == "report":
        stats = read_stats(communities, config, out)
        bundles = read_domsets(graph, communities, config, out)
        return stage_report(graph, stats, bundles, read_slopes(communities, config, out), config, out)
    raise ValueError(f"unknown stage {command!r}")


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
    """Load or detect the communities, then run every later stage; returns the summary or None."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph, communities, metadata = load_inputs(config)
    if config.communities_path:
        notes = [f"communities from {config.communities_path}"]
    else:
        communities = run_stage("detect", graph, communities, metadata, config, out)
        notes = [f"detected {len(communities)} communities"]
    if not communities:
        notes.append(NO_COMMUNITIES)
    elif metadata is None:
        notes.append("no metadata; keyword stage skipped")
    for command in STAGES[1:]:
        if command != "keywords" or metadata is not None:
            summary = run_stage(command, graph, communities, metadata, config, out)
    write_manifest(config, out, notes)
    return summary
