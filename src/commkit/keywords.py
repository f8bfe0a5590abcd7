"""Keyword prediction for unlabeled papers from a community's dominating set.

Metadata is one record per line, tab-separated: label, title, abstract,
semicolon-joined keywords.  Keywords listed by the internal dominating set
form the candidate list, ordered by how often community members list them;
a candidate is predicted-and-confirmed for a paper without author keywords
when its tokens occur contiguously in the title or abstract.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple

from .community import Community
from .domsets import DomSetResult
from .errors import CommkitError, ConfigError
from .graph import Graph, _read_lines

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def normalize_keyword(text: str) -> str:
    return " ".join(_TOKEN_RE.split(text.lower())).strip()


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.split(text.lower()) if t]


class NodeMetadata(NamedTuple):
    label: str
    title: str
    abstract: str
    keywords: tuple[str, ...]  # normalized, deduplicated; empty = unlabeled


def load_metadata(path: str | Path) -> dict[str, NodeMetadata]:
    """Read tab-separated metadata records keyed by node label from the file at
    ``path``, one line at a time.  As in the graph and community files, blank
    lines and lines whose first non-blank character is ``#`` are skipped and
    a label holds no surrounding whitespace; a repeated label is an error."""
    records: dict[str, NodeMetadata] = {}
    first_line: dict[str, int] = {}
    for line_number, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) > 4:
            raise CommkitError(f"line {line_number}: expected at most 4 tab-separated fields, got {len(parts)}")
        label, title, abstract, kw_field = parts + [""] * (4 - len(parts))
        label = label.strip()
        first = first_line.setdefault(label, line_number)
        if first != line_number:
            raise CommkitError(f"line {line_number}: metadata label {label!r} repeats line {first}")
        keywords = tuple(dict.fromkeys(filter(None, map(normalize_keyword, kw_field.split(";")))))
        records[label] = NodeMetadata(label, title, abstract, keywords)
    return records


class KeywordCandidate(NamedTuple):
    keyword: str
    community_frequency: int  # listings among all community members
    ids_frequency: int  # listings among dominating-set members only


def build_keyword_list(
    community: Community, metadata: dict[str, NodeMetadata], domset: DomSetResult
) -> list[KeywordCandidate]:
    """Keywords listed by the community's internal set ``domset`` (its p-IDS
    in the pipeline), ordered by community-wide popularity.

    Ties break lexicographically.  Both popularity counts are kept so the
    two possible readings of "popularity" stay observable.  A set of
    another mode or community raises :class:`ConfigError`.
    """
    domset.check_for(community, "internal")
    ids_counts = _listings(domset.members, community.graph, metadata)
    community_counts = _listings(community.members, community.graph, metadata)
    ordered = sorted(ids_counts, key=lambda kw: (-community_counts[kw], kw))
    return [KeywordCandidate(kw, community_counts[kw], ids_counts[kw]) for kw in ordered]


def _listings(members: Iterable[int], graph: Graph, metadata: dict[str, NodeMetadata]) -> Counter[str]:
    """How many of ``members`` list each keyword."""
    return Counter(kw for label in map(graph.label, members) if label in metadata for kw in metadata[label].keywords)


def _padded(text: str) -> str:
    # tokens hold no space, so one padded text is in another only at whole, contiguous tokens
    return f" {' '.join(tokenize(text))} "


class PaperPrediction(NamedTuple):
    label: str
    predicted: tuple[str, ...]  # keeps the candidate-list order
    matched_fields: tuple[str, ...]  # "title" or "abstract", parallel to predicted


class PredictionReport(NamedTuple):
    community_id: str
    keyword_list_length: int
    predictions: tuple[PaperPrediction, ...]
    confirmed_paper_count: int  # papers with >= 1 predicted keyword
    skipped_paper_count: int  # unlabeled papers missing both title and abstract


def predict_keywords(
    community: Community, metadata: dict[str, NodeMetadata], prefix_length: int, candidates: list[KeywordCandidate]
) -> PredictionReport:
    """Confirm the first ``prefix_length`` of the community's ``candidates``
    (from :func:`build_keyword_list`) against each unlabeled community
    paper's title and abstract.

    Papers whose authors listed keywords are never assigned predictions.
    """
    if prefix_length < 1:
        raise ConfigError(f"prefix_length must be >= 1, got {prefix_length}")
    # a candidate without tokens keeps its place in the prefix but never matches
    needles = [(c.keyword, _padded(c.keyword)) for c in candidates[:prefix_length] if tokenize(c.keyword)]

    predictions: list[PaperPrediction] = []
    skipped = 0
    for member in sorted(community.members):
        meta = metadata.get(community.graph.label(member))
        if meta is None or meta.keywords:
            continue
        if not meta.title and not meta.abstract:
            skipped += 1
            continue
        title, abstract = _padded(meta.title), _padded(meta.abstract)
        hits = [
            (keyword, "title" if needle in title else "abstract")
            for keyword, needle in needles
            if needle in title or needle in abstract
        ]
        if hits:
            predicted, fields = zip(*hits)
            predictions.append(PaperPrediction(meta.label, predicted, fields))
    return PredictionReport(
        community_id=community.id,
        keyword_list_length=prefix_length,
        predictions=tuple(predictions),
        confirmed_paper_count=len(predictions),
        skipped_paper_count=skipped,
    )


def prediction_curve(
    scored: Iterable[tuple[list[KeywordCandidate], PredictionReport]], lengths: list[int]
) -> list[tuple[int, int]]:
    """Network-wide confirmed-paper counts per candidate-list prefix length.

    ``scored`` pairs each community's candidate list with its predictions
    for a prefix of at least ``max(lengths)`` keywords.  Predictions keep the
    candidate order, so a paper is confirmed at length L iff the rank of its
    first predicted keyword is below L.  A paper confirmed in several
    (overlapping) communities counts once.
    """
    if lengths != sorted(lengths):
        raise ConfigError("lengths must be ascending")
    best_rank: dict[str, int] = {}
    for candidates, report in scored:
        if report.keyword_list_length < max(lengths, default=0):
            raise ConfigError(
                f"predictions for {report.community_id!r} cover {report.keyword_list_length} "
                f"keywords, fewer than {max(lengths)}"
            )
        rank = {c.keyword: i for i, c in enumerate(candidates)}
        for pred in report.predictions:
            first = rank[pred.predicted[0]]
            best_rank[pred.label] = min(first, best_rank.get(pred.label, first))
    return [(length, sum(r < length for r in best_rank.values())) for length in lengths]
