"""Keyword prediction for unlabeled papers from a community's dominating set.

Metadata is one record per line, tab-separated: label, title, abstract,
semicolon-joined keywords.  Keywords listed by the internal dominating set
form the candidate list, ordered by how often community members list them;
a candidate is predicted-and-confirmed for a paper without author keywords
when its token sequence occurs in the title or abstract.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .community import Community
from .domsets import DomSetResult
from .errors import CommkitError, ConfigError
from .graph import _read_lines

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
    ``path``, one line at a time; a repeated label is an error."""
    records: dict[str, NodeMetadata] = {}
    first_line: dict[str, int] = {}
    for line_number, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) > 4:
            raise CommkitError(f"line {line_number}: expected at most 4 tab-separated fields, got {len(parts)}")
        parts += [""] * (4 - len(parts))
        label, title, abstract, kw_field = parts[0], parts[1], parts[2], parts[3]
        first = first_line.setdefault(label, line_number)
        if first != line_number:
            raise CommkitError(f"line {line_number}: metadata label {label!r} repeats line {first}")
        keywords: list[str] = []
        for kw in kw_field.split(";"):
            norm = normalize_keyword(kw)
            if norm and norm not in keywords:
                keywords.append(norm)
        records[label] = NodeMetadata(label, title, abstract, tuple(keywords))
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
    graph = community.graph
    ids_labels = {graph.label(v) for v in domset.members}

    eligible: set[str] = set()
    ids_counts: dict[str, int] = {}
    for label in ids_labels:
        meta = metadata.get(label)
        if meta is None:
            continue
        for kw in meta.keywords:
            eligible.add(kw)
            ids_counts[kw] = ids_counts.get(kw, 0) + 1

    community_counts: dict[str, int] = dict.fromkeys(eligible, 0)
    for member in community.members:
        meta = metadata.get(graph.label(member))
        if meta is None:
            continue
        for kw in meta.keywords:
            if kw in community_counts:
                community_counts[kw] += 1

    ordered = sorted(eligible, key=lambda kw: (-community_counts[kw], kw))
    return [
        KeywordCandidate(kw, community_counts[kw], ids_counts[kw]) for kw in ordered
    ]


def _contains_sequence(text_tokens: list[str], keyword_tokens: list[str]) -> bool:
    k = len(keyword_tokens)
    if k == 0 or k > len(text_tokens):
        return False
    return any(
        text_tokens[i : i + k] == keyword_tokens for i in range(len(text_tokens) - k + 1)
    )


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
    community: Community,
    metadata: dict[str, NodeMetadata],
    prefix_length: int,
    candidates: list[KeywordCandidate],
) -> PredictionReport:
    """Confirm the first ``prefix_length`` of the community's ``candidates``
    (from :func:`build_keyword_list`) against each unlabeled community
    paper's title and abstract.

    Papers whose authors listed keywords are never assigned predictions.
    """
    if prefix_length < 1:
        raise ConfigError(f"prefix_length must be >= 1, got {prefix_length}")
    prefix = candidates[:prefix_length]
    keyword_tokens = [(c.keyword, tokenize(c.keyword)) for c in prefix]

    graph = community.graph
    predictions: list[PaperPrediction] = []
    skipped = 0
    for member in sorted(community.members):
        meta = metadata.get(graph.label(member))
        if meta is None or meta.keywords:
            continue
        if not meta.title and not meta.abstract:
            skipped += 1
            continue
        title_tokens = tokenize(meta.title)
        abstract_tokens = tokenize(meta.abstract)
        hits: list[str] = []
        fields: list[str] = []
        for keyword, tokens in keyword_tokens:
            if _contains_sequence(title_tokens, tokens):
                hits.append(keyword)
                fields.append("title")
            elif _contains_sequence(abstract_tokens, tokens):
                hits.append(keyword)
                fields.append("abstract")
        if hits:
            predictions.append(PaperPrediction(meta.label, tuple(hits), tuple(fields)))
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
