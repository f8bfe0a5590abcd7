"""Keyword prediction for unlabeled papers from a community's dominating set.

Metadata is one record per line, tab-separated: label, title, abstract,
semicolon-joined keywords.  Keywords listed by the internal dominating set
form the community's keyword list, a list of strings ordered by how many
community members list them; a keyword is predicted-and-confirmed for a
paper without author keywords when its tokens occur contiguously in the
title or abstract.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .community import Community
from .errors import ConfigError, InputError
from .graph import Graph, _read_lines

if TYPE_CHECKING:  # annotations only: loading metadata needs no dominating set
    from .domsets import DomSetResult

_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def normalize_keyword(text: str) -> str:
    return " ".join(_TOKEN_RE.split(text.lower())).strip()


class NodeMetadata(NamedTuple):
    label: str
    title: str
    abstract: str
    keywords: tuple[str, ...]  # normalized, deduplicated; empty = unlabeled


def load_metadata(path: str | Path) -> dict[str, NodeMetadata]:
    """Read tab-separated metadata records keyed by node label from the file at
    ``path``, one line at a time.  As in the graph and community files, blank
    lines and lines whose first non-blank character is ``#`` are skipped and
    a label holds no surrounding whitespace; an empty or repeated label is an
    error."""
    records: dict[str, NodeMetadata] = {}
    first_line: dict[str, int] = {}
    for line_number, line in enumerate(_read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) > 4:
            raise InputError(f"line {line_number}: expected at most 4 tab-separated fields, got {len(parts)}")
        label, title, abstract, kw_field = parts + [""] * (4 - len(parts))
        label = label.strip()
        if not label:
            raise InputError(f"line {line_number}: empty metadata label")
        first = first_line.setdefault(label, line_number)
        if first != line_number:
            raise InputError(f"line {line_number}: metadata label {label!r} repeats line {first}")
        keywords = tuple(dict.fromkeys(filter(None, map(normalize_keyword, kw_field.split(";")))))
        records[label] = NodeMetadata(label, title, abstract, keywords)
    return records


def build_keyword_list(
    community: Community, graph: Graph, metadata: dict[str, NodeMetadata], domset: DomSetResult
) -> list[str]:
    """Keywords listed by the community's internal set ``domset`` (its p-IDS
    in the pipeline), ordered by how many community members list them; ties
    break lexicographically."""
    community_counts = _listings(community.members, graph, metadata)
    return sorted(_listings(domset.members, graph, metadata), key=lambda kw: (-community_counts[kw], kw))


def _listings(members: Iterable[int], graph: Graph, metadata: dict[str, NodeMetadata]) -> Counter[str]:
    """How many of ``members`` list each keyword."""
    return Counter(kw for label in map(graph.label, members) if label in metadata for kw in metadata[label].keywords)


def _padded(text: str) -> str:
    # tokens hold no space, so one padded text is in another only at whole, contiguous tokens
    return f" {normalize_keyword(text)} "


class PaperPrediction(NamedTuple):
    label: str
    predicted: tuple[str, ...]  # keeps the keyword-list order
    matched_fields: tuple[str, ...]  # "title" or "abstract", parallel to predicted


def predict_keywords(
    community: Community, graph: Graph, metadata: dict[str, NodeMetadata], keywords: list[str]
) -> list[PaperPrediction]:
    """Confirm ``keywords`` (a prefix of :func:`build_keyword_list`) against
    the title and abstract of each community paper without keywords, in
    member order; a paper is listed when at least one keyword matches.

    Papers whose authors listed keywords are never assigned predictions.
    """
    # a keyword without tokens keeps its place in the list but never matches
    needles = [(keyword, _padded(keyword)) for keyword in keywords if normalize_keyword(keyword)]
    predictions: list[PaperPrediction] = []
    for member in sorted(community.members):
        meta = metadata.get(graph.label(member))
        if meta is None or meta.keywords:
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
    return predictions


def prediction_curve(
    scored: Iterable[tuple[list[str], list[PaperPrediction]]], lengths: list[int]
) -> list[tuple[int, int]]:
    """Network-wide confirmed-paper counts per keyword-list prefix length.

    ``scored`` pairs each community's keyword list with the predictions
    :func:`predict_keywords` made from that list.  Predictions keep the
    list order, so a paper is confirmed at length L iff the rank of its
    first predicted keyword is below L.  A paper confirmed in several
    (overlapping) communities counts once.
    """
    if lengths != sorted(lengths):
        raise ConfigError("lengths must be ascending")
    best_rank: dict[str, int] = {}
    for keywords, predictions in scored:
        rank = {keyword: i for i, keyword in enumerate(keywords)}
        for pred in predictions:
            first = rank[pred.predicted[0]]
            best_rank[pred.label] = min(first, best_rank.get(pred.label, first))
    return [(length, sum(r < length for r in best_rank.values())) for length in lengths]
