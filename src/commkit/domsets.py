"""Internal/external dominating ratios and greedy dominating sets.

The internal ratio of a subset S in community C is |S ∪ N(S,C)| / |C|;
the external ratio is |N(S,C̄)| / |N(C,C̄)|.  Greedy maximum coverage
builds k- and p- dominating sets for both directions.  A community with
no outgoing edges has no external ratio; those cases carry ``closed=True``
and a ``None`` ratio rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .community import Community, boundary, check_subset
from .errors import ConfigError
from .graph import Graph


@dataclass(frozen=True)
class DomSetResult:
    """Outcome of one greedy dominating-set run."""

    community_id: str
    mode: str  # "internal" | "external"
    criterion: str  # "k" | "p"
    criterion_value: int | float  # k for "k", p for "p"
    members: frozenset[int]
    achieved_ratio: float | None  # None for a closed community in external mode
    steps: tuple[tuple[int, int], ...]  # (node, marginal gain) in pick order
    closed: bool = False

    @property
    def size(self) -> int:
        return len(self.members)


def idr(graph: Graph, subset: Iterable[int], community: Community) -> float:
    """Fraction of the community covered by the subset and its internal neighbors."""
    s = check_subset(subset, community)
    covered = set(s)
    for u in s:
        covered.update(v for v in graph.neighbors(u) if v in community.members)
    return len(covered) / community.size


def edr(graph: Graph, subset: Iterable[int], community: Community) -> float | None:
    """Fraction of the community's external neighborhood reached by the subset.

    Returns ``None`` when the community has no external neighbors at all.
    """
    s = check_subset(subset, community)
    full_boundary = boundary(community)
    if not full_boundary:
        return None
    reached: set[int] = set()
    for u in s:
        reached.update(v for v in graph.neighbors(u) if v not in community.members)
    return len(reached) / len(full_boundary)


def _check_criterion(k: int | None, p: float | None) -> None:
    if (k is None) == (p is None):
        raise ConfigError("exactly one of k and p must be given")
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if p is not None and not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")


def _greedy_cover(
    community: Community,
    universe: frozenset[int],
    cover_of: dict[int, frozenset[int]],
    k: int | None,
    p: float | None,
) -> tuple[list[int], list[tuple[int, int]], set[int]]:
    """Greedy maximum coverage over ``universe``; ties go to the lowest index.

    In k-mode exactly ``min(k, |C|)`` picks are made; in p-mode picking stops
    as soon as coverage/|universe| reaches p.  Zero-gain picks are allowed so
    k-mode always reaches its size.
    """
    candidates = sorted(community.members)
    chosen: list[int] = []
    steps: list[tuple[int, int]] = []
    covered: set[int] = set()
    target = min(k, community.size) if k is not None else community.size

    for _ in range(target):
        if p is not None and universe and len(covered) / len(universe) >= p:
            break
        if p is not None and not universe:
            break
        best, best_gain = None, -1
        for v in candidates:
            if v in chosen:
                continue
            gain = len(cover_of[v] - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        if best is None:
            break
        chosen.append(best)
        steps.append((best, best_gain))
        covered |= cover_of[best]
    return chosen, steps, covered


def greedy_ids(
    graph: Graph, community: Community, k: int | None = None, p: float | None = None
) -> DomSetResult:
    """Greedy k- or p- internal dominating set of a community."""
    _check_criterion(k, p)
    members = community.members
    cover_of = {
        v: frozenset({v} | {w for w in graph.neighbors(v) if w in members})
        for v in members
    }
    chosen, steps, covered = _greedy_cover(community, members, cover_of, k, p)
    return DomSetResult(
        community_id=community.id,
        mode="internal",
        criterion="k" if k is not None else "p",
        criterion_value=k if k is not None else p,
        members=frozenset(chosen),
        achieved_ratio=len(covered) / community.size,
        steps=tuple(steps),
    )


def greedy_eds(
    graph: Graph, community: Community, k: int | None = None, p: float | None = None
) -> DomSetResult:
    """Greedy k- or p- external dominating set of a community.

    Closed communities (empty boundary) give the sentinel result: empty set,
    ``closed=True``, ratio ``None``.
    """
    _check_criterion(k, p)
    full_boundary = boundary(community)
    if not full_boundary:
        return DomSetResult(
            community_id=community.id,
            mode="external",
            criterion="k" if k is not None else "p",
            criterion_value=k if k is not None else p,
            members=frozenset(),
            achieved_ratio=None,
            steps=(),
            closed=True,
        )
    members = community.members
    cover_of = {
        v: frozenset(w for w in graph.neighbors(v) if w not in members) for v in members
    }
    chosen, steps, covered = _greedy_cover(community, full_boundary, cover_of, k, p)
    return DomSetResult(
        community_id=community.id,
        mode="external",
        criterion="k" if k is not None else "p",
        criterion_value=k if k is not None else p,
        members=frozenset(chosen),
        achieved_ratio=len(covered) / len(full_boundary),
        steps=tuple(steps),
    )
