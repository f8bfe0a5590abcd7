"""Internal/external dominating ratios and greedy dominating sets.

The internal ratio of a subset S in community C is |S ∪ N(S,C)| / |C|;
the external ratio is |N(S,C̄)| / |N(C,C̄)|.  Greedy maximum coverage
builds k- and p- dominating sets for both directions.  A community with
no outgoing edges has no external ratio; those cases carry ``closed=True``
and a ``None`` ratio rather than raising.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .community import Community, boundary
from .errors import ConfigError
from .graph import Graph


class DomSetResult(NamedTuple):
    """Outcome of one greedy dominating-set run."""

    community_id: str
    mode: str  # "internal" | "external"
    criterion: str  # "k" | "p"
    criterion_value: int | float  # k for "k", p for "p"
    members: frozenset[int]
    achieved_ratio: float | None  # None for a closed community in external mode
    closed: bool = False

    @property
    def size(self) -> int:
        return len(self.members)

    def check_for(self, community: Community, mode: str) -> None:
        """Raise :class:`ConfigError` unless this is the ``mode`` set of ``community``."""
        if (self.mode, self.community_id) != (mode, community.id):
            raise ConfigError(
                f"expected the {mode} set of community {community.id!r}, "
                f"got the {self.mode} set of community {self.community_id!r}"
            )


# kept only for bench/tests/test_bench.py, which checks that the tracer leaves it unwrapped
def idr(graph: Graph, subset: Iterable[int], community: Community) -> float:
    """Fraction of the community covered by the subset and its internal neighbors."""
    s = frozenset(subset)
    if not s <= community.members:
        raise ValueError(f"subset contains nodes outside community {community.id!r}: {sorted(s - community.members)}")
    covered = set(s)
    for u in s:
        covered.update(v for v in graph.adjacency[u] if v in community.members)
    return len(covered) / community.size


def _check_criterion(k: int | None, p: float | None) -> None:
    if (k is None) == (p is None):
        raise ConfigError("exactly one of k and p must be given")
    if k is not None and k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if p is not None and not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")


def _greedy(
    community: Community,
    mode: str,
    universe: frozenset[int],
    cover_of: dict[int, frozenset[int]],
    k: int | None,
    p: float | None,
) -> DomSetResult:
    """Greedy maximum coverage over ``universe``; ties go to the lowest index.

    In k-mode exactly ``min(k, |C|)`` picks are made; in p-mode picking stops
    as soon as coverage/|universe| reaches p.  Zero-gain picks are allowed so
    k-mode always reaches its size.  An empty universe (a closed community in
    external mode) gives the sentinel result: empty set, ``closed=True``,
    ratio ``None``.
    """
    _check_criterion(k, p)
    candidates = sorted(community.members)
    chosen: list[int] = []
    covered: set[int] = set()
    target = min(k, community.size) if k is not None else community.size
    for _ in range(target if universe else 0):
        if p is not None and len(covered) / len(universe) >= p:
            break
        best, best_gain = None, -1
        for v in candidates:
            if v in chosen:
                continue
            gain = len(cover_of[v] - covered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
        covered |= cover_of[best]
    return DomSetResult(
        community_id=community.id,
        mode=mode,
        criterion="k" if k is not None else "p",
        criterion_value=k if k is not None else p,
        members=frozenset(chosen),
        achieved_ratio=len(covered) / len(universe) if universe else None,
        closed=not universe,
    )


def greedy_ids(community: Community, k: int | None = None, p: float | None = None) -> DomSetResult:
    """Greedy k- or p- internal dominating set of a community."""
    cover_of = {v: frozenset((v, *inside)) for v, (inside, _) in community.adjacency.items()}
    return _greedy(community, "internal", community.members, cover_of, k, p)


def greedy_eds(community: Community, k: int | None = None, p: float | None = None) -> DomSetResult:
    """Greedy k- or p- external dominating set; a closed community gives the sentinel."""
    cover_of = {v: frozenset(outside) for v, (_, outside) in community.adjacency.items()}
    return _greedy(community, "external", boundary(community), cover_of, k, p)
