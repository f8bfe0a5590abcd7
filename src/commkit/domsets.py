"""Internal/external dominating ratios and greedy dominating sets.

The internal ratio of a subset S in community C is |S ∪ N(S,C)| / |C|;
the external ratio is |N(S,C̄)| / |N(C,C̄)|.  Greedy maximum coverage of
a community's split (``Community.split``) gives one pick order per
direction; the k-set is its first k picks and the p-set its shortest
prefix whose ratio reaches p, so one call returns both.  A community with
no outgoing edges has no external ratio; those cases carry ``closed=True``
and a ``None`` ratio rather than raising.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .community import Community, Split
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


# kept only for bench/tests/test_bench.py, which checks that the tracer leaves it unwrapped
def idr(graph: Graph, subset: Iterable[int], community: Community) -> float:
    """Fraction of the community covered by the subset and its internal
    neighbors; ``graph`` is the community's graph."""
    s = frozenset(subset)
    if not s <= community.members:
        raise ValueError(f"subset contains nodes outside community {community.id!r}: {sorted(s - community.members)}")
    _, nodes, _, masks, _ = community.split()
    covered = 0
    for i, v in enumerate(nodes):
        if v in s:
            covered |= masks[i] | 1 << i
    return covered.bit_count() / community.size


def _greedy(
    split: Split, mode: str, covers: list[int], universe: int, k: int, p: float
) -> tuple[DomSetResult, DomSetResult]:
    """Greedy maximum coverage of ``universe`` items: the k- and p- sets.

    ``covers[i]`` is the bitmask of the items that member ``split.nodes[i]``
    covers.  Each pick takes the largest gain, ties going to the lowest
    index, and zero gains are allowed.  The k-set is the first ``min(k, |C|)`` picks; the p-set is the
    shortest prefix whose coverage/universe reaches p.  An empty universe (a
    closed community in external mode) gives two sentinels: empty set,
    ``closed=True``, ratio ``None``.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"p must be in [0, 1], got {p}")
    nodes = split.nodes
    k_picks = min(k, len(nodes)) if universe else 0

    def reached(covered: int) -> bool:
        return not universe or covered / universe >= p

    left, order = list(range(len(nodes))), []  # left stays ascending, so max breaks ties low
    counts, covered = [0], 0  # counts[i]: items covered by the first i picks
    while len(order) < k_picks or not reached(counts[-1]):
        best = max(left, key=lambda i: (covers[i] & ~covered).bit_count())
        left.remove(best)
        order.append(best)
        covered |= covers[best]
        counts.append(covered.bit_count())
    p_picks = next(i for i, count in enumerate(counts) if reached(count))

    def prefix(criterion: str, value: int | float, picks: int) -> DomSetResult:
        return DomSetResult(
            community_id=split.community_id,
            mode=mode,
            criterion=criterion,
            criterion_value=value,
            members=frozenset(nodes[i] for i in order[:picks]),
            achieved_ratio=counts[picks] / universe if universe else None,
            closed=not universe,
        )

    return prefix("k", k, k_picks), prefix("p", p, p_picks)


def greedy_ids(split: Split, k: int, p: float) -> tuple[DomSetResult, DomSetResult]:
    """Greedy k- and p- internal dominating sets of the community ``split`` splits."""
    covers = [mask | 1 << i for i, mask in enumerate(split.masks)]
    return _greedy(split, "internal", covers, len(covers), k, p)


def greedy_eds(split: Split, k: int, p: float) -> tuple[DomSetResult, DomSetResult]:
    """Greedy k- and p- external dominating sets; a closed community gives sentinels."""
    bit = {w: 1 << j for j, w in enumerate(set().union(*split.outside))}  # the boundary, one bit per node
    covers = [sum(map(bit.get, ws)) for ws in split.outside]
    return _greedy(split, "external", covers, len(bit), k, p)
