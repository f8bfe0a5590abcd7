"""Internal and external slopes: greedy ratio minus random-subset expectation.

The expectation over all size-K subsets has an exact closed form by
linearity of expectation: a node is missed exactly when the subset avoids
all of its dominators in the community, so each node contributes one
binomial coefficient.  Numerator and denominator are integers and the only
rounding is the final division.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .community import Community
from .domsets import DomSetResult, greedy_eds, greedy_ids
from .errors import ConfigError
from .graph import Graph


@dataclass(frozen=True)
class SlopeResult:
    community_id: str
    kind: str  # "internal" | "external"
    K: int
    observed_ratio: float | None
    expected_ratio: float | None
    slope: float | None
    closed: bool = False


def random_subset_ratio(graph: Graph, community: Community, K: int, kind: str) -> float | None:
    """Exact mean dominating ratio over all size-K subsets of the community.

    With ``c(a) = C(a, K)``, a member v is left uncovered by
    ``c(|C| - 1 - |N(v) ∩ C|)`` of the ``C(|C|, K)`` subsets, and a boundary
    node b unreached by ``c(|C| - |N(b) ∩ C|)``.  The cost is O(vol(C)).
    External kind on a closed community gives ``None``.
    """
    if kind not in ("internal", "external"):
        raise ConfigError(f"kind must be internal or external, got {kind!r}")
    if not 1 <= K <= community.size:
        raise ConfigError(f"K must be in [1, |C|], got {K}")
    members = community.members
    # |N(w) ∩ C| for every node w adjacent to the community
    hits = Counter(w for v in members for w in graph.neighbors(v))
    if kind == "internal":
        dominators = [1 + hits[v] for v in members]
    else:
        dominators = [count for w, count in hits.items() if w not in members]
        if not dominators:
            return None
    n = community.size
    total = len(dominators) * math.comb(n, K)
    missed = sum(math.comb(n - d, K) for d in dominators)
    return (total - missed) / total


def islope(
    graph: Graph,
    community: Community,
    p: float = 0.8,
    domset: DomSetResult | None = None,
) -> SlopeResult:
    """Internal slope: greedy p-IDS ratio minus the random-subset expectation.

    A precomputed greedy set can be passed in to avoid recomputation; it must
    be an internal p-mode result for the same community.
    """
    if domset is None:
        domset = greedy_ids(graph, community, p=p)
    if domset.size == 0:
        # p=0 stops before the first pick; the empty subset is its own expectation
        return SlopeResult(community.id, "internal", 0, 0.0, 0.0, 0.0)
    K = domset.size
    observed = domset.achieved_ratio
    expected = random_subset_ratio(graph, community, K, "internal")
    return SlopeResult(
        community_id=community.id,
        kind="internal",
        K=K,
        observed_ratio=observed,
        expected_ratio=expected,
        slope=observed - expected,
    )


def eslope(
    graph: Graph,
    community: Community,
    p: float = 0.8,
    domset: DomSetResult | None = None,
) -> SlopeResult:
    """External slope; closed communities give the sentinel result."""
    if domset is None:
        domset = greedy_eds(graph, community, p=p)
    if domset.closed:
        return SlopeResult(
            community_id=community.id,
            kind="external",
            K=0,
            observed_ratio=None,
            expected_ratio=None,
            slope=None,
            closed=True,
        )
    if domset.size == 0:
        return SlopeResult(community.id, "external", 0, 0.0, 0.0, 0.0)
    K = domset.size
    observed = domset.achieved_ratio
    expected = random_subset_ratio(graph, community, K, "external")
    return SlopeResult(
        community_id=community.id,
        kind="external",
        K=K,
        observed_ratio=observed,
        expected_ratio=expected,
        slope=observed - expected,
    )
