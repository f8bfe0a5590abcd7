"""Internal and external slopes: greedy ratio minus random-subset expectation.

The expectation over all size-K subsets has an exact closed form by
linearity of expectation: a node is missed exactly when the subset avoids
all of its dominators in the community, so each node contributes one
binomial coefficient, read from the community's split (``community.split``).
Numerator and denominator are integers and the only rounding is the final
division.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .community import Split
from .domsets import DomSetResult
from .errors import ConfigError


class SlopeResult(NamedTuple):
    community_id: str
    kind: str  # "internal" | "external"
    K: int
    observed_ratio: float | None
    expected_ratio: float | None
    slope: float | None
    closed: bool = False


def random_subset_ratio(split: Split, K: int, kind: str) -> float | None:
    """Exact mean dominating ratio over all size-K subsets of the community.

    With ``c(a) = C(a, K)``, a member v is left uncovered by
    ``c(|C| - 1 - |N(v) ∩ C|)`` of the ``C(|C|, K)`` subsets, and a boundary
    node b unreached by ``c(|C| - |N(b) ∩ C|)``.  The cost is O(vol(C)).
    External kind on a closed community gives ``None``, and ``K = 0`` gives 0.0.
    """
    if kind not in ("internal", "external"):
        raise ConfigError(f"kind must be internal or external, got {kind!r}")
    n = len(split.nodes)
    if not 0 <= K <= n:
        raise ConfigError(f"K must be in [0, |C|], got {K}")
    if kind == "internal":
        dominators = [1 + len(js) for js in split.inside]
    else:
        # |N(b) ∩ C| for every boundary node b
        dominators = list(Counter(w for ws in split.outside for w in ws).values())
        if not dominators:
            return None
    total = len(dominators) * math.comb(n, K)
    missed = sum(math.comb(n - d, K) for d in dominators)
    return (total - missed) / total


def islope(split: Split, domset: DomSetResult) -> SlopeResult:
    """Internal slope: the ratio of the community's greedy internal set
    ``domset`` (its p-IDS in the pipeline) minus the random-subset expectation."""
    return _slope(split, domset, "internal")


def eslope(split: Split, domset: DomSetResult) -> SlopeResult:
    """External slope from the community's greedy external set; closed
    communities give the sentinel result."""
    return _slope(split, domset, "external")


def _slope(split: Split, domset: DomSetResult, kind: str) -> SlopeResult:
    """Slope of ``kind`` from ``domset``, the ``kind`` set built from ``split``."""
    if domset.closed:
        return SlopeResult(split.community_id, kind, 0, None, None, None, closed=True)
    observed = domset.achieved_ratio
    expected = random_subset_ratio(split, domset.size, kind)
    return SlopeResult(split.community_id, kind, domset.size, observed, expected, observed - expected)
