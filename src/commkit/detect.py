"""Local community detection: PPR push plus conductance sweep.

Every node is a seed.  Each seed gets an approximate personalized-PageRank
vector, which is swept in score/degree order for the prefix of minimum
conductance.  Candidates are filtered by size, seeds that sweep to the same
member set collapse to the lowest of them, and the distinct sets are
deduplicated best-first by conductance: a set whose Jaccard overlap with a
kept community exceeds :data:`OVERLAP_JACCARD_MAX` (0.5) is dropped.  Only
kept communities are checked for connectivity.  Detection is deliberately
pluggable: every downstream stage also accepts externally supplied
community files.

The vector is the PageRank of the lazy walk ``W = (I + D^-1 A)/2`` with
teleport probability ``alpha``.  It is also the PageRank of the plain walk
``D^-1 A`` with teleport probability ``alpha' = 2 alpha / (1 + alpha)``,
so the push (Andersen, Chung & Lang, FOCS 2006) runs on the plain walk: a
pushed node settles ``alpha'`` of its residual, hands the rest to its
neighbors and keeps nothing.  It stops, as the lazy push does, once every
residual is below ``epsilon * deg(v)``, with fewer than half the pushes.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple, Sequence

from .community import Community
from .config import DetectParams, _check_alpha, _check_epsilon
from .errors import ConfigError
from .graph import Graph


OVERLAP_JACCARD_MAX = 0.5


class PPRVector(NamedTuple):
    """Sparse approximate PPR scores and the push's final per-node residual list."""

    scores: dict[int, float]
    residual: list[float]


def ppr_thresholds(graph: Graph, epsilon: float) -> list[float]:
    """Each node's push threshold ``epsilon * deg(v)``, indexed by node.

    Every threshold of a node with an edge is positive, which the push's
    queue relies on.  ``detect_communities`` builds this list once per run.
    """
    _check_epsilon(epsilon)
    return [epsilon * d for d in graph.degrees]


def approximate_ppr(graph: Graph, seed: int, alpha: float, thresholds: Sequence[float]) -> PPRVector:
    """Push-based approximate lazy-walk PPR from a single seed (non-lazy ACL push).

    ``alpha`` is the lazy walk's teleport probability; the push uses
    ``a = 2 alpha / (1 + alpha)``, which gives the plain walk the same
    PageRank vector (see the module docstring).  Popping ``u`` moves
    ``a * r(u)`` into its score, gives each neighbor ``(1 - a) * r(u) /
    deg(u)`` and sets ``r(u)`` to 0.  ``scores`` plus the lazy-walk PageRank
    of ``residual`` is the seed's exact vector, up to rounding.

    ``thresholds`` is :func:`ppr_thresholds` of the graph, built once per
    detection run; the push stops with ``r(v) < thresholds[v]`` for every
    node.  An isolated seed keeps all its mass, and a seed that starts
    below its threshold is never pushed.

    The queue holds no flags: a node is queued exactly when
    ``r(v) >= thresholds[v]``.  Residuals only grow until their node is
    popped, so a neighbor is enqueued when its residual crosses its
    threshold (``old < t <= old + share``); the popped node, which a
    ``Graph`` never links to itself, keeps 0 and so leaves the queue.
    Every float operation is the one a flagged queue comparing against
    ``epsilon * deg(v)`` makes, in the same order, so scores and residuals
    agree with it to the bit.

    Residuals live in a flat per-node list filled afresh for every seed
    (an O(n) fill at C speed); ``residual`` is that list, indexed by node.
    """
    if not 0 <= seed < graph.node_count:
        raise ConfigError(f"seed {seed} out of range")
    _check_alpha(alpha)
    n = graph.node_count
    if len(thresholds) != n:
        raise ConfigError(f"need one threshold per node ({n}), got {len(thresholds)}")
    degrees = graph.degrees
    if degrees[seed] == 0:
        return PPRVector(scores={seed: 1.0}, residual=[0.0] * n)
    if not thresholds[seed] > 0.0:
        # a neighbor is enqueued only by crossing a positive threshold; with
        # the seed's positive too, every push moves at least a times a
        # positive threshold into the scores, so any list lets the push end
        raise ConfigError(f"the seed's threshold must be > 0, got {thresholds[seed]}")

    a = 2.0 * alpha / (1.0 + alpha)
    spread = 1.0 - a
    adjacency = graph.adjacency
    p: dict[int, float] = {}
    p_get = p.get
    r = [0.0] * n
    r[seed] = 1.0
    if 1.0 < thresholds[seed]:
        return PPRVector(scores=p, residual=r)
    queue = deque([seed])
    popleft = queue.popleft
    enqueue = queue.append
    while queue:
        u = popleft()
        ru = r[u]
        p[u] = p_get(u, 0.0) + a * ru
        r[u] = 0.0
        share = spread * ru / degrees[u]
        for v in adjacency[u]:
            old = r[v]
            rv = old + share
            r[v] = rv
            if old < thresholds[v] <= rv:
                enqueue(v)
    return PPRVector(scores=p, residual=r)


class SweepResult(NamedTuple):
    members: frozenset[int]
    conductance: float


def sweep_cut(graph: Graph, scores: dict[int, float], max_prefix: int) -> SweepResult | None:
    """Minimum-conductance prefix of the score/degree ordering.

    The conductance of a prefix S is cut(S) / min(vol(S), vol(V∖S)).
    Ordering ties break toward the lower node index.  ``max_prefix`` caps
    the prefix length, which keeps the cut local instead of drifting to a
    global bisection; ``node_count`` sets no cap.  Returns ``None`` (no
    local community) when the scores carry no local information: either
    the minimizing prefix would be the whole graph, or every scored node
    ties in score/degree so any cut would be arbitrary.
    """
    if not scores:
        raise ConfigError("sweep_cut needs a nonempty score vector")
    if not any(scores.values()):
        raise ConfigError("sweep_cut needs at least one nonzero score")
    if max_prefix < 1:
        raise ConfigError(f"sweep_cut needs max_prefix >= 1, got {max_prefix}")

    degrees = graph.degrees
    adjacency = graph.adjacency
    n = graph.node_count
    keyed = [
        (-(score / degrees[v]) if degrees[v] else float("-inf"), v)
        for v, score in scores.items()
    ]
    keyed.sort()
    order = [v for _, v in keyed]
    if len(order) == n and len({k for k, _ in keyed}) == 1:
        return None  # uniform over the whole graph: degenerate

    total_volume = 2 * graph.edge_count
    in_set: set[int] = set()
    cut = 0
    volume = 0
    best_value = float("inf")
    best_prefix = 0
    for i, v in enumerate(order[:max_prefix]):
        dv = degrees[v]
        cut += dv - 2 * len(in_set.intersection(adjacency[v]))
        volume += dv
        in_set.add(v)
        if len(in_set) == n:
            break  # whole graph is not a community
        denominator = min(volume, total_volume - volume)
        if denominator == 0:
            continue
        value = cut / denominator
        if value < best_value:
            best_value = value
            best_prefix = i + 1
    if best_prefix == 0:
        return None
    if best_prefix == max_prefix < len(order):
        # the conductance minimum sits on the window edge: not a local
        # minimum, so no community of bounded size was actually found
        return None
    return SweepResult(members=frozenset(order[:best_prefix]), conductance=best_value)


def _is_connected(graph: Graph, members: frozenset[int]) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.adjacency[u]:
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(members)


class DetectedCommunity(NamedTuple):
    community: Community
    conductance: float
    connected: bool
    seed: int


def detect_communities(graph: Graph, params: DetectParams) -> list[DetectedCommunity]:
    """Run PPR + sweep from every node, filter by size, deduplicate by overlap.

    Pure function of (graph, params): candidates are collected per seed and
    reduced in a fixed order.  Seeds that sweep to the same member set give
    the same conductance, which is an integer cut over an integer volume, so
    the set is a candidate once, with the lowest of those seeds.  A
    candidate is kept as its sorted member tuple only; a member set is built
    once, for a kept community.
    """
    thresholds = ppr_thresholds(graph, params.epsilon)
    candidates: dict[tuple[int, ...], tuple[float, int]] = {}  # sorted members -> (conductance, seed)
    for seed in range(graph.node_count):
        ppr = approximate_ppr(graph, seed, params.alpha, thresholds)
        if not ppr.scores:
            continue
        sweep = sweep_cut(graph, ppr.scores, params.max_size)
        if sweep is None:
            continue
        if not params.min_size <= len(sweep.members) <= params.max_size:
            continue
        key = tuple(sorted(sweep.members))
        if key not in candidates:
            candidates[key] = (sweep.conductance, seed)

    # best-first greedy dedup; ordering makes the reduction deterministic
    kept: list[tuple[int, ...]] = []
    holders: dict[int, list[int]] = {}  # node -> indices into kept of the communities holding it
    for key in sorted(candidates, key=lambda k: (candidates[k][0], len(k), k)):
        size = len(key)
        shared = Counter(i for v in key for i in holders.get(v, ()))
        if any(
            intersection / (size + len(kept[i]) - intersection) > OVERLAP_JACCARD_MAX
            for i, intersection in shared.items()
        ):
            continue
        for v in key:
            holders.setdefault(v, []).append(len(kept))
        kept.append(key)

    detected = []
    for i, key in enumerate(kept):
        members = frozenset(key)  # one set, for the community and its connectivity check
        conductance, seed = candidates[key]
        community = Community(f"c{i}", members, graph)
        detected.append(DetectedCommunity(community, conductance, _is_connected(graph, members), seed))
    return detected
