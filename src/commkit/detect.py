"""Local community detection: PPR push, conductance sweep, local refinement.

The seeds are a maximal independent set taken in degree order (the "spread
hubs" of Whang, Gleich & Dhillon, CIKM 2013): nodes are taken by
decreasing degree, ties to the lower index, and a node is taken when no
neighbor has been.  Every node is a seed or a neighbor of one.  Each seed
gets an approximate personalized-PageRank vector, which is swept in
score/degree order for the prefix of minimum conductance among its first
``max_size + 1`` prefixes.  The sweeps go through the candidate rule
below, each set it keeps is refined by single-node moves
(:func:`refine`), in the spirit of the conductance-improving local moves
of Andersen & Lang (SODA 2008), and the refined sets go through the rule
again.  The rule, in the order it is applied: a set of fewer than
``min_size`` or more than ``max_size`` members is dropped, which drops a
sweep whose minimum is on its last prefix; the rest are taken best first
by (conductance, size, sorted members, seed); and a set whose Jaccard
overlap with a kept one exceeds :data:`OVERLAP_JACCARD_MAX` (0.5) is
dropped.  An equal set overlaps by 1, so it is kept once, with the
lowest of its seeds.  Only the communities the second pass keeps are
checked for connectivity.  Detection is deliberately pluggable: every
downstream stage also accepts externally supplied community files.

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
from typing import Iterable, NamedTuple, Sequence

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
    global bisection; ``node_count`` sets no cap.  A prefix with no volume
    on one side of its cut, the whole graph among them, is skipped.
    Returns ``None`` (no local community) when every prefix is skipped or
    every node of the graph ties in score/degree, so that any cut would be
    arbitrary.
    """
    if not scores:
        raise ConfigError("sweep_cut needs a nonempty score vector")
    if not any(scores.values()):
        raise ConfigError("sweep_cut needs at least one nonzero score")
    if max_prefix < 1:
        raise ConfigError(f"sweep_cut needs max_prefix >= 1, got {max_prefix}")

    degrees = graph.degrees
    adjacency = graph.adjacency
    keyed = [
        (-(score / degrees[v]) if degrees[v] else float("-inf"), v)
        for v, score in scores.items()
    ]
    keyed.sort()
    order = [v for _, v in keyed]
    if len(order) == graph.node_count and len({k for k, _ in keyed}) == 1:
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
        denominator = min(volume, total_volume - volume)
        if denominator == 0:
            continue
        value = cut / denominator
        if value < best_value:
            best_value = value
            best_prefix = i + 1
    if best_prefix == 0:
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


def _spread_seeds(graph: Graph) -> list[int]:
    """A maximal independent set taken in (-degree, index) order, in that order."""
    degrees = graph.degrees
    adjacency = graph.adjacency
    blocked = bytearray(graph.node_count)
    seeds = []
    for v in sorted(range(graph.node_count), key=lambda v: -degrees[v]):  # stable: ties by index
        if not blocked[v]:
            seeds.append(v)
            for w in adjacency[v]:
                blocked[w] = 1
    return seeds


def refine(graph: Graph, members: Iterable[int], max_size: int) -> SweepResult:
    """Apply the best single-node move to ``members`` until no move lowers conductance.

    A move adds a boundary node while the set has fewer than ``max_size``
    members, or drops a member; a move that leaves either side of the cut
    without volume, such as dropping the only member, is not made.  The best
    move lowers conductance the most, ties to the lower node index.
    Conductances ``cut / min(vol, vol(G) - vol)`` are compared exactly, as
    integer cross-products, and the one returned is that float of the
    final set's integers.  Each member and boundary node keeps its count
    of neighbors inside the set, and a move updates only the moved node's
    neighbors.
    """
    degrees = graph.degrees
    adjacency = graph.adjacency
    total_volume = 2 * graph.edge_count
    chosen = set(members)
    inside: dict[int, int] = dict.fromkeys(chosen, 0)  # member or boundary node -> neighbors in the set
    for u in chosen:
        for w in adjacency[u]:
            inside[w] = inside.get(w, 0) + 1
    volume = sum(degrees[u] for u in chosen)
    cut = volume - sum(inside[u] for u in chosen)
    denominator = min(volume, total_volume - volume)
    if denominator <= 0:
        raise ConfigError("refine needs a set with volume on both sides of its cut")

    while True:
        size = len(chosen)
        best = -1
        best_cut, best_volume, best_denominator = cut, volume, denominator
        for v, k in inside.items():
            dv = degrees[v]
            if v in chosen:
                moved_cut, moved_volume = cut - dv + 2 * k, volume - dv
            elif size < max_size:
                moved_cut, moved_volume = cut + dv - 2 * k, volume + dv
            else:
                continue
            moved_denominator = min(moved_volume, total_volume - moved_volume)
            if moved_denominator <= 0:
                continue
            moved_cross = moved_cut * best_denominator
            best_cross = best_cut * moved_denominator
            if moved_cross < best_cross or (moved_cross == best_cross and 0 <= v < best):
                best, best_cut, best_volume, best_denominator = v, moved_cut, moved_volume, moved_denominator
        if best < 0:
            return SweepResult(members=frozenset(chosen), conductance=cut / denominator)
        step = -1 if best in chosen else 1
        if step > 0:
            chosen.add(best)
        else:
            chosen.remove(best)
            if not inside[best]:
                del inside[best]  # no longer a member, and not a boundary node
        for w in adjacency[best]:
            k = inside.get(w, 0) + step
            if k or w in chosen:
                inside[w] = k
            else:
                del inside[w]
        cut, volume, denominator = best_cut, best_volume, best_denominator


def _candidates(
    results: Iterable[tuple[int, SweepResult | None]], min_size: int, max_size: int
) -> list[tuple[list[int], float, int]]:
    """One pass of the candidate rule: size filter, best-first order, overlap dedup.

    Takes ``(seed, result)`` pairs and returns ``(sorted members,
    conductance, seed)`` triples.  A ``None`` result and a set of fewer
    than ``min_size`` or more than ``max_size`` members are dropped, the
    only size rule of detection.  The rest go best first, in
    (conductance, size, sorted members, seed) order, and one whose Jaccard
    overlap with a kept set exceeds :data:`OVERLAP_JACCARD_MAX` is dropped.
    Overlap is tested only against the kept sets that share a node with
    the candidate.  Returns the kept sets, best first.
    """
    ordered = sorted(
        (result.conductance, len(result.members), sorted(result.members), seed)
        for seed, result in results
        if result is not None and min_size <= len(result.members) <= max_size
    )
    # an equal set comes right after its lowest seed's copy and overlaps it by 1, so
    # it is kept once, with that seed: this needs OVERLAP_JACCARD_MAX < 1
    kept: list[tuple[list[int], float, int]] = []
    holders: dict[int, list[int]] = {}  # node -> indices into kept of the sets holding it
    for conductance, size, members, seed in ordered:
        shared = Counter(i for v in members for i in holders.get(v, ()))
        if any(
            intersection / (size + len(kept[i][0]) - intersection) > OVERLAP_JACCARD_MAX
            for i, intersection in shared.items()
        ):
            continue
        for v in members:
            holders.setdefault(v, []).append(len(kept))
        kept.append((members, conductance, seed))
    return kept


def detect_communities(graph: Graph, params: DetectParams) -> list[DetectedCommunity]:
    """Push and sweep from the spread seeds, apply the candidate rule, refine, apply it again.

    Pure function of (graph, params), whatever order the seeds are pushed
    in.  Both passes apply the candidate rule of the module docstring, in
    its order, through :func:`_candidates`: the size filter, the only size
    rule; best first by (conductance, size, sorted members, seed); the
    overlap dedup.  Seeds that give the same member set give it the same
    conductance, an integer cut over an integer volume, so the set is kept
    once, with the lowest of those seeds.  A candidate is held as its
    sorted member list, and a member set is built again only for a
    community the second pass keeps.
    """
    min_size, max_size = params.min_size, params.max_size
    thresholds = ppr_thresholds(graph, params.epsilon)
    pushes = (
        (seed, approximate_ppr(graph, seed, params.alpha, thresholds).scores) for seed in _spread_seeds(graph)
    )
    # one prefix past max_size: a sweep still falling there gives a set the size filter drops
    sweeps = ((seed, sweep_cut(graph, scores, max_size + 1)) for seed, scores in pushes if scores)
    kept = _candidates(sweeps, min_size, max_size)
    refined = _candidates(((seed, refine(graph, members, max_size)) for members, _, seed in kept), min_size, max_size)

    detected = []
    for i, (members, conductance, seed) in enumerate(refined):
        member_set = frozenset(members)  # one set, for the community and its connectivity check
        community = Community(f"c{i}", member_set)
        detected.append(DetectedCommunity(community, conductance, _is_connected(graph, member_set), seed))
    return detected
