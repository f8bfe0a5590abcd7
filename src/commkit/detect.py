"""Local community detection: PPR push plus conductance sweep.

Each seed gets an approximate personalized-PageRank vector (push method
with degree-normalized residual threshold), which is swept in score/degree
order for the prefix of minimum conductance.  Candidates are filtered by
size and deduplicated by Jaccard overlap, keeping the lower-conductance
one.  Detection is deliberately pluggable: every downstream stage also
accepts externally supplied community files.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .community import Community
from .errors import ConfigError
from .graph import Graph


@dataclass(frozen=True)
class DetectParams:
    alpha: float = 0.15
    epsilon: float = 1e-4
    seed_strategy: str = "all-nodes"  # "all-nodes" | "random-sample" | "provided"
    sample_size: int = 0  # for random-sample
    seeds: tuple[int, ...] = ()  # for provided
    min_size: int = 5
    max_size: int = 200
    overlap_jaccard_max: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise ConfigError(
                f"need 1 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )
        if not 0.0 <= self.overlap_jaccard_max <= 1.0:
            raise ConfigError(
                f"overlap_jaccard_max must be in [0, 1], got {self.overlap_jaccard_max}"
            )
        if self.seed_strategy not in ("all-nodes", "random-sample", "provided"):
            raise ConfigError(f"unknown seed strategy {self.seed_strategy!r}")


@dataclass(frozen=True)
class PPRVector:
    """Sparse approximate PPR scores with the final residual for auditing."""

    scores: dict[int, float]
    residual: dict[int, float]


def approximate_ppr(graph: Graph, seed: int, alpha: float, epsilon: float) -> PPRVector:
    """Push-based approximate PPR from a single seed (ACL lazy push).

    Terminates with ``r(v)/deg(v) < epsilon`` for every node.  An isolated
    seed keeps all its mass.

    Residuals live in a flat per-node list and queued flags in a bytearray;
    both are filled afresh for every seed.  That O(n) fill runs at C speed:
    on a 20k-node planted partition of degree 11 it is about 6% of a push.
    ``residual`` lists the nodes in the order they were first reached.
    """
    if not 0 <= seed < graph.node_count:
        raise ConfigError(f"seed {seed} out of range")
    degrees = graph.degrees
    if degrees[seed] == 0:
        return PPRVector(scores={seed: 1.0}, residual={})

    adjacency = graph.adjacency
    n = graph.node_count
    p: dict[int, float] = {}
    p_get = p.get
    r = [0.0] * n
    r[seed] = 1.0
    touched = [seed]
    touch = touched.append
    queued = bytearray(n)
    queued[seed] = 1
    queue = deque([seed])
    popleft = queue.popleft
    enqueue = queue.append
    while queue:
        u = popleft()
        queued[u] = 0
        ru = r[u]
        du = degrees[u]
        if ru < epsilon * du:
            continue
        p[u] = p_get(u, 0.0) + alpha * ru
        push = (1.0 - alpha) * ru / 2.0
        r[u] = push
        share = push / du
        for v in adjacency[u]:
            rv = r[v]
            if rv == 0.0:  # first reached: a reached residual never returns to 0
                touch(v)
            rv += share
            r[v] = rv
            if not queued[v] and rv >= epsilon * degrees[v]:
                enqueue(v)
                queued[v] = 1
        if r[u] >= epsilon * du and not queued[u]:
            enqueue(u)
            queued[u] = 1
    return PPRVector(scores=p, residual={v: r[v] for v in touched if r[v] > 0.0})


def conductance(graph: Graph, members: Sequence[int] | frozenset[int]) -> float:
    """cut(S) / min(vol(S), vol(V∖S)); infinite when either side has no volume."""
    node_set = set(members)
    cut = 0
    vol = 0
    for u in node_set:
        vol += graph.degree(u)
        cut += sum(1 for v in graph.neighbors(u) if v not in node_set)
    denominator = min(vol, 2 * graph.edge_count - vol)
    if denominator == 0:
        return float("inf")
    return cut / denominator


@dataclass(frozen=True)
class SweepResult:
    members: frozenset[int]
    conductance: float
    connected: bool


def sweep_cut(
    graph: Graph, scores: dict[int, float], max_prefix: int | None = None
) -> SweepResult | None:
    """Minimum-conductance prefix of the score/degree ordering.

    Ordering ties break toward the lower node index.  ``max_prefix`` caps
    the prefix length, which keeps the cut local instead of drifting to a
    global bisection.  Returns ``None`` (no local community) when the scores
    carry no local information: either the minimizing prefix would be the
    whole graph, or every scored node ties in score/degree so any cut would
    be arbitrary.
    """
    if not scores:
        raise ConfigError("sweep_cut needs a nonempty score vector")
    if all(x == 0.0 for x in scores.values()):
        raise ConfigError("sweep_cut needs at least one nonzero score")

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
    examined = 0
    truncated = False
    for i, v in enumerate(order):
        if max_prefix is not None and i >= max_prefix:
            truncated = True
            break
        dv = degrees[v]
        cut += dv - 2 * len(in_set.intersection(adjacency[v]))
        volume += dv
        in_set.add(v)
        if len(in_set) == n:
            break  # whole graph is not a community
        examined = i + 1
        denominator = min(volume, total_volume - volume)
        if denominator == 0:
            continue
        value = cut / denominator
        if value < best_value:
            best_value = value
            best_prefix = i + 1
    if best_prefix == 0:
        return None
    if truncated and best_prefix == examined:
        # the conductance minimum sits on the window edge: not a local
        # minimum, so no community of bounded size was actually found
        return None
    members = frozenset(order[:best_prefix])
    return SweepResult(members=members, conductance=best_value, connected=_is_connected(graph, members))


def _is_connected(graph: Graph, members: frozenset[int]) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v in members and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(members)


@dataclass(frozen=True)
class DetectedCommunity:
    community: Community
    conductance: float
    connected: bool
    seed: int


def detect_communities(graph: Graph, params: DetectParams) -> list[DetectedCommunity]:
    """Run PPR + sweep from every seed, filter by size, deduplicate by overlap.

    Pure function of (graph, params): candidates are collected per seed and
    reduced in a fixed order, so worker scheduling cannot change the output.
    """
    if params.seed_strategy == "all-nodes":
        seeds: Sequence[int] = range(graph.node_count)
    elif params.seed_strategy == "random-sample":
        rng = random.Random(params.rng_seed)
        count = min(params.sample_size, graph.node_count)
        seeds = sorted(rng.sample(range(graph.node_count), count))
    else:
        seeds = params.seeds
        for s in seeds:
            if not 0 <= s < graph.node_count:
                raise ConfigError(f"provided seed {s} out of range")

    candidates: list[tuple[float, int, tuple[int, ...], SweepResult, int]] = []
    for seed in seeds:
        ppr = approximate_ppr(graph, seed, params.alpha, params.epsilon)
        if not ppr.scores:
            continue
        sweep = sweep_cut(graph, ppr.scores, max_prefix=params.max_size)
        if sweep is None:
            continue
        if not params.min_size <= len(sweep.members) <= params.max_size:
            continue
        key = tuple(sorted(sweep.members))
        candidates.append((sweep.conductance, len(key), key, sweep, seed))

    # best-first greedy dedup; ordering makes the reduction deterministic
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    kept: list[tuple[frozenset[int], SweepResult, int]] = []
    for _, _, key, sweep, seed in candidates:
        members = sweep.members
        if any(_jaccard(members, other) > params.overlap_jaccard_max for other, _, _ in kept):
            continue
        if any(members == other for other, _, _ in kept):
            continue
        kept.append((members, sweep, seed))

    return [
        DetectedCommunity(
            community=Community(f"c{i}", members, graph),
            conductance=sweep.conductance,
            connected=sweep.connected,
            seed=seed,
        )
        for i, (members, sweep, seed) in enumerate(kept)
    ]


def _jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)
