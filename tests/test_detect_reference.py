"""The push, sweep and refinement kernels against plain reference copies, bit for bit.

``reference_approximate_ppr`` is the textbook non-lazy push (Andersen, Chung
& Lang, FOCS 2006), ``reference_sweep_cut`` the per-neighbor sweep,
``reference_seeds`` the pairwise greedy independent set and
``reference_refine`` a mover that recounts each candidate set's conductance
as a ``Fraction``.  The
reference push keeps its residual in a dict, a set of queued nodes, a check
that skips a stale queue entry, and the threshold ``epsilon * degree``
computed at each comparison, where ``approximate_ppr`` reads flat lists and
tuples and a threshold list built once, and keeps no queued flags.  Both
kernels do the same float operations in the same order, so scores,
residuals, sweeps and detected communities must agree to the last bit
(floats are compared through ``float.hex``).  The reference returns its
residual densely, one entry per node, as ``approximate_ppr`` does, so every
node's residual is compared.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from commkit import Graph, approximate_ppr, detect, detect_communities, load_graph, sweep_cut
from commkit.detect import DetectParams, PPRVector, SweepResult, ppr_thresholds
from commkit.errors import ConfigError
from graphs import DATA_DIR


def reference_approximate_ppr(graph: Graph, seed: int, alpha: float, epsilon: float) -> PPRVector:
    if not 0 <= seed < graph.node_count:
        raise ConfigError(f"seed {seed} out of range")
    if graph.degrees[seed] == 0:
        return PPRVector(scores={seed: 1.0}, residual=[0.0] * graph.node_count)

    # the lazy walk's PageRank with teleport alpha is the plain walk's with a
    a = 2.0 * alpha / (1.0 + alpha)
    spread = 1.0 - a
    p: dict[int, float] = {}
    r: dict[int, float] = {seed: 1.0}
    queue = deque([seed])
    queued = {seed}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        ru = r.get(u, 0.0)
        du = graph.degrees[u]
        if ru < epsilon * du:
            continue
        p[u] = p.get(u, 0.0) + a * ru
        r[u] = 0.0
        share = spread * ru / du
        for v in graph.adjacency[u]:
            r[v] = r.get(v, 0.0) + share
            if v not in queued and r[v] >= epsilon * graph.degrees[v]:
                queue.append(v)
                queued.add(v)
    return PPRVector(scores=p, residual=[r.get(v, 0.0) for v in range(graph.node_count)])


def reference_sweep_cut(
    graph: Graph, scores: dict[int, float], max_prefix: int | None = None
) -> SweepResult | None:
    if not scores:
        raise ConfigError("sweep_cut needs a nonempty score vector")
    if all(x == 0.0 for x in scores.values()):
        raise ConfigError("sweep_cut needs at least one nonzero score")

    keyed = [
        (-(score / graph.degrees[v]) if graph.degrees[v] else float("-inf"), v)
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
    for i, v in enumerate(order):
        if max_prefix is not None and i >= max_prefix:
            break
        internal = sum(1 for w in graph.adjacency[v] if w in in_set)
        cut += graph.degrees[v] - 2 * internal
        volume += graph.degrees[v]
        in_set.add(v)
        if len(in_set) == graph.node_count:
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
    return SweepResult(members=frozenset(order[:best_prefix]), conductance=best_value)


def reference_seeds(graph: Graph) -> list[int]:
    """Nodes by decreasing degree, ties to the lower index, each taken unless a
    neighbor was taken before it; in index order."""
    taken: list[int] = []
    for v in sorted(range(graph.node_count), key=lambda v: (-graph.degrees[v], v)):
        if all(v not in graph.adjacency[u] for u in taken):
            taken.append(v)
    return sorted(taken)


def reference_conductance(graph: Graph, members: frozenset[int]) -> Fraction | None:
    """cut / min(vol, vol(G) - vol) as a fraction, recounted; None if a side has no volume."""
    cut = sum(1 for u in members for w in graph.adjacency[u] if w not in members)
    volume = sum(graph.degrees[u] for u in members)
    denominator = min(volume, 2 * graph.edge_count - volume)
    return Fraction(cut, denominator) if denominator > 0 else None


def reference_moves(graph: Graph, members: frozenset[int], max_size: int):
    """(node, set) for every set one allowed move away: a boundary node added while
    the set is below ``max_size``, a member dropped while it has more than one."""
    if len(members) < max_size:
        boundary = {w for u in members for w in graph.adjacency[u]} - members
        yield from ((v, members | {v}) for v in boundary)
    if len(members) > 1:
        yield from ((v, members - {v}) for v in members)


def reference_refine(graph: Graph, members, max_size: int) -> SweepResult:
    """The move to the lowest conductance, ties to the lower node, while it lowers it."""
    members = frozenset(members)
    current = reference_conductance(graph, members)
    while True:
        better = []
        for v, moved in reference_moves(graph, members, max_size):
            value = reference_conductance(graph, moved)
            if value is not None and value < current:
                better.append((value, v, moved))
        if not better:
            return SweepResult(members=members, conductance=float(current))
        current, _, members = min(better, key=lambda move: move[:2])


def planted_graph() -> Graph:
    """300 nodes in ten groups of 30 (p_in 0.3, p_out 0.005), plus one isolated node."""
    rng = random.Random(2013)
    n, groups = 300, 10
    edges = [
        (f"n{u:03d}", f"n{v:03d}")
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (0.3 if u % groups == v % groups else 0.005)
    ]
    return Graph(edges, extra_nodes=["isolated"])


GRAPHS = {
    "football": lambda: load_graph(DATA_DIR / "football" / "football.edges"),
    "planted-300": planted_graph,
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request) -> Graph:
    return GRAPHS[request.param]()


def bits(vector: dict[int, float]) -> list[tuple[int, str]]:
    """Items in insertion order, each float as its exact bit pattern."""
    return [(v, x.hex()) for v, x in vector.items()]


def sweep_bits(result: SweepResult | None):
    if result is None:
        return None
    return sorted(result.members), result.conductance.hex()


@pytest.mark.parametrize("alpha, epsilon", [(0.15, 1e-4), (0.5, 1e-2), (0.9, 0.4), (0.15, 2.0)])
def test_push_and_sweep_match_the_reference_for_every_seed(graph, alpha, epsilon):
    # at epsilon 2.0 every seed starts below its threshold and is never pushed
    thresholds = ppr_thresholds(graph, epsilon)
    for seed in range(graph.node_count):
        vector = approximate_ppr(graph, seed, alpha, thresholds)
        expected = reference_approximate_ppr(graph, seed, alpha, epsilon)
        assert bits(vector.scores) == bits(expected.scores), seed
        assert bits(dict(enumerate(vector.residual))) == bits(dict(enumerate(expected.residual))), seed
        if not vector.scores:
            continue
        for max_prefix in (20, graph.node_count):
            assert sweep_bits(sweep_cut(graph, vector.scores, max_prefix)) == sweep_bits(
                reference_sweep_cut(graph, expected.scores, max_prefix=max_prefix)
            ), (seed, max_prefix)


def test_detected_communities_match_the_reference(graph, monkeypatch):
    params = DetectParams()
    found = detect_communities(graph, params)
    seeds: list[int] = []

    def reference_push(graph: Graph, seed: int, alpha: float, thresholds) -> PPRVector:
        # the reference recomputes epsilon * degree itself and ignores the list
        seeds.append(seed)
        return reference_approximate_ppr(graph, seed, alpha, params.epsilon)

    monkeypatch.setattr(detect, "approximate_ppr", reference_push)
    monkeypatch.setattr(detect, "sweep_cut", reference_sweep_cut)
    monkeypatch.setattr(detect, "refine", reference_refine)
    expected = detect_communities(graph, params)
    assert sorted(seeds) == reference_seeds(graph)  # one reference push per spread seed
    assert found
    assert [
        (sorted(d.community.members), d.conductance.hex(), d.connected, d.seed) for d in found
    ] == [(sorted(d.community.members), d.conductance.hex(), d.connected, d.seed) for d in expected]


def test_detection_recovers_the_planted_groups():
    # ten groups of 30, node n{u} in group u mod 10; the isolated node is in none
    graph = planted_graph()
    groups = {frozenset(graph.index(f"n{u:03d}") for u in range(g, 300, 10)) for g in range(10)}
    found = detect_communities(graph, DetectParams(max_size=40))
    assert len(found) == 10
    assert {d.community.members for d in found} == groups
