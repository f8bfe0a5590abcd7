"""The push and sweep kernel against a plain reference copy, bit for bit.

``reference_approximate_ppr`` and ``reference_sweep_cut`` are the dict-based
push and the per-neighbor sweep that ``commkit.detect`` used before its loops
read flat lists and tuples.  Both kernels do the same float operations in the
same order, so scores, residuals, sweeps and detected communities must agree
to the last bit (floats are compared through ``float.hex``).
"""

import random
from collections import deque

import pytest

from commkit import Graph, approximate_ppr, detect, detect_communities, load_graph, sweep_cut
from commkit.detect import DetectParams, PPRVector, SweepResult
from commkit.errors import ConfigError
from graphs import DATA_DIR


def reference_approximate_ppr(graph: Graph, seed: int, alpha: float, epsilon: float) -> PPRVector:
    if not 0 <= seed < graph.node_count:
        raise ConfigError(f"seed {seed} out of range")
    if graph.degree(seed) == 0:
        return PPRVector(scores={seed: 1.0}, residual={})

    p: dict[int, float] = {}
    r: dict[int, float] = {seed: 1.0}
    queue = deque([seed])
    queued = {seed}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        ru = r.get(u, 0.0)
        du = graph.degree(u)
        if ru < epsilon * du:
            continue
        p[u] = p.get(u, 0.0) + alpha * ru
        push = (1.0 - alpha) * ru / 2.0
        r[u] = push
        share = push / du
        for v in graph.neighbors(u):
            r[v] = r.get(v, 0.0) + share
            if v not in queued and r[v] >= epsilon * graph.degree(v):
                queue.append(v)
                queued.add(v)
        if r[u] >= epsilon * du and u not in queued:
            queue.append(u)
            queued.add(u)
    return PPRVector(scores=p, residual={v: x for v, x in r.items() if x > 0.0})


def reference_sweep_cut(
    graph: Graph, scores: dict[int, float], max_prefix: int | None = None
) -> SweepResult | None:
    if not scores:
        raise ConfigError("sweep_cut needs a nonempty score vector")
    if all(x == 0.0 for x in scores.values()):
        raise ConfigError("sweep_cut needs at least one nonzero score")

    keyed = [
        (-(score / graph.degree(v)) if graph.degree(v) else float("-inf"), v)
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
    examined = 0
    truncated = False
    for i, v in enumerate(order):
        if max_prefix is not None and i >= max_prefix:
            truncated = True
            break
        internal = sum(1 for w in graph.neighbors(v) if w in in_set)
        cut += graph.degree(v) - 2 * internal
        volume += graph.degree(v)
        in_set.add(v)
        if len(in_set) == graph.node_count:
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
    return SweepResult(members=members, conductance=best_value, connected=_reference_is_connected(graph, members))


def _reference_is_connected(graph: Graph, members: frozenset[int]) -> bool:
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
    return sorted(result.members), result.conductance.hex(), result.connected


def test_push_and_sweep_match_the_reference_for_every_seed(graph):
    params = DetectParams()
    for seed in graph.nodes():
        vector = approximate_ppr(graph, seed, params.alpha, params.epsilon)
        expected = reference_approximate_ppr(graph, seed, params.alpha, params.epsilon)
        assert bits(vector.scores) == bits(expected.scores), seed
        assert bits(vector.residual) == bits(expected.residual), seed
        for max_prefix in (20, None):
            assert sweep_bits(sweep_cut(graph, vector.scores, max_prefix=max_prefix)) == sweep_bits(
                reference_sweep_cut(graph, expected.scores, max_prefix=max_prefix)
            ), (seed, max_prefix)


def test_detected_communities_match_the_reference(graph, monkeypatch):
    found = detect_communities(graph, DetectParams())
    monkeypatch.setattr(detect, "approximate_ppr", reference_approximate_ppr)
    monkeypatch.setattr(detect, "sweep_cut", reference_sweep_cut)
    expected = detect_communities(graph, DetectParams())
    assert found
    assert [
        (sorted(d.community.members), d.conductance.hex(), d.connected, d.seed) for d in found
    ] == [(sorted(d.community.members), d.conductance.hex(), d.connected, d.seed) for d in expected]
