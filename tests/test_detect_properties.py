"""The push, the sweep, the refinement and detection's reduction on random small
graphs against dense, brute-force, reference-push, exact-fraction and
pairwise-reduction oracles."""

import itertools
import math

import networkx as nx
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commkit import Graph, approximate_ppr, detect_communities, sweep_cut
from commkit.detect import DetectParams, ppr_thresholds, refine
from graphs import networkx_graph
from test_detect_reference import (
    bits,
    reference_approximate_ppr,
    reference_conductance,
    reference_moves,
    reference_refine,
    reference_seeds,
)


@st.composite
def small_graphs(draw):
    """A graph on 2..9 nodes, isolated nodes kept; index i is node ``n{i}``."""
    n = draw(st.integers(2, 9))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(edges, extra_nodes=labels), edges


@st.composite
def push_cases(draw):
    graph, edges = draw(small_graphs())
    seed = draw(st.integers(0, graph.node_count - 1))
    alpha = draw(st.sampled_from([0.05, 0.15, 0.5, 0.9]))
    epsilon = draw(st.sampled_from([1e-1, 1e-2, 1e-4, 1e-6]))
    return graph, edges, seed, alpha, epsilon


def dense_pagerank(graph: Graph, start: list[float], alpha: float) -> list[float]:
    """pr(s) = alpha*s + (1-alpha)*pr(s)W for the lazy walk W = (I + D^-1 A)/2.

    Solved by fixed-point iteration, which contracts by 1-alpha per round.
    An isolated node's walk stays where it is.
    """
    x = list(start)
    rounds = math.ceil(math.log(1e-15) / math.log(1.0 - alpha))
    for _ in range(rounds):
        walked = [0.0] * graph.node_count
        for u, mass in enumerate(x):
            degree = graph.degrees[u]
            if degree == 0:
                walked[u] += mass
                continue
            walked[u] += mass / 2.0
            for v in graph.adjacency[u]:
                walked[v] += mass / (2.0 * degree)
        x = [alpha * s + (1.0 - alpha) * w for s, w in zip(start, walked)]
    return x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(push_cases())
def test_push_invariant_against_dense_solve(case):
    # p + pr(r) = pr(e_seed): what the push has not settled yet is still in r
    graph, _, seed, alpha, epsilon = case
    vector = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon))
    n = graph.node_count
    indicator = [1.0 if v == seed else 0.0 for v in range(n)]
    assert len(vector.residual) == n
    exact = dense_pagerank(graph, indicator, alpha)
    pending = dense_pagerank(graph, vector.residual, alpha)
    for v in range(n):
        assert math.isclose(vector.scores.get(v, 0.0) + pending[v], exact[v], abs_tol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(push_cases())
def test_push_stops_below_the_residual_bound(case):
    graph, _, seed, alpha, epsilon = case
    vector = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon))
    # one entry per node; an untouched or isolated node holds exactly 0
    assert len(vector.residual) == graph.node_count
    for v, r in enumerate(vector.residual):
        assert r == 0.0 or 0.0 < r < epsilon * graph.degrees[v]
    assert math.isclose(sum(vector.scores.values()) + sum(vector.residual), 1.0, abs_tol=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(push_cases())
def test_push_matches_the_reference_push_bit_for_bit(case):
    graph, _, seed, alpha, epsilon = case
    vector = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon))
    expected = reference_approximate_ppr(graph, seed, alpha, epsilon)
    assert bits(vector.scores) == bits(expected.scores)
    assert [r.hex() for r in vector.residual] == [r.hex() for r in expected.residual]


@st.composite
def sweep_cases(draw):
    graph, edges = draw(small_graphs())
    nodes = draw(st.sets(st.integers(0, graph.node_count - 1), min_size=1))
    # a few distinct values, so that score/degree ties are common
    values = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 3.0])
    scores = {v: draw(values) for v in sorted(nodes)}
    if all(x == 0.0 for x in scores.values()):
        scores[min(scores)] = 1.0
    # no cap as often as a drawn one
    max_prefix = draw(st.just(graph.node_count) | st.integers(1, graph.node_count))
    return graph, edges, scores, max_prefix


def brute_force_sweep(graph: Graph, edges: list[tuple[str, str]], scores: dict[int, float], max_prefix: int):
    """Every prefix's conductance by ``nx.conductance``; None where sweep_cut finds no community.

    A prefix is never the whole graph, so its complement is never empty, and
    a prefix with a side of no volume is skipped as the sweep skips it.
    """
    n = graph.node_count
    whole = networkx_graph(graph, edges)

    def key(v):
        degree = graph.degrees[v]
        return (-(scores[v] / degree) if degree else -math.inf, v)

    order = sorted(scores, key=key)
    if len(order) == n and len({key(v)[0] for v in order}) == 1:
        return None
    sizes, values = [], []
    for k in range(1, min(max_prefix, len(order), n - 1) + 1):
        prefix = [graph.label(v) for v in order[:k]]
        if nx.volume(whole, prefix) and nx.volume(whole, whole.nodes - set(prefix)):
            sizes.append(k)
            values.append(nx.conductance(whole, prefix))
    if not values:
        return None
    best = min(values)
    size = sizes[values.index(best)]
    return frozenset(order[:size]), best


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sweep_cases())
def test_sweep_minimum_against_every_prefix(case):
    graph, edges, scores, max_prefix = case
    result = sweep_cut(graph, scores, max_prefix)
    expected = brute_force_sweep(graph, edges, scores, max_prefix)
    if expected is None:
        assert result is None
    else:
        assert result is not None
        assert (result.members, result.conductance) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(push_cases())
def test_sweep_of_push_scores_against_every_prefix(case):
    graph, edges, seed, alpha, epsilon = case
    scores = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon)).scores
    for max_prefix in (graph.node_count, 3):
        result = sweep_cut(graph, scores, max_prefix)
        expected = brute_force_sweep(graph, edges, scores, max_prefix)
        assert (None if result is None else (result.members, result.conductance)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs(), st.sampled_from([0.15, 0.5]), st.sampled_from([1e-1, 1e-4]))
def test_conductance_matches_networkx(case, alpha, epsilon):
    # every community detection keeps reports the conductance networkx gives its members
    graph, edges = case
    whole = networkx_graph(graph, edges)
    params = DetectParams(alpha=alpha, epsilon=epsilon, min_size=1, max_size=graph.node_count)
    for found in detect_communities(graph, params):
        assert found.conductance == nx.conductance(whole, [graph.label(v) for v in found.community.members])


def reference_detect(graph: Graph, params: DetectParams) -> list[tuple[list[int], str, int]]:
    """Detection with the pairwise reduction: every candidate, equal member sets
    included, tested against every kept community, before refinement and after;
    (members, conductance hex, seed)."""
    thresholds = ppr_thresholds(graph, params.epsilon)
    swept = []
    for seed in reference_seeds(graph):
        scores = approximate_ppr(graph, seed, params.alpha, thresholds).scores
        if not scores:
            continue
        sweep = sweep_cut(graph, scores, params.max_size + 1)
        if sweep is not None and params.min_size <= len(sweep.members) <= params.max_size:
            swept.append((sweep, seed))
    refined = []
    for members, _, seed in reference_reduce(swept):
        result = reference_refine(graph, members, params.max_size)
        if params.min_size <= len(result.members) <= params.max_size:
            refined.append((result, seed))
    return [(sorted(members), conductance.hex(), seed) for members, conductance, seed in reference_reduce(refined)]


def reference_reduce(candidates):
    """Best-first by (conductance, size, sorted members, seed), each candidate dropped
    when its Jaccard overlap with a kept one exceeds 0.5: an equal set is kept
    once, with its lowest seed."""
    ordered = sorted(
        candidates, key=lambda c: (c[0].conductance, len(c[0].members), sorted(c[0].members), c[1])
    )
    kept = []
    for result, seed in ordered:
        if all(reference_jaccard(result.members, members) <= 0.5 for members, _, _ in kept):
            kept.append((result.members, result.conductance, seed))
    return kept


def reference_jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


@st.composite
def detect_cases(draw):
    graph, edges = draw(small_graphs())
    alpha = draw(st.sampled_from([0.05, 0.15, 0.5]))
    epsilon = draw(st.sampled_from([1e-1, 1e-2, 1e-4]))
    max_size = draw(st.integers(1, graph.node_count))
    return graph, edges, DetectParams(alpha=alpha, epsilon=epsilon, min_size=1, max_size=max_size)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(detect_cases())
def test_detection_matches_the_pairwise_reduction(case):
    graph, edges, params = case
    found = detect_communities(graph, params)
    assert [(sorted(d.community.members), d.conductance.hex(), d.seed) for d in found] == reference_detect(
        graph, params
    )
    whole = networkx_graph(graph, edges)
    for d in found:
        assert params.min_size <= len(d.community.members) <= params.max_size
        assert d.connected == nx.is_connected(whole.subgraph(map(graph.label, d.community.members)))


@st.composite
def refine_cases(draw):
    graph, edges = draw(small_graphs())
    members = frozenset(draw(st.sets(st.integers(0, graph.node_count - 1), min_size=1)))
    assume(reference_conductance(graph, members) is not None)
    max_size = draw(st.integers(1, graph.node_count))
    return graph, edges, members, max_size


@settings(max_examples=400, deadline=None, derandomize=True)
@given(refine_cases())
def test_refined_set_is_a_local_minimum(case):
    # no allowed single add or drop lowers the refined set's conductance, computed exactly
    graph, edges, members, max_size = case
    result = refine(graph, members, max_size)
    value = reference_conductance(graph, result.members)
    for _, moved in reference_moves(graph, result.members, max_size):
        other = reference_conductance(graph, moved)
        assert other is None or other >= value
    assert result.conductance == float(value)
    labels = [graph.label(v) for v in result.members]
    assert result.conductance == nx.conductance(networkx_graph(graph, edges), labels)
    assert result == reference_refine(graph, members, max_size)
