"""The push and the sweep on random small graphs against dense, brute-force and reference-push oracles."""

import itertools
import math

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from commkit import Graph, approximate_ppr, conductance, sweep_cut
from commkit.detect import ppr_thresholds
from test_detect_reference import bits, reference_approximate_ppr


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
    graph, _ = draw(small_graphs())
    seed = draw(st.integers(0, graph.node_count - 1))
    alpha = draw(st.sampled_from([0.05, 0.15, 0.5, 0.9]))
    epsilon = draw(st.sampled_from([1e-1, 1e-2, 1e-4, 1e-6]))
    return graph, seed, alpha, epsilon


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
            degree = graph.degree(u)
            if degree == 0:
                walked[u] += mass
                continue
            walked[u] += mass / 2.0
            for v in graph.neighbors(u):
                walked[v] += mass / (2.0 * degree)
        x = [alpha * s + (1.0 - alpha) * w for s, w in zip(start, walked)]
    return x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(push_cases())
def test_push_invariant_against_dense_solve(case):
    # p + pr(r) = pr(e_seed): what the push has not settled yet is still in r
    graph, seed, alpha, epsilon = case
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
    graph, seed, alpha, epsilon = case
    vector = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon))
    # one entry per node; an untouched or isolated node holds exactly 0
    assert len(vector.residual) == graph.node_count
    for v, r in enumerate(vector.residual):
        assert r == 0.0 or 0.0 < r < epsilon * graph.degree(v)
    assert math.isclose(sum(vector.scores.values()) + sum(vector.residual), 1.0, abs_tol=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(push_cases())
def test_push_matches_the_reference_push_bit_for_bit(case):
    graph, seed, alpha, epsilon = case
    vector = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon))
    expected = reference_approximate_ppr(graph, seed, alpha, epsilon)
    assert bits(vector.scores) == bits(expected.scores)
    assert [r.hex() for r in vector.residual] == [r.hex() for r in expected.residual]


@st.composite
def sweep_cases(draw):
    graph, _ = draw(small_graphs())
    nodes = draw(st.sets(st.integers(0, graph.node_count - 1), min_size=1))
    # a few distinct values, so that score/degree ties are common
    values = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 3.0])
    scores = {v: draw(values) for v in sorted(nodes)}
    if all(x == 0.0 for x in scores.values()):
        scores[min(scores)] = 1.0
    max_prefix = draw(st.none() | st.integers(1, graph.node_count))
    return graph, scores, max_prefix


def brute_force_sweep(graph: Graph, scores: dict[int, float], max_prefix: int | None):
    """Every prefix's conductance by ``conductance()``; None where sweep_cut finds no community."""
    n = graph.node_count

    def key(v):
        degree = graph.degree(v)
        return (-(scores[v] / degree) if degree else -math.inf, v)

    order = sorted(scores, key=key)
    if len(order) == n and len({key(v)[0] for v in order}) == 1:
        return None
    limit = len(order) if max_prefix is None else min(max_prefix, len(order))
    sizes = [k for k in range(1, limit + 1) if k < n]
    values = [conductance(graph, order[:k]) for k in sizes]
    best = min(values, default=math.inf)
    if best == math.inf:
        return None
    size = sizes[values.index(best)]
    truncated = max_prefix is not None and len(order) > max_prefix
    if truncated and size == max_prefix:
        return None
    return frozenset(order[:size]), best


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sweep_cases())
def test_sweep_minimum_against_every_prefix(case):
    graph, scores, max_prefix = case
    result = sweep_cut(graph, scores, max_prefix=max_prefix)
    expected = brute_force_sweep(graph, scores, max_prefix)
    if expected is None:
        assert result is None
    else:
        assert result is not None
        assert (result.members, result.conductance) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(push_cases())
def test_sweep_of_push_scores_against_every_prefix(case):
    graph, seed, alpha, epsilon = case
    scores = approximate_ppr(graph, seed, alpha, ppr_thresholds(graph, epsilon)).scores
    for max_prefix in (None, 3):
        result = sweep_cut(graph, scores, max_prefix=max_prefix)
        expected = brute_force_sweep(graph, scores, max_prefix)
        assert (None if result is None else (result.members, result.conductance)) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_graphs(), st.data())
def test_conductance_matches_networkx(case, data):
    graph, edges = case
    members = data.draw(st.sets(st.sampled_from(graph.labels), min_size=1))
    whole = nx.Graph(edges)
    whole.add_nodes_from(graph.labels)
    ours = conductance(graph, frozenset(map(graph.index, members)))
    try:
        expected = nx.conductance(whole, members)
    except ZeroDivisionError:  # one side has no volume
        expected = math.inf
    assert ours == expected
