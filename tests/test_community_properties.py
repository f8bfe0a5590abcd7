"""Per-community characters on random small graphs against networkx oracles."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commkit import (
    Community,
    Graph,
    community_stats,
    greedy_eds,
    greedy_ids,
    induced_subgraph,
    random_subset_ratio,
)
from graphs import networkx_graph, two_clique_graph


@st.composite
def graphs_with_communities(draw):
    """A graph on 2..9 nodes (isolated nodes kept) and a proper member subset."""
    n = draw(st.integers(2, 9))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    graph = Graph(edges, extra_nodes=labels)
    members = draw(st.sets(st.sampled_from(labels), min_size=1, max_size=n - 1))
    return graph, edges, Community("c", frozenset(map(graph.index, members)), graph)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_communities())
def test_community_stats_match_networkx(case):
    graph, edges, community = case
    whole = networkx_graph(graph, edges)
    member_labels = community.member_labels()
    sub = whole.subgraph(member_labels)
    stats = community_stats(community)

    assert stats.size == len(member_labels)
    assert stats.triangles == sum(nx.triangles(sub).values()) // 3
    assert stats.ccc == pytest.approx(nx.transitivity(sub))
    components = [sub.subgraph(nodes) for nodes in nx.connected_components(sub)]
    assert stats.component_count == len(components)
    pairs = sum(math.comb(len(c), 2) for c in components)
    total = sum(nx.average_shortest_path_length(c) * math.comb(len(c), 2) for c in components)
    assert stats.apl == pytest.approx(total / pairs if pairs else 0.0)
    assert stats.diameter == max(nx.diameter(c) for c in components)
    assert stats.boundary_size == len(nx.node_boundary(whole, member_labels))
    assert induced_subgraph(community) == Graph(sub.edges(), extra_nodes=member_labels)

    n = len(member_labels)
    lengths = dict(nx.all_pairs_shortest_path_length(sub))
    reachable = [d for u in member_labels for v, d in lengths[u].items() if u < v]
    unreachable = math.comb(n, 2) - len(reachable)
    assert stats.apl == (sum(reachable) / len(reachable) if reachable else 0.0)
    penalized_sum = sum(reachable) + n * unreachable
    assert stats.apl_penalized == (penalized_sum / math.comb(n, 2) if n > 1 else 0.0)
    assert stats.diameter_penalized == (n if unreachable else max(reachable, default=0))
    assert stats.connected_triples == sum(d * (d - 1) // 2 for _, d in sub.degree())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_communities())
def test_cached_split_matches_neighbor_queries(case):
    graph, edges, community = case
    whole = networkx_graph(graph, edges)
    member_labels = set(community.member_labels())
    assert list(community.adjacency) == sorted(community.members)
    for v, (inside, outside) in community.adjacency.items():
        neighbors = set(whole[graph.label(v)])
        assert list(inside) == sorted(map(graph.index, neighbors & member_labels))
        assert list(outside) == sorted(map(graph.index, neighbors - member_labels))


def test_per_community_paths_never_scan_the_whole_graph(monkeypatch):
    graph = two_clique_graph()
    community = Community("a", frozenset(graph.index(f"a{i}") for i in range(5)), graph)
    rows = graph.adjacency

    class MemberRows:
        """The graph's adjacency, readable at the community's members only."""

        def __getitem__(self, v):
            assert v in community.members, f"per-community code read the neighbors of non-member {v}"
            return rows[v]

    def scan(self):
        raise AssertionError("per-community code read the degree of every node")

    def build(self, *args, **kwargs):
        raise AssertionError("community_stats built a Graph")

    monkeypatch.setattr(Graph, "adjacency", property(lambda self: MemberRows()))
    monkeypatch.setattr(Graph, "degrees", property(scan))
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "__init__", build)
        stats = community_stats(community)
    assert (stats.triangles, stats.boundary_size) == (10, 1)
    assert greedy_ids(community, k=1).achieved_ratio == 1.0
    assert greedy_eds(community, p=0.8).members == {graph.index("a0")}
    assert random_subset_ratio(community, 1, "internal") == 1.0
    assert random_subset_ratio(community, 1, "external") == pytest.approx(0.2)
