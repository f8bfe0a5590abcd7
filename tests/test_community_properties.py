"""Per-community characters against networkx oracles, on random small graphs, planted groups and edge shapes."""

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
from commkit.metrics import CommunityStats
from graphs import k_set, networkx_graph, p_set, planted_partition, two_clique_graph


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


def networkx_stats(whole: nx.Graph, community: Community) -> CommunityStats:
    """The community's statistics, each from networkx on ``whole``, the graph it lives in.

    Distances come from all-pairs BFS lengths, summed as integers and divided
    once as ``community_stats`` does; an unreachable pair counts ``|C|``.
    """
    members = community.member_labels()
    sub = whole.subgraph(members)
    n = len(members)
    lengths = dict(nx.all_pairs_shortest_path_length(sub))
    reachable = [d for u in members for v, d in lengths[u].items() if u < v]
    pairs = math.comb(n, 2)
    unreachable = pairs - len(reachable)
    diameter = max(nx.diameter(sub.subgraph(nodes)) for nodes in nx.connected_components(sub))
    return CommunityStats(
        community_id=community.id,
        size=n,
        apl=sum(reachable) / len(reachable) if reachable else 0.0,
        diameter=diameter,
        apl_penalized=(sum(reachable) + n * unreachable) / pairs if pairs else 0.0,
        diameter_penalized=n if unreachable else diameter,
        ccc=nx.transitivity(sub),
        triangles=sum(nx.triangles(sub).values()) // 3,
        connected_triples=sum(d * (d - 1) // 2 for _, d in sub.degree()),
        component_count=nx.number_connected_components(sub),
        boundary_size=len(nx.node_boundary(whole, members)),
    )


def assert_stats_match_networkx(whole: nx.Graph, community: Community) -> None:
    stats, expected = community_stats(community.split()), networkx_stats(whole, community)
    assert stats._replace(ccc=0.0) == expected._replace(ccc=0.0)
    assert stats.ccc == pytest.approx(expected.ccc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_communities())
def test_community_stats_match_networkx(case):
    graph, edges, community = case
    whole = networkx_graph(graph, edges)
    assert_stats_match_networkx(whole, community)

    member_labels = community.member_labels()
    sub = whole.subgraph(member_labels)
    components = [sub.subgraph(nodes) for nodes in nx.connected_components(sub)]
    pairs = sum(math.comb(len(c), 2) for c in components)
    total = sum(nx.average_shortest_path_length(c) * math.comb(len(c), 2) for c in components)
    assert community_stats(community.split()).apl == pytest.approx(total / pairs if pairs else 0.0)
    assert induced_subgraph(community) == Graph(sub.edges(), extra_nodes=member_labels)


def test_community_stats_match_networkx_on_the_planted_groups():
    # 100-member masks span four 30-bit int digits, which the small graphs above never reach
    edges, groups = planted_partition(seed=1)
    whole = networkx_graph(groups[0].graph, edges)
    assert [c.size for c in groups] == [100] * 20
    for community in groups:
        assert_stats_match_networkx(whole, community)


def shape_edges(shape: str, labels: list[str]) -> list[tuple[str, str]]:
    n, half = len(labels), len(labels) // 2
    pairs = {
        "clique": itertools.combinations(range(n), 2),
        "path": ((i, i + 1) for i in range(n - 1)),
        "cycle": ((i, (i + 1) % n) for i in range(n)),
        "two cliques": (p for p in itertools.combinations(range(n), 2) if (p[0] < half) == (p[1] < half)),
        "isolated": (),
    }[shape]
    return [(labels[i], labels[j]) for i, j in pairs]


@pytest.mark.parametrize("size", [31, 64, 100])
@pytest.mark.parametrize("shape", ["clique", "path", "cycle", "two cliques", "isolated"])
def test_community_stats_match_networkx_on_edge_shapes(shape, size):
    # a clique is full before any round, a path or cycle fills late, two cliques
    # never fill and stop on the round that grows nothing; masks cross 30-bit digits
    members = [f"m{i:03d}" for i in range(size)]
    outside = [f"o{i}" for i in range(5)]
    edges = shape_edges(shape, members) + [(m, outside[i % 5]) for i, m in enumerate(members) if i % 4 == 0]
    edges.append(("o0", "o1"))
    graph = Graph(edges, extra_nodes=members)
    community = Community(shape, frozenset(map(graph.index, members)), graph)
    assert_stats_match_networkx(networkx_graph(graph, edges), community)


def test_community_stats_match_networkx_on_a_single_member():
    edges = [("m", "o0"), ("m", "o1"), ("o0", "o1")]
    graph = Graph(edges)
    community = Community("one", frozenset({graph.index("m")}), graph)
    assert_stats_match_networkx(networkx_graph(graph, edges), community)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_communities())
def test_split_matches_neighbor_queries(case):
    graph, edges, community = case
    whole = networkx_graph(graph, edges)
    member_labels = set(community.member_labels())
    community_id, nodes, inside, masks, outside = community.split()
    assert community_id == community.id
    assert nodes == sorted(community.members)
    for i, v in enumerate(nodes):
        neighbors = set(whole[graph.label(v)])
        assert [nodes[j] for j in inside[i]] == sorted(map(graph.index, neighbors & member_labels))
        assert masks[i] == sum(1 << j for j in inside[i])
        assert outside[i] == sorted(map(graph.index, neighbors - member_labels))


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
        stats = community_stats(community.split())
    assert (stats.triangles, stats.boundary_size) == (10, 1)
    assert k_set(greedy_ids, community, 1).achieved_ratio == 1.0
    assert p_set(greedy_eds, community, 0.8).members == {graph.index("a0")}
    assert random_subset_ratio(community.split(), 1, "internal") == 1.0
    assert random_subset_ratio(community.split(), 1, "external") == pytest.approx(0.2)
