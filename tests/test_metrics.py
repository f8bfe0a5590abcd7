import random

import pytest

import commkit.pipeline
from commkit import (
    Community,
    Graph,
    RunConfig,
    aggregate_stats,
    clustering_coefficient,
    community_stats,
    run_pipeline,
    triangle_split_analysis,
)
from commkit.errors import ConfigError
from commkit.metrics import CommunityStats
from commkit.slopes import SlopeResult
from commkit.domsets import DomSetResult
from graphs import DATA_DIR, clique_graph, fastest, path_graph, star_graph, whole_community


def test_apl_path_of_three():
    stats = community_stats(whole_community(path_graph(3)).split())
    assert stats.apl == pytest.approx(4 / 3)
    assert stats.component_count == 1


def test_apl_clique_is_one():
    assert community_stats(whole_community(clique_graph(5)).split()).apl == 1.0


def test_apl_singleton_is_zero():
    g = Graph([("a", "b")])
    stats = community_stats(Community("one", frozenset({g.index("a")}), g).split())
    assert (stats.apl, stats.component_count) == (0.0, 1)


def test_apl_two_disjoint_edges():
    g = Graph([("a", "b"), ("c", "d")])
    stats = community_stats(Community("both", frozenset(range(g.node_count)), g).split())
    assert stats.apl == 1.0  # reachable pairs only
    assert stats.component_count == 2


def test_diameter_cases():
    assert community_stats(whole_community(path_graph(4)).split()).diameter == 3
    assert community_stats(whole_community(clique_graph(5)).split()).diameter == 1
    g = Graph([("a", "b")])
    assert community_stats(Community("one", frozenset({0}), g).split()).diameter == 0


def test_clustering_coefficient_cases():
    assert clustering_coefficient(clique_graph(3)) == 1.0
    assert clustering_coefficient(star_graph(5)) == 0.0


def test_community_stats_penalized_distances():
    # two disjoint edges: 2 reachable pairs at distance 1, 4 unreachable
    # pairs charged |C| = 4 each
    g = Graph([("a", "b"), ("c", "d")])
    c = Community("both", frozenset(range(g.node_count)), g)
    stats = community_stats(c.split())
    assert stats.apl == 1.0
    assert stats.diameter == 1
    assert stats.apl_penalized == pytest.approx((2 * 1 + 4 * 4) / 6)
    assert stats.diameter_penalized == 4
    assert stats.component_count == 2


def test_community_stats_connected_community():
    g = path_graph(4)
    stats = community_stats(whole_community(g).split())
    assert stats.apl == stats.apl_penalized
    assert stats.diameter == stats.diameter_penalized == 3
    assert stats.component_count == 1
    assert stats.ccc == 0.0
    assert stats.boundary_size == 0


def test_community_stats_boundary_size(core_community):
    assert community_stats(core_community.split()).boundary_size == 3


def test_community_stats_caches_no_split(tmp_path, monkeypatch):
    # the domsets, slopes, metrics and report stages all read splits; no community keeps one
    original, loaded = commkit.pipeline.load_communities, []

    def load(*args):
        loaded.extend(original(*args))
        return loaded

    monkeypatch.setattr(commkit.pipeline, "load_communities", load)
    data = DATA_DIR / "football"
    config = RunConfig(
        graph_path=str(data / "football.edges"),
        communities_path=str(data / "football.conferences"),
        out_dir=str(tmp_path),
    )
    assert run_pipeline(config, "all") is not None
    assert len(loaded) == 12
    for community in loaded:
        assert set(vars(community)) == {"id", "members", "graph"}


def test_stats_invariants_on_random_communities():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(3, 12)
        edges = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if not edges:
            continue
        g = Graph(edges)
        stats = community_stats(whole_community(g).split())
        assert 0.0 <= stats.ccc <= 1.0
        assert stats.diameter <= stats.size - 1
        if stats.component_count == 1 and stats.size > 1:
            assert stats.apl <= stats.diameter
        assert stats.apl <= stats.apl_penalized
        assert stats.diameter <= stats.diameter_penalized


def test_transitivity_of_induced_whole_graph_matches():
    rng = random.Random(5)
    labels = [f"v{i}" for i in range(12)]
    sparse = Graph([(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :] if rng.random() < 0.3])
    for g in (clique_graph(4), star_graph(5), path_graph(4), sparse):
        assert community_stats(whole_community(g).split()).ccc == clustering_coefficient(g)


def test_community_stats_on_a_long_path_grows_below_the_cubic_rate():
    # a path's reach sets take |C| - 1 rounds of ORs over |C|-bit ints, about |C|^2.5 work:
    # doubling the path costs about 5 times, and a cubic cliff would cost 8
    short, long = (whole_community(path_graph(n)) for n in (500, 1000))
    assert community_stats(long.split()).diameter == 999
    assert fastest(lambda: community_stats(long.split())) < 8 * fastest(lambda: community_stats(short.split()))


def _stats(community_id, ccc, triangles, apl=1.0, size=5):
    return CommunityStats(
        community_id=community_id,
        size=size,
        apl=apl,
        diameter=2,
        apl_penalized=apl,
        diameter_penalized=2,
        ccc=ccc,
        triangles=triangles,
        connected_triples=max(3 * triangles, 1),
        component_count=1,
        boundary_size=1,
    )


def test_triangle_split_partitions_by_threshold():
    stats = [_stats("a", 0.9, 100), _stats("b", 0.8, 80), _stats("c", 0.1, 2)]
    split = triangle_split_analysis(stats, 0.5)
    assert split.above_count == 2
    assert split.above_mean_triangles == pytest.approx(90.0)
    assert split.below_count == 1
    assert split.below_mean_triangles == pytest.approx(2.0)


def test_triangle_split_empty_group_flagged():
    stats = [_stats("a", 0.9, 10), _stats("b", 0.9, 10)]
    split = triangle_split_analysis(stats, 0.0)
    assert split.below_empty
    assert split.below_mean_triangles == 0.0
    assert not split.above_empty


def test_triangle_split_identical_communities():
    stats = [_stats("a", 0.5, 7), _stats("b", 0.5, 7)]
    split = triangle_split_analysis(stats, 0.5)
    assert split.above_empty  # 0.5 is not > 0.5
    assert split.below_count == 2
    assert split.below_mean_triangles == 7.0


def test_triangle_split_threshold_validation():
    with pytest.raises(ConfigError):
        triangle_split_analysis([], 1.5)


def _domset(community_id, mode, criterion, ratio, size, closed=False):
    return DomSetResult(
        community_id=community_id,
        mode=mode,
        criterion=criterion,
        criterion_value=5 if criterion == "k" else 0.8,
        members=frozenset(range(size)),
        achieved_ratio=None if closed else ratio,
        closed=closed,
    )


def _slope(community_id, kind, slope, closed=False):
    return SlopeResult(
        community_id=community_id,
        kind=kind,
        K=0 if closed else 1,
        observed_ratio=None if closed else 1.0,
        expected_ratio=None if closed else 1.0 - slope,
        slope=None if closed else slope,
        closed=closed,
    )


def _domset_pairs(rows):
    """Internal and external (k-set, p-set) pairs of each (id, IDR, EDR, closed) row."""
    internal = [
        (_domset(cid, "internal", "k", idr_v, 5), _domset(cid, "internal", "p", 0.9, 2)) for cid, idr_v, *_ in rows
    ]
    external = [
        (_domset(cid, "external", "k", edr_v, 5, closed=closed), _domset(cid, "external", "p", 0.9, 2, closed=closed))
        for cid, _, edr_v, closed in rows
    ]
    return internal, external


def test_aggregate_single_community_equals_its_stats():
    g = clique_graph(4)
    stats = [community_stats(whole_community(g).split())]
    internal, external = _domset_pairs([("all", 1.0, None, True)])
    slope_pairs = [(_slope("all", "internal", 0.0), _slope("all", "external", None, closed=True))]
    summary = aggregate_stats(g, stats, internal, external, slope_pairs)
    assert summary.community_count == 1
    assert summary.mean_apl == stats[0].apl
    assert summary.mean_ccc == stats[0].ccc
    assert summary.mean_idr == 1.0
    assert summary.mean_edr is None  # the only community is closed
    assert summary.mean_eslope is None
    assert summary.ncc == clustering_coefficient(g)


def _two_communities():
    stats = [_stats("a", 0.4, 3, apl=1.0), _stats("b", 0.6, 5, apl=2.0)]
    internal, external = _domset_pairs([("a", 0.9, 0.5, False), ("b", 0.7, 0.7, False)])
    slope_pairs = [
        (_slope("a", "internal", 0.1), _slope("a", "external", 0.2)),
        (_slope("b", "internal", 0.3), _slope("b", "external", 0.4)),
    ]
    return stats, internal, external, slope_pairs


def test_aggregate_means_two_communities():
    summary = aggregate_stats(clique_graph(4), *_two_communities())
    assert summary.mean_apl == pytest.approx(1.5)
    assert summary.mean_idr == pytest.approx(0.8)
    assert summary.mean_edr == pytest.approx(0.6)
    assert summary.mean_islope == pytest.approx(0.2)
    assert summary.mean_eslope == pytest.approx(0.3)


def test_aggregate_order_invariant():
    g = clique_graph(4)
    lists = _two_communities()
    assert aggregate_stats(g, *lists) == aggregate_stats(g, *(records[::-1] for records in lists))


def test_aggregate_empty_is_an_error():
    g = clique_graph(3)
    with pytest.raises(ConfigError):
        aggregate_stats(g, [], [], [], [])
