import tracemalloc

import networkx as nx
import pytest

from commkit import Graph, approximate_ppr, detect, detect_communities, load_graph, sweep_cut
from commkit.detect import DetectParams, SweepResult, ppr_thresholds
from commkit.errors import ConfigError
from graphs import TWO_CLIQUE_EDGES, clique_graph, planted_partition, two_clique_graph, write_input


def test_params_validation():
    with pytest.raises(ConfigError):
        DetectParams(alpha=0.0)
    with pytest.raises(ConfigError):
        DetectParams(alpha=1.0)
    with pytest.raises(ConfigError):
        DetectParams(epsilon=0.0)
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError):
            DetectParams(epsilon=float(value))
    with pytest.raises(ConfigError):
        DetectParams(min_size=5, max_size=4)


def test_ppr_isolated_seed_keeps_all_mass():
    g = Graph([("a", "b")], extra_nodes=["c"])
    vector = approximate_ppr(g, g.index("c"), alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))
    assert vector.scores == {g.index("c"): 1.0}
    assert vector.residual == [0.0] * g.node_count


def test_ppr_support_stays_in_seed_component():
    g = Graph([("a", "b"), ("b", "c"), ("x", "y")])
    vector = approximate_ppr(g, g.index("a"), alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))
    component = {g.index(l) for l in ("a", "b", "c")}
    assert set(vector.scores) <= component
    assert len(vector.residual) == g.node_count
    assert {v for v, r in enumerate(vector.residual) if r != 0.0} <= component


def test_ppr_residual_bound_holds():
    g = two_clique_graph()
    vector = approximate_ppr(g, g.index("a0"), alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))
    assert len(vector.residual) == g.node_count
    for v, r in enumerate(vector.residual):
        assert 0.0 <= r < 1e-4 * g.degrees[v]


def test_ppr_k5_matches_power_iteration_oracle():
    # lazy-walk stationary solution on K5: seed 41/109, each other node 17/109
    g = clique_graph(5)
    seed = g.index("v0")
    vector = approximate_ppr(g, seed, alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))
    # total pushed error is bounded by the residual volume: eps * vol(G)
    tolerance = 1e-4 * 2 * g.edge_count
    for v in range(g.node_count):
        oracle = 41 / 109 if v == seed else 17 / 109
        assert vector.scores.get(v, 0.0) == pytest.approx(oracle, abs=tolerance)
    assert sum(vector.scores.values()) <= 1.0 + 1e-12


def test_ppr_seed_out_of_range():
    g = clique_graph(3)
    with pytest.raises(ConfigError):
        approximate_ppr(g, 99, alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))


def test_ppr_thresholds_are_epsilon_times_degree():
    g = Graph([("a", "b"), ("b", "c")], extra_nodes=["d"])
    assert ppr_thresholds(g, 0.25) == [0.25, 0.5, 0.25, 0.0]  # degrees of a, b, c, d


@pytest.mark.parametrize("epsilon", [0.0, -1e-4, float("nan"), float("inf")])
def test_ppr_thresholds_reject_bad_epsilon(epsilon):
    # a zero or negative threshold would keep the push running forever
    with pytest.raises(ConfigError) as caught:
        ppr_thresholds(clique_graph(3), epsilon)
    with pytest.raises(ConfigError) as params:
        DetectParams(epsilon=epsilon)
    assert str(caught.value) == str(params.value)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, float("nan")])
def test_ppr_rejects_alpha_outside_the_unit_interval(alpha):
    g = clique_graph(3)
    with pytest.raises(ConfigError) as caught:
        approximate_ppr(g, 0, alpha, ppr_thresholds(g, 1e-4))
    with pytest.raises(ConfigError) as params:
        DetectParams(alpha=alpha)
    assert str(caught.value) == str(params.value)


def test_ppr_rejects_a_threshold_list_of_the_wrong_length():
    g = clique_graph(3)
    with pytest.raises(ConfigError, match="one threshold per node"):
        approximate_ppr(g, 0, 0.15, ppr_thresholds(clique_graph(4), 1e-4))


@pytest.mark.parametrize("threshold", [0.0, -1e-4, float("nan")])
def test_ppr_rejects_a_seed_threshold_that_is_not_positive(threshold):
    # with a zero threshold the seed would re-enqueue itself forever
    g = clique_graph(3)
    with pytest.raises(ConfigError, match="seed's threshold"):
        approximate_ppr(g, 0, 0.15, [threshold, 1e-4, 1e-4])


def test_ppr_ends_on_a_list_with_non_positive_neighbor_thresholds():
    g = clique_graph(3)
    vector = approximate_ppr(g, 0, 0.15, [1e-4, 0.0, -1.0])
    assert list(vector.scores) == [0]  # no neighbor crosses its threshold


def test_conductance_two_clique_side():
    # the sweep from every seed of a clique cuts that clique, at networkx's conductance
    g = two_clique_graph()
    side = {f"a{i}" for i in range(5)}
    expected = nx.conductance(nx.Graph(TWO_CLIQUE_EDGES), side)
    assert expected == 1 / 21
    thresholds = ppr_thresholds(g, 1e-4)
    for label in sorted(side):
        result = sweep_cut(g, approximate_ppr(g, g.index(label), 0.15, thresholds).scores, g.node_count)
        assert {g.label(v) for v in result.members} == side
        assert result.conductance == expected


def test_sweep_cut_two_cliques_returns_seed_side():
    g = two_clique_graph()
    vector = approximate_ppr(g, g.index("a1"), alpha=0.15, thresholds=ppr_thresholds(g, 1e-4))
    result = sweep_cut(g, vector.scores, g.node_count)
    assert result is not None
    assert result.members == frozenset(g.index(f"a{i}") for i in range(5))
    assert result.conductance == pytest.approx(1 / 21)
    assert nx.is_connected(nx.Graph(TWO_CLIQUE_EDGES).subgraph(g.label(v) for v in result.members))


def test_sweep_cut_concentrated_scores_pick_component():
    g = Graph([("a", "b"), ("x", "y"), ("y", "z")])
    scores = {g.index("a"): 0.6, g.index("b"): 0.4}
    result = sweep_cut(g, scores, g.node_count)
    assert result is not None
    assert result.members == {g.index("a"), g.index("b")}
    assert result.conductance == 0.0


def test_sweep_cut_uniform_whole_graph_is_degenerate():
    g = clique_graph(4)
    scores = {v: 0.25 for v in range(g.node_count)}
    assert sweep_cut(g, scores, g.node_count) is None


def test_sweep_cut_rejects_empty_or_zero_scores():
    g = clique_graph(3)
    with pytest.raises(ConfigError):
        sweep_cut(g, {}, g.node_count)
    with pytest.raises(ConfigError):
        sweep_cut(g, {0: 0.0, 1: 0.0}, g.node_count)


@pytest.mark.parametrize("max_prefix", [0, -1])
def test_sweep_cut_rejects_a_window_below_one(max_prefix):
    # a negative window would slice the ordering from its end
    g = clique_graph(3)
    with pytest.raises(ConfigError, match=f"max_prefix >= 1, got {max_prefix}"):
        sweep_cut(g, {0: 1.0}, max_prefix)


def test_sweep_cut_minimum_on_window_edge_is_rejected():
    # path scores decrease along the line, so every prefix conductance keeps
    # falling; truncating mid-slope must not fabricate a community
    g = Graph([(f"v{i}", f"v{i + 1}") for i in range(9)])
    scores = {
        g.index(f"v{i}"): g.degrees[g.index(f"v{i}")] * (1.0 - 0.05 * i)
        for i in range(10)
    }
    assert sweep_cut(g, scores, max_prefix=4) is None
    full = sweep_cut(g, scores, g.node_count)
    assert full is not None


def test_detect_two_cliques_exactly():
    g = two_clique_graph()
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    members = sorted(sorted(g.label(v) for v in d.community.members) for d in found)
    assert members == [
        ["a0", "a1", "a2", "a3", "a4"],
        ["b0", "b1", "b2", "b3", "b4"],
    ]
    for d in found:
        assert d.conductance == pytest.approx(1 / 21)


def test_detect_reports_verifiable_conductance_and_connectivity():
    g = two_clique_graph()
    whole = nx.Graph(TWO_CLIQUE_EDGES)
    for d in detect_communities(g, DetectParams(min_size=3, max_size=10)):
        assert d.conductance == nx.conductance(whole, d.community.member_labels())
        assert d.connected


def test_detect_reports_the_lowest_seed_of_a_set():
    # every node of a clique sweeps to that clique; b0 is the lowest b-seed but not node 0
    g = two_clique_graph()
    thresholds = ppr_thresholds(g, 1e-4)
    seeds_of: dict[frozenset[int], list[int]] = {}
    for seed in range(g.node_count):
        members = sweep_cut(g, approximate_ppr(g, seed, 0.15, thresholds).scores, 10).members
        seeds_of.setdefault(members, []).append(seed)
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    assert [len(seeds_of[d.community.members]) for d in found] == [5, 5]
    assert sorted(g.label(d.seed) for d in found) == ["a0", "b0"]
    for d in found:
        assert d.seed == min(seeds_of[d.community.members])


def test_detect_checks_connectivity_of_kept_communities(monkeypatch):
    # every seed sweeps to one set that straddles the bridge without using it
    g = two_clique_graph()
    split = frozenset(g.index(label) for label in ("a1", "a2", "b1", "b2"))
    monkeypatch.setattr(detect, "sweep_cut", lambda graph, scores, max_prefix: SweepResult(split, 0.5))
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    assert [(d.community.members, d.connected, d.seed) for d in found] == [(split, False, 0)]


def test_detect_is_deterministic():
    g = two_clique_graph()
    params = DetectParams(min_size=3, max_size=10)
    first = detect_communities(g, params)
    second = detect_communities(g, params)
    assert [d.community.members for d in first] == [d.community.members for d in second]
    assert [d.conductance for d in first] == [d.conductance for d in second]


def test_detect_empty_result_when_filters_exclude_everything():
    g = two_clique_graph()
    found = detect_communities(g, DetectParams(min_size=7, max_size=9))
    assert found == []


def test_detection_peak_stays_a_small_multiple_of_the_graph(tmp_path):
    # A member set kept per candidate put detection's traced peak at about 71x the
    # graph's retained size on this 200-node graph; a sorted tuple per candidate and one
    # set per kept community put it at about 22x (Python 3.11).
    edges, _ = planted_partition(seed=1, group_count=2)
    path = write_input(tmp_path, "".join(f"{a} {b}\n" for a, b in edges))
    load_graph(path)  # the first load also imports the decoder, which the graph does not hold
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = load_graph(path)
        retained = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        detected = detect_communities(graph, DetectParams(epsilon=3e-4))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert detected
    assert peak < 40 * retained, f"detection peaked at {peak / retained:.1f}x the graph"
