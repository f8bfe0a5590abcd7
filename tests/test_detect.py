import pytest

from commkit import Graph, approximate_ppr, conductance, detect_communities, sweep_cut
from commkit.detect import DetectParams
from commkit.errors import ConfigError
from graphs import clique_graph, two_clique_graph


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
    with pytest.raises(ConfigError):
        DetectParams(overlap_jaccard_max=1.5)
    with pytest.raises(ConfigError):
        DetectParams(seed_strategy="nonsense")


def test_ppr_isolated_seed_keeps_all_mass():
    g = Graph([("a", "b")], extra_nodes=["c"])
    vector = approximate_ppr(g, g.index("c"), alpha=0.15, epsilon=1e-4)
    assert vector.scores == {g.index("c"): 1.0}


def test_ppr_support_stays_in_seed_component():
    g = Graph([("a", "b"), ("b", "c"), ("x", "y")])
    vector = approximate_ppr(g, g.index("a"), alpha=0.15, epsilon=1e-4)
    component = {g.index(l) for l in ("a", "b", "c")}
    assert set(vector.scores) <= component
    assert set(vector.residual) <= component


def test_ppr_residual_bound_holds():
    g = two_clique_graph()
    vector = approximate_ppr(g, g.index("a0"), alpha=0.15, epsilon=1e-4)
    for v, r in vector.residual.items():
        assert r < 1e-4 * g.degree(v)


def test_ppr_k5_matches_power_iteration_oracle():
    # lazy-walk stationary solution on K5: seed 41/109, each other node 17/109
    g = clique_graph(5)
    seed = g.index("v0")
    vector = approximate_ppr(g, seed, alpha=0.15, epsilon=1e-4)
    # total pushed error is bounded by the residual volume: eps * vol(G)
    tolerance = 1e-4 * 2 * g.edge_count
    for v in g.nodes():
        oracle = 41 / 109 if v == seed else 17 / 109
        assert vector.scores.get(v, 0.0) == pytest.approx(oracle, abs=tolerance)
    assert sum(vector.scores.values()) <= 1.0 + 1e-12


def test_ppr_seed_out_of_range():
    g = clique_graph(3)
    with pytest.raises(ConfigError):
        approximate_ppr(g, 99, alpha=0.15, epsilon=1e-4)


def test_conductance_two_clique_side():
    g = two_clique_graph()
    side = frozenset(g.index(f"a{i}") for i in range(5))
    assert conductance(g, side) == pytest.approx(1 / 21)


def test_conductance_whole_graph_is_infinite():
    g = clique_graph(4)
    assert conductance(g, frozenset(g.nodes())) == float("inf")


def test_sweep_cut_two_cliques_returns_seed_side():
    g = two_clique_graph()
    vector = approximate_ppr(g, g.index("a1"), alpha=0.15, epsilon=1e-4)
    result = sweep_cut(g, vector.scores)
    assert result is not None
    assert result.members == frozenset(g.index(f"a{i}") for i in range(5))
    assert result.conductance == pytest.approx(1 / 21)
    assert result.connected


def test_sweep_cut_concentrated_scores_pick_component():
    g = Graph([("a", "b"), ("x", "y"), ("y", "z")])
    scores = {g.index("a"): 0.6, g.index("b"): 0.4}
    result = sweep_cut(g, scores)
    assert result is not None
    assert result.members == {g.index("a"), g.index("b")}
    assert result.conductance == 0.0


def test_sweep_cut_uniform_whole_graph_is_degenerate():
    g = clique_graph(4)
    scores = {v: 0.25 for v in g.nodes()}
    assert sweep_cut(g, scores) is None


def test_sweep_cut_rejects_empty_or_zero_scores():
    g = clique_graph(3)
    with pytest.raises(ConfigError):
        sweep_cut(g, {})
    with pytest.raises(ConfigError):
        sweep_cut(g, {0: 0.0, 1: 0.0})


def test_sweep_cut_minimum_on_window_edge_is_rejected():
    # path scores decrease along the line, so every prefix conductance keeps
    # falling; truncating mid-slope must not fabricate a community
    g = Graph([(f"v{i}", f"v{i + 1}") for i in range(9)])
    scores = {
        g.index(f"v{i}"): g.degree(g.index(f"v{i}")) * (1.0 - 0.05 * i)
        for i in range(10)
    }
    assert sweep_cut(g, scores, max_prefix=4) is None
    full = sweep_cut(g, scores)
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
    for d in detect_communities(g, DetectParams(min_size=3, max_size=10)):
        assert d.conductance == pytest.approx(conductance(g, d.community.members))
        assert d.connected


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


def test_detect_random_sample_seeding_is_seeded():
    g = two_clique_graph()
    params = DetectParams(min_size=3, max_size=10, seed_strategy="random-sample", sample_size=4, rng_seed=9)
    assert detect_communities(g, params) == detect_communities(g, params)


def test_detect_provided_seeds():
    g = two_clique_graph()
    params = DetectParams(min_size=3, max_size=10, seed_strategy="provided", seeds=(g.index("a0"),))
    found = detect_communities(g, params)
    assert len(found) == 1
    assert found[0].community.members == frozenset(g.index(f"a{i}") for i in range(5))


def test_detect_provided_seed_out_of_range():
    g = clique_graph(4)
    params = DetectParams(min_size=1, max_size=4, seed_strategy="provided", seeds=(99,))
    with pytest.raises(ConfigError):
        detect_communities(g, params)
