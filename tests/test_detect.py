import tracemalloc

import networkx as nx
import pytest

from commkit import Graph, approximate_ppr, detect, detect_communities, load_graph, sweep_cut
from commkit.detect import DetectParams, SweepResult, ppr_thresholds, refine
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


def test_sweep_cut_keeps_a_minimum_on_the_last_prefix():
    # path scores decrease along the line, so every prefix conductance keeps
    # falling: the window's last prefix is its minimum, and sizing it is the
    # caller's size filter's job
    g = Graph([(f"v{i}", f"v{i + 1}") for i in range(9)])
    scores = {
        g.index(f"v{i}"): g.degrees[g.index(f"v{i}")] * (1.0 - 0.05 * i)
        for i in range(10)
    }
    assert sweep_cut(g, scores, max_prefix=4) == SweepResult(
        frozenset(g.index(f"v{i}") for i in range(4)), 1 / 7
    )
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
        assert d.conductance == nx.conductance(whole, [g.label(v) for v in d.community.members])
        assert d.connected


def octahedra_graph() -> Graph:
    """Two octahedra (K6 minus a perfect matching) joined by the bridge a0-b5.

    The spread seeds are a0 and a1 (a1 is a0's one non-neighbor) and b0 and b1:
    b5 has degree 5 but touches a0, so it is never a seed.
    """
    missing = {frozenset((0, 1)), frozenset((2, 3)), frozenset((4, 5))}
    edges = [
        (f"{prefix}{i}", f"{prefix}{j}")
        for prefix in ("a", "b")
        for i in range(6)
        for j in range(i + 1, 6)
        if frozenset((i, j)) not in missing
    ]
    return Graph([*edges, ("a0", "b5")])


def test_detect_reports_the_lowest_seed_of_a_set(monkeypatch):
    # two seeds of each octahedron sweep to it; the set is reported once, with the lower seed
    g = octahedra_graph()
    thresholds = ppr_thresholds(g, 1e-4)
    pushed: list[int] = []

    def recorded(graph, seed, alpha, thresholds):
        pushed.append(seed)
        return approximate_ppr(graph, seed, alpha, thresholds)

    monkeypatch.setattr(detect, "approximate_ppr", recorded)
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    assert [g.label(v) for v in pushed] == ["a0", "a1", "b0", "b1"]  # (-degree, index) order
    seeds_of: dict[frozenset[int], list[int]] = {}
    for seed in pushed:
        members = sweep_cut(g, approximate_ppr(g, seed, 0.15, thresholds).scores, 11).members
        seeds_of.setdefault(members, []).append(seed)
    assert [len(seeds_of[d.community.members]) for d in found] == [2, 2]
    assert sorted(g.label(d.seed) for d in found) == ["a0", "b0"]
    for d in found:
        assert d.seed == min(seeds_of[d.community.members])


def test_detect_does_not_depend_on_the_push_order(monkeypatch):
    # pushing the spread seeds in reverse reports the same sets, conductances and seeds:
    # a0 and b0, not a1 and b1, whose sweeps give the same octahedra
    g, params = octahedra_graph(), DetectParams(min_size=3, max_size=10)

    def reported(found):
        return [(d.community.members, d.conductance.hex(), d.seed) for d in found]

    forward = reported(detect_communities(g, params))
    spread = detect._spread_seeds
    monkeypatch.setattr(detect, "_spread_seeds", lambda graph: spread(graph)[::-1])
    assert reported(detect_communities(g, params)) == forward


def test_detect_keeps_a_refined_set_once_with_the_lowest_kept_seed(monkeypatch):
    # refinement maps every kept sweep to one set, which the second pass keeps once,
    # with the lowest seed of the kept sweeps, not the seed of the best of them
    _, g, groups = planted_partition(seed=1)
    params = DetectParams()
    monkeypatch.setattr(detect, "refine", lambda graph, members, max_size: SweepResult(frozenset(members), 0.0))
    seed_of = {d.community.members: d.seed for d in detect_communities(g, params)}
    fixed = groups[0].members
    given: list[frozenset[int]] = []

    def to_fixed(graph, members, max_size):
        given.append(frozenset(members))
        return SweepResult(fixed, 0.25)

    monkeypatch.setattr(detect, "refine", to_fixed)
    found = detect_communities(g, params)
    assert sorted(given, key=sorted) == sorted(seed_of, key=sorted)  # each kept sweep refined once
    assert seed_of[given[0]] != min(seed_of.values())  # the best kept sweep has a higher seed
    assert [(d.community.members, d.conductance, d.seed) for d in found] == [(fixed, 0.25, min(seed_of.values()))]


def test_detect_checks_connectivity_of_kept_communities(monkeypatch):
    # every seed sweeps to two triangles with no edge between them or out of them: at
    # conductance 0 no move improves the set, so refinement keeps it as it is
    g = Graph(
        [("x0", "x1"), ("x1", "x2"), ("x0", "x2"), ("y0", "y1"), ("y1", "y2"), ("y0", "y2")]
        + [(f"z{i}", f"z{j}") for i in range(4) for j in range(i + 1, 4)]
    )
    split = frozenset(g.index(label) for label in ("x0", "x1", "x2", "y0", "y1", "y2"))
    monkeypatch.setattr(detect, "sweep_cut", lambda graph, scores, max_prefix: SweepResult(split, 0.0))
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    assert [(d.community.members, d.conductance, d.connected, d.seed) for d in found] == [
        (split, 0.0, False, g.index("x0"))
    ]


def test_detect_keeps_communities_of_exactly_max_size():
    # the sweep's window runs one prefix past max_size, so a 5-clique is kept at max_size 5
    g = two_clique_graph()
    found = detect_communities(g, DetectParams(min_size=3, max_size=5))
    assert sorted(sorted(g.label(v) for v in d.community.members) for d in found) == [
        [f"a{i}" for i in range(5)],
        [f"b{i}" for i in range(5)],
    ]


@pytest.mark.parametrize("max_size, kept", [(5, 0), (6, 0), (7, 0), (8, 2)])
def test_detect_drops_sweeps_that_still_fall_past_max_size(max_size, kept):
    # two 8-cliques joined by a0-b0: below 8 every seed's sweep still falls one
    # prefix past max_size, and the size filter drops that set
    g = Graph(
        [(f"{prefix}{i}", f"{prefix}{j}") for prefix in ("a", "b") for i in range(8) for j in range(i + 1, 8)]
        + [("a0", "b0")]
    )
    found = detect_communities(g, DetectParams(min_size=3, max_size=max_size))
    assert sorted(sorted(g.label(v) for v in d.community.members) for d in found) == [
        [f"{prefix}{i}" for i in range(8)] for prefix in ("a", "b")
    ][:kept]


def test_detect_pushes_only_from_a_maximal_independent_set(monkeypatch):
    # degree order leaves 359 of the 2000 nodes of the 2k fixture as seeds
    _, g, _ = planted_partition(seed=1)
    pushed: list[int] = []

    def counted(graph, seed, alpha, thresholds):
        pushed.append(seed)
        return approximate_ppr(graph, seed, alpha, thresholds)

    monkeypatch.setattr(detect, "approximate_ppr", counted)
    detect_communities(g, DetectParams())
    assert len(pushed) == 359
    assert len(set(pushed)) == len(pushed)  # each seed once
    seeds = set(pushed)
    for v in range(g.node_count):
        touched = seeds.intersection(g.adjacency[v])
        if v in seeds:
            assert not touched, (v, touched)  # no two seeds are adjacent
        else:
            assert touched, v  # every other node has a seed among its neighbors


@pytest.mark.parametrize("seed", [1, 2])
def test_detect_recovers_the_groups_of_the_2k_fixture(seed):
    # twenty groups of 100 nodes at internal degree 10 and external degree 2, default parameters
    _, g, groups = planted_partition(seed)
    found = detect_communities(g, DetectParams())
    exact = {d.community.members for d in found} & {group.members for group in groups}
    assert len(found) == 20
    assert len(exact) == 19


@pytest.mark.parametrize("labels", [["a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2", "b3", "b4"], ["x"]])
def test_refine_rejects_a_set_with_no_volume_on_a_side(labels):
    # the whole graph leaves its complement no volume, an isolated node has none itself
    g = Graph(TWO_CLIQUE_EDGES, extra_nodes=["x"])
    with pytest.raises(ConfigError, match="volume on both sides"):
        refine(g, [g.index(label) for label in labels], 10)


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
    # Detection's traced peak on this 200-node graph is 3.3x the graph's retained size
    # (85,367 bytes over 25,763) when it is the process's first detection, and 2.9x
    # after earlier ones (Python 3.11.7); the bound leaves about a third over the first.
    edges, _, _ = planted_partition(seed=1, group_count=2)
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
    assert peak < 4.5 * retained, f"detection peaked at {peak / retained:.1f}x the graph"
