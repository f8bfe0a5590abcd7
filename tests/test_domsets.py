import itertools
import random

import pytest

from commkit import Community, Graph, edr, greedy_eds, greedy_ids, idr
from commkit.errors import ConfigError
from graphs import clique_graph, path_graph, star_graph, whole_community


def _indices(graph, *labels):
    return frozenset(graph.index(label) for label in labels)


def test_idr_core_fixture(core_graph, core_community):
    s = _indices(core_graph, "v3", "v4")
    assert idr(core_graph, s, core_community) == pytest.approx(5 / 6)


def test_idr_whole_community_is_one(core_graph, core_community):
    assert idr(core_graph, core_community.members, core_community) == 1.0


def test_idr_star_hub():
    g = star_graph(4)
    c = whole_community(g)
    assert idr(g, {g.index("hub")}, c) == 1.0


def test_edr_core_fixture(core_graph, core_community):
    s = _indices(core_graph, "v3", "v4")
    assert edr(core_graph, s, core_community) == pytest.approx(2 / 3)


def test_edr_whole_community_is_one(core_graph, core_community):
    assert edr(core_graph, core_community.members, core_community) == 1.0


def test_edr_closed_community_sentinel():
    g = Graph([("a", "b"), ("c", "d")])
    c = Community("pair", _indices(g, "a", "b"), g)
    assert edr(g, c.members, c) is None


def test_greedy_ids_path_k1_breaks_tie_low():
    # v1, v2, v3 all cover three nodes; lowest index wins
    g = path_graph(5)
    c = whole_community(g)
    result = greedy_ids(c, k=1)
    assert result.members == _indices(g, "v1")
    assert result.achieved_ratio == pytest.approx(3 / 5)


def test_greedy_ids_path_exhaustive_singletons():
    g = path_graph(5)
    c = whole_community(g)
    best = max(idr(g, {v}, c) for v in c.members)
    assert greedy_ids(c, k=1).achieved_ratio == pytest.approx(best)


def test_greedy_ids_star_p_mode_picks_hub():
    g = star_graph(4)
    c = whole_community(g)
    result = greedy_ids(c, p=0.8)
    assert result.members == _indices(g, "hub")
    assert result.achieved_ratio == 1.0
    assert result.criterion == "p"


def test_greedy_ids_k_clamps_to_community_size():
    g = clique_graph(3)
    c = whole_community(g)
    result = greedy_ids(c, k=10)
    assert result.size == 3


def test_greedy_ids_p_one_with_disconnected_members_terminates():
    g = Graph([("a", "b"), ("c", "d"), ("e", "f")])
    c = Community("all", frozenset(g.nodes()), g)
    result = greedy_ids(c, p=1.0)
    assert result.achieved_ratio == 1.0
    assert result.size == 3  # one pick per component


def test_greedy_requires_exactly_one_criterion():
    g = clique_graph(3)
    c = whole_community(g)
    with pytest.raises(ConfigError):
        greedy_ids(c)
    with pytest.raises(ConfigError):
        greedy_ids(c, k=1, p=0.5)
    with pytest.raises(ConfigError):
        greedy_ids(c, p=1.5)


def test_greedy_eds_core_fixture_k1(core_graph, core_community):
    # each of v0, v3, v4 reaches exactly one outside node; tie goes low
    best = max(
        (edr(core_graph, {v}, core_community), -v) for v in core_community.members
    )
    result = greedy_eds(core_community, k=1)
    assert result.members == _indices(core_graph, "v0")
    assert result.achieved_ratio == pytest.approx(best[0])


def test_greedy_eds_closed_community_sentinel():
    g = Graph([("a", "b"), ("c", "d")])
    c = Community("pair", _indices(g, "a", "b"), g)
    for kwargs in ({"k": 2}, {"p": 0.8}):
        result = greedy_eds(c, **kwargs)
        assert result.closed
        assert result.members == frozenset()
        assert result.achieved_ratio is None


def test_achieved_ratio_matches_recomputation(core_graph, core_community):
    internal = greedy_ids(core_community, k=2)
    assert internal.achieved_ratio == pytest.approx(
        idr(core_graph, internal.members, core_community)
    )
    external = greedy_eds(core_community, k=2)
    assert external.achieved_ratio == pytest.approx(
        edr(core_graph, external.members, core_community)
    )


def _random_community(rng: random.Random):
    n = rng.randint(8, 16)
    edges = [
        (f"v{i}", f"v{j}")
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    if not edges:
        return None
    g = Graph(edges)
    size = rng.randint(3, min(8, g.node_count))
    members = frozenset(rng.sample(sorted(g.nodes()), size))
    return g, Community("r", members, g)


def test_greedy_steps_monotone_and_gains_nonincreasing():
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        built = _random_community(rng)
        if built is None:
            continue
        g, c = built
        for result in (greedy_ids(c, p=1.0), greedy_eds(c, p=1.0)):
            if result.closed:
                continue
            gains = [gain for _, gain in result.steps]
            assert gains == sorted(gains, reverse=True)
            prefix: set[int] = set()
            last_ratio = -1.0
            ratio_fn = idr if result.mode == "internal" else edr
            for node, _ in result.steps:
                prefix.add(node)
                ratio = ratio_fn(g, prefix, c)
                assert ratio >= last_ratio
                last_ratio = ratio
        checked += 1


def test_p_size_at_most_k_size_when_k_suffices():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        built = _random_community(rng)
        if built is None:
            continue
        g, c = built
        k_result = greedy_ids(c, k=3)
        if k_result.achieved_ratio >= 0.8:
            assert greedy_ids(c, p=0.8).size <= k_result.size
        checked += 1


def test_ratios_invariant_under_relabeling():
    rng = random.Random(31)
    g = Graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "x"), ("c", "y")])
    members = _indices(g, "a", "b", "c", "d")
    c = Community("square", members, g)

    names = ["a", "b", "c", "d", "x", "y"]
    mapping = dict(zip(names, rng.sample(["p", "q", "r", "s", "t", "u"], 6)))
    g2 = Graph([(mapping[g.label(u)], mapping[g.label(v)]) for u, v in g.edges()])
    members2 = frozenset(g2.index(mapping[g.label(m)]) for m in members)
    c2 = Community("square", members2, g2)

    subset = _indices(g, "a", "c")
    subset2 = frozenset(g2.index(mapping[g.label(m)]) for m in subset)
    assert idr(g, subset, c) == idr(g2, subset2, c2)
    assert edr(g, subset, c) == edr(g2, subset2, c2)
    assert greedy_ids(c, p=0.8).achieved_ratio == greedy_ids(c2, p=0.8).achieved_ratio


def _coverage(g: Graph, subset, c: Community, mode: str) -> int:
    if mode == "internal":
        covered = set(subset)
        for u in subset:
            covered.update(v for v in g.neighbors(u) if v in c.members)
        return len(covered)
    reached: set[int] = set()
    for u in subset:
        reached.update(v for v in g.neighbors(u) if v not in c.members)
    return len(reached)


def test_greedy_beats_two_thirds_of_optimum_small_sample():
    # light version of the acceptance sweep: random communities only
    bound = 1 - 1 / 2.718281828459045
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        built = _random_community(rng)
        if built is None:
            continue
        g, c = built
        for mode, run in (("internal", greedy_ids), ("external", greedy_eds)):
            for k in (1, 2):
                result = run(c, k=k)
                if result.closed:
                    continue
                greedy_cover = _coverage(g, result.members, c, mode)
                optimal = max(
                    _coverage(g, subset, c, mode)
                    for subset in itertools.combinations(sorted(c.members), min(k, c.size))
                )
                assert greedy_cover >= bound * optimal - 1e-9
        checked += 1
