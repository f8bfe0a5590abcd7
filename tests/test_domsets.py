import itertools
import random

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from commkit import Community, Graph, greedy_eds, greedy_ids, idr
from commkit.errors import ConfigError
from graphs import (
    CORE_FIXTURE_EDGES,
    Coverage,
    clique_graph,
    k_set,
    p_set,
    path_edges,
    path_graph,
    reference_greedy,
    star_graph,
    whole_community,
)


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


def test_idr_rejects_outside_nodes(core_graph, core_community):
    with pytest.raises(ValueError, match="outside community 'core'"):
        idr(core_graph, {core_graph.index("v7")}, core_community)


def test_greedy_ids_path_k1_breaks_tie_low():
    # v1, v2, v3 all cover three nodes; lowest index wins
    g = path_graph(5)
    c = whole_community(g)
    result = k_set(greedy_ids, c, 1)
    assert result.members == _indices(g, "v1")
    assert result.achieved_ratio == pytest.approx(3 / 5)


def test_greedy_ids_path_exhaustive_singletons():
    c = whole_community(path_graph(5))
    coverage = Coverage(path_edges(5), c)
    best = max(coverage.ratio({v}, "internal") for v in c.members)
    assert k_set(greedy_ids, c, 1).achieved_ratio == pytest.approx(best)


def test_greedy_ids_star_p_mode_picks_hub():
    g = star_graph(4)
    c = whole_community(g)
    result = p_set(greedy_ids, c, 0.8)
    assert result.members == _indices(g, "hub")
    assert result.achieved_ratio == 1.0
    assert result.criterion == "p"


def test_greedy_ids_k_clamps_to_community_size():
    g = clique_graph(3)
    c = whole_community(g)
    result = k_set(greedy_ids, c, 10)
    assert result.size == 3


def test_greedy_ids_p_one_with_disconnected_members_terminates():
    g = Graph([("a", "b"), ("c", "d"), ("e", "f")])
    c = Community("all", frozenset(range(g.node_count)), g)
    result = p_set(greedy_ids, c, 1.0)
    assert result.achieved_ratio == 1.0
    assert result.size == 3  # one pick per component


def test_greedy_checks_k_and_p_ranges():
    c = whole_community(clique_graph(3))
    for greedy in (greedy_ids, greedy_eds):
        for k, p in ((0, 0.5), (1, 1.5), (1, -0.1), (1, float("nan"))):
            with pytest.raises(ConfigError):
                greedy(c.split(), k, p)


def test_greedy_eds_core_fixture_k1(core_graph, core_community):
    # each of v0, v3, v4 reaches exactly one outside node; tie goes low
    coverage = Coverage(CORE_FIXTURE_EDGES, core_community)
    best = max(
        (coverage.ratio({v}, "external"), -v) for v in core_community.members
    )
    result = k_set(greedy_eds, core_community, 1)
    assert result.members == _indices(core_graph, "v0")
    assert result.achieved_ratio == pytest.approx(best[0])


def test_greedy_eds_closed_community_sentinel():
    g = Graph([("a", "b"), ("c", "d")])
    c = Community("pair", _indices(g, "a", "b"), g)
    for result in greedy_eds(c.split(), 2, 0.8):
        assert result.closed
        assert result.members == frozenset()
        assert result.achieved_ratio is None


def test_achieved_ratio_matches_recomputation(core_community):
    coverage = Coverage(CORE_FIXTURE_EDGES, core_community)
    internal = k_set(greedy_ids, core_community, 2)
    assert internal.achieved_ratio == pytest.approx(coverage.ratio(internal.members, "internal"))
    external = k_set(greedy_eds, core_community, 2)
    assert external.achieved_ratio == pytest.approx(coverage.ratio(external.members, "external"))


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
    c = Community("r", frozenset(rng.sample(range(g.node_count), size)), g)
    return c, Coverage(edges, c)


def test_greedy_steps_monotone_and_gains_nonincreasing():
    # the k-sets for k = 1, 2, ... are prefixes of one greedy pick order
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        built = _random_community(rng)
        if built is None:
            continue
        c, coverage = built
        for greedy, mode in ((greedy_ids, "internal"), (greedy_eds, "external")):
            if k_set(greedy, c, 1).closed:
                continue
            previous: frozenset[int] = frozenset()
            covered = 0
            gains = []
            last_ratio = -1.0
            for k in range(1, c.size + 1):
                result = k_set(greedy, c, k)
                assert previous <= result.members and len(result.members) == k
                previous = result.members
                gains.append(coverage.covered(previous, mode) - covered)
                covered = coverage.covered(previous, mode)
                ratio = coverage.ratio(previous, mode)
                assert ratio == result.achieved_ratio
                assert ratio >= last_ratio
                last_ratio = ratio
            assert gains == sorted(gains, reverse=True)
        checked += 1


def test_p_size_at_most_k_size_when_k_suffices():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        built = _random_community(rng)
        if built is None:
            continue
        c, _ = built
        k_result = k_set(greedy_ids, c, 3)
        if k_result.achieved_ratio >= 0.8:
            assert p_set(greedy_ids, c, 0.8).size <= k_result.size
        checked += 1


def test_ratios_invariant_under_relabeling():
    rng = random.Random(31)
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "x"), ("c", "y")]
    g = Graph(edges)
    members = _indices(g, "a", "b", "c", "d")
    c = Community("square", members, g)

    names = ["a", "b", "c", "d", "x", "y"]
    mapping = dict(zip(names, rng.sample(["p", "q", "r", "s", "t", "u"], 6)))
    g2 = Graph([(mapping[a], mapping[b]) for a, b in edges])
    members2 = frozenset(g2.index(mapping[g.label(m)]) for m in members)
    c2 = Community("square", members2, g2)

    for greedy in (greedy_ids, greedy_eds):
        ratios = [[r.achieved_ratio for r in greedy(community.split(), 1, 0.8)] for community in (c, c2)]
        assert ratios[0] == ratios[1]


def test_greedy_beats_two_thirds_of_optimum_small_sample():
    # light version of the acceptance sweep: random communities only
    bound = 1 - 1 / 2.718281828459045
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        built = _random_community(rng)
        if built is None:
            continue
        c, coverage = built
        for mode, run in (("internal", greedy_ids), ("external", greedy_eds)):
            for k in (1, 2):
                result = k_set(run, c, k)
                if result.closed:
                    continue
                greedy_cover = coverage.covered(result.members, mode)
                optimal = max(
                    coverage.covered(subset, mode)
                    for subset in itertools.combinations(sorted(c.members), min(k, c.size))
                )
                assert greedy_cover >= bound * optimal - 1e-9
        checked += 1


@st.composite
def greedy_cases(draw):
    """A graph on 2..9 nodes, a member subset (the whole graph included, so
    closed communities occur), k up to |C| + 3 and p with both ends."""
    n = draw(st.integers(2, 9))
    labels = [f"n{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    graph = Graph(edges, extra_nodes=labels)
    members = draw(st.sets(st.sampled_from(labels), min_size=1, max_size=n))
    community = Community("c", frozenset(map(graph.index, members)), graph)
    k = draw(st.integers(1, len(members) + 3))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return community, k, p


PATH4 = path_graph(4)
OPEN3 = Community("open", frozenset({0, 1, 2}), PATH4)  # v3 lies outside


@settings(max_examples=400, deadline=None, derandomize=True)
@given(greedy_cases())
@example((whole_community(PATH4), 9, 1.0))  # closed, k > |C|
@example((OPEN3, 5, 0.0))  # p = 0: the empty prefix
@example((OPEN3, 5, 1.0))
def test_one_pick_order_gives_both_sets_of_the_separate_loops(case):
    community, k, p = case
    for mode, greedy in (("internal", greedy_ids), ("external", greedy_eds)):
        assert greedy(community.split(), k, p) == (
            reference_greedy(community, mode, k=k),
            reference_greedy(community, mode, p=p),
        )
