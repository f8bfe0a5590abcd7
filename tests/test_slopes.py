import math
from fractions import Fraction

import pytest

from commkit import Community, Graph, eslope, greedy_eds, islope, random_subset_ratio
from commkit.errors import ConfigError
from graphs import clique_graph, p_ids, p_set, star_graph, whole_community


def test_expected_ratio_clique_k1_is_one():
    g = clique_graph(6)
    c = whole_community(g)
    assert random_subset_ratio(c.split(), K=1, kind="internal") == 1.0


def test_expected_ratio_star10_k1():
    # hub singleton dominates everything, each of 9 leaves covers 2 of 10
    g = star_graph(9)
    c = whole_community(g)
    value = random_subset_ratio(c.split(), K=1, kind="internal")
    assert value == pytest.approx((1.0 + 9 * 0.2) / 10)
    assert value == pytest.approx(0.28)


def test_expected_ratio_full_size_subset_is_one():
    g = clique_graph(4)
    c = whole_community(g)
    assert random_subset_ratio(c.split(), K=4, kind="internal") == 1.0


def test_expected_ratio_of_the_empty_subset_is_zero(core_community):
    # every node is missed, as the empty greedy set at p = 0 misses it
    assert random_subset_ratio(core_community.split(), K=0, kind="internal") == 0.0
    assert random_subset_ratio(core_community.split(), K=0, kind="external") == 0.0


def test_expected_ratio_closed_external_sentinel():
    g = Graph([("a", "b"), ("x", "y")])
    c = Community("pair", frozenset({g.index("a"), g.index("b")}), g)
    assert random_subset_ratio(c.split(), K=1, kind="external") is None


def test_expected_ratio_input_validation():
    g = clique_graph(3)
    c = whole_community(g)
    with pytest.raises(ConfigError):
        random_subset_ratio(c.split(), K=-1, kind="internal")
    with pytest.raises(ConfigError):
        random_subset_ratio(c.split(), K=4, kind="internal")
    with pytest.raises(ConfigError):
        random_subset_ratio(c.split(), K=1, kind="sideways")


def test_islope_clique_is_zero():
    for n in (3, 5, 8):
        c = whole_community(clique_graph(n))
        result = islope(c.split(), p_ids(c))
        assert result.slope == 0.0
        assert result.K == 1


def test_islope_star10_exact():
    c = whole_community(star_graph(9))
    result = islope(c.split(), p_ids(c))
    assert result.K == 1
    assert result.observed_ratio == 1.0
    assert result.expected_ratio == pytest.approx(0.28)
    assert result.slope == pytest.approx(0.72)


def test_islope_p_zero_is_defined():
    c = whole_community(clique_graph(4))
    result = islope(c.split(), p_ids(c, p=0.0))
    assert result.K == 0
    assert result.slope == 0.0


def test_eslope_single_gatekeeper():
    # m0 holds every boundary edge: observed 1 at K=1, expected 1/|C|
    n = 5
    edges = [(f"m{i}", f"m{j}") for i in range(n) for j in range(i + 1, n)]
    edges += [("m0", "x0"), ("m0", "x1")]
    g = Graph(edges)
    c = Community("gate", frozenset(g.index(f"m{i}") for i in range(n)), g)
    result = eslope(c.split(), p_set(greedy_eds, c, 0.8))
    assert result.K == 1
    assert result.observed_ratio == 1.0
    assert result.slope == pytest.approx(1 - 1 / n)


def test_eslope_symmetric_boundary_is_zero():
    # cycle members each own one distinct outside neighbor; any K-subset
    # reaches exactly K of 4 boundary nodes, so greedy equals the average
    edges = [("m0", "m1"), ("m1", "m2"), ("m2", "m3"), ("m3", "m0")]
    edges += [(f"m{i}", f"x{i}") for i in range(4)]
    g = Graph(edges)
    c = Community("ring", frozenset(g.index(f"m{i}") for i in range(4)), g)
    result = eslope(c.split(), p_set(greedy_eds, c, 0.5))
    assert result.K == 2
    assert result.slope == pytest.approx(0.0)


def test_eslope_closed_community_sentinel():
    g = Graph([("a", "b"), ("x", "y")])
    c = Community("pair", frozenset({g.index("a"), g.index("b")}), g)
    result = eslope(c.split(), p_set(greedy_eds, c, 0.8))
    assert result.closed
    assert result.slope is None


def test_random_subset_ratio_star_every_K():
    # a leaf is missed only when the subset avoids both the leaf and the hub
    leaves = 9
    n = leaves + 1
    g = star_graph(leaves)
    c = whole_community(g)
    for K in range(1, n + 1):
        missed = Fraction(leaves * math.comb(n - 2, K), n * math.comb(n, K))
        assert random_subset_ratio(c.split(), K, "internal") == float(1 - missed)


def test_random_subset_ratio_clique_every_K_is_one():
    g = clique_graph(7)
    c = whole_community(g)
    for K in range(1, 8):
        assert random_subset_ratio(c.split(), K, "internal") == 1.0


def test_random_subset_ratio_gatekeeper_every_K():
    # only m0 reaches outside, so a subset reaches the boundary iff it holds m0
    n = 6
    edges = [(f"m{i}", f"m{j}") for i in range(n) for j in range(i + 1, n)]
    edges += [("m0", "x0"), ("m0", "x1")]
    g = Graph(edges)
    c = Community("gate", frozenset(g.index(f"m{i}") for i in range(n)), g)
    for K in range(1, n + 1):
        assert random_subset_ratio(c.split(), K, "external") == float(Fraction(K, n))


def test_slope_results_bounded():
    c = whole_community(star_graph(9))
    result = islope(c.split(), p_ids(c))
    assert 0.0 <= result.observed_ratio <= 1.0
    assert 0.0 <= result.expected_ratio <= 1.0
    assert -1.0 < result.slope < 1.0


def test_slope_invariant_under_relabeling():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("c", "x")]
    g1 = Graph(edges)
    c1 = Community("c", frozenset(g1.index(l) for l in "abcd"), g1)
    mapping = {"a": "q", "b": "n", "c": "z", "d": "m", "x": "w"}
    g2 = Graph([(mapping[u], mapping[v]) for u, v in edges])
    c2 = Community("c", frozenset(g2.index(mapping[l]) for l in "abcd"), g2)
    r1, r2 = islope(c1.split(), p_ids(c1)), islope(c2.split(), p_ids(c2))
    assert (r1.K, r1.observed_ratio, r1.expected_ratio, r1.slope) == (
        r2.K,
        r2.observed_ratio,
        r2.expected_ratio,
        r2.slope,
    )

