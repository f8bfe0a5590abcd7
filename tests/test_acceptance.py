"""Acceptance gate.

Each test prints one PASS/FAIL line for its criterion before asserting, so
the run log doubles as a scorecard.  Criterion 2 is split into its four
sub-checks; the clustering sub-check (2d) is expected to fail on the
ground-truth conference communities and the failure analysis lives in the
project notes.
"""

import itertools
import math
import random
import time
from statistics import fmean

import networkx as nx
import pytest

from commkit import (
    Community,
    Graph,
    RunConfig,
    clustering_coefficient,
    community_stats,
    detect_communities,
    eslope,
    greedy_eds,
    greedy_ids,
    islope,
    predict_keywords,
    prediction_curve,
    random_subset_ratio,
    run_pipeline,
    summarize,
)
from commkit.detect import DetectParams
from graphs import (
    DATA_DIR,
    Coverage,
    clique_graph,
    k_set,
    p_ids,
    p_set,
    star_graph,
    two_clique_graph,
    whole_community,
    write_input,
)
from test_keywords import FIXTURE_EDGES, FIXTURE_METADATA, candidates_of


def _report(criterion: str, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_network_clustering(football_graph):
    start = time.perf_counter()
    ncc = clustering_coefficient(football_graph)
    elapsed = time.perf_counter() - start
    ok = abs(ncc - 0.41) <= 0.01 and elapsed < 1.0
    _report("1", "football network clustering", ok, f"ncc={ncc:.5f} in {elapsed:.3f}s")


# -- 2 ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def conference_profile(football_conferences):
    start = time.perf_counter()
    stats = [community_stats(c.split()) for c in football_conferences]
    mean_idr = fmean(k_set(greedy_ids, c, 5).achieved_ratio for c in football_conferences)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"characterization took {elapsed:.2f}s"
    return stats, mean_idr


def test_criterion_2a_mean_idr(conference_profile):
    _, mean_idr = conference_profile
    ok = 0.90 <= mean_idr <= 1.00
    _report("2a", "ground-truth mean 5-IDS ratio", ok, f"mean={mean_idr:.4f}")


def test_criterion_2b_mean_apl(conference_profile):
    # unreachable pairs are charged |C|; two conferences split into several
    # parts inside their own subgraph, and treating them as compact would
    # understate the distances
    stats, _ = conference_profile
    mean_apl = fmean(s.apl_penalized for s in stats)
    ok = 1.4 <= mean_apl <= 2.4
    _report("2b", "ground-truth mean path length", ok, f"mean={mean_apl:.4f}")


def test_criterion_2c_mean_diameter(conference_profile):
    stats, _ = conference_profile
    mean_diameter = fmean(s.diameter_penalized for s in stats)
    ok = 2.0 <= mean_diameter <= 4.5
    _report("2c", "ground-truth mean diameter", ok, f"mean={mean_diameter:.4f}")


def test_criterion_2d_mean_ccc(conference_profile):
    # known red: the conference communities are denser than the bound
    # anticipates; see the failure analysis in the project notes
    stats, _ = conference_profile
    mean_ccc = fmean(s.ccc for s in stats)
    ok = 0.45 <= mean_ccc <= 0.75
    _report("2d", "ground-truth mean clustering", ok, f"mean={mean_ccc:.4f}")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_three_degree_separation(football_conferences):
    stats = [community_stats(c.split()) for c in football_conferences]
    mean_apl = fmean(s.apl_penalized for s in stats)
    ok = mean_apl <= 3.3
    _report("3", "three-degree separation", ok, f"mean penalized apl={mean_apl:.4f}")


# -- 4 ----------------------------------------------------------------------


def _check_greedy_bound(community: Community, coverage: Coverage) -> int:
    bound = 1.0 - 1.0 / math.e
    violations = 0
    for mode, run in (("internal", greedy_ids), ("external", greedy_eds)):
        for k in (1, 2, 3):
            result = k_set(run, community, k)
            if result.closed:
                continue
            greedy = coverage.covered(result.members, mode)
            best = max(
                coverage.covered(subset, mode)
                for subset in itertools.combinations(
                    sorted(community.members), min(k, community.size)
                )
            )
            if greedy < bound * best - 1e-9:
                violations += 1
    return violations


def _atlas_fixtures():
    for index, nx_graph in enumerate(nx.graph_atlas_g()):
        if nx_graph.number_of_nodes() == 0 or nx_graph.number_of_nodes() > 7:
            continue
        if not nx.is_connected(nx_graph):
            continue
        labels = [f"v{n}" for n in nx_graph.nodes]
        edges = [(f"v{u}", f"v{v}") for u, v in nx_graph.edges]
        # attach two outside nodes so the external mode has a boundary
        rng = random.Random(index)
        for ext in ("x0", "x1"):
            for member in rng.sample(labels, rng.randint(1, len(labels))):
                edges.append((ext, member))
        g = Graph(edges, extra_nodes=labels)
        community = Community(f"atlas{index}", frozenset(g.index(label) for label in labels), g)
        yield community, Coverage(edges, community)


def _random_fixtures():
    for t in range(50):
        rng = random.Random(1000 + t)
        n = rng.randint(12, 20)
        nx_graph = nx.gnp_random_graph(n, 0.3, seed=rng.randint(0, 10**6))
        edges = [(f"v{u}", f"v{v}") for u, v in nx_graph.edges]
        g = Graph(edges, extra_nodes=[f"v{i}" for i in range(n)])
        size = rng.randint(3, 10)
        community = Community(f"rand{t}", frozenset(g.index(f"v{i}") for i in rng.sample(range(n), size)), g)
        yield community, Coverage(edges, community)


def test_criterion_4_greedy_vs_exhaustive():
    violations = 0
    cases = 0
    for community, coverage in itertools.chain(_atlas_fixtures(), _random_fixtures()):
        violations += _check_greedy_bound(community, coverage)
        cases += 1
    ok = violations == 0 and cases > 1000
    _report(
        "4",
        "greedy within (1-1/e) of optimum",
        ok,
        f"{cases} fixtures, {violations} violations",
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_analytic_slopes():
    checks = []

    for n in (4, 6, 9):
        clique = whole_community(clique_graph(n))
        result = islope(clique.split(), p_ids(clique))
        checks.append(result.slope == 0.0)

    star = whole_community(star_graph(9))
    result = islope(star.split(), p_ids(star))
    checks.append(result.K == 1)
    checks.append(abs(result.slope - 0.72) < 1e-12)

    for n in (4, 6, 10):
        edges = [(f"m{i}", f"m{j}") for i in range(n) for j in range(i + 1, n)]
        edges += [("m0", "x0"), ("m0", "x1"), ("m0", "x2")]
        g = Graph(edges)
        community = Community("gate", frozenset(g.index(f"m{i}") for i in range(n)), g)
        result = eslope(community.split(), p_set(greedy_eds, community, 0.8))
        checks.append(abs(result.slope - (1 - 1 / n)) < 1e-12)

    ok = all(checks)
    _report("5", "analytic slope cases", ok, f"{sum(checks)}/{len(checks)} checks")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_estimator_consistency():
    worst = 0.0
    checks = 0
    for community, coverage in itertools.chain(_atlas_fixtures(), _random_fixtures()):
        members = sorted(community.members)
        for kind in ("internal", "external"):
            for K in range(1, community.size + 1):
                closed_form = random_subset_ratio(community.split(), K, kind)
                brute = fmean(coverage.ratio(s, kind) for s in itertools.combinations(members, K))
                worst = max(worst, abs(closed_form - brute))
                checks += 1
    ok = checks > 10_000 and worst <= 1e-12
    _report("6", "closed form vs enumeration", ok, f"{checks} expectations, max diff {worst:.2g}")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_detection_sanity(football_graph, football_conferences):
    g = two_clique_graph()
    found = detect_communities(g, DetectParams(min_size=3, max_size=10))
    members = sorted(sorted(g.label(v) for v in d.community.members) for d in found)
    cliques_ok = members == [
        ["a0", "a1", "a2", "a3", "a4"],
        ["b0", "b1", "b2", "b3", "b4"],
    ]

    detected = detect_communities(football_graph, DetectParams(min_size=5, max_size=20))
    label_of = {}
    for conference in football_conferences:
        for v in conference.members:
            label_of[v] = conference.id
    purities = []
    for d in detected:
        labels = [label_of[v] for v in d.community.members]
        purities.append(max(labels.count(x) for x in set(labels)) / len(labels))
    purity = fmean(purities) if purities else 0.0
    purity_ok = purity >= 0.7

    ok = cliques_ok and purity_ok
    _report(
        "7",
        "detection sanity",
        ok,
        f"cliques={'exact' if cliques_ok else 'wrong'}, "
        f"{len(detected)} football communities, purity={purity:.3f}",
    )


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_keyword_oracle(tmp_path):
    from commkit import load_metadata

    g = Graph(FIXTURE_EDGES)
    community = Community("hep", frozenset(g.index(f"n{i:02d}") for i in range(1, 21)), g)
    metadata = load_metadata(write_input(tmp_path, FIXTURE_METADATA))

    candidates = candidates_of(community, metadata)
    oracle = {1: 4, 2: 6, 3: 8}
    counts_ok = all(
        predict_keywords(community, metadata, length, candidates).confirmed_paper_count == count
        for length, count in oracle.items()
    )
    report = predict_keywords(community, metadata, 3, candidates)
    detail_ok = {p.label for p in report.predictions} == {
        "n06", "n07", "n08", "n14", "n15", "n16", "n18", "n19"
    } and report.skipped_paper_count == 1

    longest = predict_keywords(community, metadata, 8, candidates)
    curve = prediction_curve([(candidates, longest)], list(range(1, 9)))
    counts = [count for _, count in curve]
    monotone = counts == sorted(counts)
    saturates = counts[2:] == [counts[2]] * len(counts[2:])

    ok = counts_ok and detail_ok and monotone and saturates
    _report("8", "keyword oracle", ok, f"curve={counts}")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_pipeline_determinism(tmp_path):
    data_dir = DATA_DIR / "football"
    out = tmp_path / "run"
    config = RunConfig(
        graph_path=str(data_dir / "football.edges"),
        communities_path=str(data_dir / "football.conferences"),
        out_dir=str(out),
    )

    run_pipeline(config)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    run_pipeline(config)
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}

    ok = first.keys() == second.keys() and all(first[n] == second[n] for n in first)
    _report("9", "byte-identical reruns", ok, f"{len(first)} files")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_distribution_properties():
    rng = random.Random(2024)
    cases = 0
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 60)
        scale = 10.0 ** rng.randint(-3, 3)
        values = [rng.uniform(-scale, scale) for _ in range(n)]
        if rng.random() < 0.05:
            values = [values[0]] * n  # degenerate constant input
        bins = rng.randint(1, 12)
        shift = rng.uniform(-100.0, 100.0)

        summary = summarize(values, bin_count=bins)
        shifted = summarize([v + shift for v in values], bin_count=bins)
        cases += 1
        try:
            assert sum(b.count for b in summary.histogram) == n
            fractions = [f for _, f in summary.cumulative]
            assert fractions == sorted(fractions)
            assert abs(fractions[-1] - 1.0) < 1e-12
            assert abs(shifted.mean - (summary.mean + shift)) < 1e-6
            assert abs(shifted.std - summary.std) < 1e-6
        except AssertionError:
            failures += 1
    ok = cases == 1000 and failures == 0
    _report("10", "distribution invariants", ok, f"{cases} cases, {failures} failures")
