"""Tests of the benchmark itself: generators, oracle, checker, tracer."""

import json
import shutil
from fractions import Fraction
from itertools import combinations

import pytest

import check
import gen
import run
import tracing
import workloads
from commkit.cli import main as commkit_main

FOOTBALL = workloads.ROOT / "data" / "football"


@pytest.mark.parametrize("name", ["planted-10k-metrics", "planted-1k-staged"])
def test_prepare_is_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workloads.prepare(workload, 7, tmp_path / "a")
    again = workloads.prepare(workload, 7, tmp_path / "b")
    other = workloads.prepare(workload, 8, tmp_path / "c")
    for role in ("graph", "truth", "communities", "metadata"):
        path = getattr(first, role)
        if path is None:
            continue
        assert path.read_bytes() == getattr(again, role).read_bytes(), role
        assert path.read_bytes() != getattr(other, role).read_bytes(), role


def test_planted_partition_shape():
    edges, groups = gen.planted_partition(1_000, 12, 7, 3, seed=3)
    assert sorted(v for g in groups for v in g) == list(range(1_000))
    assert {len(g) for g in groups} <= {12, 13}
    group_of = {v: i for i, g in enumerate(groups) for v in g}
    internal = sum(group_of[a] == group_of[b] for a, b in edges)
    assert len(set(edges)) == len(edges)
    assert all(a < b for a, b in edges)
    assert internal == sum(min(round(len(g) * 7 / 2), len(g) * (len(g) - 1) // 2) for g in groups)
    assert len(edges) - internal == 1_500
    degree = [0] * 1_000
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    assert min(degree) >= 2  # every group contains a cycle through all its members


def _brute_force(adjacency, members, K, kind):
    inside = set(members)
    outside = set().union(*(adjacency[v] for v in inside)) - inside
    total = Fraction(0)
    count = 0
    for subset in combinations(sorted(inside), K):
        reached = set().union(*(adjacency[v] for v in subset))
        if kind == "internal":
            total += Fraction(len((reached & inside) | set(subset)), len(inside))
        else:
            total += Fraction(len(reached - inside), len(outside))
        count += 1
    return total / count


def test_closed_form_matches_enumeration_on_football_conferences():
    adjacency = check.read_adjacency(FOOTBALL / "football.edges")
    conferences = check.read_communities(FOOTBALL / "football.conferences")
    assert len(conferences) == 12
    for _, members in conferences:
        for K in range(1, 5):
            for kind in ("internal", "external"):
                exact = check.expected_ratio(adjacency, members, K, kind)
                assert abs(float(exact) - float(_brute_force(adjacency, members, K, kind))) <= 1e-12


@pytest.fixture(scope="module")
def football_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("football") / "out"
    argv = ["all", "--graph", str(FOOTBALL / "football.edges"), "--out", str(out)]
    argv += ["--communities", str(FOOTBALL / "football.conferences")]
    assert commkit_main(argv) == 0
    return out


def _check(out):
    return check.check_output(
        out,
        FOOTBALL / "football.edges",
        FOOTBALL / "football.conferences",
        FOOTBALL / "football.conferences",
        workloads.REPORT_ARTIFACTS,
    )


def test_checker_accepts_a_good_run(football_output):
    verdict = _check(football_output)
    assert verdict.errors == []
    assert verdict.purity == verdict.coverage == 1.0
    assert verdict.slope_err_max <= check.EXACT_TOLERANCE


def test_checker_flags_a_corrupted_stats_row(football_output, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(football_output, out)
    stats = out / "community_stats.csv"
    header, first, *rest = stats.read_text().splitlines()
    cells = first.split(",")
    column = header.split(",").index("triangles")
    cells[column] = str(int(cells[column]) + 1)
    stats.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert any("triangles" in error for error in _check(out).errors)


def test_checker_flags_a_missing_artifact(football_output, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(football_output, out)
    (out / "slopes.csv").unlink()
    assert _check(out).errors == ["missing artifact slopes.csv"]


def test_hashes_flag_a_changed_byte(football_output, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(football_output, out)
    reference = check.artifact_hashes(football_output)
    assert check.compare_hashes(reference, check.artifact_hashes(out)) == []
    (out / "manifest.json").write_text("{}\n")  # embeds out_dir; never compared
    assert check.compare_hashes(reference, check.artifact_hashes(out)) == []
    summary = out / "summary.csv"
    data = bytearray(summary.read_bytes())
    data[-2] ^= 1
    summary.write_bytes(bytes(data))
    assert check.compare_hashes(reference, check.artifact_hashes(out)) == [
        "artifact summary.csv differs from the first job's"
    ]


def test_speed_probe_rates_the_host_while_work_runs():
    n = 10_000_000
    with run.SpeedProbe() as probe:
        result, speed = probe.scale(lambda: sum(i * i for i in range(n)))
        units, _ = probe.read()
    assert result == (n - 1) * n * (2 * n - 1) // 6
    assert units >= run.MIN_UNITS
    assert 0.1 < speed < 10
    assert probe.proc.returncode is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, 0, 1, 0, 0.0, 10.0),
        (2, 1, 0, 1, 0, 1.0, 5.0),  # overlapping pool items
        (3, 1, 0, 1, 1, 4.0, 7.0),
        (4, 3, 0, 1, 1, 4.5, 5.0),
    ]
    assert tracing.self_times(spans) == [4.0, 4.0, 2.5, 0.5]


def test_tracer_wraps_every_binding_and_restores_it():
    import commkit
    import commkit.community
    import commkit.domsets
    import commkit.metrics

    original = commkit.community.induced_subgraph
    idr = commkit.domsets.idr
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (commkit, commkit.community, commkit.metrics):
            assert module.induced_subgraph is not original
        assert commkit.domsets.idr is idr  # per-subset helpers stay unwrapped
    finally:
        tracer.uninstall()
    for module in (commkit, commkit.community, commkit.metrics):
        assert module.induced_subgraph is original


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
