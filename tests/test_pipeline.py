import csv
import json

import pytest

from commkit import Community, DomSetResult, Graph, RunConfig, run_pipeline
from commkit.detect import DetectParams
from commkit.errors import ConfigError
from commkit.pipeline import Run, parallel_map, stage_domsets, stage_metrics, stage_slopes, write_table

TWO_CLIQUE_EDGES = "\n".join(
    f"{u} {v}"
    for prefix in ("a", "b")
    for i in range(5)
    for u, v in [(f"{prefix}{i}", f"{prefix}{j}") for j in range(i + 1, 5)]
) + "\na0 b0\n"

TWO_CLIQUE_COMMUNITIES = "left: a0 a1 a2 a3 a4\nright: b0 b1 b2 b3 b4\n"


@pytest.fixture
def inputs(tmp_path):
    graph_path = tmp_path / "graph.edges"
    graph_path.write_text(TWO_CLIQUE_EDGES)
    communities_path = tmp_path / "communities.txt"
    communities_path.write_text(TWO_CLIQUE_COMMUNITIES)
    return graph_path, communities_path, tmp_path


def _read(path):
    """A written table's rows as csv.DictReader or json.load gives them."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _config(graph_path, communities_path, out_dir, **overrides):
    defaults = dict(
        graph_path=str(graph_path),
        communities_path=str(communities_path),
        out_dir=str(out_dir),
        detect=DetectParams(min_size=3, max_size=10),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", fmt="yaml")
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", workers=0)
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", p=1.5)
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", k=0)
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", bins=0)


def test_a_replaced_field_is_checked():
    with pytest.raises(ConfigError, match="k must be >= 1"):
        RunConfig(graph_path="g")._replace(k=0)
    with pytest.raises(ConfigError, match="alpha must be in"):
        DetectParams()._replace(alpha=1.0)


@pytest.mark.parametrize(
    "record, names",
    [
        (Community("c", frozenset({0}), Graph([("a", "b")])), ("id", "members", "graph")),
        (DetectParams(), ("alpha", "epsilon", "min_size", "max_size")),
        (RunConfig(graph_path="g"), ("graph_path", "k", "p", "detect", "fmt", "workers")),
        (DomSetResult("c", "internal", "k", 1, frozenset({0}), 0.5), ("community_id", "members", "closed")),
    ],
    ids=["Community", "DetectParams", "RunConfig", "DomSetResult"],
)
def test_records_are_read_only(record, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_communities_compare_and_hash_by_id_and_members():
    community = Community("c", frozenset({0}), Graph([("a", "b")]))
    twin = Community("c", frozenset({0}), Graph([("x", "y"), ("y", "z")]))
    assert community == twin and hash(community) == hash(twin)
    assert community != Community("d", frozenset({0}), community.graph)
    assert community != ("c", frozenset({0}))


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda x: x * x, items, workers=4) == [x * x for x in items]


def test_write_read_table_round_trip_csv(tmp_path):
    header = ["name", "value", "flag", "blank"]
    rows = [["a", 0.1, True, None], ["b", 2.0, False, None]]
    target = write_table(tmp_path / "t", header, rows, "csv")
    assert _read(target) == [
        {"name": "a", "value": "0.1", "flag": "true", "blank": ""},
        {"name": "b", "value": "2.0", "flag": "false", "blank": ""},
    ]


def test_write_read_table_round_trip_json(tmp_path):
    header = ["name", "value"]
    target = write_table(tmp_path / "t", header, [["a", 1.5]], "json")
    assert target.suffix == ".json"
    assert _read(target) == [{"name": "a", "value": 1.5}]


def test_full_pipeline_writes_expected_files(inputs):
    graph_path, communities_path, tmp_path = inputs
    out = tmp_path / "out"
    summary = run_pipeline(_config(graph_path, communities_path, out))
    assert summary is not None
    assert summary.community_count == 2
    for stem in (
        "domsets.csv",
        "slopes.csv",
        "community_stats.csv",
        "summary.csv",
        "triangle_split.csv",
        "dist_islope.csv",
        "distributions_summary.csv",
        "manifest.json",
    ):
        assert (out / stem).exists(), stem


def test_pipeline_with_detection_writes_communities(inputs):
    graph_path, _, tmp_path = inputs
    out = tmp_path / "detected"
    config = RunConfig(
        graph_path=str(graph_path),
        out_dir=str(out),
        detect=DetectParams(min_size=3, max_size=10),
    )
    summary = run_pipeline(config)
    assert summary is not None
    text = (out / "communities.txt").read_text()
    assert "a0 a1 a2 a3 a4" in text
    assert "b0 b1 b2 b3 b4" in text
    meta = _read(out / "communities_meta.csv")
    assert len(meta) == 2


def test_manifest_has_no_timestamps_and_full_config(inputs):
    graph_path, communities_path, tmp_path = inputs
    out = tmp_path / "out"
    run_pipeline(_config(graph_path, communities_path, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "commkit"
    assert manifest["config"]["graph_path"] == str(graph_path)
    # the nested detection parameters (``_config``'s) are an object keyed by name, not a list
    assert manifest["config"]["detect"] == {"alpha": 0.15, "epsilon": 0.0001, "min_size": 3, "max_size": 10}
    # nothing run-dependent beyond the config itself
    assert set(manifest) == {"tool", "version", "python", "config", "notes"}


def test_stage_outputs_can_be_read_back(inputs):
    graph_path, communities_path, tmp_path = inputs
    # the whole graph is a closed community: its external records hold None, written as "" or null
    communities_path.write_text(TWO_CLIQUE_COMMUNITIES + "whole: a0 a1 a2 a3 a4 b0 b1 b2 b3 b4\n")
    for fmt, blank in (("csv", ""), ("json", None)):
        run = Run(_config(graph_path, communities_path, tmp_path / fmt, fmt=fmt))
        bundles, pairs = stage_domsets(run), stage_slopes(run)
        assert pairs[-1][1].slope is None and bundles[-1].p_external.achieved_ratio is None
        domsets = _read(run.out / f"domsets.{fmt}")
        slopes = _read(run.out / f"slopes.{fmt}")
        assert len(domsets) == 12 and len(slopes) == 6, fmt
        assert [row["achieved_ratio"] for row in domsets if row["mode"] == "external"][-2:] == [blank, blank]
        assert slopes[-1]["kind"] == "external" and slopes[-1]["slope"] == blank, fmt


@pytest.mark.parametrize(
    "command, built",
    [
        ("all", ["eds k", "eds k", "eds p", "eds p", "ids k", "ids k", "ids p", "ids p"]),
        ("slopes", ["eds p", "eds p", "ids p", "ids p"]),
        ("keywords", ["ids p", "ids p"]),
    ],
)
def test_a_run_builds_each_greedy_set_once_and_only_those_its_stages_read(inputs, monkeypatch, command, built):
    import commkit.domsets

    graph_path, communities_path, tmp_path = inputs
    metadata = tmp_path / "meta.tsv"
    metadata.write_text("a0\tA paper\tAn abstract\tspin glasses\n")
    calls = []  # "ids p" for greedy_ids(community, p=...), and so on

    def counted(greedy, tag):
        def build(community, **mode):
            calls.append(f"{tag} {next(iter(mode))}")
            return greedy(community, **mode)

        return build

    for tag in ("ids", "eds"):
        name = f"greedy_{tag}"
        monkeypatch.setattr(commkit.domsets, name, counted(getattr(commkit.domsets, name), tag))
    config = _config(graph_path, communities_path, tmp_path / "out", metadata_path=str(metadata))
    run_pipeline(config, command)
    assert sorted(calls) == built


def test_stages_are_worker_count_independent(inputs):
    graph_path, communities_path, tmp_path = inputs
    results = []
    for workers in (1, 4):
        run = Run(_config(graph_path, communities_path, tmp_path / str(workers), workers=workers))
        results.append((stage_domsets(run), stage_slopes(run), stage_metrics(run)))
    assert results[0] == results[1]


def test_pipeline_missing_graph_raises(tmp_path):
    config = RunConfig(graph_path=str(tmp_path / "missing.edges"), out_dir=str(tmp_path / "o"))
    with pytest.raises(OSError):
        run_pipeline(config)
