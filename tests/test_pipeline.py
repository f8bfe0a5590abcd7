import csv
import json

import pytest

import commkit.community
from commkit import Community, DomSetResult, RunConfig, run_pipeline
from commkit.detect import DetectParams
from commkit.errors import ConfigError
from commkit.cli import EXIT_OK, main
from commkit.pipeline import STAGES, Run, stage_domsets, stage_slopes, write_table

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
        RunConfig(graph_path="g", p=1.5)
    with pytest.raises(ConfigError):
        RunConfig(graph_path="g", k=0)


def test_a_replaced_field_is_checked():
    with pytest.raises(ConfigError, match="k must be >= 1"):
        RunConfig(graph_path="g")._replace(k=0)
    with pytest.raises(ConfigError, match="alpha must be in"):
        DetectParams()._replace(alpha=1.0)


@pytest.mark.parametrize(
    "record, names",
    [
        (Community("c", frozenset({0})), ("id", "members")),
        (DetectParams(), ("alpha", "epsilon", "min_size", "max_size")),
        (RunConfig(graph_path="g"), ("graph_path", "k", "p", "detect", "fmt")),
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
    community = Community("c", frozenset({0}))
    twin = Community("c", frozenset({0}))
    assert community == twin and hash(community) == hash(twin)
    assert community != Community("d", frozenset({0}))
    assert community != Community("c", frozenset({0, 1}))
    assert repr(community) == "Community(id='c', members=frozenset({0}))"


def test_write_read_table_round_trip_csv(inputs):
    graph_path, communities_path, tmp_path = inputs
    run = Run(_config(graph_path, communities_path, tmp_path / "out", fmt="csv"))
    header = ["name", "value", "flag", "blank"]
    rows = [["a", 0.1, True, None], ["b", 2.0, False, None]]
    target = write_table(run, "t", header, rows)
    assert target == tmp_path / "out" / "t.csv"
    assert _read(target) == [
        {"name": "a", "value": "0.1", "flag": "true", "blank": ""},
        {"name": "b", "value": "2.0", "flag": "false", "blank": ""},
    ]


def test_write_read_table_round_trip_json(inputs):
    graph_path, communities_path, tmp_path = inputs
    run = Run(_config(graph_path, communities_path, tmp_path / "out", fmt="json"))
    target = write_table(run, "t", ["name", "value"], [["a", 1.5]])
    assert target == tmp_path / "out" / "t.json"
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
    # nothing run-dependent beyond the config and what the loader read
    assert set(manifest) == {"tool", "version", "python", "config", "load", "notes"}


def test_stage_outputs_can_be_read_back(inputs):
    graph_path, communities_path, tmp_path = inputs
    # the whole graph is a closed community: its external records hold None, written as "" or null
    communities_path.write_text(TWO_CLIQUE_COMMUNITIES + "whole: a0 a1 a2 a3 a4 b0 b1 b2 b3 b4\n")
    for fmt, blank in (("csv", ""), ("json", None)):
        run = Run(_config(graph_path, communities_path, tmp_path / fmt, fmt=fmt))
        records, pairs = stage_domsets(run), stage_slopes(run)
        assert pairs[-1][1].slope is None
        assert (records[-1].mode, records[-1].criterion, records[-1].achieved_ratio) == ("external", "p", None)
        domsets = _read(run.out / f"domsets.{fmt}")
        slopes = _read(run.out / f"slopes.{fmt}")
        assert len(domsets) == 12 and len(slopes) == 6, fmt
        assert [row["achieved_ratio"] for row in domsets if row["mode"] == "external"][-2:] == [blank, blank]
        assert slopes[-1]["kind"] == "external" and slopes[-1]["slope"] == blank, fmt


@pytest.mark.parametrize(
    "command, built",
    [
        ("all", ["eds left", "eds right", "ids left", "ids right"]),
        ("slopes", ["eds left", "eds right", "ids left", "ids right"]),
        ("keywords", ["ids left", "ids right"]),
    ],
)
def test_a_run_builds_each_greedy_set_once_and_only_those_its_stages_read(inputs, monkeypatch, command, built):
    import commkit.domsets

    graph_path, communities_path, tmp_path = inputs
    metadata = tmp_path / "meta.tsv"
    metadata.write_text("a0\tA paper\tAn abstract\tspin glasses\n")
    calls = []  # "ids left" for greedy_ids(left's split, k, p), and so on: one call gives both sets

    def counted(greedy, tag):
        def build(split, k, p):
            calls.append(f"{tag} {split.community_id}")
            return greedy(split, k, p)

        return build

    for tag in ("ids", "eds"):
        name = f"greedy_{tag}"
        monkeypatch.setattr(commkit.domsets, name, counted(getattr(commkit.domsets, name), tag))
    config = _config(graph_path, communities_path, tmp_path / "out", metadata_path=str(metadata))
    run_pipeline(config, command)
    assert sorted(calls) == built


@pytest.mark.parametrize("command", ["all", *STAGES])
def test_a_process_splits_each_community_at_most_once(inputs, monkeypatch, command):
    graph_path, communities_path, tmp_path = inputs
    metadata = tmp_path / "meta.tsv"
    metadata.write_text("a0\tA paper\tAn abstract\tspin glasses\n")
    split, splits = commkit.community.split, []

    def counted(community, graph):
        splits.append(community.id)
        return split(community, graph)

    monkeypatch.setattr(commkit.community, "split", counted)
    out = tmp_path / "out"
    argv = ["--graph", str(graph_path), "--metadata", str(metadata), "--out", str(out)]
    if command != "detect":
        argv += ["--communities", str(communities_path)]
    assert main([command, *argv]) == EXIT_OK
    if command == "detect":
        assert (out / "communities.txt").read_text()
        assert splits == []
    else:
        assert sorted(splits) == ["left", "right"]


def test_stages_are_worker_count_independent(inputs):
    # --workers still parses and changes nothing, manifest.json included
    graph_path, communities_path, tmp_path = inputs
    files = []
    for flag in ([], ["--workers", "2"]):
        out = tmp_path / "out"
        argv = ["domsets", "--graph", str(graph_path), "--communities", str(communities_path), "--out", str(out)]
        assert main(argv + flag) == EXIT_OK
        files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        for path in out.iterdir():
            path.unlink()
    assert files[0] == files[1]
    assert set(files[0]) == {"domsets.csv", "manifest.json"}


def test_pipeline_missing_graph_raises(tmp_path):
    config = RunConfig(graph_path=str(tmp_path / "missing.edges"), out_dir=str(tmp_path / "o"))
    with pytest.raises(OSError):
        run_pipeline(config)
