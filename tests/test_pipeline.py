import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from commkit import RunConfig, run_pipeline
from commkit.detect import DetectParams
from commkit.errors import ConfigError
from commkit.pipeline import (
    load_inputs,
    parallel_map,
    read_domsets,
    read_slopes,
    read_stats,
    read_table,
    stage_domsets,
    stage_metrics,
    stage_slopes,
    write_table,
)

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


def test_parallel_map_preserves_order():
    items = list(range(40))
    assert parallel_map(lambda x: x * x, items, workers=4) == [x * x for x in items]


def test_write_read_table_round_trip_csv(tmp_path):
    header = ["name", "value", "flag", "blank"]
    rows = [["a", 0.1, True, None], ["b", 2.0, False, None]]
    target = write_table(tmp_path / "t", header, rows, "csv")
    back = read_table(target)
    assert back == [
        {"name": "a", "value": "0.1", "flag": "true", "blank": ""},
        {"name": "b", "value": "2.0", "flag": "false", "blank": ""},
    ]


def test_write_read_table_round_trip_json(tmp_path):
    header = ["name", "value"]
    target = write_table(tmp_path / "t", header, [["a", 1.5]], "json")
    assert target.suffix == ".json"
    assert read_table(target) == [{"name": "a", "value": "1.5"}]


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
    meta = read_table(out / "communities_meta.csv")
    assert len(meta) == 2


def test_manifest_has_no_timestamps_and_full_config(inputs):
    graph_path, communities_path, tmp_path = inputs
    out = tmp_path / "out"
    run_pipeline(_config(graph_path, communities_path, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "commkit"
    assert manifest["config"]["graph_path"] == str(graph_path)
    # nothing run-dependent beyond the config itself
    assert set(manifest) == {"tool", "version", "python", "config", "notes"}


def test_stage_outputs_can_be_read_back(inputs):
    graph_path, communities_path, tmp_path = inputs
    # the whole graph is a closed community: its external rows hold None
    communities_path.write_text(TWO_CLIQUE_COMMUNITIES + "whole: a0 a1 a2 a3 a4 b0 b1 b2 b3 b4\n")
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        out.mkdir()
        config = _config(graph_path, communities_path, out, fmt=fmt)
        graph, communities, _ = load_inputs(config)
        bundles = stage_domsets(graph, communities, config, out)
        pairs = stage_slopes(graph, communities, config, out, bundles)
        stats = stage_metrics(communities, config, out)

        # every field comes back equal and of the same type; steps are never written
        written = [replace(getattr(b, f.name), steps=()) for b in bundles for f in fields(b)]
        again = [getattr(b, f.name) for b in read_domsets(out, graph) for f in fields(b)]
        assert again == written, fmt
        assert [[type(getattr(r, f.name)) for f in fields(r)] for r in again] == [
            [type(getattr(r, f.name)) for f in fields(r)] for r in written
        ], fmt
        assert {type(r.criterion_value) for r in again if r.criterion == "k"} == {int}, fmt
        assert pairs[-1][1].slope is None and bundles[-1].p_external.achieved_ratio is None
        assert read_slopes(out) == pairs, fmt
        assert read_stats(out) == stats, fmt


def test_stages_are_worker_count_independent(inputs):
    graph_path, communities_path, tmp_path = inputs
    serial = _config(graph_path, communities_path, tmp_path / "s", workers=1)
    parallel = _config(graph_path, communities_path, tmp_path / "p", workers=4)
    graph, communities, _ = load_inputs(serial)
    results = []
    for config in (serial, parallel):
        out = Path(config.out_dir)
        out.mkdir()
        results.append(
            (
                stage_domsets(graph, communities, config, out),
                stage_slopes(graph, communities, config, out),
                stage_metrics(communities, config, out),
            )
        )
    assert results[0] == results[1]


def test_pipeline_missing_graph_raises(tmp_path):
    config = RunConfig(graph_path=str(tmp_path / "missing.edges"), out_dir=str(tmp_path / "o"))
    with pytest.raises(OSError):
        run_pipeline(config)
