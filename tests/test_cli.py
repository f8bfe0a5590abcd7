import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commkit.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, _config_from_args, build_parser, main
from commkit.detect import DetectParams
from commkit.errors import ConfigError
from commkit.pipeline import STAGES, RunConfig, run_pipeline
from graphs import DATA_DIR

GRAPH = "\n".join(
    f"a{i} a{j}" for i in range(5) for j in range(i + 1, 5)
) + "\n" + "\n".join(
    f"b{i} b{j}" for i in range(5) for j in range(i + 1, 5)
) + "\na0 b0\n"

COMMUNITIES = "left: a0 a1 a2 a3 a4\nright: b0 b1 b2 b3 b4\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "graph.edges").write_text(GRAPH)
    (tmp_path / "communities.txt").write_text(COMMUNITIES)
    return tmp_path


def _metadata(workdir):
    """A metadata file on which both cliques predict keywords."""
    lines = []
    for prefix, topic in (("a", "spin glasses"), ("b", "neural networks")):
        lines.append(f"{prefix}0\tCore paper on {topic}\toverview\t{topic}; review")
        for i in range(1, 5):
            lines.append(f"{prefix}{i}\tNotes on {topic}\tdetails\t")
    path = workdir / "meta.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _args(workdir, command, *extra, communities=True):
    args = [command, "--graph", str(workdir / "graph.edges")]
    if communities:
        args += ["--communities", str(workdir / "communities.txt")]
    args += ["--out", str(workdir / "out")]
    return args + list(extra)


def test_all_subcommand_runs_clean(workdir):
    assert main(_args(workdir, "all")) == EXIT_OK
    out = workdir / "out"
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()


def test_detect_subcommand(workdir, capsys):
    code = main(
        _args(workdir, "detect", "--min-size", "3", "--max-size", "10", communities=False)
    )
    assert code == EXIT_OK
    assert "detected 2 communities" in capsys.readouterr().out
    assert (workdir / "out" / "communities.txt").exists()
    assert (workdir / "out" / "communities_meta.csv").exists()


def test_stage_subcommands_chain(workdir):
    assert main(_args(workdir, "domsets")) == EXIT_OK
    assert main(_args(workdir, "slopes")) == EXIT_OK
    assert main(_args(workdir, "metrics")) == EXIT_OK
    assert main(_args(workdir, "report")) == EXIT_OK
    assert (workdir / "out" / "summary.csv").exists()


def test_missing_graph_is_input_error(workdir, capsys):
    code = main(
        [
            "all",
            "--graph",
            str(workdir / "nope.edges"),
            "--out",
            str(workdir / "out"),
        ]
    )
    assert code == EXIT_INPUT
    assert "nope.edges" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_unknown_label_is_input_error(workdir, capsys):
    (workdir / "bad.txt").write_text("odd: a0 zz\n")
    code = main(
        [
            "domsets",
            "--graph",
            str(workdir / "graph.edges"),
            "--communities",
            str(workdir / "bad.txt"),
            "--out",
            str(workdir / "out"),
        ]
    )
    assert code == EXIT_INPUT


def test_non_utf8_graph_is_input_error(workdir, capsys):
    (workdir / "graph.edges").write_bytes(b"a b\n\xff\xfe c\n")
    code = main(_args(workdir, "all", communities=False))
    assert code == EXIT_INPUT
    assert "line 2: not valid UTF-8" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def _tables(out):
    """Every artifact in ``out`` but manifest.json, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "manifest.json"}


def _same_tables(out, reference, names):
    staged, expected = _tables(out), _tables(reference)
    return {name: staged[name] for name in names} == {name: expected[name] for name in names}


# the tables each stage but detect writes for the two cliques
STAGE_TABLES = {
    "domsets": {"domsets.csv"},
    "slopes": {"slopes.csv"},
    "metrics": {"community_stats.csv"},
    "keywords": {"keyword_predictions.jsonl", "keyword_curve.csv"},
    "report": {"summary.csv", "triangle_split.csv", "distributions_summary.csv"}
    | {f"dist_{name}.csv" for name in ("islope", "eslope", "size", "ccc")},
}


@pytest.mark.parametrize("stage", list(STAGE_TABLES))
def test_each_stage_alone_writes_what_all_writes(workdir, stage):
    metadata = ["--metadata", str(_metadata(workdir))]
    assert main(_args(workdir, "all", *metadata, "--out", str(workdir / "all"))) == EXIT_OK
    assert main(_args(workdir, stage, *metadata, "--out", str(workdir / "alone"))) == EXIT_OK
    alone = _tables(workdir / "alone")
    assert set(alone) == STAGE_TABLES[stage]
    assert alone == {name: data for name, data in _tables(workdir / "all").items() if name in alone}


@pytest.mark.parametrize("flag, built, default", [("--k", "3", "5"), ("--p", "0.5", "0.8")])
def test_stages_after_another_k_or_p_write_what_all_writes(workdir, flag, built, default):
    for stage in ("domsets", "slopes", "metrics"):
        assert main(_args(workdir, stage, flag, built)) == EXIT_OK
    for stage in ("slopes", "report"):
        assert main(_args(workdir, stage, flag, default)) == EXIT_OK
    assert main(_args(workdir, "all", "--out", str(workdir / "all"))) == EXIT_OK
    assert _same_tables(workdir / "out", workdir / "all", {"slopes.csv", *STAGE_TABLES["report"]})
    assert not _same_tables(workdir / "out", workdir / "all", {"domsets.csv"})  # as the first domsets run wrote it


def test_stages_after_another_community_order_write_what_all_writes(workdir):
    for stage in ("domsets", "slopes", "metrics"):
        assert main(_args(workdir, stage)) == EXIT_OK
    (workdir / "communities.txt").write_text("right: b0 b1 b2 b3 b4\nleft: a0 a1 a2 a3 a4\n")
    assert main(_args(workdir, "report")) == EXIT_OK
    assert main(_args(workdir, "all", "--out", str(workdir / "all"))) == EXIT_OK
    assert _same_tables(workdir / "out", workdir / "all", STAGE_TABLES["report"])


def test_slopes_after_domsets_on_another_graph_writes_what_all_writes(tmp_path):
    # the same nodes with every 7th line of the edge list left out (awk 'NR % 7')
    data = DATA_DIR / "football"
    lines = (data / "football.edges").read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.edges"
    cut.write_text("".join(line for number, line in enumerate(lines, start=1) if number % 7))
    runs = [("domsets", data / "football.edges", "out"), ("slopes", cut, "out"), ("all", cut, "all")]
    for command, graph, out in runs:
        argv = [command, "--graph", str(graph), "--communities", str(data / "football.conferences")]
        assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_OK
    assert _same_tables(tmp_path / "out", tmp_path / "all", {"slopes.csv"})


def test_report_after_stages_on_other_members_writes_what_all_writes(workdir):
    for stage in ("domsets", "slopes", "metrics"):
        assert main(_args(workdir, stage)) == EXIT_OK
    (workdir / "communities.txt").write_text("left: a0 a1 a2 b0\nright: b1 b2 b3 b4 a4 a3\n")
    assert main(_args(workdir, "report")) == EXIT_OK
    assert main(_args(workdir, "all", "--out", str(workdir / "all"))) == EXIT_OK
    assert _same_tables(workdir / "out", workdir / "all", STAGE_TABLES["report"])


def test_repeated_community_id_is_input_error(workdir, capsys):
    (workdir / "communities.txt").write_text(COMMUNITIES + "left: b0 b1 b2\n")
    for command in ("all", "domsets"):
        assert main(_args(workdir, command)) == EXIT_INPUT
        assert "line 3: community id 'left' repeats line 1" in capsys.readouterr().err
    assert not (workdir / "out" / "domsets.csv").exists()


def test_label_repeated_in_one_community_is_input_error(workdir, capsys):
    (workdir / "communities.txt").write_text("left: a0 a1 a2 a1\nright: b0 b1 b2 b3 b4\n")
    for command in ("all", "metrics"):
        assert main(_args(workdir, command)) == EXIT_INPUT
        assert "line 1: community 'left' repeats label 'a1'" in capsys.readouterr().err
    assert not (workdir / "out" / "community_stats.csv").exists()


def test_label_repeated_in_metadata_is_input_error(workdir, capsys):
    path = _metadata(workdir)
    path.write_text(path.read_text() + "a2\tAnother paper\tabstract\tspin glasses\n")
    for command in ("all", "keywords"):
        assert main(_args(workdir, command, "--metadata", str(path))) == EXIT_INPUT
        assert "line 11: metadata label 'a2' repeats line 3" in capsys.readouterr().err
    assert not (workdir / "out" / "keyword_predictions.jsonl").exists()


def test_label_with_the_domsets_separator_is_input_error(workdir, capsys):
    # the p-internal set {a, h;a} would be written "a;h;a", which also reads as {a, h}
    (workdir / "graph.edges").write_text("a b\na c\nh;a d\nh;a e\nh x\nx a\nd y\n")
    (workdir / "communities.txt").write_text("c: a b c d e h h;a\n")
    for command in ("all", "domsets"):
        for fmt in ("csv", "json"):
            assert main(_args(workdir, command, "--format", fmt)) == EXIT_INPUT
            assert "node label 'h;a' contains ';'" in capsys.readouterr().err
            assert not (workdir / "out" / f"domsets.{fmt}").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_staged_report_equals_all_on_football(tmp_path, fmt):
    data = DATA_DIR / "football"
    common = ["--graph", str(data / "football.edges"), "--communities", str(data / "football.conferences")]
    common += ["--format", fmt]
    assert main(["all", *common, "--out", str(tmp_path / "all")]) == EXIT_OK
    for stage in ("domsets", "slopes", "metrics", "report"):
        assert main([stage, *common, "--out", str(tmp_path / "staged")]) == EXIT_OK
    staged = {path.name for path in (tmp_path / "staged").iterdir()} - {"manifest.json"}
    # domsets, slopes, community_stats, summary, triangle_split, distributions_summary, four dist_*
    assert len(staged) == 10
    for name in sorted(staged):
        assert (tmp_path / "staged" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name


def test_staged_chain_equals_all_with_detection_and_keywords(workdir):
    common = ["--graph", str(workdir / "graph.edges"), "--metadata", str(_metadata(workdir))]
    common += ["--min-size", "3", "--max-size", "10"]
    assert main(["all", *common, "--out", str(workdir / "all")]) == EXIT_OK
    staged = workdir / "staged"
    for stage in ("detect", "domsets", "slopes", "metrics", "keywords", "report"):
        given = [] if stage == "detect" else ["--communities", str(staged / "communities.txt")]
        assert main([stage, *common, *given, "--out", str(staged)]) == EXIT_OK
    names = {path.name for path in staged.iterdir()} - {"manifest.json"}
    assert names == {path.name for path in (workdir / "all").iterdir()} - {"manifest.json"}
    assert {"communities.txt", "keyword_predictions.jsonl", "keyword_curve.csv"} <= names
    assert (staged / "communities.txt").read_text().count("\n") == 2
    assert (staged / "keyword_predictions.jsonl").read_text().count("\n") >= 2
    for name in sorted(names):
        assert (staged / name).read_bytes() == (workdir / "all" / name).read_bytes(), name


# sha256 of every artifact but manifest.json (which records paths and the Python version)
# of `commkit all` on the bundled football data; any change to an output shows here.
CONFERENCES = ("--communities", str(DATA_DIR / "football" / "football.conferences"))
GOLDEN_FOOTBALL = {
    CONFERENCES: {
        "community_stats.csv": "05dd77fcac4bd6404b356cfb7a31f8ca72749c9b1c04373b0c99c5c3bd6bcf53",
        "dist_ccc.csv": "444a52b8a15a9ac965e478c815c4cd174c302d4d40d26f9241ca14ce7314917f",
        "dist_eslope.csv": "2dd21086bd8fe20c05e5c29406b7ac13d8a8577c4289b73f03a3739c3ee70be6",
        "dist_islope.csv": "c78a8e49570e593b8aaec08dc7fec1b2155aaa4179d386a82f8d7c9eff0166a1",
        "dist_size.csv": "dc53fbb4736b3e9477940acb5c3a97bc446d8c98755ded4247070fed41e0ae79",
        "distributions_summary.csv": "f1a3b307c3bb7429f326552ff89a42df28dae038d1415700a4d1350deb058236",
        "domsets.csv": "66d94e14158a0129ac2f2548521a9f4e9c15258163075aa5be4bd6444b4afd68",
        "slopes.csv": "4bd50e4eef1b446ca530fb394151155d510354849222bdbd659df676177013a4",
        "summary.csv": "69e06ed637af0f46de241b946ed1dd275e9eea0ed9fd964ff343db88b98b37f4",
        "triangle_split.csv": "e4aeb8d7d1f111ba485db255c0912a79ee233475f8c1a9a3cbb682eee6561cda",
    },
    (*CONFERENCES, "--format", "json"): {
        "community_stats.json": "db7ea1649f21258d917d62a043c8822db105be3fb8bb6bde77fef24ef6d51170",
        "dist_ccc.json": "9d46509e1e3354333e742b8c640c40feca7c82e9aabb60bd6913c7ef02f23c67",
        "dist_eslope.json": "58ff9d0d7985ff4b5dc171dd045a236b30320e546107657c27e91bbe1a49d1bc",
        "dist_islope.json": "0b22419fcc0aeba15706ee92a23f66efcc19fa078e2e6baee3555d31eae2cae4",
        "dist_size.json": "64c2793cf2e5cf0adc186e360c92d168a21e3c1007f4f8f13618dc9e1936e925",
        "distributions_summary.json": "2302eb36a11dc5be09f02eda5cdbd8464a22c3308ed58d0348baacdbe85d6512",
        "domsets.json": "7fbca40db049b7b3cb790291ff7b3f9c5114a2a8bbda67fc2867c0b8584f350b",
        "slopes.json": "a70993934423a55e679d88e785b1b81358fd56d730f9bb6a64d72adfcda8cc2f",
        "summary.json": "7690950f091eee614daab123f7ae5aa3f7b6189ed91e09bceaee3b650517f6f0",
        "triangle_split.json": "3871091efe5637ab07b2e86318b705f87882dbeb5e51edc78c05d47faa3b2aed",
    },
    (): {
        "communities.txt": "e4f7136c087a22003f0ce20b33fcf292f49c3007106bb1aa52259f4f4d51e844",
        "communities_meta.csv": "6eb920fed84fa9dfec542a62787288816b8a90beba1e2ca6d608a856f75bf112",
        "community_stats.csv": "032ec79de0ef06f9e40dd650ce31560570f2a605cb3397f32af2f56811a859d1",
        "dist_ccc.csv": "a3c06f122aea9166c839fcd7d9d2b2bec82b5dfd13362cb546743f8047ee30d8",
        "dist_eslope.csv": "496eb38c06c38b836276ce6b1e1e221d3b5f75a5cb229ebc36e9dc0ee9b03306",
        "dist_islope.csv": "bae37ea8068534c6189de1f451098cb651a929261b6378065b95382e6f20bfa7",
        "dist_size.csv": "5f0cc063efb2f0a872ae9f67ce92bb2b9c80f7d022a7c55bd06e9516a8d3c61d",
        "distributions_summary.csv": "6a9e96bb90055ed8a48208fb398c42aa7a8bcbfeba5c887e34f73ab0e2923674",
        "domsets.csv": "2618ab95a8b3b8664142e059ef16acd88c572d921f807ef3dd7a89f5405a6750",
        "slopes.csv": "eca1538647c41574057a1a06bc365384ef1ff897c11d55568f6b1679ec8c6d7b",
        "summary.csv": "1d2ddb0018c49a05ae1200ba9fa1c3727d3b4b192568c21275ad46005a928dae",
        "triangle_split.csv": "1f5a6f829984b407486b7a4c902ecf27fd70c81911cf2f30be8e6c948712703d",
    },
}


def test_football_artifacts_match_golden_digests(tmp_path):
    graph = str(DATA_DIR / "football" / "football.edges")
    for i, (extra, digests) in enumerate(GOLDEN_FOOTBALL.items()):
        out = tmp_path / str(i)
        assert main(["all", "--graph", graph, *extra, "--out", str(out)]) == EXIT_OK
        produced = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.name != "manifest.json"
        }
        assert produced == digests, extra


def test_all_is_byte_identical_across_hash_seeds(tmp_path):
    # default detection on football, with metadata: every artifact but the manifest (which
    # names the output directory) must not depend on string hashing
    graph = DATA_DIR / "football" / "football.edges"
    lines = graph.read_text().splitlines()
    teams = sorted({team for line in lines if not line.startswith("#") for team in line.split()})
    topics = ["option offense", "zone defense", "special teams"]
    rows = [
        f"{team}\t{team} on {topics[i % 3]}\tnotes\t" + ("" if i % 2 else f"{topics[i % 3]}; {team.lower()}")
        for i, team in enumerate(teams)
    ]
    metadata = tmp_path / "meta.tsv"
    metadata.write_text("\n".join(rows) + "\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    produced = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        argv = ["all", "--graph", str(graph), "--metadata", str(metadata), "--out", str(out)]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "commkit.cli", *argv], env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        produced.append({path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"})
    assert produced[0] == produced[1]
    assert produced[0]["keyword_predictions.jsonl"] and "communities.txt" in produced[0]


def test_manifest_records_what_the_loader_dropped(workdir):
    graph = str(DATA_DIR / "football" / "football.edges")
    out = workdir / "football"
    assert main(["all", "--graph", graph, *CONFERENCES, "--out", str(out)]) == EXIT_OK
    load = json.loads((out / "manifest.json").read_text())["load"]
    assert load == {"lines_read": 613, "self_loops_dropped": 0, "duplicate_edges_collapsed": 0}
    # a self-loop and a reversed duplicate of the bridge
    with (workdir / "graph.edges").open("a") as f:
        f.write("a1 a1\nb0 a0\n")
    assert main(_args(workdir, "metrics")) == EXIT_OK
    load = json.loads((workdir / "out" / "manifest.json").read_text())["load"]
    assert load == {"lines_read": 23, "self_loops_dropped": 1, "duplicate_edges_collapsed": 1}


def test_manifest_counts_metadata_records_that_name_no_node(tmp_path):
    # "n01 x" is one label with an inner space, so its row names no node and predicts nothing
    (tmp_path / "graph.edges").write_text("n01 n02\nn02 n03\n")
    (tmp_path / "communities.txt").write_text("c: n01 n02 n03\n")
    (tmp_path / "meta.tsv").write_text("n01 x\tT\tA\tspin glass\nn02\tT\tA\tspin glass\n")
    assert main(_args(tmp_path, "keywords", "--metadata", str(tmp_path / "meta.tsv"))) == EXIT_OK
    assert (tmp_path / "out" / "keyword_predictions.jsonl").read_text() == ""
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["metadata"] == {"records": 2, "labels_not_in_graph": 1}


def test_summary_and_distribution_means_agree(tmp_path):
    # summary.csv and distributions_summary.csv average the same per-community values
    graph = str(DATA_DIR / "football" / "football.edges")
    for i, extra in enumerate(((), CONFERENCES)):
        out = tmp_path / str(i)
        assert main(["all", "--graph", graph, *extra, "--out", str(out)]) == EXIT_OK
        with (out / "summary.csv").open(newline="") as f:
            [summary] = csv.DictReader(f)
        with (out / "distributions_summary.csv").open(newline="") as f:
            means = {row["variable"]: row["mean"] for row in csv.DictReader(f)}
        for variable in ("islope", "eslope", "ccc"):
            assert means[variable] == summary[f"mean_{variable}"], (extra, variable)


def test_bad_parameter_is_config_error(workdir, capsys):
    code = main(_args(workdir, "all", "--p", "1.5"))
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilon_is_config_error(workdir, capsys, value):
    code = main(_args(workdir, "detect", "--epsilon", value, communities=False))
    assert code == EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err


def test_keywords_without_metadata_is_config_error(workdir, capsys):
    (workdir / "graph.edges").unlink()  # a command that read its inputs would exit 1
    assert main(_args(workdir, "keywords")) == EXIT_CONFIG
    assert "error: keywords needs --metadata" in capsys.readouterr().err
    config = RunConfig(
        graph_path=str(workdir / "graph.edges"),
        communities_path=str(workdir / "communities.txt"),
        out_dir=str(workdir / "out"),
    )
    with pytest.raises(ConfigError, match="keywords needs --metadata"):
        run_pipeline(config, "keywords")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["domsets", "slopes", "metrics", "keywords", "report"])
def test_a_stage_without_communities_is_config_error_before_any_file_is_read(tmp_path, capsys, command):
    # neither input exists, so a command that read one would exit 1
    graph, metadata, out = (str(tmp_path / name) for name in ("missing.edges", "missing.tsv", "out"))
    assert main([command, "--graph", graph, "--metadata", metadata, "--out", out]) == EXIT_CONFIG
    assert f"error: {command} needs --communities" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=f"{command} needs --communities"):
        run_pipeline(RunConfig(graph_path=graph, metadata_path=metadata, out_dir=out), command)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("communities", [False, True], ids=["without-communities", "with-communities"])
def test_an_unknown_command_is_config_error_before_any_file_is_read(tmp_path, communities):
    # neither input exists, so a command that read one would raise OSError
    given = str(tmp_path / "missing.txt") if communities else None
    config = RunConfig(graph_path=str(tmp_path / "missing.edges"), communities_path=given, out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        run_pipeline(config, "bogus")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("communities", [None, "x: a0 zz\n"], ids=["nonexistent", "malformed"])
def test_detect_with_communities_is_config_error_before_any_file_is_read(workdir, capsys, communities):
    given = workdir / "given.txt"
    if communities is not None:
        given.write_text(communities)
    argv = ["detect", "--graph", str(workdir / "graph.edges"), "--communities", str(given), "--out", str(workdir / "out")]
    assert main(argv) == EXIT_CONFIG
    assert "error: detect reads no --communities" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_help_lists_every_command_from_one_parser(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with pytest.raises(SystemExit) as exited:
        main(["-h"])
    assert exited.value.code == EXIT_OK and len(built) == 1
    assert "{" + ",".join((*STAGES, "all")) + "}" in capsys.readouterr().out


def test_a_flag_not_given_keeps_its_config_default():
    # flags may precede the command
    args = build_parser().parse_args(["--graph", "g", "metrics", "--communities", "c"])
    assert _config_from_args(args) == RunConfig(graph_path="g", communities_path="c")


def test_every_detect_param_is_set_by_its_flag(workdir):
    # a field without a flag would be an option that no run reaches
    wanted = {name: default * 2 for name, default in DetectParams._field_defaults.items()}
    flags = [arg for name, value in wanted.items() for arg in (f"--{name.replace('_', '-')}", str(value))]
    args = build_parser().parse_args(_args(workdir, "detect", *flags, communities=False))
    assert _config_from_args(args).detect._asdict() == wanted


@pytest.mark.parametrize("command", ["domsets", "slopes", "metrics", "keywords", "report"])
def test_empty_community_file_is_skipped_like_all(workdir, command):
    (workdir / "communities.txt").write_text("# nothing\n")
    metadata = ["--metadata", str(_metadata(workdir))]
    assert main(_args(workdir, "all", *metadata)) == EXIT_OK
    notes = json.loads((workdir / "out" / "manifest.json").read_text())["notes"]
    assert [p.name for p in (workdir / "out").iterdir()] == ["manifest.json"]

    extra = metadata if command == "keywords" else []
    assert main(_args(workdir, command, *extra, "--out", str(workdir / "staged"))) == EXIT_OK
    assert [p.name for p in (workdir / "staged").iterdir()] == ["manifest.json"]
    staged_notes = json.loads((workdir / "staged" / "manifest.json").read_text())["notes"]
    assert staged_notes == notes[1:] == ["no communities; characterization skipped"]


def test_json_format_outputs(workdir):
    assert main(_args(workdir, "all", "--format", "json")) == EXIT_OK
    summary = json.loads((workdir / "out" / "summary.json").read_text())
    assert summary[0]["community_count"] == 2


def test_metadata_enables_keyword_stage(workdir):
    lines = []
    for prefix in ("a", "b"):
        lines.append(f"{prefix}0\tCore paper on spin glasses\toverview\tspin glasses")
        for i in range(1, 5):
            lines.append(f"{prefix}{i}\tNotes on spin glasses\tdetails\t")
    (workdir / "meta.tsv").write_text("\n".join(lines) + "\n")
    code = main(_args(workdir, "all", "--metadata", str(workdir / "meta.tsv")))
    assert code == EXIT_OK
    assert (workdir / "out" / "keyword_curve.csv").exists()
    assert (workdir / "out" / "keyword_predictions.jsonl").exists()


def _run_and_fingerprint(workdir):
    # the same output directory both times: identical config, identical bytes
    out = workdir / "run"
    code = main(
        [
            "all",
            "--graph",
            str(workdir / "graph.edges"),
            "--communities",
            str(workdir / "communities.txt"),
            "--out",
            str(out),
            "--workers",
            "4",
        ]
    )
    assert code == EXIT_OK
    return {
        path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.is_file()
    }


def test_repeat_runs_are_byte_identical(workdir):
    first = _run_and_fingerprint(workdir)
    second = _run_and_fingerprint(workdir)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


# ---------------------------------------------------------------------------
# malformed and re-encoded inputs through ``commkit all``

def _fuzz_inputs(workdir):
    """The three inputs of ``all``, as bytes; a title holds a two-byte character."""
    meta = _metadata(workdir).read_text().replace("Notes on", "Notes \u00e0 propos of")
    return {"graph.edges": GRAPH.encode(), "communities.txt": COMMUNITIES.encode(), "meta.tsv": meta.encode()}


def _run_all(directory, files, capsys):
    """Write ``files`` into ``directory``, run ``all`` there; (exit code, stderr, artifacts)."""
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    out = directory / "out"
    code = main(_args(directory, "all", "--metadata", str(directory / "meta.tsv")))
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err, err
    artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if code == EXIT_OK else {}
    artifacts.pop("manifest.json", None)
    return code, err, artifacts


@pytest.mark.parametrize(
    "encode",
    [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"\n", b"\r"),
        lambda data: b"\xef\xbb\xbf" + data,
        lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    ],
    ids=["crlf", "cr", "bom", "bom-crlf"],
)
def test_re_encoded_inputs_give_identical_artifacts(tmp_path, capsys, encode):
    files = _fuzz_inputs(tmp_path)
    code, _, expected = _run_all(tmp_path / "plain", files, capsys)
    assert code == EXIT_OK and "keyword_curve.csv" in expected
    code, err, artifacts = _run_all(tmp_path / "encoded", {n: encode(d) for n, d in files.items()}, capsys)
    assert code == EXIT_OK, err
    assert artifacts == expected


_MALFORMED = {
    "graph line with one token": ("graph.edges", lambda d: d + b"a0\n"),
    "graph line with three tokens": ("graph.edges", lambda d: d.replace(b"a0 a1\n", b"a0 a1 a2\n")),
    "graph cut after a line's first label": ("graph.edges", lambda d: d[: -len(b"b0\n")]),
    "graph not UTF-8": ("graph.edges", lambda d: d.replace(b"a0 b0", b"a0 b\xff0")),
    "empty graph": ("graph.edges", lambda d: b"\xef\xbb\xbf# nothing\r\n"),
    "community cut after its id": ("communities.txt", lambda d: d.replace(b" b0 b1 b2 b3 b4", b"")),
    "community cut inside a label": ("communities.txt", lambda d: d[: d.index(b"b4") + 1]),
    "label repeated in one community": ("communities.txt", lambda d: d.replace(b"a4", b"a4 a0")),
    "repeated community id": ("communities.txt", lambda d: d.replace(b"right", b"left")),
    "empty community id": ("communities.txt", lambda d: d.replace(b"right:", b":")),
    "metadata cut inside a character": ("meta.tsv", lambda d: d[: d.index("\u00e0".encode()) + 1]),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_inputs_exit_1(tmp_path, capsys, name):
    files = _fuzz_inputs(tmp_path)
    target, corrupt = _MALFORMED[name]
    files[target] = corrupt(files[target])
    code, err, _ = _run_all(tmp_path / "run", files, capsys)
    assert code == EXIT_INPUT, (code, err)
    assert err.startswith("error: ")


def test_cut_and_blanked_inputs_never_fail_internally(tmp_path, capsys):
    """Every input cut at every line end and inside every line, and every
    metadata field emptied, exits 0, 1 or 2, never 3 and never with a traceback."""
    files = _fuzz_inputs(tmp_path)
    variants = []
    for target, data in files.items():
        for cut in range(0, len(data), 3):
            variants.append({**files, target: data[:cut]})
    lines = files["meta.tsv"].split(b"\n")
    for row, line in enumerate(lines):
        for column in range(line.count(b"\t") + 1):
            fields = line.split(b"\t")
            fields[column] = b""
            variants.append({**files, "meta.tsv": b"\n".join(lines[:row] + [b"\t".join(fields)] + lines[row + 1 :])})
    codes = {_run_all(tmp_path / str(i), variant, capsys)[0] for i, variant in enumerate(variants)}
    assert codes <= {EXIT_OK, EXIT_INPUT, EXIT_CONFIG}
    assert EXIT_OK in codes and EXIT_INPUT in codes
