import hashlib
import json
from pathlib import Path

import pytest

from commkit.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
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


def _staged_tables(workdir, fmt="csv"):
    for stage in ("domsets", "slopes", "metrics"):
        assert main(_args(workdir, stage, "--format", fmt)) == EXIT_OK
    return workdir / "out"


def test_bad_stage_table_cell_is_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    lines = (out / "community_stats.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "size"
    cells = lines[2].split(",")
    cells[1] = "abc"
    lines[2] = ",".join(cells)
    (out / "community_stats.csv").write_text("\n".join(lines) + "\n")
    assert main(_args(workdir, "report")) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "community_stats.csv" in err and "row 2" in err and "'size'" in err


def test_truncated_stage_table_row_is_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    lines = (out / "slopes.csv").read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:3])
    (out / "slopes.csv").write_text("\n".join(lines) + "\n")
    assert main(_args(workdir, "report")) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "slopes.csv" in err and "row 1" in err and "'observed'" in err


def test_malformed_json_stage_table_is_input_error(workdir, capsys):
    out = _staged_tables(workdir, "json")
    (out / "slopes.json").write_text('[{"community_id": "left"')
    assert main(_args(workdir, "report", "--format", "json")) == EXIT_INPUT
    assert "slopes.json" in capsys.readouterr().err


def test_missing_stage_table_is_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    (out / "slopes.csv").unlink()
    assert main(_args(workdir, "report")) == EXIT_INPUT
    assert "missing stage output slopes" in capsys.readouterr().err


def test_incomplete_domsets_table_is_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    lines = (out / "domsets.csv").read_text().splitlines()
    (out / "domsets.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert main(_args(workdir, "report")) == EXIT_INPUT
    assert "domsets output incomplete for community 'right'" in capsys.readouterr().err


def test_stage_table_missing_a_community_is_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    lines = (out / "slopes.csv").read_text().splitlines()
    kept = [line for line in lines if not line.startswith("right,")]
    assert len(kept) == len(lines) - 2
    (out / "slopes.csv").write_text("\n".join(kept) + "\n")
    assert main(_args(workdir, "report")) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "slopes output" in err and "'right'" in err
    assert not (out / "summary.csv").exists()


def test_stage_tables_in_another_order_are_input_error(workdir, capsys):
    out = _staged_tables(workdir)
    (workdir / "communities.txt").write_text("right: b0 b1 b2 b3 b4\nleft: a0 a1 a2 a3 a4\n")
    assert main(_args(workdir, "report")) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "community_stats output" in err and "expected 'right', found 'left'" in err


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
        "distributions_summary.csv": "f6b23475415ec5861e9194daa88ea485634050e8b3a7c1b0b86aec97e3e3ed1f",
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
        "distributions_summary.json": "6f63169894995c737a7599389e8c437b5fb9eee84d09984ef63adf0bc864a9d3",
        "domsets.json": "7fbca40db049b7b3cb790291ff7b3f9c5114a2a8bbda67fc2867c0b8584f350b",
        "slopes.json": "a70993934423a55e679d88e785b1b81358fd56d730f9bb6a64d72adfcda8cc2f",
        "summary.json": "7690950f091eee614daab123f7ae5aa3f7b6189ed91e09bceaee3b650517f6f0",
        "triangle_split.json": "3871091efe5637ab07b2e86318b705f87882dbeb5e51edc78c05d47faa3b2aed",
    },
    (): {
        "communities.txt": "682def0d66542dc66753bfa599f49d711d256173b249bd7017430992f6f6cd82",
        "communities_meta.csv": "81ab6eec512f79d25fdf7ac7b2acbf2241797d2c10136828ccdc3bcab40d3e4b",
        "community_stats.csv": "a3e4e79bae6a5fb0d82c722407043d489644059e4ad505d0d3453b06348f38c2",
        "dist_ccc.csv": "2b6cce9cb5b99f0290e0f3bbb7e5c82d16760341535cb491f5caac00c23f75e3",
        "dist_eslope.csv": "cbc45528d7ca6eb98eb7c492cbbf8abe3b8c80f20baf259bd3cfeb339de75201",
        "dist_islope.csv": "bd0e1dce863dab52a25fed4fad02f0c9924042343eebc1b2d62b722c413e3a8f",
        "dist_size.csv": "6b38026dfcf310a737ab868933e572459086b301fdc1875152d3674c9ea0c460",
        "distributions_summary.csv": "0540daa2e15f1476aa98157e9c1bfccd16a7c3e88397b4ffc9ed64539d4cf3a6",
        "domsets.csv": "aa6ea30d60448d452d625b206b4e9389eb1e82e510ec3037767487455c51fdce",
        "slopes.csv": "b9f0bacf3ef9abfcbde09c9a58ffd1c778783a2801c01a54e44fd0e88206dd42",
        "summary.csv": "073ab8eff9264f84193d84a93e6496a852bc6b64eac5fac623f39fa13cf61efc",
        "triangle_split.csv": "9a7d049156c17fd0f430b6ea83125622926bdf131288e41490ba90457ed641eb",
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


def test_bad_parameter_is_config_error(workdir, capsys):
    code = main(_args(workdir, "all", "--p", "1.5"))
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilon_is_config_error(workdir, capsys, value):
    code = main(_args(workdir, "detect", "--epsilon", value, communities=False))
    assert code == EXIT_CONFIG
    assert "epsilon" in capsys.readouterr().err


def test_keywords_without_metadata_is_config_error(workdir):
    assert main(_args(workdir, "keywords")) == EXIT_CONFIG


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
