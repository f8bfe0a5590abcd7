import json
from pathlib import Path

import pytest

from commkit.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from conftest import DATA_DIR

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


def test_bad_parameter_is_config_error(workdir, capsys):
    code = main(_args(workdir, "all", "--p", "1.5"))
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


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
