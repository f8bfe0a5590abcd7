"""What a process imports: the package's lazy exports, each subcommand's layers,
and none of the standard modules that only slow a start.

Import sets are read in fresh interpreters, because this process has
already imported every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commkit
import commkit.community
import commkit.detect
from commkit import cli
from graphs import DATA_DIR

SRC = Path(__file__).resolve().parent.parent / "src"
FOOTBALL = DATA_DIR / "football"

# Layers a subcommand may or may not need, and the thread pool's module, which none loads.
OPTIONAL = (
    "commkit.detect",
    "commkit.domsets",
    "commkit.slopes",
    "commkit.metrics",
    "commkit.keywords",
    "commkit.distributions",
)
POOL = "concurrent.futures"
# Standard modules no commkit process loads: importing ``dataclasses`` takes
# about 6 ms (Python 3.11, 2-vCPU Xeon VM), most of it for ``inspect``.
SLOW = ("dataclasses", "inspect")

# The optional layers each subcommand loads.
STAGE_LAYERS = {
    "detect": {"commkit.detect"},
    "domsets": {"commkit.domsets"},
    "slopes": {"commkit.domsets", "commkit.slopes"},
    "metrics": {"commkit.metrics", "commkit.distributions"},
    "keywords": {"commkit.domsets", "commkit.keywords"},
    "report": {"commkit.domsets", "commkit.slopes", "commkit.metrics", "commkit.distributions"},
}

PROBE = """\
import json
import sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(body: str, *args: str) -> set[str]:
    """The commkit, thread-pool and :data:`SLOW` modules a fresh interpreter holds once ``body`` has run."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    return {name for name in modules if name.startswith(("commkit", POOL)) or name in SLOW}


def _main(*argv: str) -> set[str]:
    return _loaded("from commkit import cli\nassert cli.main(sys.argv[1:]) == 0", *argv)


def test_importing_the_package_loads_no_layer():
    assert _loaded("import commkit") == {"commkit"}


def test_importing_the_cli_loads_only_what_config_and_loading_need():
    # no detection module: only the detect stage imports it
    assert _loaded("import commkit.cli") == {
        "commkit",
        "commkit.cli",
        "commkit.community",
        "commkit.config",
        "commkit.errors",
        "commkit.graph",
        "commkit.pipeline",
    }


@pytest.fixture(scope="module")
def football_run(tmp_path_factory):
    """Detection on football, and a metadata file for its keyword stage."""
    out = tmp_path_factory.mktemp("football")
    assert cli.main(["detect", "--graph", str(FOOTBALL / "football.edges"), "--out", str(out)]) == 0
    lines = (FOOTBALL / "football.edges").read_text().splitlines()
    labels = sorted({label for line in lines if not line.startswith("#") for label in line.split()})
    metadata = out / "meta.tsv"
    metadata.write_text("".join(f"{label}\t{label} season\tcollege games\tfootball; {label}\n" for label in labels))
    return out, metadata


def _stage_argv(stage, out, metadata):
    argv = [stage, "--graph", str(FOOTBALL / "football.edges"), "--out", str(out)]
    if stage != "detect":
        argv += ["--communities", str(out / "communities.txt")]
    if stage == "keywords":
        argv += ["--metadata", str(metadata)]
    return argv


@pytest.mark.parametrize("stage", list(STAGE_LAYERS))
def test_each_stage_loads_its_layers_and_no_pool_with_one_worker(football_run, stage):
    loaded = _main(*_stage_argv(stage, *football_run))
    assert loaded & {*OPTIONAL, POOL, *SLOW} == STAGE_LAYERS[stage]


def test_loading_metadata_loads_no_dominating_sets(football_run):
    out, metadata = football_run
    body = "from commkit.pipeline import RunConfig, load_inputs\nload_inputs(RunConfig(*sys.argv[1:]))"
    loaded = _loaded(body, str(FOOTBALL / "football.edges"), str(out / "communities.txt"), str(metadata))
    assert "commkit.keywords" in loaded
    assert "commkit.domsets" not in loaded


def test_workers_flag_loads_no_pool(football_run):
    # stages run serially: --workers still parses and starts no pool
    for stage in STAGE_LAYERS:
        loaded = _main(*_stage_argv(stage, *football_run), "--workers", "2")
        assert loaded & {*OPTIONAL, POOL, *SLOW} == STAGE_LAYERS[stage], stage


def test_every_export_is_its_defining_modules_object():
    for name in commkit.__all__:
        value = getattr(commkit, name)
        assert value.__module__.startswith("commkit.")
        assert getattr(sys.modules[value.__module__], name) is value
    assert commkit.ppr_thresholds is commkit.detect.ppr_thresholds
    assert set(commkit.__all__) <= set(dir(commkit))


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from commkit import *", namespace)
    assert {name: namespace[name] for name in commkit.__all__} == {
        name: getattr(commkit, name) for name in commkit.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'commkit' has no attribute 'no_such_name'"):
        commkit.no_such_name


def test_a_replaced_binding_shows_through_the_package(monkeypatch):
    original = commkit.community.load_communities
    replacement = object()
    monkeypatch.setattr(commkit.community, "load_communities", replacement)
    assert commkit.load_communities is replacement
    monkeypatch.undo()
    assert commkit.load_communities is original
