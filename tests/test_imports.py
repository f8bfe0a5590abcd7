"""What a process imports: the package's lazy exports and each subcommand's layers.

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

# Layers a subcommand may or may not need, and the thread pool's module.
OPTIONAL = ("commkit.domsets", "commkit.slopes", "commkit.metrics", "commkit.keywords", "commkit.distributions")
POOL = "concurrent.futures"

# The optional layers each subcommand loads with --workers 1.
STAGE_LAYERS = {
    "detect": set(),
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
    """The commkit and thread-pool modules a fresh interpreter holds once ``body`` has run."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    return {name for name in modules if name.startswith(("commkit", POOL))}


def _main(*argv: str) -> set[str]:
    return _loaded("from commkit import cli\nassert cli.main(sys.argv[1:]) == 0", *argv)


def test_importing_the_package_loads_no_layer():
    assert _loaded("import commkit") == {"commkit"}


def test_importing_the_cli_loads_only_what_config_and_loading_need():
    assert _loaded("import commkit.cli") == {
        "commkit",
        "commkit.cli",
        "commkit.community",
        "commkit.detect",
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


@pytest.mark.parametrize("stage", list(STAGE_LAYERS))
def test_each_stage_loads_its_layers_and_no_pool_with_one_worker(football_run, stage):
    out, metadata = football_run
    argv = [stage, "--graph", str(FOOTBALL / "football.edges"), "--out", str(out), "--workers", "1"]
    if stage != "detect":
        argv += ["--communities", str(out / "communities.txt")]
    if stage == "keywords":
        argv += ["--metadata", str(metadata)]
    loaded = _main(*argv)
    assert loaded & {*OPTIONAL, POOL} == STAGE_LAYERS[stage]


def test_more_than_one_worker_imports_the_pool(football_run):
    out, _ = football_run
    argv = ["domsets", "--graph", str(FOOTBALL / "football.edges"), "--communities", str(out / "communities.txt")]
    assert POOL in _main(*argv, "--out", str(out / "pool"), "--workers", "2")


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
    original = commkit.community.boundary
    replacement = object()
    monkeypatch.setattr(commkit.community, "boundary", replacement)
    assert commkit.boundary is replacement
    monkeypatch.undo()
    assert commkit.boundary is original
