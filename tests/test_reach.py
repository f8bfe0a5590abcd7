"""Every public function of the layer modules, and every public ``Graph``
method and property, is reached by a ``commkit`` run.

Two runs of ``commkit all`` on the football data go through ``cli.main`` in
this process under ``sys.setprofile``: default detection with a metadata
file, then the ground-truth conferences as JSON tables.  Together they run
every stage.  A public function that neither run calls is library surface
that no user of the tool reaches; it belongs in the tests as an oracle, or
nowhere.
"""

import inspect
import sys
from importlib import import_module

from commkit.cli import main
from commkit.graph import Graph
from graphs import DATA_DIR

FOOTBALL = DATA_DIR / "football"

LAYERS = ("graph", "community", "detect", "domsets", "slopes", "metrics", "keywords", "distributions", "pipeline", "cli")

# Reached only by the benchmark's own tests; they leave the library once the
# benchmark change points those tests at live bindings (ROADMAP item 4).
UNREACHED = {
    "community.induced_subgraph",  # bench/tests/test_bench.py checks that the tracer wraps it
    "domsets.idr",  # bench/tests/test_bench.py checks that the tracer leaves it unwrapped
}


def _metadata(path):
    """One record per team: its conference as a keyword, left off every third team."""
    lines = []
    for line in (FOOTBALL / "football.conferences").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        conference, _, teams = line.partition(":")
        for i, team in enumerate(teams.split()):
            keywords = "" if i % 3 == 0 else f"{conference}; squad {i % 2}"
            lines.append(f"{team}\tA {conference} team\tIt plays in the {conference} conference\t{keywords}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _called(runs):
    """Code objects of every Python function that ``runs`` of ``cli.main`` call."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return called


def _public_surface():
    """``layer.name`` -> code object of every public function and ``Graph`` member."""
    surface = {}
    for layer in LAYERS:
        module = import_module(f"commkit.{layer}")
        for name, value in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
                surface[f"{layer}.{name}"] = value.__code__
    for name, value in vars(Graph).items():
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            value = value.fget
        if inspect.isfunction(value):
            surface[f"graph.Graph.{name}"] = value.__code__
    return surface


def test_every_public_function_is_reached_by_a_run(tmp_path):
    graph = ["--graph", str(FOOTBALL / "football.edges")]
    called = _called(
        [
            ["all", *graph, "--metadata", str(_metadata(tmp_path / "meta.tsv")), "--out", str(tmp_path / "detected")],
            [
                "all", *graph, "--communities", str(FOOTBALL / "football.conferences"),
                "--format", "json", "--out", str(tmp_path / "conferences"),
            ],
        ]
    )
    unreached = {name for name, code in _public_surface().items() if code not in called}
    assert sorted(unreached - UNREACHED) == []
    assert sorted(UNREACHED - unreached) == []  # a kept name that is gone or now reached leaves the list
