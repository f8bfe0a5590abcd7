"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "commkit"


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_is_stdlib_only():
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) > 10
    foreign = [
        f"{path.name}: {name}"
        for path in paths
        for name in _imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"commkit"}
    ]
    assert foreign == []
