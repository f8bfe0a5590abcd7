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


def _unused_imports(path):
    """Names a module imports but never references, except ``__future__`` and ``# noqa: F401`` lines."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    paths = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    assert [entry for path in paths for entry in _unused_imports(path)] == []
