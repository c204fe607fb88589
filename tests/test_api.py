import ast
from pathlib import Path

import crjet

SRC = Path(crjet.__file__).parent


def test_every_public_name_resolves():
    missing = [name for name in crjet.__all__ if not hasattr(crjet, name)]
    assert missing == []


def test_no_unused_imports():
    """Every name a module imports is referenced in it (``__init__.py``
    re-exports and ``__future__`` imports excepted)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
