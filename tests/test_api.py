import ast
import importlib.util
import inspect
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


def test_benchmark_tracer_names_resolve():
    """Every function and method the benchmark tracer names exists, so a
    rename in crjet cannot silently zero a per-layer metric."""
    path = SRC.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for short, names in tracer.SPANS.items():
        mod = importlib.import_module(f"crjet.{short}")
        missing += [f"{short}.{name}" for name in names
                    if not inspect.isfunction(getattr(mod, name, None))]
    for short, cls_name, methods, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"crjet.{short}"), cls_name, None)
        missing += [f"{short}.{cls_name}.{meth}" for meth in methods
                    if cls is None or meth not in vars(cls)]
    assert set(tracer.SPANS) == set(tracer.MODULES)
    assert missing == []
