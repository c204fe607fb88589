import ast
import importlib.util
import inspect
from collections import Counter
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


def _referenced_names(tree):
    """Names read, attributes accessed and names imported anywhere in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unreferenced_definitions():
    """Every function, class and method in ``src/crjet`` (dunders excepted)
    is referenced by name outside its own body, in ``src/``, ``tests/`` or
    ``bench/``: code whose callers have all moved away is deleted with them."""
    root = SRC.parents[1]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))}
    everywhere = Counter(name for tree in trees.values()
                         for name in _referenced_names(tree))
    unreferenced = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                inside = Counter(_referenced_names(node))[node.name]
                if everywhere[node.name] <= inside:
                    unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_no_write_only_attributes():
    """Every attribute a class in ``src/crjet`` assigns on ``self`` is read
    as an attribute somewhere in ``src/``, ``tests/`` or ``bench/``."""
    root = SRC.parents[1]
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in read):
                    unread.append(f"{path.name}:{node.lineno} {cls.name}.{node.attr}")
    assert unread == []


def load_tracer():
    """The benchmark's ``bench/tracer.py``, loaded from this checkout."""
    path = SRC.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_names_resolve():
    """Every function and method the benchmark tracer names exists, so a
    rename in crjet cannot silently zero a per-layer metric."""
    tracer = load_tracer()
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


def test_package_names_follow_the_benchmark_tracer():
    """``crjet.<name>`` is looked up in its home module on every access and
    never cached in the package, so the tracer's wrappers show through the
    package while installed and the originals come back after uninstall."""
    import crjet.equivalence
    import crjet.upsilon
    originals = {"compute_D": crjet.upsilon.compute_D,
                 "reconstruct": crjet.equivalence.reconstruct}
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            assert getattr(crjet, name) is not original
        assert crjet.compute_D is crjet.upsilon.compute_D
        assert crjet.reconstruct is crjet.equivalence.reconstruct
        crjet.compute_D(crjet.family_mc(1, 1, 12))
        assert tracer.summary()["upsilon.compute_D"]["calls"] == 1
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        assert getattr(crjet, name) is original
        assert name not in vars(crjet)
