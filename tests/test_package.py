"""The package's public surface: every exported name resolves, every
imported name is used, and every private module-level name is read."""

import ast
import pathlib

import phasenu

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in phasenu.__all__ if not hasattr(phasenu, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from phasenu import *", namespace)
    assert set(phasenu.__all__) <= set(namespace)


def unused_imports(source):
    """Names a module imports and never uses; a name listed in ``__all__``
    or read in a string annotation counts as used."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = [getattr(node, key, None) for key in ("annotation", "returns")]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    text = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(text) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    assert unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == [
        "Sequence (line 2)"
    ]
    assert unused_imports("from typing import Sequence\nx: 'Sequence[int]'\n") == []
    dirs = ("src/phasenu", "scripts", "tests")
    files = [f for d in dirs for f in sorted((ROOT / d).glob("*.py"))]
    found = {str(f.relative_to(ROOT)): unused_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def dead_private_names(sources):
    """Private module-level functions, classes and assignments of the
    modules in ``sources`` (name -> source text) that no module reads."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_every_private_name_is_read():
    assert dead_private_names(
        {"a.py": "_GROUP = frozenset({0, 1})\n_used = 2\ndef _f(): return _used\n"}
    ) == ["_GROUP (a.py:1)", "_f (a.py:3)"]
    assert dead_private_names({"a.py": "def _f(): pass\n", "b.py": "import a\na._f()\n"}) == []
    files = sorted((ROOT / "src/phasenu").glob("*.py"))
    assert dead_private_names({f.name: f.read_text(encoding="utf-8") for f in files}) == []


def imported_modules(source):
    """Top-level names of the modules a source imports from."""
    tree = ast.parse(source)
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return {name.split(".")[0] for name in names}


def test_the_solver_runs_on_floats():
    """nu and hydrogen solve real equations: complex arithmetic is left to
    evaluating psi at a complex A, in numeric."""
    assert imported_modules("import cmath.x\nfrom math import sqrt\n") == {"cmath", "math"}
    for name in ("nu.py", "hydrogen.py"):
        source = (ROOT / "src/phasenu" / name).read_text(encoding="utf-8")
        assert "cmath" not in imported_modules(source), name
