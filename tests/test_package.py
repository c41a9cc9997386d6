"""The package's public surface: every imported name is used, every
private module-level name and every method of a class is read, a module
loads only the modules it imports, and every record keeps one contract."""

import ast
import copy
import math
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from phasenu.acceptance import CheckResult
from phasenu.hydrogen import PhysicalParams, assemble_wavefunction, canonical_config
from phasenu.nu import NuBranch, NuProblem, NuState
from phasenu.numeric import ExpPowerTerm, Poly
from phasenu.opspace import GEta, OpPoint
from phasenu.oracle import RadialGrid

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names a module imports and never uses; a name read in a string
    annotation counts as used."""
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


def unread_methods(defining, reading):
    """Methods and properties, special ones aside, of the module-level
    classes in ``defining`` (name -> source text) that no source in
    ``reading`` reads as an attribute."""
    defined = {}
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    defined[f"{node.name}.{item.name}"] = f"{module}:{item.lineno}"
    read = {
        node.attr
        for source in reading
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} ({where})" for name, where in defined.items() if name.split(".")[1] not in read)


def test_every_private_name_is_read():
    """Every private module-level name of the package, and every method and
    property of its classes, has a reader: a method read only by the tests
    is code the package carries for them."""
    assert dead_private_names(
        {"a.py": "_GROUP = frozenset({0, 1})\n_used = 2\ndef _f(): return _used\n"}
    ) == ["_GROUP (a.py:1)", "_f (a.py:3)"]
    assert dead_private_names({"a.py": "def _f(): pass\n", "b.py": "import a\na._f()\n"}) == []
    files = sorted((ROOT / "src/phasenu").glob("*.py"))
    sources = {f.name: f.read_text(encoding="utf-8") for f in files}
    assert dead_private_names(sources) == []
    cls = "class C:\n    def __call__(self): pass\n    @property\n    def p(self): pass\n    def _m(self): pass\n"
    assert unread_methods({"a.py": cls}, [cls, "C()._m = 1\n"]) == ["C._m (a.py:5)", "C.p (a.py:4)"]
    assert unread_methods({"a.py": cls}, ["C().p\nC()._m()\n"]) == []
    readers = [f for d in ("src/phasenu", "scripts", "perfbench") for f in sorted((ROOT / d).glob("*.py"))]
    assert unread_methods(sources, [f.read_text(encoding="utf-8") for f in readers]) == []


def unvaried_defaults(defining, calling):
    """Parameters with a default, of the functions and methods in
    ``defining`` (name -> source text), for which no call in ``calling``
    passes a value other than the default's source text, by keyword, by
    position, or through ``*`` or ``**``.  A call matches by the name it
    calls, a class's ``__init__`` or ``__new__`` by the class name."""
    params = {}  # callee -> [(parameter, positional index or None, default text, where)]
    for module, source in defining.items():
        tree = ast.parse(source)
        owner = {
            item: node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if node in owner:  # a method: the call binds self
                positional = positional[1:]
            callee = owner[node] if node.name in ("__init__", "__new__") and node in owner else node.name
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults)]
            pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for name, default in pairs:
                index = positional.index(name) if name in positional else None
                where = f"{module}:{node.lineno}"
                params.setdefault(callee, []).append((name, index, ast.unparse(default), where))
    varied = set()
    for source in calling:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), None)
            double_star = any(kw.arg is None for kw in call.keywords)
            for name, index, default, _ in params.get(callee, ()):
                values = [kw.value for kw in call.keywords if kw.arg == name]
                if index is not None and (star is None or index < star) and index < len(call.args):
                    values.append(call.args[index])
                through_star = index is not None and star is not None and star <= index
                if double_star or through_star or any(ast.unparse(v) != default for v in values):
                    varied.add((callee, name))
    return sorted(
        f"{callee}({name}) ({where})"
        for callee, found in params.items()
        for name, _, _, where in found
        if (callee, name) not in varied
    )


def test_every_default_is_varied_by_a_caller():
    """A default that no caller in the package, its scripts or its
    benchmark ever replaces is an option only tests set: a constant does
    the same with one configuration fewer."""
    src = (
        "def f(a, b=1, *, c=None): pass\n"
        "class C:\n    def __init__(self, x=0): pass\n    def m(self, y=2): pass\n"
    )
    assert unvaried_defaults({"a.py": src}, ["f(0, 1, c=None)\nC()\nC().m(3)\n"]) == [
        "C(x) (a.py:3)", "f(b) (a.py:1)", "f(c) (a.py:1)"
    ]
    assert unvaried_defaults({"a.py": src}, ["f(0, 2.0)\nf(**k)\nC(1)\nC().m(y=3)\n"]) == []
    assert unvaried_defaults({"a.py": src}, ["f(*a, c=1)\nC(*a)\nC().m(*a)\n"]) == []
    # a star after a reaches b, not c; g is no caller of f
    assert unvaried_defaults({"a.py": src}, ["f(0, *a)\ng(0, 2, c=1)\n"]) == [
        "C(x) (a.py:3)", "f(c) (a.py:1)", "m(y) (a.py:4)"
    ]
    new = "class D:\n    def __new__(cls, z=0): pass\n"
    assert unvaried_defaults({"a.py": new}, ["D()\n"]) == ["D(z) (a.py:2)"]
    assert unvaried_defaults({"a.py": new}, ["D(1)\n"]) == []
    sources = {f.name: f.read_text(encoding="utf-8") for f in sorted((ROOT / "src/phasenu").glob("*.py"))}
    readers = [f for d in ("src/phasenu", "scripts", "perfbench") for f in sorted((ROOT / d).glob("*.py"))]
    assert unvaried_defaults(sources, [f.read_text(encoding="utf-8") for f in readers]) == []


def imported_modules(source):
    """Top-level names of the modules a source imports from."""
    tree = ast.parse(source)
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return {name.split(".")[0] for name in names}


def test_the_solver_runs_on_floats():
    """nu and hydrogen solve real equations: complex arithmetic is left to
    evaluating psi at a complex A, in numeric, which nu does not import:
    a solved state holds floats only."""
    assert imported_modules("import cmath.x\nfrom math import sqrt\n") == {"cmath", "math"}
    assert imported_modules("from .numeric import Poly\n") == {"numeric"}
    for name in ("nu.py", "hydrogen.py"):
        source = (ROOT / "src/phasenu" / name).read_text(encoding="utf-8")
        assert "cmath" not in imported_modules(source), name
    nu_source = (ROOT / "src/phasenu/nu.py").read_text(encoding="utf-8")
    assert "numeric" not in imported_modules(nu_source)


def fresh_stdout(code):
    """What ``code`` prints in a fresh interpreter that finds the package
    in ``src/``; ``-S`` keeps site's own imports out of ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_import_no_dataclasses_inspect_or_statistics():
    """A fresh ``import phasenu.cli``, the import of every command, loads
    none of these: the records are NamedTuples and the oracle's mean is an
    fsum."""
    code = "import sys, phasenu.cli; print(*sorted({'dataclasses', 'inspect', 'statistics'} & set(sys.modules)))"
    assert fresh_stdout(code) == "\n"


@pytest.mark.parametrize(
    "layer, loaded",
    [
        ("opspace", ["phasenu", "phasenu.errors", "phasenu.opspace"]),
        ("nu", ["phasenu", "phasenu.errors", "phasenu.nu"]),
        ("oracle", ["phasenu", "phasenu.errors", "phasenu.oracle"]),
    ],
    ids=["opspace", "nu", "oracle"],
)
def test_a_layer_loads_only_the_modules_it_imports(layer, loaded):
    """``phasenu`` itself imports nothing, so a fresh import of one layer
    loads that layer and what it imports, not the rest; the oracle names
    the solver's records in annotations only, so it loads no solver module."""
    code = (
        f"import sys, phasenu.{layer}; "
        "print(*sorted(n for n in sys.modules if n.partition('.')[0] == 'phasenu'))"
    )
    assert fresh_stdout(code).split() == loaded


#: One of each record of the package but WavefunctionForm, whose bound
#: evaluator is a closure, which pickle refuses.
RECORDS = [
    OpPoint(-3.0, 1.0, -2.0, 1.0),
    GEta((1, 0, -1, 1)),
    NuProblem(1.0, (-2.0, 2.0)),
    NuState(NuProblem(1.0, (-2.0, 2.0)), 1, 0.25, NuBranch(1.0, -0.5, 1.5, -0.5, 5.0, -1.0)),
    NuBranch(1.0, -0.5, 1.5, -0.5, 5.0, -1.0),
    PhysicalParams(mass=2.0, angular_momentum=1),
    Poly((1.0, 2.0)),
    ExpPowerTerm((0.0, 1.0), -0.5, 1.5),
    RadialGrid(50.0, 200),
    CheckResult("criterion", "detail", True, "measure"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_survive_pickle_and_deepcopy(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record
    again = copy.deepcopy(record)
    assert type(again) is type(record) and again == record


@pytest.mark.parametrize(
    "record",
    [*RECORDS, assemble_wavefunction(PhysicalParams(), canonical_config(-3.0), 1)],
    ids=lambda r: type(r).__name__,
)
def test_records_are_slotted_and_frozen(record):
    """Each record has slots on its type and no ``__dict__``, and refuses
    assignment to a field or to a new attribute."""
    assert "__slots__" in vars(type(record)) and not hasattr(record, "__dict__")
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


#: Each checked record, fields its checks refuse, and the refusal.
FORGED = [
    (GEta, ((1.5, 1, 1, 1),), "diagonal entries must be integers"),
    (NuProblem, (0.0, (1.0, 2.0)), "c must be nonzero"),
    (PhysicalParams, (0.0, 1.0, 1.0, 1.0, 0), "mass must be finite and positive"),
    (Poly, ((1.0, math.nan),), "non-finite value not admitted: coeffs"),
    (ExpPowerTerm, (Poly((1.0,)), math.inf, 0.0), "non-finite value not admitted: rate"),
    (RadialGrid, (100.0, 10), "n_points must be an int of at least 100"),
]


@pytest.mark.parametrize("cls, fields, message", FORGED, ids=[c.__name__ for c, *_ in FORGED])
def test_restored_records_are_checked_again(cls, fields, message):
    """Unpickling (protocol 2 and up) and deepcopy rebuild a checked record
    through its ``__new__``, so one forged around the checks is refused.
    Protocols 0 and 1 rebuild a tuple subclass without calling it."""
    forged = tuple.__new__(cls, fields)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(forged, protocol)
        with pytest.raises(ValueError, match=message):
            pickle.loads(data)
    with pytest.raises(ValueError, match=message):
        copy.deepcopy(forged)
