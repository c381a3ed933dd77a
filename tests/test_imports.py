"""Every module of the package reads every name it imports.  __init__.py
is exempt: its imports are the package's exports.  Every module-level
private function, class or constant is read somewhere in the package.
The test oracles also import only public names of the package, so that a
reference never leans on the internals it checks.  No module passes
MAX_MODULE_LINES."""

import ast
from pathlib import Path

import yperiod

PACKAGE = Path(yperiod.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"
# with bytecode caching off the largest module's compile peak sets the
# import's resident memory, so a module that grows past this is split
MAX_MODULE_LINES = 850


def unused_imports(source: str):
    """Names bound by the import statements of source that no expression
    reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def unused_private_names(sources):
    """Module-level private functions, classes and constants (a leading
    underscore, not a dunder) of the modules in sources, a dict from
    module name to source, that no module of them reads, as a name or as
    an attribute: sorted "module.name" strings."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{n}" for module, n in defined if n not in read)


def private_imports(source: str):
    """Names that source imports from the package and that are private:
    the name itself or a module on its path starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "yperiod"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yperiod":
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if any(part.startswith("_") for part in n.split("."))]
    return sorted(found)


def test_the_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from dataclasses import dataclass, replace\n"
        "from .quiver import Quiver as Q\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    q: Q\n"
        "\n"
        "def f():\n"
        "    return js.dumps(1)\n"
    )
    assert unused_imports(source) == ["os", "replace"]


def test_modules_use_every_name_they_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_modules_stay_under_the_line_ceiling():
    lines = {p.name: len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")}
    assert len(lines) >= 9
    assert {name: n for name, n in lines.items() if n > MAX_MODULE_LINES} == {}


def test_the_check_finds_unused_private_names():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_dead: int = 4\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _orphan():\n"
            "    return 1\n"
            "class _Box:\n"
            "    _inner = 1\n"
            "def f():\n"
            "    return _helper(1)\n"
        ),
        "b": "from . import a\n\ndef g():\n    return a._Box\n",
    }
    assert unused_private_names(sources) == ["a._dead", "a._orphan"]


def test_the_package_reads_every_private_name_it_defines():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []


def test_the_check_finds_private_names():
    source = (
        "import os._x\n"
        "import yperiod._hidden\n"
        "from yperiod.algebra import Polynomial, _Box\n"
        "from yperiod._core import thing\n"
        "from yperiod.seed import Seed\n"
    )
    assert private_imports(source) == [
        "yperiod._core.thing", "yperiod._hidden", "yperiod.algebra._Box"
    ]


def test_oracles_read_every_public_name_they_import():
    source = ORACLES.read_text()
    assert private_imports(source) == []
    assert unused_imports(source) == []


def test_the_exported_names_are_pinned():
    # one spelling per operation: adding or removing an export is a
    # deliberate edit of this list
    assert sorted(yperiod.__all__) == [
        "Bipartition", "CheckResult", "DivisibilityError", "DynkinType",
        "FoldingError", "GroupAction", "InputError", "Lift",
        "PeriodicityReport", "Polynomial", "Quiver", "RationalPoint", "Seed",
        "SeedInvariantError", "ValuedQuiver", "XExpression", "YExpression",
        "YSystemState", "action_from_labels", "algebra", "alternating_quiver",
        "alternating_valued_quiver", "bipartition", "cartan_matrix",
        "coxeter_element", "coxeter_number", "direct", "dynkin", "errors",
        "folding", "format_quiver", "incidence_matrix", "initial_state",
        "is_admissible", "is_constrained", "lift_dynkin", "mu_boxtimes_sequence",
        "mu_square_sequence", "mutate_set", "positive_roots",
        "product_action", "quiver", "quiver_from_json", "quiver_to_json",
        "report", "seed", "source_sink_vertices", "square_product",
        "symmetrizer", "tensor_product", "triangle_product",
        "valued_orbit_quiver", "verify_direct_ysystem", "verify_folding",
        "verify_periodicity", "y_system_step", "ysystem",
    ]
