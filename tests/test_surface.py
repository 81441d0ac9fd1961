"""The package offers only what its callers use.

An AST scan of ``src/repro``: every public top-level function and
class, and every public method and property of a public class, must be
referenced somewhere under ``src/``, ``benchmarks/`` or ``examples/``
other than in its own definition (an import or an ``__all__`` entry is
not a reference).  A method counts when it is called; a property when
it is read; either when it is named in ``getattr(obj, "name")``.  A
class-level alias such as ``barrier = Barrier`` counts as the same
method, and a method that overrides one of a standard-library base
class (``Thread.run``, ``JSONEncoder.default``, ...) is called by that
library.  Tests do not count as callers: a name only a
test reads fails here, so the package cannot grow back a surface of
conveniences nobody uses.  The few test oracles that live in ``src/``
are listed in :data:`ORACLES` with the test that reads them.

The scan matches names, not receiver types, so it can only
under-report: an unrelated ``.gather(`` elsewhere hides an unused
``gather`` method.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = [ROOT / "src", ROOT / "benchmarks", ROOT / "examples"]

#: Reference implementations kept in ``src/`` for the tests that check
#: the solver against them: name -> the test that reads it.
ORACLES = {
    "rt_dispersion_sigma": "tests/core/test_physics.py",
    "fit_growth_rate": "tests/core/test_physics.py",
    "rk3_scalar_reference": "tests/core/test_physics.py",
    "brute_force_lists": "tests/spatial/test_neighbors.py",
    "fft_hop_counts": "tests/machine/test_pattern_consistency.py",
    "read_vtk_surface": "tests/io/test_io.py",
}


class _Definition:
    def __init__(self, path: Path, qualname: str, node: ast.AST, kind: str):
        self.path = path
        self.qualname = qualname
        self.node = node
        self.kind = kind  # "toplevel", "method" or "property"
        self.names = {qualname.rsplit(".", 1)[-1]}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _library_hooks(path: Path, cls: str) -> set[str]:
    """Method names a non-``repro`` base class of ``cls`` defines."""
    obj = getattr(importlib.import_module(_module_name(path)), cls)
    return {
        name
        for base in obj.__mro__[1:]
        if not base.__module__.startswith("repro")
        for name in vars(base)
    }


def _surface() -> list[_Definition]:
    """Every public definition the guard covers."""
    found: list[_Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _is_public(node.name)):
                found.append(_Definition(path, node.name, node, "toplevel"))
            if not isinstance(node, ast.ClassDef) or not _is_public(node.name):
                continue
            methods: dict[str, _Definition] = {}
            hooks = None
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and _is_public(item.name)):
                    if item.name in methods:  # a property setter
                        continue
                    if hooks is None:
                        hooks = _library_hooks(path, node.name)
                    if item.name in hooks:
                        continue
                    is_property = any(
                        isinstance(d, ast.Name) and d.id in (
                            "property", "cached_property")
                        for d in item.decorator_list
                    )
                    methods[item.name] = _Definition(
                        path, f"{node.name}.{item.name}", item,
                        "property" if is_property else "method",
                    )
                elif (isinstance(item, ast.Assign)
                      and isinstance(item.value, ast.Name)
                      and item.value.id in methods):
                    method = methods[item.value.id]
                    for target in item.targets:
                        method.names.add(target.id)
            found.extend(methods.values())
    return found


def _references(node: ast.AST) -> tuple[list[str], list[str]]:
    """(names read and attributes read, attributes called) under ``node``."""
    read: list[str] = []
    called: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.append(sub.attr)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            called.append(sub.func.attr)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id in ("getattr", "hasattr")
              and isinstance(sub.args[1], ast.Constant)):
            read.append(sub.args[1].value)  # getattr(obj, "name")
            called.append(sub.args[1].value)
    return read, called


def _caller_references() -> tuple[dict[str, int], dict[str, int]]:
    read: dict[str, int] = {}
    called: dict[str, int] = {}
    for base in CALLERS:
        for path in base.rglob("*.py"):
            r, c = _references(ast.parse(path.read_text()))
            for name in r:
                read[name] = read.get(name, 0) + 1
            for name in c:
                called[name] = called.get(name, 0) + 1
    return read, called


def _unreferenced() -> list[str]:
    read, called = _caller_references()
    unused = []
    for definition in _surface():
        own_read, own_called = _references(definition.node)
        if definition.kind == "method":
            table, own = called, own_called
        else:
            table, own = read, own_read
        if not any(table.get(name, 0) > own.count(name)
                   for name in definition.names):
            unused.append(definition.qualname)
    return sorted(set(unused) - set(ORACLES))


def test_surface_covers_functions_classes_methods_and_aliases():
    by_name = {d.qualname: d for d in _surface()}
    assert by_name["SurfaceMesh"].kind == "toplevel"
    assert by_name["build_config"].kind == "toplevel"
    assert by_name["Comm.Sendrecv"].kind == "method"
    assert by_name["Comm.rank"].kind == "property"
    assert by_name["CollectiveMixin.Barrier"].names == {"Barrier", "barrier"}
    assert set(ORACLES) <= set(by_name)


def test_oracles_are_read_by_their_test():
    for name, test in ORACLES.items():
        assert name in (ROOT / test).read_text(), (name, test)


def test_every_public_name_has_a_caller():
    unused = _unreferenced()
    assert unused == [], (
        f"public names nobody in src/, benchmarks/ or examples/ uses: "
        f"{unused} — delete them or add the caller"
    )
