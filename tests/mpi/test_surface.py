"""The simulated MPI offers only what its callers use.

An AST scan of ``src/``, ``benchmarks/e2e/`` and ``examples/``: every
public method defined on :class:`~repro.mpi.Comm`, its
:class:`~repro.mpi.collectives.CollectiveMixin` and
:class:`~repro.mpi.CartComm` must be called (a property: read)
somewhere there.  Calls inside :mod:`repro.mpi` count — ``create_cart``
calling ``Dup`` is one — and a class-level alias such as
``barrier = Barrier`` counts as the same method.  A method nobody calls
fails this test, so the surface cannot grow back into a library mirror.
The scan matches attribute names, not receiver types, so it can only
under-report: an unrelated ``.send(`` elsewhere would hide an unused
``Comm.send``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MPI = ROOT / "src" / "repro" / "mpi"
CLASSES = {
    "comm.py": "Comm",
    "collectives.py": "CollectiveMixin",
    "cart.py": "CartComm",
}
CALLERS = [ROOT / "src", ROOT / "benchmarks" / "e2e", ROOT / "examples"]


def _surface() -> tuple[dict[str, set[str]], set[str]]:
    """Public method / property names, each mapped to its alias group,
    and the subset that are properties."""
    groups: dict[str, set[str]] = {}
    properties: set[str] = set()
    for filename, cls in CLASSES.items():
        tree = ast.parse((MPI / filename).read_text())
        (node,) = [n for n in tree.body
                   if isinstance(n, ast.ClassDef) and n.name == cls]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                groups.setdefault(item.name, {item.name})
                if any(isinstance(d, ast.Name) and d.id == "property"
                       for d in item.decorator_list):
                    properties.add(item.name)
            elif (isinstance(item, ast.Assign)
                  and isinstance(item.value, ast.Name)
                  and item.value.id in groups):
                group = groups[item.value.id]
                for target in item.targets:
                    group.add(target.id)
                    groups[target.id] = group
    return groups, properties


def _used_attributes() -> tuple[set[str], set[str]]:
    """Attribute names called, and attribute names read at all, anywhere
    in the callers."""
    called: set[str] = set()
    read: set[str] = set()
    for base in CALLERS:
        for path in base.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)):
                    called.add(node.func.attr)
    return called, read


def test_surface_is_nonempty_and_groups_aliases():
    groups, properties = _surface()
    assert {"Send", "Recv", "Sendrecv", "Dup", "exchange_arrays",
            "neighbor"} <= set(groups)
    assert groups["barrier"] is groups["Barrier"] == {"Barrier", "barrier"}
    assert {"rank", "size", "dims"} <= properties


def test_every_public_method_has_a_caller():
    groups, properties = _surface()
    called, read = _used_attributes()
    unused = sorted({
        min(group) for group in groups.values()
        if not group & (read if group <= properties else called)
    })
    assert unused == [], (
        f"repro.mpi methods nobody in src/, benchmarks/e2e/ or examples/ "
        f"calls: {unused} — delete them or add the caller"
    )
