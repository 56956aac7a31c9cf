"""Which package modules import which scipy subpackages, who diagonalizes, who runs L-BFGS.

scipy.linalg (LAPACK) is called from xbound.linalg alone and scipy.optimize
from xbound.oracle alone, so a port of either to numpy edits one module.
A state is factored by one rule, linalg._eigen_factor, the only function
that diagonalizes one.  Both searches run L-BFGS through oracle._multistart,
the only caller of oracle.minimize.  The imports and calls are read from
each module's syntax tree, not by importing it.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xbound"


def imported_modules(path: Path) -> set[str]:
    """Dotted names a module imports; `from a import b` yields both a and a.b."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("package,owner", [("scipy.linalg", "linalg"),
                                           ("scipy.optimize", "oracle")])
def test_scipy_subpackage_has_one_importer(package, owner):
    importers = {path.stem for path in SRC.glob("*.py")
                 if any(name == package or name.startswith(package + ".")
                        for name in imported_modules(path))}
    assert importers == {owner}


def name_users(path: Path, name: str) -> set[str]:
    """Functions of a module that name name, as an attribute or an imported name."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.alias) and child.name == name):
                users.add(f"{path.stem}.{scope}")
            visit(child, scope)
    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return users


def test_eigh_has_one_owner_per_rule():
    # _takagi diagonalizes its real 2r x 2r Takagi matrix, not a state.
    users = set().union(*(name_users(path, "eigh") for path in SRC.glob("*.py")))
    assert users == {"linalg._eigen_factor", "two_qubit._takagi"}


def test_minimize_has_one_caller():
    # Every L-BFGS run is one start's stage in _multistart, so a batched
    # search replaces one loop.
    users = set().union(*(name_users(path, "minimize") for path in SRC.glob("*.py")))
    assert users == {"oracle._multistart"}


def test_rank_tolerance_defined_once():
    owners = [path.stem for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and target.id == "_RANK_TOL"]
    assert owners == ["linalg"]
