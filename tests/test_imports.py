"""Which package modules import which scipy subpackages.

scipy.linalg (LAPACK) is called from xbound.linalg alone and scipy.optimize
from xbound.oracle alone, so a port of either to numpy edits one module.
The imports are read from each module's syntax tree, not by importing it.
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
