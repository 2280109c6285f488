"""The module layout of the package: modules reach each other through
public names only, and the eigen solver depends on no module that uses it."""
import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "hilbertlab"
MODULES = sorted(path.stem for path in SOURCE.glob("*.py"))


def sibling_imports(module: str) -> list[tuple[str | None, str]]:
    """(sibling, name) for each name a relative import of the module binds:
    `from .gaps import row_blocks` gives ("gaps", "row_blocks"), and
    `from . import eigen` gives (None, "eigen")."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_the_source_is_found():
    assert {"eigen", "quadforms", "spectra", "spacing"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_is_imported_from_a_sibling(module):
    assert [f"{sibling}.{name}" for sibling, name in sibling_imports(module)
            if sibling is not None and name.startswith("_")] == []


def test_eigen_imports_only_the_modules_below_it():
    siblings = {sibling or name for sibling, name in sibling_imports("eigen")}
    assert siblings <= {"_util", "errors", "gaps"}
    assert not siblings & {"quadforms", "spectra", "search", "suites", "cli"}
