"""Tooling scans: no module of the package imports a name it never uses,
and none imports the loss registry ``losses``, which is test support in
``tests/losses.py``.

``__init__.py`` files are left out of the first scan: they import names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import mcsda

SRC = Path(mcsda.__file__).resolve().parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no name in it loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nos.sep\nloads\n"
    assert unused_imports(source) == ["d", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def imports_losses(source: str) -> bool:
    """Whether ``source`` imports the module ``losses`` or a name from it,
    in any spelling, absolute or relative."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("losses" in m.split(".") for m in modules):
            return True
    return False


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from ..losses import registered_losses\n", True),
        ("from .losses import RegisteredLoss as R\n", True),
        ("from . import losses\n", True),
        ("from mcsda import losses\n", True),
        ("import mcsda.losses\n", True),
        ("def f():\n    from mcsda.losses import registered_losses\n", True),
        ("from .surrogates import _PAIR_KERNELS, _pair_core\nlosses = {}\n", False),
    ],
)
def test_the_scan_finds_an_import_of_the_loss_registry(source, flagged):
    assert imports_losses(source) is flagged


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_module_imports_the_loss_registry(path):
    # the registry and its samplers serve the audit in the tests; the steps
    # call the loss cores by name
    assert not imports_losses(path.read_text())
