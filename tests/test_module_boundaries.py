"""Each module keeps its private names to itself, and linalg sits below tower.

Every ``from`` import between kummerkit modules, at the top of a module or
inside a function, is read off the source with ``ast``. A module that
imports another's underscore name has learnt its internals; the ground-int
form of an extension element, for one, is known to ``tower`` alone, which
``raw_mul_mod`` and ``raw_mat_apply`` reach through the field's methods.
``tower`` imports ``linalg`` (for the Frobenius matrix), so ``linalg``
must not import ``tower``. Only a ground field writes its values as ints
over one denominator and reads them back (``to_ints``, ``from_ints``), so
neither ``tower`` nor ``linalg`` imports from ``fractions`` or imports
``lcm``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kummerkit"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def kummerkit_imports(module: str) -> list[tuple[int, str, str]]:
    """(line, imported module, name) for each name a kummerkit module
    imports from another; ``from . import x`` gives (line, "", "x")."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kummerkit"):
            source = (node.module or "").removeprefix("kummerkit").lstrip(".")
            found += [(node.lineno, source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kummerkit":
                    found.append((node.lineno, alias.name.removeprefix("kummerkit").lstrip("."), ""))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_another(module):
    private = [f"{module}.py:{line}: {name} from {source or '.'}" for line, source, name in kummerkit_imports(module)
               if name.startswith("_")]
    assert private == []


def test_linalg_does_not_import_tower():
    reached = [(line, source, name) for line, source, name in kummerkit_imports("linalg")
               if source == "tower" or (source == "" and name == "tower")]
    assert reached == []


@pytest.mark.parametrize("module", ["tower", "linalg"])
def test_only_the_ground_field_writes_its_values_as_ints(module):
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [f"{module}.py:{node.lineno}: {alias.name} from {node.module}" for alias in node.names
                      if node.module == "fractions" or alias.name == "lcm"]
        elif isinstance(node, ast.Import):
            found += [f"{module}.py:{node.lineno}: {alias.name}" for alias in node.names if alias.name == "fractions"]
    assert found == []


def test_every_module_is_read():
    assert {"linalg", "polynomials", "scalars", "tower"} <= set(MODULES)
