"""Module layering of the package, read from the source with ast.

No module reaches into another one's private (_underscore) names, and the
solver module prox is a leaf: of the package it imports only errors, so a
coding problem's structure (classes, blocks, weights) reaches the solver
through its arguments only.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lrsdl"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def package_imports(module):
    """(imported package module, imported name or None) pairs of a module,
    relative or absolute, plus the attributes it reads off an imported
    package module (``from . import data`` then ``data._x``)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    pairs, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("lrsdl"):
                continue
            source = (node.module or "").removeprefix("lrsdl").lstrip(".")
            for alias in node.names:
                if source:
                    pairs.append((source, alias.name))
                else:  # from . import data
                    pairs.append((alias.name, None))
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lrsdl."):
                    source = alias.name.removeprefix("lrsdl.")
                    pairs.append((source, None))
                    if alias.asname:
                        bound[alias.asname] = source
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            pairs.append((bound[node.value.id], node.attr))
    return pairs


def is_private(name):
    return name is not None and name.startswith("_") and not name.startswith("__")


def test_every_module_is_scanned():
    assert {"prox", "learner", "classifier", "data", "errors"} <= set(MODULES)
    assert ("errors", "ParameterError") in package_imports("prox")


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported_across_modules(module):
    leaks = [
        f"{source}.{name}"
        for source, name in package_imports(module)
        if source != module and is_private(name)
    ]
    assert not leaks, f"{module} uses private names {leaks}"


def test_prox_imports_only_errors_from_the_package():
    sources = {source for source, _ in package_imports("prox")}
    assert sources == {"errors"}
