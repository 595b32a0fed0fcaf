"""The export lists: every listed name resolves, and the package
re-exports only names its modules list."""

import ast
import importlib
import pathlib

import pytest

import weakhyp

PACKAGE = pathlib.Path(weakhyp.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_listed_names_resolve(name):
    module = importlib.import_module(f"weakhyp.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    unlisted = [(node.module, alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name not in importlib.import_module(
                    f"weakhyp.{node.module}").__all__]
    assert unlisted == []
