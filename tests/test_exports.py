"""The export lists: every listed name resolves, and the package
re-exports only names its modules list."""

import ast
import importlib
import pathlib
import re

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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _referenced_names(path: pathlib.Path, skip_own: bool) -> set:
    """Names, attributes and imported names a file refers to; with
    `skip_own`, a top-level definition's references to itself do not
    count."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        if isinstance(top, ast.Assign):
            own = next((t.id for t in top.targets
                        if isinstance(t, ast.Name)), None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if not (skip_own and name == own):
                found.add(name)
    return found


def test_every_listed_name_has_a_caller():
    # a caller is another definition in the package, the benchmark, the
    # console entry point or the acceptance suite; other tests do not count
    used = set().union(*(_referenced_names(PACKAGE / f"{name}.py", True)
                         for name in MODULES))
    for path in [*(ROOT / "perfbench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= _referenced_names(path, False)
    used |= set(re.findall(r'= "weakhyp\.\w+:(\w+)"',
                           (ROOT / "pyproject.toml").read_text()))
    uncalled = [(name, n) for name in MODULES
                for n in importlib.import_module(f"weakhyp.{name}").__all__
                if n not in used]
    assert uncalled == []
