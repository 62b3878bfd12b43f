"""The package parses under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "vcomp").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_declared():
    assert declared_floor() == (3, 10)
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())


def unused_imports(tree: ast.Module) -> list[str]:
    """The names that the module's top-level imports bind and that no
    expression of the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_unused_imports_are_found():
    tree = ast.parse("import os, numpy.linalg\nfrom .spectrum import a, b as c\nprint(a, numpy)\n")
    assert unused_imports(tree) == ["c", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    # an import left behind by a move keeps a module's dependency alive
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []
