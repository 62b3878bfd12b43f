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
