"""The package source must parse under the oldest Python that
pyproject.toml's requires-python admits."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src" / "bkroute").glob("*.py"))


def test_the_floor_is_the_declared_one():
    assert SOURCES
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in pyproject


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
