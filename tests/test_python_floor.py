"""Every module of the package parses as the oldest Python that
``pyproject.toml`` admits."""

from __future__ import annotations

import ast
import tomllib
from pathlib import Path

import pytest

import geopub

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = sorted(Path(geopub.__file__).parent.glob("*.py"))


def _floor() -> tuple[int, int]:
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    requires = project.get("requires-python", "")
    assert requires.startswith(">="), "pyproject.toml declares no requires-python floor"
    major, minor = requires.removeprefix(">=").split(".")[:2]
    return int(major), int(minor)


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_parses_at_the_python_floor(module):
    ast.parse(module.read_text(encoding="utf-8"), str(module), feature_version=_floor())
