"""The package as shipped: its package-data globs and README's import block."""

import ast
import re
from pathlib import Path

import pytest

import atomic_reasoner

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atomic_reasoner"


def _package_data_globs():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return config["tool"]["setuptools"]["package-data"]["atomic_reasoner"]


def test_every_package_data_glob_matches_a_file():
    for pattern in _package_data_globs():
        assert any(path.is_file() for path in PACKAGE.glob(pattern)), pattern


def test_every_data_and_template_file_is_shipped():
    shipped = {path for pattern in _package_data_globs() for path in PACKAGE.glob(pattern)}
    for folder in ("templates", "data"):
        for path in (PACKAGE / folder).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                assert path in shipped, path.relative_to(PACKAGE)


def test_readme_library_example_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from atomic_reasoner import \(.*?\)$", readme, re.MULTILINE | re.DOTALL)
    assert block is not None
    (statement,) = ast.parse(block.group(0)).body
    names = [alias.name for alias in statement.names]
    assert "FreeText" in names
    for name in names:
        assert name in atomic_reasoner.__all__ and hasattr(atomic_reasoner, name), name
