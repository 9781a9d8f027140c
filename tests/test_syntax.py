"""Every Python file parses as Python 3.10, the oldest version pyproject.toml
supports and CI tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == \
        {"src", "tests", "demos", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
