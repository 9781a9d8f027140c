"""Every Python file parses as Python 3.10, the oldest version pyproject.toml
supports and CI tests, and the package imports only the standard library
(pyproject.toml declares no dependencies)."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOLDERS = ("src", "tests", "demos", "perfbench", "bench")
SOURCES = sorted(path for folder in FOLDERS for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == set(FOLDERS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))


PACKAGE = sorted((ROOT / "src" / "rtpshape").glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_bytes(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    outside = {name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names | {"rtpshape"}}
    assert not outside, f"{path.name} imports {sorted(outside)}"
