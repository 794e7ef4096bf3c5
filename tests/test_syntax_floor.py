"""Every Python file of the project parses under the oldest supported
grammar (``requires-python = ">=3.10"``), whichever interpreter runs the
suite."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_sources_are_found():
    assert ROOT / "src" / "samlforge" / "xmlcodec.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
