"""Every package module parses with the grammar of the oldest Python that
``pyproject.toml`` admits, so a newer construct cannot slip in unseen
when CI runs a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orthomask"


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_parses_on_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())


def test_guard_rejects_newer_syntax():
    # except* is new in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
