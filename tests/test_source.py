"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "legcob"
MODULES = sorted(SRC.glob("*.py"))


def _optimized_away(tree):
    """(line, what) of each node that `python -O` strips or flips: an
    assert statement or a read of __debug__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"


def test_the_package_has_modules():
    assert len(MODULES) > 10


def test_the_scan_sees_both_kinds():
    tree = ast.parse("assert x\nif __debug__:\n    y = 1\n")
    assert list(_optimized_away(tree)) == [(1, "assert"), (2, "__debug__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_check_depends_on_asserts(path):
    """Every check in the package is a real raise, so an answer, a trace
    or a refusal is the same under PYTHONOPTIMIZE."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_optimized_away(tree)) == []
