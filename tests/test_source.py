"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weq"


def test_no_assert_statements():
    """`python -O` drops assert statements, so the library raises instead:
    `TheoremViolation` for its internal guarantees, `EquationError` for bad
    input."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
