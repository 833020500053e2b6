"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
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


def called_name(call: ast.Call) -> str | None:
    """The name a call invokes as a plain name or on self or cls."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
        return f.attr
    return None


def test_no_self_recursion():
    """A recursive search's depth is bounded by the interpreter's recursion
    limit, not by the input, so the library searches with explicit stacks."""
    found = [
        f"{path.name}:{node.lineno} {fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and called_name(node) == fn.name
    ]
    assert found == []


def test_tracer_names_resolve():
    """The benchmark's tracer wraps library functions by name and looks
    them up with `getattr`, so a renamed or deleted function breaks
    `perfbench/run.py --trace 1`; every name it lists must resolve."""
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = set()
    for layer, (modname, functions, _) in spans.LAYERS.items():
        module = importlib.import_module(modname)
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
            wrapped.add(f"{layer}.{fname}")
    assert set(spans.COUNTERS) <= wrapped
