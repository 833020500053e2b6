"""Rules on the library source itself."""

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

from weq.cli import make_parser

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


# keyed by the builtin names, of which there are nine
UNBOUNDED_CACHES = {"semigroup.builtin"}


def test_caches_are_bounded():
    """Every `lru_cache` of the library has a finite `maxsize` (128 when
    none is given), so a long-running caller holds a bounded number of
    results; `functools.cache` is `lru_cache(maxsize=None)`."""
    unbounded = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = ast.unparse(call.func if call else dec).rsplit(".", 1)[-1]
                sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
                finite = all(isinstance(s, ast.Constant) and isinstance(s.value, int) for s in sizes)
                if name == "cache" or name == "lru_cache" and not finite:
                    unbounded.add(f"{path.stem}.{fn.name}")
    assert unbounded == UNBOUNDED_CACHES


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


# public names that only the tests call: they build the zoo and the file tables
CALLED_FROM_TESTS_ONLY = {"adjoin_identity", "direct_product", "format_semigroup"}


def test_public_names_have_callers():
    """Every public top-level function and class of the library, and every
    public method, property and field of its public classes, is named
    outside the tests: in the library (the package's re-exports aside),
    a demo, or the benchmark, whose tracer names functions by string.  A
    member counts as named only as an attribute or a keyword argument, so
    neither a field's own declaration nor a JSON key of the same name
    counts."""
    root = SRC.parent.parent
    outside = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    outside += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    named, named_member = set(), set()
    for path in outside:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                named_member.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                named_member.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    public, members = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.add(node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        members.add(f"{node.name}.{name}")
    assert public - named == CALLED_FROM_TESTS_ONLY
    assert {m for m in members if m.split(".")[1] not in named_member} == set()


def load_spans():
    """The benchmark's tracer module, which is not a package."""
    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_names_resolve():
    """The benchmark's tracer wraps library functions by name and looks
    them up with `getattr`, so a renamed or deleted function breaks
    `perfbench/run.py --trace 1`; every name it lists must resolve."""
    spans = load_spans()
    wrapped = set()
    for layer, (modname, functions, _) in spans.LAYERS.items():
        module = importlib.import_module(modname)
        for fname in functions:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
            wrapped.add(f"{layer}.{fname}")
    assert set(spans.COUNTERS) <= wrapped


# wrapped by the tracer, and called nowhere in the library
TRACER_ONLY = {"hunt.canonical_key", "periodicity.simple_cycles"}


def test_tracer_only_names_are_listed():
    """Every function the benchmark's tracer wraps has a caller in the
    library outside its own definition, or is listed in TRACER_ONLY, so a
    function kept alive only by the benchmark is a known exception."""
    called = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name not in enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    uncalled = {
        f"{layer}.{fname}"
        for layer, (_, functions, _) in load_spans().LAYERS.items()
        for fname in functions if fname not in called
    }
    assert uncalled == TRACER_ONLY


def test_readme_synopsis_matches_parser():
    """Each `weq` subcommand's synopsis line in the README, with its
    indented continuation lines, names exactly the parser's options."""
    text = (SRC.parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    synopsis: dict[str, str] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("weq "):
            command = line.split()[1]
            synopsis[command] = line
        elif line.startswith(" ") and command:
            synopsis[command] += line
    (sub,) = [a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(synopsis) == set(sub.choices)
    for command, parser in sub.choices.items():
        options = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", synopsis[command])) == options - {"--help"}, command
