"""Source rules for the package that no other test would notice breaking.

- No ``assert`` statement: ``python -O`` strips them, so a check written as
  one silently stops checking.
- Runtime imports come from the standard library or the package itself;
  numpy and other third-party packages stay out of ``src/``.
- Every ``.witness(`` call passes its target: which members kill an
  element is read off ``MultiplicativeSet.killers``, and a one-argument
  call would be a second path to that answer.
- Every keyword-only parameter of a function in the package is passed by
  that name at some call in ``src/``, ``tests/`` or ``bench/``: a setting
  that no caller passes is a constant, and it should be written as one.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "sring").glob("*.py"))
CALLERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _imported_modules(node) -> list[str]:
    """Absolute module names an import statement names; none for others."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_asserts_and_only_stdlib_imports_in_package():
    assert SOURCES
    asserts, imports = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Assert):
                asserts.append(where)
            imports += [f"{where} {m}" for m in _imported_modules(node)
                        if m.partition(".")[0] not in sys.stdlib_module_names]
    assert asserts == []
    assert imports == []


def untargeted_witness_calls(path: Path) -> list[str]:
    """``file:line`` of each ``.witness(`` call in ``path`` without a target."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "witness"
            and len(node.args) + len(node.keywords) < 2]


def test_every_witness_call_passes_a_target():
    assert [w for path in SOURCES for w in untargeted_witness_calls(path)] == []


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unpassed_keywords(sources, callers) -> list[str]:
    """``function.parameter`` for each keyword-only parameter of a function
    in ``sources`` that no call in ``callers`` passes by name, matched on the
    called name (a bare name or the attribute after the last dot)."""
    passed = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    unpassed = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unpassed += [f"{node.name}.{arg.arg}" for arg in node.args.kwonlyargs
                             if (node.name, arg.arg) not in passed]
    return unpassed


def test_every_keyword_only_parameter_is_passed_somewhere():
    assert CALLERS
    assert unpassed_keywords(SOURCES, CALLERS) == []
