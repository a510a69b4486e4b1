"""Source rules for the package that no other test would notice breaking.

- No ``assert`` statement: ``python -O`` strips them, so a check written as
  one silently stops checking.
- Runtime imports come from the standard library or the package itself;
  numpy and other third-party packages stay out of ``src/``.
- Every ``.witness(`` call passes its target: which members kill an
  element is read off ``MultiplicativeSet.killers``, and a one-argument
  call would be a second path to that answer.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sring").glob("*.py"))


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
