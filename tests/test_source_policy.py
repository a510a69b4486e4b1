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
- Every method of a class in the package is read as an attribute, and
  every module-level function is named, somewhere in ``src/``, ``tests/``
  or ``bench/`` outside its own definition: code that nothing reaches is
  deleted, not kept.  Dunders and the conclusions ``_statement`` registers
  are exempt; matching is by name, so a name read anywhere keeps every
  definition of it.
- Only ``rings.py`` knows which carriers memoize solution lists: no other
  module of the package names the cache, its size limit or a property
  that reports it, so no caller picks a path by it.
- The README's "Special paths" table names only code that exists, and it
  lists every carrier's own ``_solve_random`` and every size limit of
  ``rings.py``: a special path is kept while a measurement pays for it,
  and the table is where that measurement is cited.
"""

import ast
import re
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


CACHE_POLICY_NAMES = {"_solutions_cache", "SOLUTION_CACHE_LIMIT", "lists_solutions"}


def cache_policy_reads(path: Path) -> list[str]:
    """``file:line name`` for each name, attribute or import in ``path``
    that names the solution cache's policy."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        reads += [f"{path.name}:{node.lineno} {n}" for n in names
                  if n in CACHE_POLICY_NAMES]
    return reads


def test_solution_cache_policy_stays_in_rings():
    assert cache_policy_reads(ROOT / "src" / "sring" / "rings.py")
    assert [r for path in SOURCES if path.name != "rings.py"
            for r in cache_policy_reads(path)] == []


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


def _definitions(tree: ast.Module):
    """``(qualified name, node, is_method)`` for each module-level function
    and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item, True


def _registers_statement(node) -> bool:
    return any(isinstance(d, ast.Call) and _called_name(d) == "_statement"
               for d in node.decorator_list)


def unreached_definitions(sources, callers) -> list[str]:
    """Qualified names of the methods in ``sources`` that no ``Attribute``
    node in ``callers`` reads, and of the module-level functions that no
    ``Name`` or ``Attribute`` node names, apart from the nodes inside the
    definition itself."""
    attributes: dict[str, list[tuple[Path, int]]] = {}
    names: dict[str, list[tuple[Path, int]]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path, node.lineno))
    unreached = []
    for path in sources:
        for qualname, node, is_method in _definitions(ast.parse(path.read_text())):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or _registers_statement(node):
                continue
            reads = attributes.get(name, [])
            if not is_method:
                reads = reads + names.get(name, [])
            inside = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in inside for where, line in reads):
                unreached.append(qualname)
    return unreached


def test_every_function_and_method_is_reached_somewhere():
    assert unreached_definitions(SOURCES, CALLERS) == []


def defined_names(sources) -> set[str]:
    """Module-level functions, classes and assigned names, and
    ``Class.method`` for each method, defined in ``sources``."""
    names = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        names.update(qualname for qualname, _, _ in _definitions(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def special_path_names(readme: str) -> list[str]:
    """The backticked identifiers in the first column of the README's
    "Special paths" table."""
    section = readme.split("### Special paths", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines()
            if line.startswith("|") and not line.startswith("|---")][1:]
    return [name for row in rows
            for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_special_paths_table_names_existing_code_and_every_limit():
    names = special_path_names((ROOT / "README.md").read_text())
    defined = defined_names(SOURCES)
    assert names
    assert [n for n in names if n not in defined] == []
    # a deleted path does not resolve
    assert not {"ZModRing._solve_params", "InstanceContext.quotient",
                "FiniteRing.lists_solutions", "_sampled_degree1_pairs"} & defined
    rings = ast.parse((ROOT / "src" / "sring" / "rings.py").read_text())
    limits = {t.id for node in rings.body if isinstance(node, ast.Assign)
              for t in node.targets
              if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")}
    overrides = {q for q, _, _ in _definitions(rings)
                 if q.endswith("._solve_random") and q != "FiniteRing._solve_random"}
    assert limits and overrides
    assert sorted((limits | overrides) - set(names)) == []
