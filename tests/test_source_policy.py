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
- The two S-prime criteria stay independent oracles: nothing that
  ``colon_ideals``, ``colon_elem``, ``is_prime_ideal`` or
  ``dominant_colon_witness`` calls or reads as an attribute, directly or
  through other functions of the package, is ``definitional_witness``, a
  solver, ``is_unit`` or the members' ``carriers`` and ``killers`` tables:
  the colon criterion uses only ``add`` and ``mul``.  ``is_s_prime`` reaches
  both criteria, ``definitional_witness`` on one side and
  ``dominant_colon_witness`` and ``is_prime_ideal`` on the other, so the
  check cannot pass on a colon side that nothing runs.
- The README's "Special paths" table names only code that exists, and it
  lists every carrier's own ``_solve_random`` and ``_build_unit_flags``
  and every size limit of ``rings.py``: a special path is kept while a
  measurement pays for it, and the table is where that measurement is
  cited.
- The exhaustive pair walk never branches on its degree: no comparison of
  ``degree``, or a name bound to it, with a literal and no test of its
  truth, so one walk over solution lists serves every degree.  The
  sampler's degree-1 block is a listed special path and is not checked.
- The annihilator has one implementation: no function of the package but
  ``FiniteRing.annihilator`` calls ``solve_mul_all``, or a name bound to
  it, with the ring's zero (the name ``zero`` or an attribute ``.zero``)
  as its target, so every reader shares the masks the ring keeps.
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
                 for method in ("._solve_random", "._build_unit_flags")
                 if q.endswith(method) and q != "FiniteRing" + method}
    assert limits and overrides
    assert sorted((limits | overrides) - set(names)) == []


def called_names(sources) -> dict[str, set[str]]:
    """Per function or method name in ``sources``, the names its body calls
    (a bare name or the attribute after the last dot) and the attributes it
    reads, so that a property or a bound method taken first and called later
    counts too; definitions that share a name share one entry."""
    calls: dict[str, set[str]] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(node.name, set()).update(
                    _called_name(c) if isinstance(c, ast.Call) else c.attr
                    for c in ast.walk(node)
                    if isinstance(c, (ast.Call, ast.Attribute)))
    return calls


def reachable_calls(calls: dict[str, set[str]], roots) -> set[str]:
    """Every name called from ``roots``, following the calls of each called
    name that ``calls`` defines."""
    seen: set[str] = set()
    stack = [n for root in roots for n in calls[root]]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack += calls.get(name, ())
    return seen


COLON_FORBIDDEN = {"solve_mul_all", "solve_mul_random", "_solve_all", "is_unit",
                   "carriers", "killers", "definitional_witness"}


def test_colon_criterion_never_calls_the_definitional_test():
    calls = called_names(SOURCES)
    colon = reachable_calls(calls, ("colon_ideals", "colon_elem", "is_prime_ideal",
                                    "dominant_colon_witness"))
    assert {"add", "mul", "additive_cosets", "require_commutative"} <= colon
    assert sorted(colon & COLON_FORBIDDEN) == []
    # the test would pass vacuously if a name no longer resolved
    for caller in ("is_s_prime", "is_s_integral_domain"):
        assert "definitional_witness" in reachable_calls(calls, (caller,))
    assert {"dominant_colon_witness", "is_prime_ideal"} <= reachable_calls(calls, ("is_s_prime",))
    defined = {q.rpartition(".")[2] for q in defined_names(SOURCES)}
    assert COLON_FORBIDDEN <= defined


def degree_branches(source: str, function: str) -> list[str]:
    """``line: code`` for each comparison of ``degree`` (or a name bound
    to it) with a literal inside ``function``, and each test of its truth:
    a branch that picks a path by degree."""
    tree = ast.parse(source)
    (node,) = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == function]
    aliases = {"degree"} | {
        t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
        and isinstance(n.value, ast.Name) and n.value.id == "degree"
        for t in n.targets if isinstance(t, ast.Name)}

    def is_degree(expr) -> bool:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            expr = expr.operand
        return isinstance(expr, ast.Name) and expr.id in aliases

    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Compare):
            operands = [n.left, *n.comparators]
            if (any(is_degree(o) for o in operands)
                    and any(isinstance(o, ast.Constant) for o in operands)):
                found.append(n)
        elif isinstance(n, (ast.If, ast.IfExp, ast.While)) and is_degree(n.test):
            found.append(n)
        elif isinstance(n, ast.BoolOp) and any(is_degree(v) for v in n.values):
            found.append(n)
    return [f"{n.lineno}: {ast.unparse(n)}" for n in found]


def test_exhaustive_walk_has_no_degree_branch():
    # one odometer over solution lists serves every degree
    source = (ROOT / "src" / "sring" / "predicates.py").read_text()
    assert degree_branches(source, "_exhaustive_vector_pairs") == []
    # the check sees the sampler's degree-1 block, so it is not vacuous
    assert degree_branches(source, "_sampled_vector_pairs")
    planted = ("def walk(ring, degree):\n    D = degree\n"
               "    x = 0 if D else 1\n    if 1 < degree:\n        pass\n")
    assert len(degree_branches(planted, "walk")) == 2


def zero_target_solves(source: str, path: str = "<planted>") -> list[str]:
    """``path:line function`` for each call of ``solve_mul_all``, or of a
    name a function binds to it, whose target (the second argument) is the
    name ``zero`` or an attribute ``.zero``: an annihilator read off the
    solver.  Methods are named ``Class.method``."""
    def is_zero(expr) -> bool:
        return (isinstance(expr, ast.Name) and expr.id == "zero"
                or isinstance(expr, ast.Attribute) and expr.attr == "zero")

    found = []
    for qualname, node, _ in _definitions(ast.parse(source)):
        solvers = {"solve_mul_all"} | {
            t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Attribute) and n.value.attr == "solve_mul_all"
            for t in n.targets if isinstance(t, ast.Name)}
        found += [f"{path}:{n.lineno} {qualname}" for n in ast.walk(node)
                  if isinstance(n, ast.Call) and _called_name(n) in solvers
                  and len(n.args) > 1 and is_zero(n.args[1])]
    return found


def test_only_the_ring_reads_annihilators_off_the_solver():
    found = [hit for path in SOURCES
             for hit in zero_target_solves(path.read_text(), path.name)]
    assert [hit.split()[1] for hit in found] == ["FiniteRing.annihilator"]
    # the per-call helper it replaced is gone
    defined = {q.rpartition(".")[2] for q in defined_names(SOURCES)}
    assert "annihilator_mask" not in defined
    planted = ("class R:\n"
               "    def annihilator(self, a):\n"
               "        return self.solve_mul_all(a, self.zero)\n"
               "def ann(ring, a):\n"
               "    zero = ring.zero\n"
               "    return ring.solve_mul_all(a, zero)\n"
               "def walk(ring, a, t):\n"
               "    solve = ring.solve_mul_all\n"
               "    return solve(a, t) + solve(a, ring.zero)\n")
    assert zero_target_solves(planted) == [
        "<planted>:3 R.annihilator", "<planted>:6 ann", "<planted>:9 walk"]
