"""Ring-definition documents: JSON in, (ring, multiplicative set) out.

Document shape:

    {"ring": <expression>, "mult_set": {"generators": [...]}}

Expression nodes: {"type": "zmod", "n": 24}, {"type": "product",
"factors": [...]}, {"type": "quotient", "base": ..., "ideal": [...]},
{"type": "idealization", "base": ..., "module": {"cyclic": [[...], ...]}},
{"type": "triangular_e", "base": ...}.  Element literals are integers for
zmod carriers and nested arrays mirroring the structure otherwise.

Semantic errors carry the offending key path, which starts at
``document``, ``ring`` or ``mult_set``; a missing mult_set defaults
to the unit set {1}, which collapses every S-notion to its classical
counterpart.  An expression may nest at most ``MAX_EXPRESSION_DEPTH``
nodes deep: ring construction, labels and the solvers recurse once or
more per level, so a deeper file would overflow the interpreter stack;
so may freezing an element literal, which nests at most two arrays per
expression level (``[r, [m_1, ...]]``), hence ``MAX_LITERAL_DEPTH``.
"""

from __future__ import annotations

import json

from .errors import MalformedExpressionError
from .ideals import MultiplicativeSet, mult_closure
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    Idealization,
    ModuleSpec,
    Product,
    Quotient,
    RingExpression,
    TriangularE,
    ZMod,
    build_ring,
    encode_literals,
    freeze_literal,
    thaw_literal,
)


MAX_EXPRESSION_DEPTH = 64
MAX_LITERAL_DEPTH = 2 * MAX_EXPRESSION_DEPTH


def _err(path: str, msg: str):
    raise MalformedExpressionError(f"{path}: {msg}")


def _expect_keys(data: dict, allowed: set[str], required: set[str], path: str):
    for key in data:
        if key not in allowed:
            _err(f"{path}.{key}", f"unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in data:
            _err(path, f"missing required key {key!r}")


def _literals(lits: list, path: str) -> tuple:
    """The element literals ``lits`` frozen, each first checked, without
    recursion, to nest at most ``MAX_LITERAL_DEPTH`` arrays deep."""
    out = []
    for i, lit in enumerate(lits):
        level, depth = [lit], 0
        while any(isinstance(x, list) for x in level):
            depth += 1
            if depth > MAX_LITERAL_DEPTH:
                _err(f"{path}[{i}]",
                     f"element literal nested more than {MAX_LITERAL_DEPTH} levels deep")
            level = [y for x in level if isinstance(x, list) for y in x]
        out.append(freeze_literal(lit))
    return tuple(out)


def expression_from_json(data, path: str = "ring", depth: int = 1) -> RingExpression:
    if depth > MAX_EXPRESSION_DEPTH:
        _err(path, f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep")
    if not isinstance(data, dict):
        _err(path, f"expected an object, got {type(data).__name__}")
    kind = data.get("type")
    if kind == "zmod":
        _expect_keys(data, {"type", "n"}, {"n"}, path)
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            _err(f"{path}.n", f"expected integer >= 2, got {n!r}")
        return ZMod(n)
    if kind == "product":
        _expect_keys(data, {"type", "factors"}, {"factors"}, path)
        factors = data["factors"]
        if not isinstance(factors, list) or not factors:
            _err(f"{path}.factors", "expected a nonempty array")
        return Product(tuple(
            expression_from_json(f, f"{path}.factors[{i}]", depth + 1)
            for i, f in enumerate(factors)))
    if kind == "quotient":
        _expect_keys(data, {"type", "base", "ideal"}, {"base", "ideal"}, path)
        gens = data["ideal"]
        if not isinstance(gens, list):
            _err(f"{path}.ideal", "expected an array of element literals")
        return Quotient(expression_from_json(data["base"], f"{path}.base", depth + 1),
                        _literals(gens, f"{path}.ideal"))
    if kind == "idealization":
        _expect_keys(data, {"type", "base", "module"}, {"base", "module"}, path)
        module = data["module"]
        if not isinstance(module, dict):
            _err(f"{path}.module", "expected an object")
        _expect_keys(module, {"cyclic"}, {"cyclic"}, f"{path}.module")
        cyclic = module["cyclic"]
        if not isinstance(cyclic, list) or not cyclic:
            _err(f"{path}.module.cyclic", "expected a nonempty array of generator arrays")
        comps = []
        for i, comp in enumerate(cyclic):
            if not isinstance(comp, list):
                _err(f"{path}.module.cyclic[{i}]", "expected an array of element literals")
            comps.append(_literals(comp, f"{path}.module.cyclic[{i}]"))
        return Idealization(expression_from_json(data["base"], f"{path}.base", depth + 1),
                            ModuleSpec(tuple(comps)))
    if kind == "triangular_e":
        _expect_keys(data, {"type", "base"}, {"base"}, path)
        return TriangularE(expression_from_json(data["base"], f"{path}.base", depth + 1))
    _err(f"{path}.type", f"unknown ring type {kind!r}")


def expression_to_json(expr: RingExpression) -> dict:
    if isinstance(expr, ZMod):
        return {"type": "zmod", "n": expr.n}
    if isinstance(expr, Product):
        return {"type": "product",
                "factors": [expression_to_json(f) for f in expr.factors]}
    if isinstance(expr, Quotient):
        return {"type": "quotient", "base": expression_to_json(expr.base),
                "ideal": [thaw_literal(g) for g in expr.ideal]}
    if isinstance(expr, Idealization):
        return {"type": "idealization", "base": expression_to_json(expr.base),
                "module": {"cyclic": [[thaw_literal(g) for g in comp]
                                      for comp in expr.module.cyclic]}}
    if isinstance(expr, TriangularE):
        return {"type": "triangular_e", "base": expression_to_json(expr.base)}
    raise MalformedExpressionError(f"unknown expression {expr!r}")


def parse_ring_data(doc, *, size_cap: int = DEFAULT_SIZE_CAP
                    ) -> tuple[FiniteRing, MultiplicativeSet]:
    if not isinstance(doc, dict):
        _err("document", f"expected a JSON object, got {type(doc).__name__}")
    _expect_keys(doc, {"ring", "mult_set"}, {"ring"}, "document")
    ring = build_ring(expression_from_json(doc["ring"]), size_cap=size_cap)
    if "mult_set" not in doc:
        return ring, mult_closure(ring, (ring.one,))
    ms = doc["mult_set"]
    if not isinstance(ms, dict):
        _err("mult_set", "expected an object")
    _expect_keys(ms, {"generators"}, {"generators"}, "mult_set")
    gens = ms["generators"]
    if not isinstance(gens, list) or not gens:
        _err("mult_set.generators", "expected a nonempty array of element literals")
    path = "mult_set.generators"
    return ring, mult_closure(ring, encode_literals(ring, _literals(gens, path), path))


def parse_ring_file(file_path, *, size_cap: int = DEFAULT_SIZE_CAP
                    ) -> tuple[FiniteRing, MultiplicativeSet]:
    with open(file_path, "rb") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedExpressionError(
                f"{file_path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedExpressionError(f"{file_path}: not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise MalformedExpressionError(
                f"{file_path}: JSON nested too deeply to decode") from exc
    return parse_ring_data(doc, size_cap=size_cap)


def instance_to_json(ring: FiniteRing, S: MultiplicativeSet) -> dict:
    """Serialize back to the ring-definition document shape."""
    return {
        "ring": expression_to_json(ring.expression),
        "mult_set": {"generators": [thaw_literal(ring.decode(g)) for g in S.gens]},
    }
