"""Expression JSON round-trips and instance serialization."""

import pytest

from sring import (
    Idealization,
    MalformedExpressionError,
    ModuleSpec,
    Product,
    Quotient,
    TriangularE,
    ZMod,
    build_ring,
    expression_from_json,
    expression_to_json,
    instance_to_json,
    mult_closure,
    parse_ring_data,
)
from sring.ringfile import MAX_EXPRESSION_DEPTH

EXPRESSIONS = [
    ZMod(24),
    Product((ZMod(2), ZMod(3), ZMod(4))),
    Quotient(ZMod(24), (3,)),
    Quotient(Product((ZMod(4), ZMod(4))), ((2, 0),)),
    Idealization(ZMod(4), ModuleSpec(((2,), (0,)))),
    TriangularE(ZMod(3)),
]


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=lambda e: type(e).__name__)
def test_expression_roundtrip(expr):
    doc = expression_to_json(expr)
    assert expression_from_json(doc) == expr


def test_instance_roundtrip():
    ring = build_ring(Quotient(ZMod(24), (4,)))
    S = mult_closure(ring, (ring.encode(3),))
    doc = instance_to_json(ring, S)
    ring2, S2 = parse_ring_data(doc)
    assert ring2.size == ring.size
    assert S2.members == S.members
    assert [ring2.decode(x) for x in range(ring2.size)] == \
           [ring.decode(x) for x in range(ring.size)]


def test_unknown_type_rejected():
    with pytest.raises(MalformedExpressionError, match="unknown ring type"):
        expression_from_json({"type": "polynomial_ring"})
    with pytest.raises(MalformedExpressionError, match="module.cyclic"):
        expression_from_json({"type": "idealization",
                              "base": {"type": "zmod", "n": 4},
                              "module": {"cyclic": []}})


def test_nesting_depth_limit():
    expr = ZMod(4)
    for _ in range(MAX_EXPRESSION_DEPTH - 1):
        expr = Quotient(expr, (0,))
    assert expression_from_json(expression_to_json(expr)) == expr
    too_deep = expression_to_json(Quotient(expr, (0,)))
    path = "ring" + ".base" * MAX_EXPRESSION_DEPTH
    with pytest.raises(MalformedExpressionError, match=rf"^{path}: .*nested"):
        expression_from_json(too_deep)
