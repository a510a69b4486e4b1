"""Expression JSON round-trips and instance serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sring import (
    Idealization,
    MalformedExpressionError,
    ModuleSpec,
    Product,
    Quotient,
    SRingError,
    TriangularE,
    ZMod,
    build_ring,
    expression_from_json,
    expression_to_json,
    instance_to_json,
    mult_closure,
    parse_ring_data,
)
from sring.cli import main
from sring.ringfile import MAX_EXPRESSION_DEPTH, MAX_LITERAL_DEPTH

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


PARSE_ERRORS = [
    ([1], "document: expected a JSON object, got list"),
    ({"ring": {"type": "zmod", "n": 4}, "extra": 1},
     "document.extra: unknown key (allowed: ['mult_set', 'ring'])"),
    ({"mult_set": {"generators": [1]}}, "document: missing required key 'ring'"),
    ({"ring": {"type": "zmod", "n": 4}, "mult_set": [1]},
     "mult_set: expected an object"),
    ({"ring": {"type": "zmod", "n": 4}, "mult_set": {"gens": [1]}},
     "mult_set.gens: unknown key (allowed: ['generators'])"),
    ({"ring": {"type": "zmod", "n": 4}, "mult_set": {"generators": []}},
     "mult_set.generators: expected a nonempty array of element literals"),
    ({"ring": {"type": "zmod", "n": 4}, "mult_set": {"generators": [1, [1, 2]]}},
     "mult_set.generators[1]: expected integer literal for Z4, got (1, 2)"),
    ({"ring": {"type": "product", "factors": [{"type": "zmod", "n": 4}] * 2},
      "mult_set": {"generators": [3]}},
     "mult_set.generators[0]: expected 2-tuple literal for Z4xZ4, got 3"),
    ({"ring": {"type": "quotient", "base": {"type": "zmod", "n": 6}, "ideal": [[1]]}},
     "ring.ideal[0]: expected integer literal for Z6, got (1,)"),
    ({"ring": {"type": "idealization", "base": {"type": "zmod", "n": 4},
               "module": {"cyclic": [[[2]]]}}},
     "ring.module.cyclic[0][0]: expected integer literal for Z4, got (2,)"),
]


@pytest.mark.parametrize("doc,message", PARSE_ERRORS,
                         ids=[m.partition(":")[0] for _, m in PARSE_ERRORS])
def test_parse_ring_data_error_text(doc, message):
    with pytest.raises(MalformedExpressionError) as exc:
        parse_ring_data(doc)
    assert str(exc.value) == message


# JSON true is a Python bool, itself an int; as an element literal it must be
# rejected like the other non-integers, as it already is for "n"
BOOLEAN_LITERALS = {
    "generators": {"ring": {"type": "zmod", "n": 6}, "mult_set": {"generators": [True]}},
    "ideal": {"ring": {"type": "quotient", "base": {"type": "zmod", "n": 6},
                       "ideal": [True]}},
    "cyclic": {"ring": {"type": "idealization", "base": {"type": "zmod", "n": 4},
                        "module": {"cyclic": [[True]]}}},
}


@pytest.mark.parametrize("where", BOOLEAN_LITERALS)
def test_boolean_element_literals_exit_2(tmp_path, capsys, where):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(BOOLEAN_LITERALS[where]))
    assert main(["describe", str(path)]) == 2
    assert "expected integer literal" in capsys.readouterr().err


def _nested(depth):
    lit = 1
    for _ in range(depth):
        lit = [lit]
    return lit


# the JSON decoder accepts about 985 levels, but freezing a literal recurses
# twice per level
DEEP_LITERALS = {
    "mult_set.generators[0]": {"ring": {"type": "zmod", "n": 6},
                               "mult_set": {"generators": [_nested(600)]}},
    "ring.ideal[0]": {"ring": {"type": "quotient", "base": {"type": "zmod", "n": 6},
                               "ideal": [_nested(600)]}},
}


@pytest.mark.parametrize("where", DEEP_LITERALS)
def test_deeply_nested_literals_exit_2(tmp_path, capsys, where):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(DEEP_LITERALS[where]))
    assert main(["describe", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {where}: element literal nested more than {MAX_LITERAL_DEPTH} "
        "levels deep\n")


# wrong-typed values: JSON true/false, floats, null, strings, huge and
# negative integers
JUNK = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=3),
                 st.integers(-10 ** 30, 10 ** 30))


def _mostly(good, bad=JUNK):
    """``good`` about seven times in eight, else ``bad`` (a plain ``one_of``
    would weigh each of JUNK's branches like ``good``)."""
    return st.sampled_from((good,) * 7 + (bad,)).flatmap(lambda s: s)


def _lists_up_to(leaf, depth):
    strategy = leaf
    for _ in range(depth):
        strategy = st.one_of(leaf, st.lists(strategy, max_size=3))
    return strategy


LITERALS = _lists_up_to(_mostly(st.integers(-4, 12)), 8)


def _node(kind, **fields):
    """An expression node of type ``kind``, sometimes with a wrong type name
    or an unknown key."""
    fields = {"type": st.just(kind), **fields}
    return _mostly(st.fixed_dictionaries(fields),
                   st.one_of(st.fixed_dictionaries({**fields, "type": JUNK}),
                             st.fixed_dictionaries({**fields, "extra": JUNK})))


def _expressions(children):
    base = _mostly(children)
    literal_list = _mostly(st.lists(LITERALS, max_size=3))
    cyclic = _mostly(st.lists(literal_list, min_size=1, max_size=2))
    module = _mostly(st.fixed_dictionaries({"cyclic": cyclic}),
                     st.fixed_dictionaries({"cyclic": cyclic, "extra": JUNK}))
    return st.one_of(
        _node("product", factors=_mostly(st.lists(children, min_size=1, max_size=3))),
        _node("quotient", base=base, ideal=literal_list),
        _node("idealization", base=base, module=module),
        _node("triangular_e", base=base),
    )


EXPRESSION_DOCS = st.recursive(
    _node("zmod", n=_mostly(st.integers(2, 12))), _expressions, max_leaves=4)
MULT_SET = st.fixed_dictionaries(
    {"generators": _mostly(st.lists(LITERALS, min_size=1, max_size=3))})
RING_DOCS = _mostly(
    st.one_of(st.fixed_dictionaries({"ring": EXPRESSION_DOCS}),
              st.fixed_dictionaries({"ring": EXPRESSION_DOCS, "mult_set": MULT_SET})),
    st.one_of(LITERALS,
              st.fixed_dictionaries({"ring": EXPRESSION_DOCS, "mult_set": JUNK}),
              st.fixed_dictionaries({"ring": EXPRESSION_DOCS, "extra": JUNK}),
              st.fixed_dictionaries({"ring": EXPRESSION_DOCS, "mult_set": st.fixed_dictionaries(
                  {"generators": st.lists(LITERALS), "extra": JUNK})})))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(RING_DOCS)
def test_parse_ring_data_returns_an_instance_or_an_sring_error(doc):
    try:
        ring, S = parse_ring_data(doc, size_cap=512)
    except SRingError:
        return
    assert ring.size <= 512 and S.members
