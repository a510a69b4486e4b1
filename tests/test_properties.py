"""Property tests over random construction expressions.

Each drawn expression is realized under a 36-element cap and checked
against brute-force scans: the ring axioms, the literal round trip, both
equation solvers (the memoized lists and each carrier's own random solver),
and on commutative carriers the ideal lattice and the localization kernel.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    Quotient,
    TriangularE,
    ZMod,
    build_ring,
    enumerate_ideals,
    localize,
    mult_closure,
    verify_ring_axioms,
)
from sring.rings import freeze_literal, ideal_span, power_cycle

SIZE_CAP = 36


def _proper_generator(draw, ring):
    """A drawn element literal of ``ring`` that generates a proper ideal;
    0 when the drawn one generates the whole ring."""
    g = draw(st.integers(0, ring.size - 1))
    if ideal_span(ring, [g]) == (1 << ring.size) - 1:
        g = 0
    return freeze_literal(ring.decode(g))


@st.composite
def expressions(draw):
    kind = draw(st.sampled_from(
        ["zmod", "product", "quotient", "idealization", "ut3"]))
    if kind == "zmod":
        return ZMod(draw(st.integers(2, SIZE_CAP)))
    if kind == "product":
        a = draw(st.integers(2, 6))
        b = draw(st.integers(2, SIZE_CAP // a))
        return Product((ZMod(a), ZMod(b)))
    if kind == "quotient":
        if draw(st.booleans()):
            base = ZMod(draw(st.integers(2, SIZE_CAP)))
        else:
            base = Product((ZMod(draw(st.integers(2, 6))),
                            ZMod(draw(st.integers(2, 6)))))
        return Quotient(base, (_proper_generator(draw, build_ring(base)),))
    if kind == "idealization":
        # base Z_n acting on one cyclic component, or two when n <= 3
        n = draw(st.integers(2, 6))
        base = build_ring(ZMod(n))
        comps = [(_proper_generator(draw, base),)]
        if n <= 3 and draw(st.booleans()):
            comps.append((_proper_generator(draw, base),))
        return Idealization(ZMod(n), ModuleSpec(tuple(comps)))
    return TriangularE(ZMod(2))


def _scan_solutions(ring, a, t):
    return [x for x in range(ring.size) if ring.mul(a, x) == t]


def _scanned_ideals(ring):
    """Closure of the principal ideals R*g under pairwise sums, by scan."""
    elems = range(ring.size)
    ideals = {frozenset(ring.mul(r, g) for r in elems) for g in elems}
    frontier = set(ideals)
    while frontier:
        found = set()
        for I in frontier:
            for J in list(ideals):
                K = frozenset(ring.add(x, y) for x in I for y in J)
                if K not in ideals:
                    found.add(K)
        ideals |= found
        frontier = found
    return ideals


@settings(max_examples=40, derandomize=True, deadline=None)
@given(expressions(), st.data())
def test_random_expressions_against_scans(expr, data):
    ring = build_ring(expr, size_cap=SIZE_CAP)
    n = ring.size
    assert verify_ring_axioms(ring) == []
    assert all(ring.encode(ring.decode(x)) == x for x in range(n))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for a in range(n):
        for t in range(n):
            scan = _scan_solutions(ring, a, t)
            assert ring.solve_mul_all(a, t) == scan
            # the memoized draw and the carrier's own random solver
            for x in (ring.solve_mul_random(a, t, rng),
                      ring._solve_random(a, t, rng)):
                assert (x is None) if not scan else (x in scan)
    if not ring.commutative:
        return
    lattice = {frozenset(I.elements) for I in enumerate_ideals(ring)}
    assert lattice == _scanned_ideals(ring)
    # a generator whose powers miss 0; 1 always qualifies
    g = data.draw(st.integers(0, n - 1))
    if ring.zero in power_cycle(ring, g):
        g = ring.one
    S = mult_closure(ring, (g,))
    kernel = [x for x in range(n) if any(ring.mul(s, x) == ring.zero
                                         for s in S.members)]
    loc = localize(ring, S)
    assert list(loc.torsion_kernel.elements) == kernel
    assert [x for x in range(n) if loc.ring.project(x) == loc.ring.zero] == kernel
