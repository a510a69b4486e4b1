"""Property tests over random construction expressions.

Each drawn expression is realized under a 36-element cap and checked
against brute-force scans: the ring axioms, the literal round trip, both
equation solvers (the memoized lists and each carrier's own random solver),
the degree-1 zero-product pair streams and their one-product kill mask,
and on commutative carriers the ideal lattice and the localization kernel.
"""

import itertools
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
from sring.predicates import _exhaustive_vector_pairs, _sampled_vector_pairs
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


def _check_degree1_pair_streams(ring, seed):
    """The degree-1 pair streams against scans: on carriers of at most 16
    elements the walk is every (a0, a1, b0, b1) with a0*b0 = 0,
    a0*b1 + a1*b0 = 0 and a1*b1 = 0, in that lexicographic order; 300
    sampled pairs are genuine; and on every pair of both streams the kill
    mask of a1*b0 alone equals that of all four coefficient products."""
    n, zero = ring.size, ring.zero
    add, mul = ring.add, ring.mul
    kill = [sum(1 << s for s in range(n) if mul(s, p) == zero) for p in range(n)]
    pairs = list(_sampled_vector_pairs(ring, 1, seed, 300))
    for (a0, a1), (b0, b1) in pairs:
        assert mul(a0, b0) == zero and mul(a1, b1) == zero
        assert add(mul(a0, b1), mul(a1, b0)) == zero
    if n <= 16:
        scan = [((a0, a1), (b0, b1))
                for a0, a1, b0, b1 in itertools.product(range(n), repeat=4)
                if mul(a0, b0) == zero and mul(a1, b1) == zero
                and add(mul(a0, b1), mul(a1, b0)) == zero]
        assert list(_exhaustive_vector_pairs(ring, 1)) == scan
        pairs += scan
    for a, b in pairs:
        every = kill[mul(a[0], b[0])] & kill[mul(a[0], b[1])] \
            & kill[mul(a[1], b[0])] & kill[mul(a[1], b[1])]
        assert kill[mul(a[1], b[0])] == every


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
    _check_degree1_pair_streams(ring, rng.getrandbits(32))
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
