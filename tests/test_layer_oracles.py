"""Brute-force oracles for the mask decoder, the S-witness search, the
S-killer table, the S-prime test, the S-integral-domain predicate and the
localization kernel.

Each reference is the plain definition written out here, with no shortcut
the library takes: bit-by-bit decoding, the full list of pairs outside P
with a product in P, and n^2 or n*|S| scans.
"""

import itertools

import pytest

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    TriangularE,
    ZMod,
    ZeroInClosureError,
    build_ring,
    enumerate_ideals,
    ideal_generated,
    is_s_integral_domain,
    localize,
    mult_closure,
)
from sring.ideals import Ideal, MultiplicativeSet, is_s_prime
from sring.rings import mask_elements


def naive_mask_elements(mask):
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return tuple(out)


def test_mask_elements_against_bit_loop():
    dense = (1 << 720) - 1
    masks = [0, 1, 2, 3, 1 << 719, (1 << 719) | 1, (1 << 500) | (1 << 64) | (1 << 63),
             dense, dense ^ (1 << 360) ^ 1,
             sum(1 << i for i in range(0, 720, 7))]
    for mask in masks:
        assert mask_elements(mask) == naive_mask_elements(mask)
    assert mask_elements(0) == ()
    assert mask_elements(1) == (0,)
    assert mask_elements(1 << 719) == (719,)
    assert mask_elements(dense) == tuple(range(720))


def naive_witness(S, xs, into):
    ring = S.ring
    return min((s for s in naive_mask_elements(S.mask)
                if all((into >> ring.mul(s, x)) & 1 for x in xs)), default=None)


def _witness_cases():
    """(ring, multiplicative sets, target masks, element tuples) per ring.

    Targets are the zero ideal, every singleton set and, on a commutative
    ring, every ideal; the element tuples are every singleton, the empty
    tuple and, on a commutative ring, every ideal's members.
    """
    exprs = [ZMod(n) for n in range(2, 25)] + [
        Product((ZMod(2), ZMod(4))),
        Idealization(ZMod(4), ModuleSpec(((0,),))),
        TriangularE(ZMod(2)),
    ]
    for expr in exprs:
        ring = build_ring(expr)
        n = ring.size
        sets = {S.mask: S for S in _mult_sets(ring, range(n))}
        targets = [1] + [1 << t for t in range(n)]
        xss = [(x,) for x in range(n)] + [()]
        if ring.commutative:
            ideals = enumerate_ideals(ring)
            targets += [I.mask for I in ideals]
            xss += [I.elements for I in ideals]
        yield ring, list(sets.values()), targets, xss


def test_witness_against_min_over_members():
    outcomes = set()
    order_matters = 0
    for ring, sets, targets, xss in _witness_cases():
        for S in sets:
            for into in targets:
                for xs in xss:
                    want = naive_witness(S, xs, into)
                    assert S.witness(xs, into) == want, (ring.label, S, xs, into)
                    outcomes.add("none" if want is None else
                                 "least" if want == min(S.members) else "later")
                    if not ring.commutative:
                        flipped = min((s for s in S.members
                                       if all((into >> ring.mul(x, s)) & 1 for x in xs)),
                                      default=None)
                        order_matters += flipped != want
    assert outcomes == {"none", "least", "later"}
    # on E(Z2) reading x*s for s*x changes some answers, so the order is pinned
    assert order_matters > 0


def _mult_sets(ring, gens):
    out = []
    for g in gens:
        try:
            out.append(mult_closure(ring, (g,)))
        except ZeroInClosureError:
            continue
    return out


def _killer_cases():
    """(ring, multiplicative sets): E(Z2xZ2), noncommutative, whose
    idempotent diagonals give sets that miss 0 but hold zero divisors;
    Z24(+)Z24 (576 elements, no solution cache); Z16xZ17 (272 elements)."""
    e22 = build_ring(TriangularE(Product((ZMod(2), ZMod(2)))))
    yield e22, _mult_sets(e22, range(0, e22.size, 17))
    z24i = build_ring(Idealization(ZMod(24), ModuleSpec(((0,),))))
    yield z24i, _mult_sets(z24i, [z24i.encode(lit) for lit in
                                  ((5, (0,)), (2, (1,)), (3, (1,)), (4, (3,)))])
    z16z17 = build_ring(Product((ZMod(16), ZMod(17))))
    yield z16z17, _mult_sets(z16z17, [z16z17.encode(lit) for lit in
                                      ((0, 3), (2, 1), (4, 5), (1, 0))])


def test_killers_against_products():
    """Bit i of ``killers[x]`` is set iff members[i] * x = 0, product in
    that order, and the least helper names the lowest set bit's member."""
    order_matters = later = 0
    for ring, sets in _killer_cases():
        assert len(sets) >= 3, ring.label
        for S in sets:
            members = naive_mask_elements(S.mask)
            killers = S.killers
            assert len(killers) == ring.size
            assert killers[ring.zero] == (1 << len(members)) - 1
            for x in range(ring.size):
                want = sum(1 << i for i, s in enumerate(members)
                           if ring.mul(s, x) == ring.zero)
                assert killers[x] == want, (ring.label, S, x)
                least = naive_witness(S, (x,), 1)
                assert S.least(killers[x]) == least
                later += least is not None and least != members[0]
                order_matters += sum(
                    (ring.mul(s, x) == ring.zero) != (ring.mul(x, s) == ring.zero)
                    for s in members)
    assert order_matters and later


def naive_is_s_prime(S, P):
    """(least definitional s, least colon s, colon prime mask) or None."""
    ring, mask = P.ring, P.mask
    n = ring.size
    if mask.bit_count() == n or mask & S.mask:
        return None
    outside = [a for a in range(n) if not (mask >> a) & 1]
    pairs = [(a, b) for a in outside for b in outside
             if (mask >> ring.mul(a, b)) & 1]
    members = naive_mask_elements(S.mask)
    definitional = next(
        (s for s in members
         if all((mask >> ring.mul(s, a)) & 1 or (mask >> ring.mul(s, b)) & 1
                for a, b in pairs)),
        None)
    colon = None
    for s in members:
        cmask = sum(1 << r for r in range(n) if (mask >> ring.mul(r, s)) & 1)
        out_c = [a for a in range(n) if not (cmask >> a) & 1]
        if out_c and not any((cmask >> ring.mul(a, b)) & 1
                             for a in out_c for b in out_c):
            colon = (s, cmask)
            break
    assert (definitional is None) == (colon is None)
    if definitional is None:
        return None
    return definitional, colon[0], colon[1]


def _s_prime_cases():
    for n in range(2, 73):
        ring = build_ring(ZMod(n))
        gens = sorted({g % n for g in (1, 2, 3, 5, 6, n - 1, n // 2 + 1)} - {0})
        yield ring, _mult_sets(ring, gens)
    for factors, lits in (
            ((ZMod(4), ZMod(6)),
             [(1, 1), (2, 1), (1, 2), (3, 5), (2, 3), (0, 1), (1, 0)]),
            ((ZMod(2), ZMod(4), ZMod(2)),
             [(1, 1, 1), (1, 2, 1), (0, 1, 1), (1, 3, 0), (1, 0, 1)])):
        ring = build_ring(Product(factors))
        yield ring, _mult_sets(ring, [ring.encode(lit) for lit in lits])


def test_is_s_prime_against_pair_list_definition():
    checked = primes = 0
    for ring, sets in _s_prime_cases():
        assert sets
        for I in enumerate_ideals(ring):
            for S in sets:
                want = naive_is_s_prime(S, I)
                got = is_s_prime(S, I)
                checked += 1
                if want is None:
                    assert got is None, (ring.label, I, S)
                    continue
                primes += 1
                assert got is not None, (ring.label, I, S)
                assert (got.s, got.colon_s, got.colon_prime.mask) == want
    # both verdicts occur often enough for the comparison to mean something
    assert checked > 1500 and 300 < primes < checked - 300


def naive_s_integral_domain(ring, S):
    n = ring.size
    pairs = [(a, b) for a in range(n) for b in range(n)
             if ring.mul(a, b) == ring.zero]
    for s in naive_mask_elements(S.mask):
        if all(ring.mul(s, a) == ring.zero or ring.mul(s, b) == ring.zero
               for a, b in pairs):
            return s
    return None


def naive_torsion_mask(ring, S):
    return sum(1 << r for r in range(ring.size)
               if any(ring.mul(s, r) == ring.zero
                      for s in naive_mask_elements(S.mask)))


def _predicate_cases():
    for n in (4, 6, 8, 9, 12, 24, 30, 36, 72, 100):
        ring = build_ring(ZMod(n))
        yield ring, _mult_sets(ring, [g for g in (1, 2, 3, 5, 6, 10) if g < n])
    for factors in ((ZMod(4), ZMod(6)), (ZMod(16), ZMod(16)),
                    (ZMod(2), ZMod(4), ZMod(2))):
        ring = build_ring(Product(factors))
        k = len(factors)
        lits = [tuple(v) for v in itertools.product((0, 1, 2, 3), repeat=k)]
        yield ring, _mult_sets(ring, [ring.encode(lit) for lit in lits[::3]])


def test_is_s_integral_domain_against_scan():
    verdicts = set()
    for ring, sets in _predicate_cases():
        for S in sets:
            want = naive_s_integral_domain(ring, S)
            assert is_s_integral_domain(ring, S) == want, (ring.label, S)
            verdicts.add(want is None)
    assert verdicts == {True, False}


def test_localize_torsion_against_scan():
    for ring, sets in _predicate_cases():
        for S in sets:
            loc = localize(ring, S)
            assert loc.torsion_kernel.mask == naive_torsion_mask(ring, S)
            assert loc.torsion_kernel.elements == naive_mask_elements(
                naive_torsion_mask(ring, S))


@pytest.mark.parametrize("n", [24, 720])
def test_cached_decoding_keeps_equality_and_hash(n):
    ring = build_ring(ZMod(n))
    I = ideal_generated(ring, (6,))
    S = mult_closure(ring, (5,))
    I2 = Ideal(ring, I.mask)
    S2 = MultiplicativeSet(ring, S.mask, S.gens)
    assert "elements" not in vars(I) and "members" not in vars(S)
    before = (hash(I), hash(S), I == I2, S == S2)
    assert I.elements == naive_mask_elements(I.mask)
    assert S.members == naive_mask_elements(S.mask)
    assert I.elements is I.elements and S.members is S.members
    assert (hash(I), hash(S), I == I2, S == S2) == before == (hash(I2), hash(S2), True, True)
    assert {I, I2} == {I} and {S, S2} == {S}
    # an ideal is its mask: other generators give an equal ideal
    assert ideal_generated(ring, (6, 12)) == I
