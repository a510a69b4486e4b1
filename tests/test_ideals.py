"""Ideal lattice, multiplicative closures, and the S-prime machinery."""

import pytest

from sring import (
    EmptySpectrumError,
    Idealization,
    ModuleSpec,
    Product,
    TriangularE,
    ZMod,
    ZeroInClosureError,
    build_ring,
    colon_elem,
    enumerate_ideals,
    ideal_generated,
    is_prime_ideal,
    mult_closure,
    s_minimal_s_primes,
    s_nilradical,
    s_radical,
    s_spectrum,
    spectrum_intersection,
)
from sring.ideals import Ideal, MultiplicativeSet, is_ideal_mask, zero_ideal
from sring.rings import ideal_span


def test_ideal_generated_examples(z24):
    assert ideal_generated(z24, (3,)).elements == tuple(range(0, 24, 3))
    assert ideal_generated(z24, ()).elements == (0,)
    # gcd(8, 6, 24) = 2, so (8, 6) spans the even residues
    assert ideal_generated(z24, (8, 6)).elements == tuple(range(0, 24, 2))


def test_enumerate_ideals_bijects_with_divisors():
    for n in (24, 12, 30, 7, 16):
        ring = build_ring(ZMod(n))
        ideals = enumerate_ideals(ring)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(ideals) == len(divisors)
        sizes = sorted(ideal.size for ideal in ideals)
        assert sizes == sorted(n // d for d in divisors)


def test_enumerate_ideals_product_by_subgroup_scan():
    # Z2xZ2 is a principal ideal ring; the other three have ideals that only
    # a sum of principal ideals reaches.  In Z2(+)Z2^3 the ideal 0(+)<e2, e3>
    # is I + R*x for a principal I and an x that is never the least element
    # outside I: the sum closure has to try more cosets of R/I than one.
    cases = (
        (Product((ZMod(2), ZMod(2))), 4),
        (Idealization(ZMod(2), ModuleSpec(((0,), (0,)))), 6),
        (Product((ZMod(2), ZMod(4), ZMod(2))), 12),
        (Idealization(ZMod(2), ModuleSpec(((0,), (0,), (0,)))), 17),
    )
    for expr, count in cases:
        ring = build_ring(expr)
        n = ring.size
        got = {ideal.elements for ideal in enumerate_ideals(ring)}
        # exhaustive scan over all subsets closed under + and absorbing *
        brute = set()
        for bits in range(1, 1 << n, 2):
            subset = [x for x in range(n) if (bits >> x) & 1]
            closed = all((bits >> ring.add(a, b)) & 1
                         for a in subset for b in subset)
            absorbing = closed and all((bits >> ring.mul(r, a)) & 1
                                       for r in range(n) for a in subset)
            if absorbing:
                brute.add(tuple(subset))
        assert got == brute and len(got) == count, ring.label


def _naive_two_sided_closure(ring, seeds, combine):
    """Fixpoint of ``seeds`` under combine(x, y) and combine(y, x), all pairs."""
    members = set(seeds)
    while True:
        new = {combine(x, y) for x in members for y in members}
        new |= {combine(y, x) for x in members for y in members}
        if new <= members:
            return members
        members |= new


def test_mult_closure_matches_naive_closure_noncommutative():
    ring = build_ring(TriangularE(ZMod(2)))
    assert not ring.commutative
    for g in range(ring.size):
        for h in range(g, ring.size):
            naive = _naive_two_sided_closure(ring, {ring.one, g, h}, ring.mul)
            if ring.zero in naive:
                with pytest.raises(ZeroInClosureError):
                    mult_closure(ring, (g, h))
                continue
            got = mult_closure(ring, (g, h)).members
            assert got == tuple(sorted(naive)), (g, h)


def test_ideal_span_is_two_sided_noncommutative():
    ring = build_ring(TriangularE(ZMod(2)))
    n = ring.size
    for gens in [(g,) for g in range(n)] + [(3, 5), (6, 9), (1, 2)]:
        mask = ideal_span(ring, gens)
        members = [x for x in range(n) if (mask >> x) & 1]
        assert all((mask >> ring.add(x, y)) & 1 for x in members for y in members)
        assert all((mask >> ring.mul(r, x)) & 1 and (mask >> ring.mul(x, r)) & 1
                   for r in range(n) for x in members), gens
        # and the least such set: the additive closure of every r*g*s
        seeds = {0} | {ring.mul(ring.mul(r, g), s)
                       for g in gens for r in range(n) for s in range(n)}
        assert set(members) == _naive_two_sided_closure(ring, seeds, ring.add)


def test_colon_examples(z24, z12):
    i3 = ideal_generated(z12, (3,))
    assert colon_elem(i3, 2).elements == (0, 3, 6, 9)
    assert colon_elem(i3, 1).elements == i3.elements
    assert colon_elem(zero_ideal(z24), 8).elements == tuple(range(0, 24, 3))


def colon(I, J):
    """(I : J) = elements r with r*J contained in I, by scanning every r."""
    ring = I.ring
    mask = sum(1 << r for r in range(ring.size)
               if all((I.mask >> ring.mul(r, j)) & 1 for j in J.elements))
    return Ideal(ring, mask)


def test_colon_by_principal_ideal_matches_colon_elem(z24):
    for gens in ((3,), (6,), (4,)):
        ideal = ideal_generated(z24, gens)
        for x in range(24):
            by_elem = colon_elem(ideal, x)
            by_ideal = colon(ideal, ideal_generated(z24, (x,)))
            assert by_elem.issubset(by_ideal) and by_ideal.issubset(by_elem)
            assert ideal.issubset(by_elem)


def test_is_prime_ideal(z24):
    assert is_prime_ideal(ideal_generated(z24, (3,)))
    assert not is_prime_ideal(ideal_generated(z24, (6,)))
    assert not is_prime_ideal(ideal_generated(z24, (1,)))
    # 2*2 = 0 is the only product of nonzero elements: the square decides it
    z4 = build_ring(ZMod(4))
    assert not is_prime_ideal(zero_ideal(z4))


def scanned_is_prime(I):
    """Proper, and no pair (a, b) of elements outside I, all n^2 of them,
    has ab in I."""
    ring, mask = I.ring, I.mask
    outside = [a for a in range(ring.size) if not (mask >> a) & 1]
    return bool(outside) and not any((mask >> ring.mul(a, b)) & 1
                                     for a in outside for b in outside)


@pytest.mark.parametrize("expr", [ZMod(720), Product((ZMod(16), ZMod(16)))],
                         ids=["Z720", "Z16xZ16"])
def test_is_prime_ideal_matches_pair_scan(expr):
    # Z720 multiplies through its structure, above the 256-element
    # operation-table limit; Z16xZ16 sits at the limit and reads tables
    ring = build_ring(expr)
    ideals = enumerate_ideals(ring)
    for I in ideals:
        assert is_prime_ideal(I) == scanned_is_prime(I), I
    # Z720: (2), (3), (5); Z16xZ16: (2)xZ16 and Z16x(2)
    assert sum(map(is_prime_ideal, ideals)) == (3 if ring.size == 720 else 2)


def test_mult_closure_examples(z24, z12):
    assert mult_closure(z24, (2,)).members == (1, 2, 4, 8, 16)
    assert mult_closure(z12, (4,)).members == (1, 4)
    with pytest.raises(ZeroInClosureError):
        mult_closure(build_ring(ZMod(4)), (2,))


def test_multiplicative_set_never_holds_zero():
    z4 = build_ring(ZMod(4))
    # the closure of 2 in Z4 is {0, 1, 2}: bit 0 is set
    with pytest.raises(ZeroInClosureError,
                       match=r"^multiplicative closure of \(2,\) in Z4 contains zero$"):
        MultiplicativeSet(z4, 0b111, (2,))
    with pytest.raises(ZeroInClosureError):
        MultiplicativeSet(z4, 0b1, (0,))
    assert MultiplicativeSet(z4, 0b1010, (3,)) == mult_closure(z4, (3,))


def test_s_radical_examples(z24, s24, z12):
    s12pow = mult_closure(z12, (2,))
    assert s12pow.members == (1, 2, 4, 8)
    res = s_radical(z12, s12pow, zero_ideal(z12))
    assert res.ideal.elements == (0, 3, 6, 9)
    res24 = s_radical(z24, s24, zero_ideal(z24))
    assert res24.ideal.elements == tuple(range(0, 24, 3))
    assert not res24.is_s_radical
    full = ideal_generated(z24, (1,))
    assert s_radical(z24, s24, full).ideal.elements == full.elements


def test_s_radical_witnesses_recheck(z24, s24):
    res = s_radical(z24, s24, zero_ideal(z24))
    for a, (s, n) in res.witnesses.items():
        power = a
        for _ in range(n - 1):
            power = z24.mul(power, a)
        assert z24.mul(s, power) == 0
    # idempotent-direction containment only (S-radical of the S-radical grows or stays)
    again = s_radical(z24, s24, res.ideal)
    assert res.ideal.issubset(again.ideal)


def test_s_nilradical_is_ideal_and_matches_double_scan(z24, s24):
    res = s_nilradical(z24, s24)
    assert is_ideal_mask(z24, res.ideal.mask)
    # independent double scan over (element, power, member)
    brute = set()
    for a in range(24):
        powers = []
        p = a
        for _ in range(24):
            powers.append(p)
            p = z24.mul(p, a)
        if any(z24.mul(s, q) == 0 for q in powers for s in s24.members):
            brute.add(a)
    assert set(res.ideal.elements) == brute == set(range(0, 24, 3))


def test_s_prime_witnesses_z24(z24, s24):
    spectrum = s_spectrum(z24, s24)
    got = {ideal.elements: (w.s, w.colon_s, w.colon_prime.elements)
           for ideal, w in spectrum}
    three = tuple(range(0, 24, 3))
    assert got == {
        (0,): (8, 8, three),
        (0, 12): (4, 4, three),
        (0, 6, 12, 18): (2, 2, three),
        three: (1, 1, three),
    }


def test_s_prime_disjointness_short_circuit(z24, s24):
    from sring.ideals import is_s_prime
    assert is_s_prime(s24, ideal_generated(z24, (2,))) is None


def test_definitional_and_colon_criteria_agree_everywhere(z24, s24, z12, s12):
    from sring.ideals import is_s_prime
    for ring, S in ((z24, s24), (z12, s12)):
        for ideal in enumerate_ideals(ring):
            if not ideal.is_proper:
                continue
            witness = is_s_prime(S, ideal)  # raises internally on disagreement
            if ideal.mask & S.mask:
                assert witness is None


def test_prime_disjoint_from_s_is_s_prime_with_one(z24, s24):
    from sring.ideals import is_s_prime
    for ideal in enumerate_ideals(z24):
        if not ideal.is_proper or (ideal.mask & s24.mask):
            continue
        if is_prime_ideal(ideal):
            witness = is_s_prime(s24, ideal)
            assert witness is not None and witness.s == 1


def test_spectrum_of_field_and_product():
    z5 = build_ring(ZMod(5))
    s = mult_closure(z5, (1,))
    spec = s_spectrum(z5, s)
    assert [ideal.elements for ideal, _ in spec] == [(0,)]

    ring = build_ring(Product((ZMod(2), ZMod(2))))
    s_two = mult_closure(ring, (ring.encode((1, 1)), ring.encode((1, 0))))
    spec = s_spectrum(ring, s_two)
    decoded = [[ring.decode(x) for x in ideal.elements] for ideal, _ in spec]
    assert decoded == [[(0, 0)], [(0, 0), (0, 1)]]


def test_s_minimal_s_primes(z24, s24):
    minimal = s_minimal_s_primes(s24, s_spectrum(z24, s24))
    assert len(minimal) == 4  # every member of the spectrum is S-minimal here

    ring = build_ring(Product((ZMod(2), ZMod(2))))
    s_diag = mult_closure(ring, (ring.encode((1, 1)),))
    minimal = s_minimal_s_primes(s_diag, s_spectrum(ring, s_diag))
    decoded = sorted(tuple(ring.decode(x) for x in ideal.elements)
                     for ideal in minimal)
    assert decoded == [(((0, 0)), ((0, 1))), (((0, 0)), ((1, 0)))]


def test_spectrum_intersection(z24, s24):
    assert spectrum_intersection(z24, s_spectrum(z24, s24)).elements == (0,)
    with pytest.raises(EmptySpectrumError):
        spectrum_intersection(z24, [])
