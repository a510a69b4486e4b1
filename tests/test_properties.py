"""Property tests over random construction expressions.

Each drawn expression is realized and checked against brute-force scans:
the ring axioms, the literal round trip, both equation solvers (the
memoized lists and each carrier's own random solver), the degree-1
zero-product pair streams and their one-product kill mask, and on
commutative carriers the ideal lattice, the colon ideal of every ideal by
every element, the primality of every ideal, the definitional S-prime
witness of every proper ideal, the dominant colon ideal and the colon
verdict of every proper ideal missing S, the S-purity of every ideal and
the S-PF verdict by the ideal-sum criterion against the witness walk, and
the localization kernel.  Drawn carriers have at most 36 elements, except
E(Z4) with 256.  The strategy draws the non-reduced bases Z4, Z8 and Z9
for idealizations and Z4 for E(R), and some carrier in every run must have
a degree-1 pair with a1*b0 != 0 (Z4(+)Z4 and E(Z4) have such pairs), so the
kill-mask check sees informative pairs.
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
    is_prime_ideal,
    is_s_integral_domain,
    is_s_pure,
    is_u_s_armendariz_up_to,
    localize,
    mult_closure,
    verify_ring_axioms,
)
from sring.ideals import (
    Ideal,
    colon_ideals,
    definitional_witness,
    dominant_colon_witness,
    is_s_prime,
    zero_ideal,
)
from sring.predicates import _exhaustive_vector_pairs, _least_impure, _sampled_vector_pairs
from sring.rings import (
    _axiom_failure,
    _sampled_triples,
    freeze_literal,
    ideal_span,
    power_cycle,
)
from test_s_pf_criterion import reference_s_pf, s_pf_outcome, scanned_annihilators

SIZE_CAP = 36
E_Z4_SIZE = 256


def _proper_generator(draw, ring, quotient_cap=None):
    """A drawn element literal of ``ring`` that generates a proper ideal,
    whose quotient has at most ``quotient_cap`` elements when that is given."""
    full = (1 << ring.size) - 1
    fits = [g for g in range(ring.size)
            if (span := ideal_span(ring, [g])) != full
            and (quotient_cap is None or ring.size <= quotient_cap * span.bit_count())]
    return freeze_literal(ring.decode(draw(st.sampled_from(fits))))


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
        # base Z_n acting on one cyclic component, or two when n <= 3; the
        # module is cut to keep the carrier within SIZE_CAP
        n = draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9]))
        base = build_ring(ZMod(n))
        comps = [(_proper_generator(draw, base, SIZE_CAP // n),)]
        if n <= 3 and draw(st.booleans()):
            comps.append((_proper_generator(draw, base),))
        return Idealization(ZMod(n), ModuleSpec(tuple(comps)))
    # E(Z8) and E(Z9) have 4,096 and 6,561 elements: beyond the scans here
    return TriangularE(ZMod(draw(st.sampled_from([2, 4]))))


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
    mask of a1*b0 alone equals that of all four coefficient products.
    Returns the pairs checked, sampled ones first."""
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
    return pairs


def _scanned_definitional_witness(S, P):
    """Least member s, tried in order against every pair (a, b) of the
    ring, such that ab in P forces sa or sb in P; None when none does."""
    ring, mask = P.ring, P.mask
    mul, elems = ring.mul, range(ring.size)
    pairs = [(a, b) for a in elems for b in elems if (mask >> mul(a, b)) & 1]
    for s in S.members:
        if all((mask >> mul(s, a)) & 1 or (mask >> mul(s, b)) & 1
               for a, b in pairs):
            return s
    return None


def _scanned_colon(I, x):
    """Bitmask of (I : x) by scan: every r of the ring with r*x in I."""
    ring, mask = I.ring, I.mask
    return sum(1 << r for r in range(ring.size) if (mask >> ring.mul(r, x)) & 1)


def _scanned_is_prime(I):
    """Proper, and no pair (a, b) of elements outside I, all n^2 of them,
    has ab in I."""
    ring, mask = I.ring, I.mask
    outside = [a for a in range(ring.size) if not (mask >> a) & 1]
    return bool(outside) and not any((mask >> ring.mul(a, b)) & 1
                                     for a in outside for b in outside)


def _check_colon_lemma(S, P):
    """The colon criterion against scans of every member's colon ideal,
    for a proper P missing S: the dominant witness is the least member
    whose colon is the union of them all, and P passes iff some scanned
    colon is prime, at the least such member."""
    colons = {s: _scanned_colon(P, s) for s in S.members}
    union = 0
    for mask in colons.values():
        union |= mask
    least = next(s for s, mask in colons.items() if mask == union)
    s, C = dominant_colon_witness(S, P)
    assert (s, C.mask) == (least, union)
    prime = [s for s, mask in colons.items() if _scanned_is_prime(Ideal(P.ring, mask))]
    w = is_s_prime(S, P)
    assert (w is not None) == bool(prime)
    if prime:
        assert (w.colon_s, w.colon_prime.mask) == (prime[0], colons[prime[0]])


def _check_expression(expr, data) -> bool:
    """Every scan above on one drawn carrier; returns whether its degree-1
    pairs include one with a1*b0 != 0."""
    ring = build_ring(expr, size_cap=E_Z4_SIZE)
    n = ring.size
    if n <= SIZE_CAP:
        assert verify_ring_axioms(ring) == []
    else:
        # E(Z4): 256**3 triples take too long, so sample them as
        # verify_ring_axioms does above 256 elements
        assert _axiom_failure(ring, range(n), _sampled_triples(n, 20_000, 0)) is None
    assert all(ring.encode(ring.decode(x)) == x for x in range(n))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for a in range(n):
        scans = {}
        for x in range(n):
            scans.setdefault(ring.mul(a, x), []).append(x)
        for t in range(n):
            scan = scans.get(t, [])
            assert ring.solve_mul_all(a, t) == scan
            # the memoized draw and the carrier's own random solver
            for x in (ring.solve_mul_random(a, t, rng),
                      ring._solve_random(a, t, rng)):
                assert (x is None) if not scan else (x in scan)
    # idealization and triangular carriers read their unit flags off the base
    assert [bool(f) for f in ring.unit_flags] == [ring.is_unit(a) for a in range(n)]
    pairs = _check_degree1_pair_streams(ring, rng.getrandbits(32))
    informative = any(ring.mul(a[1], b[0]) != ring.zero for a, b in pairs)
    if not ring.commutative:
        return informative
    ideals = enumerate_ideals(ring)
    assert {frozenset(I.elements) for I in ideals} == _scanned_ideals(ring)
    # a generator whose powers miss 0; 1 always qualifies
    g = data.draw(st.integers(0, n - 1))
    if ring.zero in power_cycle(ring, g):
        g = ring.one
    S = mult_closure(ring, (g,))
    anns = scanned_annihilators(ring)
    for I in ideals:
        assert [C.mask for C in colon_ideals(I, range(n))] == \
            [_scanned_colon(I, x) for x in range(n)]
        assert is_prime_ideal(I) == _scanned_is_prime(I)
        assert _least_impure(S, I.mask, anns.__getitem__) == is_s_pure(S, I).failing
        if I.is_proper:
            assert definitional_witness(S, I) == _scanned_definitional_witness(S, I)
            if not I.mask & S.mask:
                _check_colon_lemma(S, I)
    assert s_pf_outcome(ring, S) == reference_s_pf(ring, S)
    assert definitional_witness(S, zero_ideal(ring)) == is_s_integral_domain(ring, S)
    kernel = [x for x in range(n) if any(ring.mul(s, x) == ring.zero
                                         for s in S.members)]
    loc = localize(ring, S)
    assert list(loc.torsion_kernel.elements) == kernel
    assert [x for x in range(n) if loc.ring.project(x) == loc.ring.zero] == kernel
    return informative


def test_random_expressions_against_scans():
    informative = []

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(expressions(), st.data())
    def check(expr, data):
        informative.append(_check_expression(expr, data))

    check()
    assert any(informative), f"no informative pair in {len(informative)} carriers"


def test_kill_mask_on_informative_pairs():
    """Z4(+)Z4 has degree-1 zero-product pairs with a1*b0 != 0: 96 of its
    1,408.  With S the unit group, which kills no nonzero element, the
    exhaustive verdict must match a scan of all four products per pair."""
    ring = build_ring(Idealization(ZMod(4), ModuleSpec(((0,),))))
    zero, mul = ring.zero, ring.mul
    pairs = _check_degree1_pair_streams(ring, 0)
    assert any(mul(a[1], b[0]) != zero for a, b in pairs)
    S = mult_closure(ring, [u for u in range(ring.size) if ring.is_unit(u)])
    scan = list(_exhaustive_vector_pairs(ring, 1))
    assert len(scan) == 1408
    assert sum(mul(a[1], b[0]) != zero for a, b in scan) == 96
    uniform, histogram, every = S.mask, {}, True
    for a, b in scan:
        mask = S.mask
        for x, y in itertools.product(a, b):
            mask &= sum(1 << s for s in S.members if mul(s, mul(x, y)) == zero)
        uniform &= mask
        if mask:
            least = (mask & -mask).bit_length() - 1
            histogram[least] = histogram.get(least, 0) + 1
        every = every and bool(mask)
    verdict = is_u_s_armendariz_up_to(ring, S, 1, mode="exhaustive")
    assert verdict.pairs_checked == len(scan)
    assert verdict.uniform_witness == (
        (uniform & -uniform).bit_length() - 1 if uniform else None)
    assert verdict.per_pair_ok == every
    assert verdict.per_pair_histogram == histogram
