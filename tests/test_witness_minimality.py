"""Hopfian, S-pure, S-PF, S-reduced and S-integral-domain witnesses and the
localization kernel against brute force, for minimality.

The predicates return the least witness their definitions allow: the least
Hopfian index k and the least member s for it, the first b of an ideal and
then the least s with s*a = a*b, the least element whose annihilator is
not S-pure, the least killer of each nilpotent and of all of them, the
least nilpotent no member kills, and the least s serving every zero-product
pair.  A valid but larger witness would change every report that prints it,
so each is compared with a plain scan over the definition: annihilators and
nilpotents by scanning every element, every n >= k of the chain, every b,
every pair and every s in index order.
"""

import pytest

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    ZMod,
    build_ring,
    enumerate_ideals,
    is_s_integral_domain,
    is_s_pf,
    is_s_pure,
    is_s_reduced,
    localize,
    mult_closure,
    s_nilradical,
    s_radical,
    s_strongly_hopfian_profile,
)
from sring.ideals import Ideal

# ring, literals generating S (one set per entry; () is S = {1})
CASES = {
    "Z24": (ZMod(24), [(), (2,), (3,), (5,)]),
    "Z72": (ZMod(72), [(), (2,), (3,), (8,)]),
    "Z16xZ4": (Product((ZMod(16), ZMod(4))), [(), ((2, 1),), ((1, 2),), ((0, 1),)]),
    # local: every non-unit is nilpotent, so S is a group of units
    "Z4(+)Z4": (Idealization(ZMod(4), ModuleSpec(((0,),))),
                [(), ((3, (0,)),), ((1, (1,)),), ((3, (2,)),)]),
    # above the 256-element operation-table limit; squarefree, so S-PF holds
    "Z330": (ZMod(330), [()]),
}

PARAMS = [pytest.param(name, gens, id=f"{name}-{'S1' if not gens else gens[0]}")
          for name, (_, sets) in CASES.items() for gens in sets]

_BUILT = {}


def instance(name, gens):
    if name not in _BUILT:
        _BUILT[name] = build_ring(CASES[name][0])
    ring = _BUILT[name]
    S = mult_closure(ring, (ring.one, *(ring.encode(g) for g in gens)))
    return ring, S


def brute_annihilators(ring):
    """ann(q) as a frozenset, by scanning every x, memoized per q."""
    memo = {}

    def ann(q):
        if q not in memo:
            memo[q] = frozenset(x for x in range(ring.size)
                                if ring.mul(q, x) == ring.zero)
        return memo[q]
    return ann


def brute_hopfian(ring, members, ann, a):
    """(k, s, stabilization) of a, straight from the definition."""
    powers = []
    p = a
    while p not in powers:
        powers.append(p)
        p = ring.mul(p, a)
    # a**(L+1) repeats some a**j with j <= L, so from j on the chain is
    # periodic and, since it only grows, constant: n <= L covers every n
    chain = [ann(q) for q in powers]
    L = len(chain)
    stabilization = next(n for n in range(1, L + 1) if chain[n - 1] == chain[-1])
    for k in range(1, L + 1):
        lower = chain[k - 1]
        tail = set(chain[k - 1:])
        for s in members:
            if all(ring.mul(s, y) in lower for upper in tail for y in upper):
                return k, s, stabilization
    raise AssertionError("s = 1 works at k = L")


def brute_pure(ring, members, elems):
    """(verdict, witnesses, failing): the first b in I, then the least s."""
    witnesses = {}
    for a in elems:
        for b in elems:
            ss = [s for s in members if ring.mul(s, a) == ring.mul(a, b)]
            if ss:
                witnesses[a] = (b, ss[0])
                break
        else:
            return False, witnesses, a
    return True, witnesses, None


def brute_pf(ring, members, ann):
    """(failing a, its annihilator, purity result), or None when S-PF holds."""
    pure = {}
    for a in range(ring.size):
        I = ann(a)
        if I not in pure:
            pure[I] = brute_pure(ring, members, sorted(I))
        if not pure[I][0]:
            return a, I, pure[I]
    return None


def as_tuple(res):
    return res.verdict, res.witnesses, res.failing


@pytest.mark.parametrize("name,gens", PARAMS)
def test_hopfian_witnesses_are_least(name, gens):
    ring, S = instance(name, gens)
    ann = brute_annihilators(ring)
    profile = s_strongly_hopfian_profile(ring, S)
    assert sorted(profile) == list(range(ring.size))
    for a, e in profile.items():
        assert (e.k, e.s, e.stabilization) == \
            brute_hopfian(ring, S.members, ann, a), (name, gens, a)


@pytest.mark.parametrize("name,gens", PARAMS)
def test_s_pure_witnesses_are_least(name, gens):
    ring, S = instance(name, gens)
    ann = brute_annihilators(ring)
    masks = {sum(1 << x for x in ann(a)) for a in range(ring.size)}
    if ring.size <= 128:
        masks |= {I.mask for I in enumerate_ideals(ring)}
    for mask in sorted(masks):
        I = Ideal(ring, mask)
        assert as_tuple(is_s_pure(S, I)) == \
            brute_pure(ring, S.members, I.elements), (name, gens, I)


@pytest.mark.parametrize("name,gens", PARAMS)
def test_s_pf_failing_element_is_least(name, gens):
    ring, S = instance(name, gens)
    res = is_s_pf(ring, S)
    expected = brute_pf(ring, S.members, brute_annihilators(ring))
    if expected is None:
        assert res.verdict and res.failing is None and res.detail is None
        return
    a, I, detail = expected
    assert not res.verdict and res.failing == a
    assert set(res.failing_annihilator.elements) == I
    assert as_tuple(res.detail) == detail


def test_cases_reach_past_the_first_candidate():
    """The cases exercise every search beyond its first step: a Hopfian k
    above 1 and below stabilization, a purity witness s other than 1, an
    S-PF failure past a = 0, and an S-PF ring above 256 elements."""
    k_late = k_early = s_late = pf_fail = False
    for name, gens in ((p.values[0], p.values[1]) for p in PARAMS):
        ring, S = instance(name, gens)
        for e in s_strongly_hopfian_profile(ring, S).values():
            k_late |= e.k > 1
            k_early |= e.k < e.stabilization
        ann = brute_annihilators(ring)
        for a in range(ring.size):
            res = is_s_pure(S, Ideal(ring, sum(1 << x for x in ann(a))))
            s_late |= any(s != ring.one for _, s in res.witnesses.values())
        res = is_s_pf(ring, S)
        pf_fail |= not res.verdict and res.failing > 0
    assert k_late and k_early and s_late and pf_fail
    z330, S = instance("Z330", ())
    assert z330.size > 256 and is_s_pf(z330, S).verdict


def brute_nilpotents(ring):
    """Elements with a power equal to 0, in index order."""
    nil = []
    for a in range(ring.size):
        seen, p = set(), a
        while p not in seen:
            seen.add(p)
            p = ring.mul(p, a)
        if ring.zero in seen:
            nil.append(a)
    return nil


def brute_killer(ring, members, xs):
    """Least s with s*x = 0 for every x in ``xs``, or None."""
    return next((s for s in members
                 if all(ring.mul(s, x) == ring.zero for x in xs)), None)


@pytest.mark.parametrize("name,gens", PARAMS)
def test_s_reduced_witnesses_are_least(name, gens):
    ring, S = instance(name, gens)
    nil = brute_nilpotents(ring)
    witnesses = {}
    failing = None
    for a in nil:
        s = brute_killer(ring, S.members, (a,))
        if s is None:
            failing = a
            break
        witnesses[a] = s
    uniform = None if failing is not None else brute_killer(ring, S.members, nil)
    cert = is_s_reduced(ring, S)
    assert (cert.verdict, cert.witnesses, cert.uniform_witness, cert.failing) == \
        (failing is None, witnesses, uniform, failing), (name, gens)


@pytest.mark.parametrize("name,gens", PARAMS)
def test_s_integral_domain_witness_is_least(name, gens):
    ring, S = instance(name, gens)
    pairs = [(a, b) for a in range(ring.size) for b in range(ring.size)
             if ring.mul(a, b) == ring.zero]
    expected = next((s for s in S.members
                     if all(ring.mul(s, a) == ring.zero or ring.mul(s, b) == ring.zero
                            for a, b in pairs)), None)
    assert is_s_integral_domain(ring, S) == expected, (name, gens)


@pytest.mark.parametrize("name,gens", PARAMS)
def test_localize_kernel_is_the_s_torsion(name, gens):
    ring, S = instance(name, gens)
    torsion = tuple(x for x in range(ring.size)
                    if brute_killer(ring, S.members, (x,)) is not None)
    assert localize(ring, S).torsion_kernel.elements == torsion, (name, gens)


def test_s_reduced_cases_reach_past_the_first_candidate():
    """The S-reduced and S-integral-domain cases include a failing nilpotent
    past 0, a killer other than 1, a uniform witness, and both
    S-integral-domain verdicts."""
    fail_late = s_late = uniform = domain = not_domain = False
    for name, gens in ((p.values[0], p.values[1]) for p in PARAMS):
        ring, S = instance(name, gens)
        cert = is_s_reduced(ring, S)
        fail_late |= not cert.verdict and cert.failing > 0
        s_late |= any(s != ring.one for s in cert.witnesses.values())
        uniform |= cert.uniform_witness is not None
        d = is_s_integral_domain(ring, S)
        domain |= d is not None
        not_domain |= d is None
    assert fail_late and s_late and uniform and domain and not_domain


def brute_s_radical(ring, members, mask):
    """(radical elements, witnesses, is S-radical) of the ideal ``mask``:
    per element a the least n >= 1, then the least s, with s * a**n in it."""
    elems, witnesses = [], {}
    for a in range(ring.size):
        seen, p, n = set(), a, 1
        while p not in seen:
            s = next((s for s in members if (mask >> ring.mul(s, p)) & 1), None)
            if s is not None:
                elems.append(a)
                witnesses[a] = (s, n)
                break
            seen.add(p)
            p, n = ring.mul(p, a), n + 1
    return tuple(elems), witnesses, sum(1 << a for a in elems) == mask


@pytest.mark.parametrize("name,gens", PARAMS)
def test_s_radical_witnesses_are_least(name, gens):
    ring, S = instance(name, gens)
    for I in enumerate_ideals(ring):
        if not I.is_proper:
            continue
        res = s_radical(ring, S, I)
        assert (res.ideal.elements, res.witnesses, res.is_s_radical) == \
            brute_s_radical(ring, S.members, I.mask), (name, gens, I.elements)
    nil = s_nilradical(ring, S)
    assert (nil.ideal.elements, nil.witnesses, nil.is_s_radical) == \
        brute_s_radical(ring, S.members, 1), (name, gens)
