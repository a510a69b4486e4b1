"""Zero-product streams of the pair engine checked against reference code.

The references are the generic coefficient-by-coefficient sampler, the
stack walk that enumerated pairs before the mask-filtered walk, both
copied here as they ran, a brute-force filter of every vector pair, and
the kill mask of all coefficient products of a pair.  The sampler's
degree-1 block calls ``solve_mul_random`` without the generic loops, on
carriers that memoize solution lists and on larger ones; it must give the
same pairs in the same order.  Both paths of the sampler, and the
reference, give a unit a_0 the zero right vector without a solver call or
a random number; the reference checks that a solve with a throwaway
generator returns 0, on carriers with many units (E(Z7), a two-component
module) at degrees 1 and 2 too.  The exhaustive walk shares each prefix
b_0..b_{D-1} among the last coefficients a_D and tests each candidate b_D
against one bitmask of its trailing conditions; it must give the stack
walk's pairs in the stack walk's order at every degree, on commutative
carriers and on the noncommutative E(Z2).  The verdict checks degree**2
products per pair (one at degree 1); they must give the same masks.
"""

import itertools
import random

import pytest

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    TriangularE,
    ZMod,
    build_ring,
    is_u_s_armendariz_up_to,
    mult_closure,
)
from sring.predicates import _exhaustive_vector_pairs, _sampled_vector_pairs
from sring.rings import SOLUTION_CACHE_LIMIT


def generic_sampled_pairs(ring, degree, seed, budget):
    rng = random.Random(seed)
    rnd = rng.random
    size = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    solve = ring.solve_mul_random
    D = degree
    zero = ring.zero
    for _ in range(budget):
        a = tuple([int(rnd() * size) for _ in range(D + 1)])
        if ring.is_unit(a[0]):
            # a0*b0 = 0 and a0*b_k = -(terms in b_0..b_{k-1}) force b = 0
            assert solve(a[0], zero, random.Random(0)) == zero
            yield a, (zero,) * (D + 1)
            continue
        b = None
        for _ in range(2):
            cand = []
            fail = False
            for k in range(D):
                t = zero
                for i in range(1, k + 1):
                    t = add(t, mul(a[i], cand[k - i]))
                x = solve(a[0], neg(t) if k else zero, rng)
                if x is None:
                    fail = True
                    break
                cand.append(x)
            if fail:
                break
            t = zero
            for i in range(1, D + 1):
                t = add(t, mul(a[i], cand[D - i]))
            t = neg(t)
            for _ in range(3):
                x = solve(a[0], t, rng)
                if x is None:
                    break
                tail = cand + [x]
                ok = True
                for m in range(D + 1, 2 * D + 1):
                    u = zero
                    for i in range(m - D, D + 1):
                        u = add(u, mul(a[i], tail[m - i]))
                    if u != zero:
                        ok = False
                        break
                if ok:
                    b = tuple(tail)
                    break
            if b is not None:
                break
        yield a, (b if b is not None else (0,) * (D + 1))


def generic_exhaustive_pairs(ring, degree):
    size = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    solve = ring.solve_mul_all
    D = degree
    for a in itertools.product(range(size), repeat=D + 1):
        stack = [(0, ())]
        while stack:
            k, b = stack.pop()
            if k > D:
                ok = True
                for m in range(D + 1, 2 * D + 1):
                    t = ring.zero
                    for i in range(m - D, D + 1):
                        t = add(t, mul(a[i], b[m - i]))
                    if t != ring.zero:
                        ok = False
                        break
                if ok:
                    yield a, b
                continue
            t = ring.zero
            for i in range(1, k + 1):
                t = add(t, mul(a[i], b[k - i]))
            for x in reversed(solve(a[0], neg(t))):
                stack.append((k + 1, b + (x,)))


CACHED = {
    "Z24": ZMod(24),
    "Z7(+)Z7": Idealization(ZMod(7), ModuleSpec(((0,),))),
    "E(Z2xZ2)": TriangularE(Product((ZMod(2), ZMod(2)))),
}
UNCACHED = {
    "E(Z5)": TriangularE(ZMod(5)),
    "Z24(+)Z24": Idealization(ZMod(24), ModuleSpec(((0,),))),
    "E(Z7)": TriangularE(ZMod(7)),  # 2,401 elements, 86% units
    "Z16(+)(0;2)": Idealization(ZMod(16), ModuleSpec(((0,), (2,)))),
}
SAMPLED = {**CACHED, **UNCACHED}


def _check_sampled_stream(ring, degree, seed, budget):
    got = list(_sampled_vector_pairs(ring, degree, seed, budget))
    assert got == list(generic_sampled_pairs(ring, degree, seed, budget))
    # the unit skip and the solve chain both run, and the chain finds
    # nonzero right vectors
    units = ring.unit_flags
    assert any(units[a[0]] for a, _ in got)
    assert any(any(b) for a, b in got if not units[a[0]])


@pytest.mark.parametrize("name", list(SAMPLED))
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_degree1_sampled_stream_matches_generic_sampler(name, seed):
    ring = build_ring(SAMPLED[name], size_cap=2401)
    # carriers on both sides of the solution cache are covered
    assert (ring.size <= SOLUTION_CACHE_LIMIT) == (name in CACHED)
    _check_sampled_stream(ring, 1, seed, 3000 if name in CACHED else 1500)


@pytest.mark.parametrize("name", ["Z7(+)Z7", "E(Z5)", "E(Z7)", "Z16(+)(0;2)"])
def test_degree2_sampled_stream_matches_generic_sampler(name):
    ring = build_ring(SAMPLED[name], size_cap=2401)
    _check_sampled_stream(ring, 2, 11, 800)


@pytest.mark.parametrize("expr", [ZMod(12), Idealization(ZMod(4), ModuleSpec(((0,),)))])
def test_degree1_exhaustive_walk_matches_generic_walk(expr):
    ring = build_ring(expr)
    assert list(_exhaustive_vector_pairs(ring, 1)) == \
        list(generic_exhaustive_pairs(ring, 1))


WALK_RINGS = {
    "Z12": ZMod(12),
    "Z4": ZMod(4),
    "Z2xZ4": Product((ZMod(2), ZMod(4))),
    "Z4(+)Z4": Idealization(ZMod(4), ModuleSpec(((0,),))),
    "E(Z2)": TriangularE(ZMod(2)),
}


# the stack walk visits every left vector: at most 4096 of them here, so
# degree 3 runs on Z4 and Z2xZ4 only
WALK_CASES = [(name, degree) for name, expr in WALK_RINGS.items()
              for degree in range(4)
              if build_ring(expr).size ** (degree + 1) <= 4096]


@pytest.mark.parametrize("name,degree", WALK_CASES)
def test_exhaustive_walk_matches_stack_walk(name, degree):
    ring = build_ring(WALK_RINGS[name])
    got = list(_exhaustive_vector_pairs(ring, degree))
    assert got == list(generic_exhaustive_pairs(ring, degree))
    assert any(any(b) for _, b in got)


def brute_force_pairs(ring, degree):
    """Every vector pair (a, b) with a*b = 0, a on the left, by filtering
    all of them in lexicographic order."""
    D = degree
    vectors = list(itertools.product(range(ring.size), repeat=D + 1))
    for a in vectors:
        for b in vectors:
            if all(_convolution(ring, a, b, m) == ring.zero
                   for m in range(2 * D + 1)):
                yield a, b


def _convolution(ring, a, b, m):
    t = ring.zero
    for i in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1):
        t = ring.add(t, ring.mul(a[i], b[m - i]))
    return t


@pytest.mark.parametrize("name", ["Z4", "E(Z2)"])
def test_exhaustive_walk_matches_brute_force_at_degree_1(name):
    # every solution list ascends, so the walk runs in lexicographic order
    ring = build_ring(WALK_RINGS[name])
    got = list(_exhaustive_vector_pairs(ring, 1))
    assert got == list(brute_force_pairs(ring, 1))
    # E(Z2) is noncommutative: some pair of the walk fails with b on the left
    swapped = [(a, b) for a, b in got
               if any(_convolution(ring, b, a, m) != ring.zero for m in range(3))]
    assert bool(swapped) == (name == "E(Z2)")


def test_generic_references_agree_at_degree_2():
    # the degree >= 2 code is the generic code; the copies above match it
    ring = build_ring(ZMod(6))
    assert list(_exhaustive_vector_pairs(ring, 2)) == \
        list(generic_exhaustive_pairs(ring, 2))
    assert list(_sampled_vector_pairs(ring, 2, 3, 500)) == \
        list(generic_sampled_pairs(ring, 2, 3, 500))


def _kill_masks(ring):
    """kill(p): bitmask over all elements s with s*p = 0, memoized."""
    memo = {}

    def kill(p):
        m = memo.get(p)
        if m is None:
            m = 0
            for s in range(ring.size):
                if ring.mul(s, p) == ring.zero:
                    m |= 1 << s
            memo[p] = m
        return m
    return kill


ORACLE_RINGS = {
    "E(Z2)": TriangularE(ZMod(2)),
    "Z4(+)Z4": Idealization(ZMod(4), ModuleSpec(((0,),))),
    "Z12(+)Z12": Idealization(ZMod(12), ModuleSpec(((0,),))),
}
# Z8 is Armendariz, so every coefficient product of its pairs is 0, but it
# is small enough for an exhaustive walk at degree 3; the other three give
# nonzero products, E(Z4) on a noncommutative carrier
KILL_MASK_RINGS = {
    "Z4(+)Z4": ORACLE_RINGS["Z4(+)Z4"],
    "Z12(+)Z12": ORACLE_RINGS["Z12(+)Z12"],
    "Z8": ZMod(8),
    "E(Z4)": TriangularE(ZMod(4)),
}


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_one_product_kill_mask_equals_four_product_mask(degree):
    """On a genuine pair of degree D, the kill mask of the D**2 products
    a_i*b_j with 1 <= i <= D and 0 <= j < D equals that of all (D+1)**2.

    Streams: three seeded samples per ring, and the exhaustive walk where
    it has at most 144**2 left vectors (at degree 3 only on Z8)."""
    coefficients = range(degree + 1)
    informative = set()
    for name, expr in KILL_MASK_RINGS.items():
        ring = build_ring(expr)
        kill = _kill_masks(ring)
        mul = ring.mul
        streams = [_sampled_vector_pairs(ring, degree, seed, 2000)
                   for seed in (1, 2, 3)]
        if ring.size ** (degree + 1) <= 144 ** 2:
            streams.append(_exhaustive_vector_pairs(ring, degree))
        checked = 0
        for a, b in itertools.chain(*streams):
            every = some = kill(0)
            for i in coefficients:
                for j in coefficients:
                    m = kill(mul(a[i], b[j]))
                    every &= m
                    if i >= 1 and j < degree:
                        some &= m
            assert some == every, (name, a, b)
            checked += 1
            if every != kill(0):
                informative.add(name)
        assert checked >= 6000, name
    assert informative == {"Z4(+)Z4", "Z12(+)Z12", "E(Z4)"}


def naive_verdict(ring, members, pairs):
    """(uniform witness, histogram, uniform_failed_after, per_pair_ok) from
    all coefficient products of every pair."""
    uniform = set(members)
    histogram = {}
    failed_after = None
    per_pair_ok = True
    for n, (a, b) in enumerate(pairs, 1):
        good = [s for s in members
                if all(ring.mul(s, ring.mul(ai, bj)) == ring.zero
                       for ai in a for bj in b)]
        if good:
            histogram[good[0]] = histogram.get(good[0], 0) + 1
        else:
            per_pair_ok = False
        if uniform:
            uniform &= set(good)
            if not uniform:
                failed_after = n
    witness = min(uniform, key=members.index) if uniform else None
    return witness, histogram, failed_after, per_pair_ok


# (degree, mode, ring, literals generating S); the all-products rescan of
# every Z12(+)Z12 pair is too slow for tier-1, so that ring is sampled only
@pytest.mark.parametrize("degree,mode,name,gens", [
    (1, "exhaustive", "E(Z2)", ()),
    (1, "exhaustive", "Z4(+)Z4", ()),
    (1, "sampled", "E(Z2)", ()),
    (1, "sampled", "Z4(+)Z4", ()),
    (1, "sampled", "Z12(+)Z12", ((4, (0,)),)),
    (1, "sampled", "Z12(+)Z12", ((9, (0,)),)),
    (2, "sampled", "Z4(+)Z4", ((3, (0,)),)),
    (2, "sampled", "Z12(+)Z12", ((4, (0,)),)),
    (3, "sampled", "Z12(+)Z12", ((9, (0,)),)),
])
def test_one_product_verdict_matches_four_product_verdict(degree, mode, name, gens):
    ring = build_ring(ORACLE_RINGS[name])
    S = mult_closure(ring, (ring.one, *(ring.encode(g) for g in gens)))
    verdict = is_u_s_armendariz_up_to(ring, S, degree, mode=mode, seed=7,
                                      budget=3000)
    pairs = (_exhaustive_vector_pairs(ring, degree) if mode == "exhaustive"
             else _sampled_vector_pairs(ring, degree, 7, 3000))
    witness, histogram, failed_after, per_pair_ok = naive_verdict(
        ring, list(S.members), pairs)
    assert verdict.uniform_witness == witness
    assert verdict.per_pair_histogram == histogram
    assert verdict.uniform_failed_after == failed_after
    assert verdict.per_pair_ok == per_pair_ok
