"""Zero-product pair streams and the bounded uniform coefficient test."""

import itertools

import pytest

from sring import (
    BudgetExceededError,
    Idealization,
    ModuleSpec,
    SRingError,
    TriangularE,
    ZMod,
    build_ring,
    is_u_s_armendariz_up_to,
    mult_closure,
    poly,
    poly_multiply,
    zero_product_poly_pairs,
)


def brute_pairs(ring, degree):
    out = set()
    for a in itertools.product(range(ring.size), repeat=degree + 1):
        for b in itertools.product(range(ring.size), repeat=degree + 1):
            if poly_multiply(ring, poly(a), poly(b)).is_zero:
                out.add((poly(a).coeffs, poly(b).coeffs))
    return out


def test_exhaustive_stream_matches_brute_force_z4():
    z4 = build_ring(ZMod(4))
    got = {(f.coeffs, g.coeffs)
           for f, g in zero_product_poly_pairs(z4, 1, mode="exhaustive")}
    assert got == brute_pairs(z4, 1)
    assert len(got) == 40
    assert ((2, 2), (2, 2)) in got


def test_exhaustive_stream_matches_brute_force_z6_degree2():
    z6 = build_ring(ZMod(6))
    got = {(f.coeffs, g.coeffs)
           for f, g in zero_product_poly_pairs(z6, 2, mode="exhaustive")}
    assert got == brute_pairs(z6, 2)


def test_stream_contains_trivial_and_listed_pairs(z12):
    got = {(f.coeffs, g.coeffs)
           for f, g in zero_product_poly_pairs(z12, 1, mode="exhaustive")}
    assert ((6,), (2, 4)) in got
    for f_coeffs in ((1,), (5, 7), ()):
        assert (f_coeffs, ()) in got


def test_exhaustive_budget_guard(z12):
    with pytest.raises(BudgetExceededError):
        list(zero_product_poly_pairs(z12, 2, mode="exhaustive",
                                     exhaustive_budget=100))


def test_sampled_stream_is_genuine_and_deterministic(z24):
    pairs = list(zero_product_poly_pairs(z24, 1, mode="sampled", seed=9,
                                         budget=500))
    assert len(pairs) == 500
    for f, g in pairs:
        assert poly_multiply(z24, f, g).is_zero
    again = list(zero_product_poly_pairs(z24, 1, mode="sampled", seed=9,
                                         budget=500))
    assert [(f.coeffs, g.coeffs) for f, g in pairs] == \
           [(f.coeffs, g.coeffs) for f, g in again]


def test_sampled_stream_is_genuine_on_multi_component_idealization():
    # Z16(+)(0;2) has 512 elements, above the operation-table limit, and a
    # module of two components of unequal size
    ring = build_ring(Idealization(ZMod(16), ModuleSpec(((0,), (2,)))))
    pairs = list(zero_product_poly_pairs(ring, 1, mode="sampled", seed=4,
                                         budget=400))
    assert len(pairs) == 400
    for f, g in pairs:
        assert poly_multiply(ring, f, g).is_zero
    assert any(not g.is_zero for _, g in pairs)


def test_uniform_verdict_z12_exhaustive(z12, s12):
    verdict = is_u_s_armendariz_up_to(z12, s12, 2, mode="exhaustive")
    assert verdict.mode == "exhaustive"
    assert verdict.pairs_checked == 9328
    # every coefficient product of a zero-product pair over Z12 is already
    # zero, so the least member wins; confirmed by the brute recheck below
    assert verdict.uniform_witness == 1 and verdict.per_pair_ok
    for f, g in zero_product_poly_pairs(z12, 2, mode="exhaustive"):
        for ai in f.coeffs:
            for bj in g.coeffs:
                assert z12.mul(1, z12.mul(ai, bj)) == 0


def test_uniform_verdict_reduced_ring():
    z6 = build_ring(ZMod(6))
    s = mult_closure(z6, (1,))
    verdict = is_u_s_armendariz_up_to(z6, s, 2, mode="exhaustive")
    assert verdict.uniform_witness == 1


def test_uniform_verdict_labels_mode(z24, s24):
    verdict = is_u_s_armendariz_up_to(z24, s24, 1, mode="sampled", seed=5,
                                      budget=2000)
    assert verdict.mode == "sampled" and verdict.seed == 5
    assert verdict.budget == 2000 and verdict.pairs_checked == 2000
    assert verdict.degree == 1


def test_violation_reported_when_no_member_works():
    # Z4(+)Z4 with S = {1}: (0,1)X * (2,0) style pairs leave products that
    # only 0 would kill, so the uniform reading must fail
    ring = build_ring(Idealization(ZMod(4), ModuleSpec(((0,),))))
    s = mult_closure(ring, (ring.one,))
    verdict = is_u_s_armendariz_up_to(ring, s, 1, mode="exhaustive")
    assert verdict.uniform_witness is None
    assert not verdict.per_pair_ok
    v = verdict.per_pair_violation
    assert v is not None and v.strong
    f, g = poly(v.f), poly(v.g)
    assert poly_multiply(ring, f, g).is_zero
    assert ring.mul(v.f[v.i], v.g[v.j]) != 0


def test_triangular_carrier_sampled_run():
    e = build_ring(TriangularE(ZMod(6)), size_cap=1296)
    base = build_ring(ZMod(6))
    s_base = mult_closure(base, (2,))
    gens = tuple(e.encode((s,) * 4) for s in s_base.members)
    s_prime = mult_closure(e, gens)
    verdict = is_u_s_armendariz_up_to(e, s_prime, 1, mode="sampled", seed=3,
                                      budget=5000)
    assert verdict.uniform_ok and verdict.per_pair_ok


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
def test_negative_degree_is_rejected(mode):
    z8 = build_ring(ZMod(8))
    ones = mult_closure(z8, (1,))
    # degree -1 has no polynomials; a verdict on it would be vacuously green
    with pytest.raises(SRingError, match="degree"):
        is_u_s_armendariz_up_to(z8, ones, -1, mode=mode)
    with pytest.raises(SRingError, match="degree"):
        zero_product_poly_pairs(z8, -1, mode=mode)


@pytest.mark.parametrize("budget", [0, -5])
def test_sampled_budget_below_one_is_rejected(budget):
    z8 = build_ring(ZMod(8))
    ones = mult_closure(z8, (1,))
    # a sampled search that draws no pair must not report a uniform witness
    with pytest.raises(SRingError, match="budget"):
        is_u_s_armendariz_up_to(z8, ones, 1, mode="sampled", budget=budget)
    with pytest.raises(SRingError, match="budget"):
        zero_product_poly_pairs(z8, 1, mode="sampled", budget=budget)
    # auto mode that resolves to sampled is held to the same rule
    with pytest.raises(SRingError, match="budget"):
        is_u_s_armendariz_up_to(z8, ones, 1, mode="auto", budget=budget,
                                exhaustive_budget=1)
    # an exhaustive search ignores the sampling budget and still runs
    verdict = is_u_s_armendariz_up_to(z8, ones, 1, mode="exhaustive", budget=budget)
    assert verdict.pairs_checked > 0
