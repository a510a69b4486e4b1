"""S-predicates: worked instances with independently computed witnesses."""

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    Quotient,
    TriangularE,
    ZMod,
    build_ring,
    ideal_generated,
    is_reduced,
    is_s_integral_domain,
    is_s_pf,
    is_s_pure,
    is_s_reduced,
    is_s_zero_ideal,
    localize,
    mult_closure,
    s_strongly_hopfian_profile,
)
from sring.ideals import Ideal, zero_ideal
from sring.predicates import annihilator_mask


def test_s_reduced_z24(z24, s24):
    cert = is_s_reduced(z24, s24)
    assert cert.verdict
    # least-index witnesses per nilpotent; 4 covers all of them uniformly
    assert cert.witnesses == {0: 1, 6: 4, 12: 2, 18: 4}
    assert cert.uniform_witness == 4
    for a, s in cert.witnesses.items():
        assert z24.mul(s, a) == 0
    for a in (6, 12, 18):
        assert z24.mul(4, a) == 0


def test_s_reduced_z12_and_failure(z12, s12):
    cert = is_s_reduced(z12, s12)
    assert cert.verdict and cert.witnesses == {0: 1, 6: 4}
    assert cert.uniform_witness == 4

    z4 = build_ring(ZMod(4))
    cert = is_s_reduced(z4, mult_closure(z4, (3,)))
    assert not cert.verdict and cert.failing == 2


def test_u_s_reduced(z24, s24):
    assert is_s_reduced(z24, s24).uniform_witness == 4
    z6 = build_ring(ZMod(6))
    assert is_s_reduced(z6, mult_closure(z6, (1,))).uniform_witness == 1
    z8 = build_ring(ZMod(8))
    assert is_s_reduced(z8, mult_closure(z8, (3,))).uniform_witness is None


def test_s_integral_domain():
    z6 = build_ring(ZMod(6))
    s = mult_closure(z6, (2,))
    assert s.members == (1, 2, 4)
    witness = is_s_integral_domain(z6, s)
    # exhaustive oracle over all 36 pairs and every candidate
    def works(cand):
        return all(
            (cand * a) % 6 == 0 or (cand * b) % 6 == 0
            for a in range(6) for b in range(6) if (a * b) % 6 == 0)
    assert witness == 2 and works(2)
    assert witness == min(c for c in s.members if works(c))

    z5 = build_ring(ZMod(5))
    assert is_s_integral_domain(z5, mult_closure(z5, (1,))) == 1


def test_s_integral_domain_z12_settled_by_oracle(z12, s12):
    witness = is_s_integral_domain(z12, s12)
    def works(cand):
        return all(
            (cand * a) % 12 == 0 or (cand * b) % 12 == 0
            for a in range(12) for b in range(12) if (a * b) % 12 == 0)
    assert witness == 4
    assert works(4) and not works(1)


def test_s_zero(z24, s24):
    assert s24.witness((3,), 1) == 8
    assert s24.witness((0,), 1) == 1
    assert s24.witness((1,), 1) is None
    res = is_s_zero_ideal(s24, ideal_generated(z24, (3,)))
    assert res.verdict
    for a, s in res.witnesses.items():
        assert z24.mul(s, a) == 0


def test_localize_z24(z24, s24):
    loc = localize(z24, s24)
    assert loc.torsion_kernel.elements == tuple(range(0, 24, 3))
    assert loc.ring.size == 3
    assert is_reduced(loc.ring)
    assert all(loc.ring.is_unit(x) for x in range(1, 3))
    # canonical map is a homomorphism with the torsion ideal as kernel
    pr = loc.ring.project
    for a in range(24):
        for b in range(0, 24, 5):
            assert pr(z24.add(a, b)) == loc.ring.add(pr(a), pr(b))
            assert pr(z24.mul(a, b)) == loc.ring.mul(pr(a), pr(b))
        assert (pr(a) == 0) == (a % 3 == 0)


def test_localize_z12_and_unit_set(z12, s12):
    loc = localize(z12, s12)
    assert loc.torsion_kernel.size == 4
    assert loc.ring.size == 3

    unit = mult_closure(z12, (1,))
    loc = localize(z12, unit)
    assert loc.torsion_kernel.elements == (0,)
    assert loc.ring.size == 12


def test_s_pure():
    z4 = build_ring(ZMod(4))
    s4 = mult_closure(z4, (3,))
    ann2 = Ideal(z4, annihilator_mask(z4, 2))
    assert ann2.elements == (0, 2)
    res = is_s_pure(s4, ann2)
    assert not res.verdict and res.failing == 2

    assert is_s_pure(s4, zero_ideal(z4)).verdict

    z6 = build_ring(ZMod(6))
    res = is_s_pure(mult_closure(z6, (1,)), ideal_generated(z6, (3,)))
    assert res.verdict
    for a, (b, s) in res.witnesses.items():
        assert z6.mul(s, a) == z6.mul(a, b)


def test_annihilator_mask_against_scan():
    cases = [
        ZMod(720),  # above the solution-cache limit
        Product((ZMod(4), ZMod(6))),
        Quotient(ZMod(24), (8,)),
        Idealization(ZMod(4), ModuleSpec(((2,), (0,)))),  # two components
        TriangularE(ZMod(2)),  # noncommutative: the right annihilator
    ]
    for expr in cases:
        ring = build_ring(expr)
        for a in range(ring.size):
            brute = sum(1 << x for x in range(ring.size) if ring.mul(a, x) == 0)
            assert annihilator_mask(ring, a) == brute, (ring.label, a)


def test_s_pf():
    z6 = build_ring(ZMod(6))
    assert is_s_pf(z6, mult_closure(z6, (1,))).verdict

    z4 = build_ring(ZMod(4))
    res = is_s_pf(z4, mult_closure(z4, (3,)))
    assert not res.verdict and res.failing == 2

    z5 = build_ring(ZMod(5))
    assert is_s_pf(z5, mult_closure(z5, (1,))).verdict


def test_hopfian_profile(z24, s24):
    profile = s_strongly_hopfian_profile(z24, s24)
    assert set(profile) == set(range(24))
    entry = profile[6]
    # ann(6) = (4), ann(12) = (2), ann(0) = R; s = 4 already certifies k = 1
    assert entry.stabilization == 3 and (entry.k, entry.s) == (1, 4)
    assert profile[0].k == 1 and profile[0].s == 1
    assert profile[5].k == 1 and profile[5].s == 1
    # re-check every certificate: s * ann(a^stab) inside ann(a^k)
    for a, e in profile.items():
        top = a
        for _ in range(e.stabilization - 1):
            top = z24.mul(top, a)
        power_k = a
        for _ in range(e.k - 1):
            power_k = z24.mul(power_k, a)
        for y in range(24):
            if z24.mul(top, y) == 0:
                assert z24.mul(power_k, z24.mul(e.s, y)) == 0


def test_uniform_implies_pointwise_and_domain_implies_reduced(z24, s24, z12, s12):
    for ring, S in ((z24, s24), (z12, s12)):
        cert = is_s_reduced(ring, S)
        if cert.uniform_witness is not None:
            assert cert.verdict
        if is_s_integral_domain(ring, S) is not None:
            assert cert.verdict
