"""Ring construction, arithmetic, and classification against brute oracles."""

import copy
import math
import random

import pytest

from sring import (
    Idealization,
    MalformedExpressionError,
    ModuleSpec,
    Product,
    Quotient,
    SizeCapExceededError,
    TriangularE,
    ZMod,
    build_ring,
    nilpotent_profile,
    verify_ring_axioms,
    zero_divisor_set,
)
from sring.rings import (
    SOLUTION_CACHE_LIMIT,
    MixedRadixRing,
    TriangularERing,
    ZModRing,
    _digitwise_table,
    _quick_axiom_sample,
)


def test_zmod_basics(z24):
    assert z24.size == 24
    assert z24.zero == 0 and z24.one == 1
    assert z24.add(20, 7) == 3
    assert z24.mul(6, 4) == 0
    assert z24.neg(5) == 19


def test_zmod_rejects_small_n():
    with pytest.raises(MalformedExpressionError):
        build_ring(ZMod(1))


def test_size_cap_enforced():
    with pytest.raises(SizeCapExceededError):
        build_ring(ZMod(5000))
    assert build_ring(ZMod(5000), size_cap=8192).size == 5000


def test_quotient_z24_by_3_is_z3():
    ring = build_ring(Quotient(ZMod(24), (3,)))
    assert ring.size == 3
    # brute-force coset partition of (3) = {0,3,...,21} in Z24
    ideal = {(3 * k) % 24 for k in range(24)}
    cosets = {frozenset((x + i) % 24 for i in ideal) for x in range(24)}
    assert len(cosets) == 3
    # characteristic three: 1+1+1 = 0
    one = ring.one
    assert ring.add(ring.add(one, one), one) == ring.zero
    assert not verify_ring_axioms(ring)


def test_quotient_lagrange_sizes():
    for n, g in ((24, 3), (24, 4), (12, 2), (30, 6)):
        base = build_ring(ZMod(n))
        ideal_size = len({(g * k) % n for k in range(n)})
        ring = build_ring(Quotient(ZMod(n), (g,)))
        assert ring.size * ideal_size == base.size


def test_quotient_by_unit_ideal_rejected():
    with pytest.raises(MalformedExpressionError):
        build_ring(Quotient(ZMod(24), (5,)))


class _OffByOneProduct(ZModRing):
    """Z_n whose product is shifted by one: 1 is no multiplicative identity."""

    def mul(self, a, b):
        return (a * b + 1) % self.n


class _SkewSum(ZModRing):
    """Z_n whose sum doubles its first operand: 0 is no additive identity."""

    def add(self, a, b):
        return (2 * a + b) % self.n


class _TwistedProduct(ZModRing):
    """Z_n whose product gains (a-1)(b-1)(a-b): 1 stays the identity, but
    the product is neither associative nor commutative."""

    def mul(self, a, b):
        return (a * b + (a - 1) * (b - 1) * (a - b)) % self.n


def test_axiom_sample_raises_instead_of_asserting():
    # a real error, so the check survives python -O
    with pytest.raises(MalformedExpressionError, match="Z5: multiplicative identity"):
        _quick_axiom_sample(_OffByOneProduct(5))
    with pytest.raises(MalformedExpressionError, match="Z6: additive identity"):
        _quick_axiom_sample(_SkewSum(6))
    with pytest.raises(MalformedExpressionError,
                       match="Z7: associativity of multiplication"):
        _quick_axiom_sample(_TwistedProduct(7))
    _quick_axiom_sample(ZModRing(6))


def test_exhaustive_axioms_report_the_first_failure():
    assert verify_ring_axioms(_OffByOneProduct(5)) == [
        "multiplicative identity fails at 0"]
    assert verify_ring_axioms(_TwistedProduct(7)) == [
        "associativity of multiplication fails at (0, 0, 3)"]
    assert verify_ring_axioms(ZModRing(6)) == []


def test_triangular_carrier_size_and_matrix_oracle():
    # both carriers are above the operation-table limit, so this checks the
    # structured arithmetic; the base Z2 x Z3 is not cyclic
    rng = random.Random(1)

    def matmul(x, y, n):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        m1 = [[a1, b1, c1], [0, a1, d1], [0, 0, a1]]
        m2 = [[a2, b2, c2], [0, a2, d2], [0, 0, a2]]
        m = [[sum(m1[i][k] * m2[k][j] for k in range(3)) % n
              for j in range(3)] for i in range(3)]
        return (m[0][0], m[0][1], m[0][2], m[1][2])

    for base, moduli in ((ZMod(12), (12,)), (Product((ZMod(2), ZMod(3))), (2, 3))):
        ring = build_ring(TriangularE(base), size_cap=30000)
        assert ring.size == math.prod(moduli) ** 4

        def quadruples(i):
            # the decoded quadruple as one (a, b, c, d) of residues per modulus
            digits = [v if isinstance(v, tuple) else (v,) for v in ring.decode(i)]
            return [tuple(v[k] for v in digits) for k in range(len(moduli))]

        for _ in range(1000):
            i, j = rng.randrange(ring.size), rng.randrange(ring.size)
            for n, x, y, total, product, negative in zip(
                    moduli, quadruples(i), quadruples(j), quadruples(ring.add(i, j)),
                    quadruples(ring.mul(i, j)), quadruples(ring.neg(i))):
                assert total == tuple((u + v) % n for u, v in zip(x, y))
                assert product == matmul(x, y, n)
                assert negative == tuple(-u % n for u in x)


def test_triangular_carrier_is_noncommutative():
    ring = build_ring(TriangularE(ZMod(2)), size_cap=64)
    assert not ring.commutative
    beta = ring.encode((0, 1, 0, 0))
    delta = ring.encode((0, 0, 0, 1))
    assert ring.mul(beta, delta) != ring.mul(delta, beta)
    # everything except commutativity of multiplication still holds
    assert not verify_ring_axioms(ring)


def test_idealization_square_zero():
    ring = build_ring(Idealization(ZMod(4), ModuleSpec(((2,),))))
    assert ring.size == 8
    module_part = [i for i in range(ring.size) if ring.decode(i)[0] == 0]
    for a in module_part:
        for b in module_part:
            assert ring.mul(a, b) == ring.zero


def test_idealization_module_axioms():
    ring = build_ring(Idealization(ZMod(6), ModuleSpec(((2,), (3,)))))
    base = build_ring(ZMod(6))
    for r in range(base.size):
        lift = ring.encode((r, (0, 0)))
        for m in range(ring.module_size):
            for m2 in range(ring.module_size):
                left = ring.mul(lift, ring.add(m, m2))
                right = ring.add(ring.mul(lift, m), ring.mul(lift, m2))
                assert left == right


def test_exhaustive_axioms_on_small_constructions():
    cases = [
        ZMod(24),
        Product((ZMod(2), ZMod(3))),
        Product((ZMod(2), ZMod(2))),
        Quotient(ZMod(24), (3,)),
        Idealization(ZMod(4), ModuleSpec(((2,),))),
        Idealization(ZMod(2), ModuleSpec(((0,),))),
        TriangularE(ZMod(2)),
    ]
    for expr in cases:
        ring = build_ring(expr, size_cap=4096)
        assert not verify_ring_axioms(ring), ring.label


# idealizations above OP_TABLE_LIMIT, so their arithmetic walks the
# structure: one full-module component, and two components of unequal size
Z24_IDEALIZATION = Idealization(ZMod(24), ModuleSpec(((0,),)))  # 576 elements
Z16_TWO_COMPONENTS = Idealization(ZMod(16), ModuleSpec(((0,), (2,))))  # 512


def test_sampled_axioms_on_large_carrier():
    ring = build_ring(TriangularE(ZMod(12)), size_cap=30000)
    assert not verify_ring_axioms(ring, samples=20_000)
    for expr in (Z24_IDEALIZATION, Z16_TWO_COMPONENTS):
        ring = build_ring(expr)
        assert not verify_ring_axioms(ring, samples=20_000), ring.label


def test_large_idealization_arithmetic_on_literals():
    """add/mul/neg against (r1 + r2, m1 + m2), (r1r2, r1m2 + r2m1) and
    (-r, -m) worked out on decoded literals, component k modulo its n_k."""
    rng = random.Random(11)
    for expr, moduli in ((Z24_IDEALIZATION, (24,)), (Z16_TWO_COMPONENTS, (16, 2))):
        ring = build_ring(expr)
        assert ring.size > 256 and "mul" not in vars(ring), ring.label
        n = expr.base.n
        for _ in range(3000):
            a, b = rng.randrange(ring.size), rng.randrange(ring.size)
            (r1, m1), (r2, m2) = ring.decode(a), ring.decode(b)
            assert ring.encode((r1, m1)) == a
            total = ((r1 + r2) % n,
                     tuple((x + y) % q for x, y, q in zip(m1, m2, moduli)))
            product = ((r1 * r2) % n,
                       tuple((r1 * y + r2 * x) % q for x, y, q in zip(m1, m2, moduli)))
            negated = (-r1 % n, tuple(-x % q for x, q in zip(m1, moduli)))
            assert ring.decode(ring.add(a, b)) == total
            assert ring.decode(ring.mul(a, b)) == product
            assert ring.decode(ring.neg(a)) == negated


def test_nilpotent_profile_examples(z24):
    profile = nilpotent_profile(z24)
    assert profile == {0: 1, 6: 3, 12: 2, 18: 3}
    z7 = build_ring(ZMod(7))
    assert nilpotent_profile(z7) == {0: 1}
    z12 = build_ring(ZMod(12))
    assert nilpotent_profile(z12) == {0: 1, 6: 2}


def test_zero_divisors_against_scan():
    for n, expected in ((6, {2, 3, 4}), (5, set()), (12, {2, 3, 4, 6, 8, 9, 10})):
        ring = build_ring(ZMod(n))
        got = zero_divisor_set(ring)
        brute = {a for a in range(1, n) if any((a * b) % n == 0 for b in range(1, n))}
        assert got == brute == expected


def _without_tables(ring):
    """Copy of ``ring`` whose arithmetic walks the structure (mixed-radix
    digits, base and module included) instead of the table lookups bound
    on the instance."""
    plain = copy.copy(ring)
    for op in ("add", "mul", "neg"):
        vars(plain).pop(op, None)
    if isinstance(ring, MixedRadixRing):
        plain.digits = tuple(_without_tables(f) for f in ring.digits)
    for part in ("base", "module"):
        if hasattr(ring, part):
            setattr(plain, part, _without_tables(getattr(ring, part)))
    return plain


def test_operation_tables_match_structured_arithmetic():
    cases = [
        Product((ZMod(16), ZMod(16))),
        Product((ZMod(2), ZMod(4), ZMod(2))),
        Product((ZMod(3), Product((ZMod(2), ZMod(4))), ZMod(5))),
        Product((Quotient(ZMod(8), (4,)), ZMod(6))),
        Product((TriangularE(ZMod(2)), ZMod(3))),  # noncommutative factor
        Quotient(Product((ZMod(4), ZMod(6))), ((2, 3),)),
        Idealization(ZMod(4), ModuleSpec(((2,), (0,)))),
        Idealization(Product((ZMod(7), ZMod(2))), ModuleSpec(((),))),  # 196, full module
        # module Z2xZ2 over Z6: a mul row folded over the digits in another
        # order splits the index at 6, which is no digit boundary here
        Idealization(ZMod(6), ModuleSpec(((2,), (2,)))),
        TriangularE(ZMod(3)),  # noncommutative
        TriangularE(ZMod(4)),  # 256 elements
        TriangularE(Product((ZMod(2), ZMod(2)))),  # 256 elements
        # 256 elements each: four and eight digits, and an idealization
        Product((ZMod(4),) * 4),
        Product((ZMod(2),) * 8),
        Idealization(ZMod(16), ModuleSpec(((0,),))),
    ]
    for expr in cases:
        ring = build_ring(expr)
        assert {"add", "mul", "neg"} <= vars(ring).keys(), ring.label
        plain = _without_tables(ring)
        assert not {"add", "mul", "neg"} & vars(plain).keys(), ring.label
        n = ring.size
        for a in range(n):
            assert ring.neg(a) == plain.neg(a), (ring.label, a)
            for b in range(n):
                assert ring.add(a, b) == plain.add(a, b), (ring.label, a, b)
                assert ring.mul(a, b) == plain.mul(a, b), (ring.label, a, b)


def test_one_digit_table_above_a_byte_is_the_entrywise_table():
    # a lone digit, as a triangular base is, may have more than 256 elements
    for base in (ZModRing(257), build_ring(Product((ZMod(16), ZMod(17))))):
        n = base.size
        assert n > 256
        for op in ("add", "sub", "mul"):
            f_op = getattr(base, op)
            expected = [f_op(p, q) for p in range(n) for q in range(n)]
            assert _digitwise_table((base,), op) == expected, (base.label, op)


def test_large_composite_carriers_negate_by_table():
    cases = [
        Z24_IDEALIZATION,  # 576
        TriangularE(ZMod(5)),  # 625
        Product((ZMod(16), ZMod(17))),  # 272
    ]
    for expr in cases:
        ring = build_ring(expr)
        assert ring.size > 256 and "neg" in vars(ring), ring.label
        plain = _without_tables(ring)
        for a in range(ring.size):
            assert ring.neg(a) == plain.neg(a), (ring.label, a)


def test_triangular_mul_table_is_composed_from_rows(monkeypatch):
    # each mul-table row costs one structured call per digit value, 4n in
    # all, not one per entry (n**4 per row)
    calls = 0
    structured_mul = TriangularERing.mul

    def counting_mul(self, x, y):
        nonlocal calls
        calls += 1
        return structured_mul(self, x, y)

    monkeypatch.setattr(TriangularERing, "mul", counting_mul)
    ring = build_ring(TriangularE(Product((ZMod(2), ZMod(2)))))
    n = ring.base.size
    assert ring.size == 256
    assert 0 < calls <= 4 * n * ring.size


def test_encode_decode_roundtrip():
    exprs = [
        ZMod(10),
        Product((ZMod(3), ZMod(4))),
        Quotient(ZMod(24), (4,)),
        Idealization(ZMod(4), ModuleSpec(((2,), (0,)))),
        TriangularE(ZMod(3)),
    ]
    for expr in exprs:
        ring = build_ring(expr, size_cap=4096)
        for i in range(ring.size):
            assert ring.encode(ring.decode(i)) == i


def test_triangular_random_solver_finds_a_solution_whenever_one_exists():
    # base Z17: 17 candidates x and w, more than any fixed probe count
    ring = TriangularERing(ZModRing(17))
    assert ring.size == 17 ** 4 > SOLUTION_CACHE_LIMIT
    alpha = ring.encode((0, 1, 0, 0))
    tau = ring.encode((0, 5, 7, 0))
    # alpha * (a, b, c, d) = (0, a, d, 0): a = 5, d = 7, b and c free
    solutions = set(ring.solve_mul_all(alpha, tau))
    assert len(solutions) == 289
    for seed in range(200):
        assert ring.solve_mul_random(alpha, tau, random.Random(seed)) in solutions


def test_solve_mul_matches_scan():
    rng = random.Random(7)
    exprs = [
        ZMod(24),
        Product((ZMod(4), ZMod(6))),
        Quotient(ZMod(24), (4,)),
        Idealization(ZMod(4), ModuleSpec(((2,),))),
        TriangularE(ZMod(3)),
        Z24_IDEALIZATION,
        Z16_TWO_COMPONENTS,
        # above the solution cache: the uniform draw from the complete list
        ZMod(720),
        Product((ZMod(16), ZMod(32))),
        Quotient(ZMod(1024), (512,)),
        # above the solution cache: the triangular solver over base tables
        TriangularE(ZMod(5)),
        TriangularE(Product((ZMod(2), ZMod(3)))),
    ]
    for expr in exprs:
        ring = build_ring(expr, size_cap=4096)
        for _ in range(60):
            a = rng.randrange(ring.size)
            # a random target, and one that is solvable by construction
            for t in (rng.randrange(ring.size), ring.mul(a, rng.randrange(ring.size))):
                expected = [x for x in range(ring.size) if ring.mul(a, x) == t]
                assert ring.solve_mul_all(a, t) == expected
                pick = ring.solve_mul_random(a, t, rng)
                if not expected:
                    assert pick is None
                elif pick is None:
                    # without a solution cache the idealization walks at most
                    # 16 of the base solutions y of r*y = tr; only then may it
                    # miss.  The triangular solver probes at most 16 of its x
                    # and w candidates, base elements all, so over these bases
                    # of at most 16 elements it never misses.
                    assert ring.size > 256 and isinstance(expr, Idealization)
                    r, tr = a // ring.module_size, t // ring.module_size
                    assert len(ring.base.solve_mul_all(r, tr)) > 16
                else:
                    assert pick in expected


def test_product_structure():
    ring = build_ring(Product((ZMod(2), ZMod(2))))
    assert ring.size == 4
    a = ring.encode((1, 0))
    b = ring.encode((0, 1))
    assert ring.mul(a, b) == ring.zero
    assert ring.add(a, b) == ring.one
