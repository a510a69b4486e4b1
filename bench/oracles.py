"""Independent oracles for products of cyclic rings Z_m1 x ... x Z_mk.

Plain integer arithmetic only; nothing here imports sring.  An element is a
tuple of residues, one per factor, so Z_n is the one-factor case.  Every
ideal of such a product is a product of ideals d_i Z_{m_i} with d_i | m_i,
which turns the ideal lattice, S-primes, annihilators and localization into
divisor arithmetic.  Witness checks are by property; for a single factor the
least witness is also fixed, because sring's element index is the residue.
"""

from __future__ import annotations

import functools
import itertools
import math


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def rad(n: int) -> int:
    return math.prod(factorize(n))


def ideal_count(ms) -> int:
    """Ideals of a product are products of ideals, one divisor per factor."""
    return math.prod(len(divisors(m)) for m in ms)


def elements(ms):
    return itertools.product(*(range(m) for m in ms))


def mul(ms, x, y):
    return tuple(a * b % m for m, a, b in zip(ms, x, y))


def is_zero(x) -> bool:
    return not any(x)


def closure(ms, gens) -> list[tuple]:
    """Multiplicative closure of the generators together with 1."""
    one = tuple(1 % m for m in ms)
    seen = {one}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(ms, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def nilpotents(ms) -> set[tuple]:
    """The nilradical: componentwise multiples of rad(m_i)."""
    rads = [rad(m) for m in ms]
    return {x for x in elements(ms) if all(a % r == 0 for r, a in zip(rads, x))}


def ideal_elements(ms, ds) -> frozenset:
    return frozenset(itertools.product(*(range(0, m, d) for m, d in zip(ms, ds))))


def _colon(ds, s):
    """(P : s) for P = prod d_i Z_{m_i} is prod (d_i / gcd(d_i, s_i))."""
    return tuple(d // math.gcd(d, a) for d, a in zip(ds, s))


def _is_prime_ideal(ds) -> bool:
    """A prime of a product is a prime ideal in one factor, the whole ring elsewhere."""
    return sum(d != 1 for d in ds) == 1 and all(d == 1 or is_prime(d) for d in ds)


def _contains(ds, x) -> bool:
    return all(a % d == 0 for d, a in zip(ds, x))


def s_primes(ms, S) -> list[tuple]:
    """Divisor tuples of the S-prime ideals: P misses S and some (P : s) is prime.

    For Z_n this reads: dZ_n is S-prime iff d divides no s in S and
    d / gcd(d, s) is prime for some s in S.
    """
    out = []
    for ds in itertools.product(*(divisors(m) for m in ms)):
        if any(_contains(ds, s) for s in S):
            continue
        if any(_is_prime_ideal(_colon(ds, s)) for s in S):
            out.append(ds)
    return out


def s_prime_ideals(ms, S) -> set[frozenset]:
    return {ideal_elements(ms, ds) for ds in s_primes(ms, S)}


def prime_ideals(ms) -> set[frozenset]:
    out = set()
    for i, m in enumerate(ms):
        for p in factorize(m):
            ds = tuple(p if j == i else 1 for j in range(len(ms)))
            out.add(ideal_elements(ms, ds))
    return out


def torsion(ms, S) -> set[tuple]:
    """Elements killed by some member of S (the kernel of localization)."""
    return {x for x in elements(ms) if any(is_zero(mul(ms, s, x)) for s in S)}


def localized_moduli(ms, S) -> tuple[int, ...]:
    """R / torsion as a product of cyclic rings: Z_{d_i} with d_i generating T_i."""
    T = torsion(ms, S)
    return tuple(math.gcd(m, *(x[i] for x in T)) for i, m in enumerate(ms))


def coprime_part(n: int, g: int) -> int:
    """Largest divisor of n coprime to g: the size of Z_n localized at <g>."""
    return math.prod(p ** e for p, e in factorize(n).items() if g % p)


def s_reduced(ms, S):
    """Least killer in S of each nilpotent (None if none), and the uniform killers."""
    nil = sorted(nilpotents(ms))
    killers = {a: next((s for s in S if is_zero(mul(ms, s, a))), None) for a in nil}
    uniform = [s for s in S if all(is_zero(mul(ms, s, a)) for a in nil)]
    return killers, uniform


def _zero_pairs_1(m):
    return [(a, b) for a in range(m) for b in range(0, m, m // math.gcd(a, m))]


def zero_pairs(ms):
    """Pairs (x, y) with x*y = 0, built factor by factor."""
    per = [_zero_pairs_1(m) for m in ms]
    for combo in itertools.product(*per):
        yield tuple(p[0] for p in combo), tuple(p[1] for p in combo)


def s_integral_domain_witnesses(ms, S) -> list[tuple]:
    """Members s with: xy = 0 forces sx = 0 or sy = 0, for one s fixed first."""
    pairs = list(zero_pairs(ms))
    return [s for s in S
            if all(is_zero(mul(ms, s, x)) or is_zero(mul(ms, s, y)) for x, y in pairs)]


def annihilator_divisors(ms, a) -> tuple[int, ...]:
    """ann(a) = prod (m_i / gcd(a_i, m_i)) Z_{m_i}."""
    return tuple(m // math.gcd(x, m) for m, x in zip(ms, a))


def _is_s_pure(ms, ds, S) -> bool:
    I = sorted(ideal_elements(ms, ds))
    for x in I:
        targets = {mul(ms, s, x) for s in S}
        if not any(mul(ms, x, b) in targets for b in I):
            return False
    return True


def s_pf_failing(ms, S):
    """Elements whose annihilator is not S-pure (empty list: the ring is S-PF)."""
    memo: dict[tuple, bool] = {}
    out = []
    for a in elements(ms):
        ds = annihilator_divisors(ms, a)
        if ds not in memo:
            memo[ds] = _is_s_pure(ms, ds, S)
        if not memo[ds]:
            out.append(a)
    return out


def hopfian_entry(ms, a, S):
    """(k, stabilization, admissible s list) for the chain ann(a) <= ann(a^2) <= ...

    ann(a^i) has divisor m / gcd(a^i, m) per factor; the chain is stable from
    the first i where every gcd has absorbed its full prime-power part.
    """
    def ann_ds(i):
        return tuple(m // math.gcd(pow(x, i, m), m) for m, x in zip(ms, a))

    def stable_gcd(x, m):
        return math.prod(p ** e for p, e in factorize(m).items() if x % p == 0)

    stabilization = 1
    for m, x in zip(ms, a):
        i = 1
        while math.gcd(pow(x, i, m), m) != stable_gcd(x, m):
            i += 1
        stabilization = max(stabilization, i)
    chain = [ann_ds(i) for i in range(1, stabilization + 1)]
    top = chain[-1]
    # top is generated by the tuple top_i; s*top lies in ann(a^k) iff each
    # divisor of ann(a^k) divides s_i * top_i
    for k in range(1, stabilization + 1):
        target = chain[k - 1]
        ok = [s for s in S
              if all((si * t) % d == 0 for si, t, d in zip(s, top, target))]
        if ok:
            return k, stabilization, ok
    raise ValueError("s = 1 always satisfies the stable step")


@functools.cache
def zero_product_pair_count(n: int, degree: int) -> int:
    """Coefficient-vector pairs over Z_n of length degree+1 whose product is 0.

    Brute force over the left vector, pruning the right one coefficient by
    coefficient on the low convolution terms, then checking the high terms.
    """
    D = degree
    total = 0
    for a in itertools.product(range(n), repeat=D + 1):
        partial = [()]
        for k in range(D + 1):
            nxt = []
            for b in partial:
                base = sum(a[i] * b[k - i] for i in range(1, k + 1))
                for x in range(n):
                    if (a[0] * x + base) % n == 0:
                        nxt.append(b + (x,))
            partial = nxt
        for b in partial:
            if all(sum(a[i] * b[m - i] for i in range(m - D, D + 1)) % n == 0
                   for m in range(D + 1, 2 * D + 1)):
                total += 1
    return total
