"""Ideals of a finite commutative ring and the S-prime machinery.

Ideals are stored as membership bitmasks over element indices plus the
generators they were built from.  All set-valued outputs are ordered by
canonical element index so reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EmptySpectrumError, SRingError, ZeroInClosureError
from .rings import (
    FiniteRing,
    _coset_union,
    ideal_span,
    mask_elements,
    power_cycle,
    require_commutative,
)

DEFAULT_IDEAL_CAP = 4096


@dataclass(frozen=True)
class Ideal:
    """An ideal as a membership bitmask over element indices.

    ``elements``, the members in ascending index order, is decoded from the
    mask on first access and kept; it is not a field, so equality and
    hashing see only ``ring``, ``mask`` and ``gens``.
    """

    ring: FiniteRing
    mask: int
    gens: tuple[int, ...] = ()

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    @property
    def is_proper(self) -> bool:
        return self.size < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.mask == 1

    def issubset(self, other: "Ideal") -> bool:
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple:
        return (self.size, self.elements)

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.gens)
        return f"<Ideal ({gens}) of {self.ring.label}, {self.size} elements>"


@dataclass(frozen=True)
class MultiplicativeSet:
    """Multiplicatively closed subset containing 1; zero only by explicit flag.

    ``members``, in ascending index order, is decoded from the mask on first
    access and kept; it is not a field, so equality and hashing do not see it.
    """

    ring: FiniteRing
    mask: int
    gens: tuple[int, ...]
    allow_zero: bool = False

    @cached_property
    def members(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    @property
    def contains_zero(self) -> bool:
        return bool(self.mask & 1)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def __repr__(self) -> str:
        return f"<MultSet {{{','.join(map(str, self.members))}}} of {self.ring.label}>"


@dataclass(frozen=True)
class SPrimeWitness:
    """Evidence that an ideal P is S-prime.

    ``s`` passes the definitional test (ab in P forces sa or sb in P for all
    pairs); ``colon_s`` is the least member whose colon ideal (P : colon_s)
    is prime.  The two members may differ.
    """

    ideal: Ideal
    s: int
    colon_s: int
    colon_prime: Ideal


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1, ())


def ideal_from_mask(ring: FiniteRing, mask: int, gens: tuple[int, ...] = ()) -> Ideal:
    return Ideal(ring, mask, gens)


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing ``gens``: the sum of the subgroups R*g."""
    require_commutative(ring, "this ideal-theoretic operation")
    gens = tuple(gens)
    return Ideal(ring, ideal_span(ring, gens), gens)


def is_ideal_mask(ring: FiniteRing, mask: int) -> bool:
    elems = mask_elements(mask)
    if not (mask & 1):
        return False
    for x in elems:
        for y in elems:
            if not (mask >> ring.add(x, y)) & 1:
                return False
        for r in range(ring.size):
            if not (mask >> ring.mul(r, x)) & 1:
                return False
    return True


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """Smallest ideal containing both: the additive sum I + J.

    Any sum of ideals is again an ideal, so no multiplication is needed;
    I + J is the union of the cosets j + I over j in J, each added once.
    """
    ring = I.ring
    mask, _ = _coset_union(ring, I.mask, list(I.elements), J.elements)
    return Ideal(ring, mask, tuple(sorted(set(I.gens) | set(J.gens))))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, I.mask & J.mask, ())


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Ideal generated by the pairwise element products."""
    ring = I.ring
    prods = {ring.mul(x, y) for x in I.elements for y in J.elements}
    return ideal_generated(ring, sorted(prods))


def enumerate_ideals(ring: FiniteRing, *, cap: int = DEFAULT_IDEAL_CAP) -> list[Ideal]:
    """Every ideal exactly once, ordered by (size, element tuple).

    Every ideal of a finite ring is the sum of the principal ideals R*x of
    its elements, so closing the principal ideals under adding one
    principal ideal at a time reaches them all: each ideal found is summed
    with every principal ideal not already inside it.  Raises SRingError
    once more than ``cap`` distinct ideals, principal ones included, turn up.
    """
    require_commutative(ring, "this ideal-theoretic operation")
    by_mask: dict[int, Ideal] = {}

    def is_new(I: Ideal) -> bool:
        if I.mask in by_mask:
            return False
        by_mask[I.mask] = I
        if len(by_mask) > cap:
            raise SRingError(f"ideal count of {ring.label} exceeds cap {cap}")
        return True

    principal = [I for I in (ideal_generated(ring, (x,)) for x in range(ring.size))
                 if is_new(I)]
    worklist = list(principal)
    for I in worklist:  # grows while walked
        for P in principal:
            if P.mask & ~I.mask:
                J = ideal_sum(I, P)
                if is_new(J):
                    worklist.append(J)
    return sorted(by_mask.values(), key=Ideal.sort_key)


def colon(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = elements r with r*J contained in I."""
    ring = I.ring
    mask = 0
    jelems = J.elements
    for r in range(ring.size):
        if all((I.mask >> ring.mul(r, j)) & 1 for j in jelems):
            mask |= 1 << r
    return Ideal(ring, mask, ())


def colon_elem(I: Ideal, x: int) -> Ideal:
    """(I : x) = elements r with r*x in I."""
    ring = I.ring
    mask = 0
    for r in range(ring.size):
        if (I.mask >> ring.mul(r, x)) & 1:
            mask |= 1 << r
    return Ideal(ring, mask, ())


def is_prime_ideal(I: Ideal) -> bool:
    """Proper, and ab in I forces a in I or b in I.

    The ring is commutative, so each unordered pair a <= b outside I is
    tested once.
    """
    ring = I.ring
    require_commutative(ring, "this ideal-theoretic operation")
    if not I.is_proper:
        return False
    mask, mul = I.mask, ring.mul
    outside = [a for a in range(ring.size) if not (mask >> a) & 1]
    for i, a in enumerate(outside):
        for b in outside[i:]:
            if (mask >> mul(a, b)) & 1:
                return False
    return True


def is_maximal_ideal(I: Ideal, ideals: list[Ideal]) -> bool:
    if not I.is_proper:
        return False
    for J in ideals:
        if J.is_proper and I.mask != J.mask and I.issubset(J):
            return False
    return True


def mult_closure(ring: FiniteRing, gens, *, allow_zero: bool = False) -> MultiplicativeSet:
    """Smallest multiplicatively closed set containing ``gens`` and 1.

    That set is 1 together with every word g1*g2*...*gk in the generators.
    Each word is a shorter word times one generator, so a worklist that
    right-multiplies every member by every generator reaches them all, in
    any ring, commutative or not.

    Raises ZeroInClosureError if 0 enters the closure and the flag is unset;
    such a set makes every downstream predicate degenerate.
    """
    gens = tuple(gens)
    if not gens:
        raise SRingError("mult_closure requires at least one generator")
    mask = 1 << ring.one
    members = [ring.one]
    for x in members:  # grows while walked
        for g in gens:
            p = ring.mul(x, g)
            if not (mask >> p) & 1:
                mask |= 1 << p
                members.append(p)
    if (mask & 1) and not allow_zero:
        raise ZeroInClosureError(
            f"multiplicative closure of {gens} in {ring.label} contains zero")
    return MultiplicativeSet(ring, mask, gens, allow_zero)


# ---------------------------------------------------------------------------
# S-radicals


@dataclass(frozen=True)
class SRadicalResult:
    ideal: Ideal
    witnesses: dict[int, tuple[int, int]]  # member -> (s, n) with s * a**n in I
    is_s_radical: bool


def s_radical(ring: FiniteRing, S: MultiplicativeSet, I: Ideal) -> SRadicalResult:
    """Elements a with s * a**n in I for some s in S and n >= 1.

    Witnesses record the smallest such n and then the least s; the power
    search is bounded by the cycle of a's power sequence (at most |R|).
    """
    require_commutative(ring, "this ideal-theoretic operation")
    members = S.members
    mask = 0
    witnesses: dict[int, tuple[int, int]] = {}
    for a in range(ring.size):
        for n, p in enumerate(power_cycle(ring, a), 1):
            hit = next((s for s in members if (I.mask >> ring.mul(s, p)) & 1), None)
            if hit is not None:
                mask |= 1 << a
                witnesses[a] = (hit, n)
                break
    result = Ideal(ring, mask, ())
    return SRadicalResult(result, witnesses, mask == I.mask)


def s_nilradical(ring: FiniteRing, S: MultiplicativeSet) -> SRadicalResult:
    """S-radical of the zero ideal; checked to be an ideal."""
    res = s_radical(ring, S, zero_ideal(ring))
    if not is_ideal_mask(ring, res.ideal.mask):
        raise SRingError(f"S-nilradical of {ring.label} failed the ideal check")
    return res


# ---------------------------------------------------------------------------
# S-primes


def _s_prime_by_definition(P: Ideal, s: int) -> bool:
    """Whether ab in P forces sa or sb in P, for all a, b.

    Only elements a with sa outside P can break s, so s passes iff no two
    of them (a <= b suffices, the ring being commutative) multiply into P.
    """
    mask, mul = P.mask, P.ring.mul
    rest = [a for a in range(P.ring.size) if not (mask >> mul(s, a)) & 1]
    for i, a in enumerate(rest):
        for b in rest[i:]:
            if (mask >> mul(a, b)) & 1:
                return False
    return True


def is_s_prime(S: MultiplicativeSet, P: Ideal) -> SPrimeWitness | None:
    """Definitional S-prime test, cross-checked against the colon criterion.

    Returns a witness carrying the least definitional s and the least s'
    with (P : s') prime; the two tests must agree and a disagreement raises.
    """
    ring = P.ring
    require_commutative(ring, "this ideal-theoretic operation")
    if not P.is_proper:
        return None
    if P.mask & S.mask:
        return None
    definitional = None
    for s in S.members:
        if _s_prime_by_definition(P, s):
            definitional = s
            break
    colon_hit = None
    for s in S.members:
        C = colon_elem(P, s)
        if is_prime_ideal(C):
            colon_hit = (s, C)
            break
    if (definitional is None) != (colon_hit is None):
        raise SRingError(
            f"S-prime criteria disagree on {P!r}: definitional={definitional} "
            f"colon={colon_hit}")
    if definitional is None:
        return None
    return SPrimeWitness(P, definitional, colon_hit[0], colon_hit[1])


def s_spectrum(ring: FiniteRing, S: MultiplicativeSet, *,
               ideals: list[Ideal] | None = None,
               cap: int = DEFAULT_IDEAL_CAP) -> list[tuple[Ideal, SPrimeWitness]]:
    """All S-prime ideals with witnesses, in canonical ideal order.

    ``ideals`` is the ring's lattice from :func:`enumerate_ideals`, when the
    caller already holds it.
    """
    if ideals is None:
        ideals = enumerate_ideals(ring, cap=cap)
    out = []
    for I in ideals:
        if not I.is_proper:
            continue
        w = is_s_prime(S, I)
        if w is not None:
            out.append((I, w))
    return out


def s_minimal_s_primes(ring: FiniteRing, S: MultiplicativeSet, *,
                       spectrum: list[tuple[Ideal, SPrimeWitness]] | None = None,
                       cap: int = DEFAULT_IDEAL_CAP) -> list[Ideal]:
    """S-primes P such that every S-prime Q inside P absorbs sP for some s."""
    if spectrum is None:
        spectrum = s_spectrum(ring, S, cap=cap)
    primes = [I for I, _ in spectrum]
    out = []
    for P in primes:
        keep = True
        for Q in primes:
            if not Q.issubset(P):
                continue
            found = False
            for s in S.members:
                if all((Q.mask >> ring.mul(s, p)) & 1 for p in P.elements):
                    found = True
                    break
            if not found:
                keep = False
                break
        if keep:
            out.append(P)
    return out


def spectrum_intersection(ring: FiniteRing, S: MultiplicativeSet, *,
                          spectrum: list[tuple[Ideal, SPrimeWitness]] | None = None,
                          cap: int = DEFAULT_IDEAL_CAP) -> Ideal:
    if spectrum is None:
        spectrum = s_spectrum(ring, S, cap=cap)
    if not spectrum:
        raise EmptySpectrumError(f"{ring.label} has no S-prime ideal for this S")
    mask = (1 << ring.size) - 1
    for I, _ in spectrum:
        mask &= I.mask
    return Ideal(ring, mask, ())


def dominant_colon_witness(S: MultiplicativeSet, P: Ideal) -> tuple[int, Ideal]:
    """Least s whose colon ideal (P : s) contains (P : s') for every s' in S.

    The colon family is directed ((P:s) and (P:t) both sit inside (P:st)),
    so a finite ring always has a unique maximal member.
    """
    ring = P.ring
    colons = [(s, colon_elem(P, s)) for s in S.members]
    best_mask = 0
    for _, C in colons:
        best_mask |= C.mask
    for s, C in colons:
        if C.mask == best_mask:
            return s, C
    raise SRingError(
        f"colon family of {P!r} is not directed; no dominant member found")
