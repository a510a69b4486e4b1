"""Ideals of a finite commutative ring and the S-prime machinery.

An ideal is its membership bitmask over element indices.  All set-valued
outputs are ordered by canonical element index so reports are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import EmptySpectrumError, SRingError, ZeroInClosureError
from .rings import (
    FiniteRing,
    _coset_union,
    additive_cosets,
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
    hashing see only ``ring`` and ``mask``: two ideals with the same members
    are equal however they were built.
    """

    ring: FiniteRing
    mask: int

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_proper(self) -> bool:
        return self.size < self.ring.size

    def issubset(self, other: "Ideal") -> bool:
        return self.mask & ~other.mask == 0

    def sort_key(self) -> tuple:
        return (self.size, self.elements)

    def __repr__(self) -> str:
        return f"<Ideal {{{','.join(map(str, self.elements))}}} of {self.ring.label}>"


@dataclass(frozen=True)
class MultiplicativeSet:
    """Multiplicatively closed subset containing 1, closed from ``gens``.

    It never holds zero: with 0 in S every ideal is S-zero and no ideal is
    S-prime, so building such a set raises ZeroInClosureError.

    ``members``, in ascending index order, and :attr:`killers` are computed
    on first access and kept; neither is a field, so equality and hashing do
    not see them.
    """

    ring: FiniteRing
    mask: int
    gens: tuple[int, ...]

    def __post_init__(self):
        if self.mask & 1:
            raise ZeroInClosureError(f"multiplicative closure of {self.gens} "
                                     f"in {self.ring.label} contains zero")

    @cached_property
    def members(self) -> tuple[int, ...]:
        return mask_elements(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def carriers(self, into: int) -> list[int]:
        """Per element x, the bitmask over ``members`` (bit i for
        ``members[i]``) of the s with s*x in the bitmask ``into``, in that
        order, read off each member's solution lists of s*x = t for t in
        ``into``.
        """
        ring = self.ring
        table = [0] * ring.size
        targets = mask_elements(into)
        for i, s in enumerate(self.members):
            bit = 1 << i
            for t in targets:
                for x in ring.solve_mul_all(s, t):
                    table[x] |= bit
        return table

    @cached_property
    def killers(self) -> list[int]:
        """:meth:`carriers` into the zero ideal: the s with s*x = 0, per
        element x; ``killers[zero]`` holds every member."""
        return self.carriers(1)

    def least(self, mask: int) -> int | None:
        """The least member in a bitmask over ``members``; None when it is 0."""
        return self.members[(mask & -mask).bit_length() - 1] if mask else None

    def witness(self, xs, into: int) -> int | None:
        """Least member s, in index order, with s*x in ``into`` for every x in ``xs``.

        ``into`` is a membership bitmask (for every x of the ring at once,
        read :meth:`carriers`) and the product keeps the order s*x.  None
        when no member carries all of ``xs`` into it.  ``xs`` is walked once
        per member tried.
        """
        mul = self.ring.mul
        for s in self.members:
            for x in xs:
                if not (into >> mul(s, x)) & 1:
                    break
            else:
                return s
        return None

    def least_multipliers(self, x: int) -> dict[int, int]:
        """Map each value s*x, s a member, to the least member s giving it.

        One pass over the members: the least s with s*x = t is the map's
        entry at t, the same s :meth:`witness` finds for ``(x,)`` into
        ``1 << t``.
        """
        mul = self.ring.mul
        least: dict[int, int] = {}
        for s in self.members:
            least.setdefault(mul(s, x), s)
        return least

    def __repr__(self) -> str:
        return f"<MultSet {{{','.join(map(str, self.members))}}} of {self.ring.label}>"


@dataclass(frozen=True)
class SPrimeWitness:
    """Evidence that an ideal P is S-prime.

    ``s`` is the least member with ab in P forcing sa or sb in P, from
    :func:`definitional_witness`; ``colon_s`` is the least member with
    (P : colon_s) prime, found by independent code.  Every prime colon
    ideal is the dominant one, so ``colon_prime`` is the largest (P : s)
    and ``colon_s`` the least member giving it.  The two members may differ.
    """

    ideal: Ideal
    s: int
    colon_s: int
    colon_prime: Ideal


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, 1)


def ideal_generated(ring: FiniteRing, gens) -> Ideal:
    """Smallest ideal containing ``gens``: the sum of the subgroups R*g."""
    require_commutative(ring, "this ideal-theoretic operation")
    return Ideal(ring, ideal_span(ring, gens))


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
    I + J is the union of the cosets j + I over j in J, each added once,
    with I the larger of the two, so that fewer cosets remain to add.
    """
    if I.size < J.size:
        I, J = J, I
    ring = I.ring
    mask, _ = _coset_union(ring, I.mask, list(I.elements), J.elements)
    return Ideal(ring, mask)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    return Ideal(I.ring, I.mask & J.mask)


def intersection_mask(ring: FiniteRing, ideals) -> int:
    """Bitmask of the intersection of ``ideals``; the whole ring when there are none."""
    mask = (1 << ring.size) - 1
    for I in ideals:
        mask &= I.mask
    return mask


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Ideal generated by the pairwise element products."""
    ring = I.ring
    prods = {ring.mul(x, y) for x in I.elements for y in J.elements}
    return ideal_generated(ring, sorted(prods))


def enumerate_ideals(ring: FiniteRing, *, cap: int = DEFAULT_IDEAL_CAP) -> list[Ideal]:
    """Every ideal exactly once, ordered by (size, element tuple).

    Every ideal of a finite ring is the sum of the principal ideals R*x of
    its elements, so closing the principal ideals under adding one
    principal ideal at a time reaches them all.  R*(u*x) = R*x for a unit
    u, so R*x is built once per orbit of the unit group, at the orbit's
    least element.  Each ideal I found is summed with each distinct
    principal ideal P not inside I, read off the masks.  A sum is computed
    only when it is new: I + P has |I||P|/|I & P| elements, so a found ideal
    of that size holding I and P is I + P.  Raises SRingError once more than
    ``cap`` distinct ideals, principal ones included, turn up.
    """
    require_commutative(ring, "this ideal-theoretic operation")
    by_mask: dict[int, Ideal] = {}
    masks_by_size: dict[int, list[int]] = {}

    def is_new(I: Ideal) -> bool:
        if I.mask in by_mask:
            return False
        by_mask[I.mask] = I
        masks_by_size.setdefault(I.size, []).append(I.mask)
        if len(by_mask) > cap:
            raise SRingError(f"ideal count of {ring.label} exceeds cap {cap}")
        return True

    mul = ring.mul
    units = [u for u, unit in enumerate(ring.unit_flags) if unit]
    done = bytearray(ring.size)
    principals = []
    for x in range(ring.size):
        if not done[x]:
            for u in units:
                done[mul(u, x)] = 1
            P = ideal_generated(ring, (x,))
            if is_new(P):
                principals.append(P)
    worklist = list(principals)
    for I in worklist:  # grows while walked
        for P in principals:
            if not P.mask & ~I.mask:
                continue
            size = I.size * P.size // (I.mask & P.mask).bit_count()
            both = I.mask | P.mask
            if any((K & both) == both for K in masks_by_size.get(size, ())):
                continue
            J = ideal_sum(I, P)
            if is_new(J):
                worklist.append(J)
    return sorted(by_mask.values(), key=Ideal.sort_key)


def colon_ideals(P: Ideal, xs):
    """Yield (P : x), the elements r with r*x in P, for each x in ``xs``.

    P lies in every (P : x), and r in (P : x) puts the whole coset r + P
    there, so each colon ideal is P together with a union of other cosets
    of P.  R/P is walked once, keeping each coset's mask, and for each x
    only the least element of each coset is multiplied: |R/P| - 1 products
    per x instead of |R|.  Lazy, so a caller that stops early pays for no
    more of ``xs``.  Only ``ring.add`` and ``ring.mul`` are used.
    """
    ring = P.ring
    mask, mul = P.mask, ring.mul
    cosets = additive_cosets(ring, P.elements)
    next(cosets)  # P itself
    outside = [(r, sum(1 << y for y in coset)) for r, coset in cosets]
    for x in xs:
        colon = mask
        for r, coset_mask in outside:
            if (mask >> mul(r, x)) & 1:
                colon |= coset_mask
        yield Ideal(ring, colon)


def colon_elem(I: Ideal, x: int) -> Ideal:
    """(I : x) = elements r with r*x in I: :func:`colon_ideals` for one x."""
    return next(colon_ideals(I, (x,)))


def is_prime_ideal(I: Ideal) -> bool:
    """Proper, and ab in I forces a in I or b in I.

    Whether ab lies in I depends only on the cosets a + I and b + I, and the
    ring is commutative, so each unordered pair a <= b of least coset
    representatives outside I is tested once, the squares a*a included.
    """
    ring = I.ring
    require_commutative(ring, "this ideal-theoretic operation")
    if not I.is_proper:
        return False
    mask, mul = I.mask, ring.mul
    outside = [a for a, _ in additive_cosets(ring, I.elements)][1:]
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


def mult_closure(ring: FiniteRing, gens) -> MultiplicativeSet:
    """Smallest multiplicatively closed set containing ``gens`` and 1.

    That set is 1 together with every word g1*g2*...*gk in the generators.
    Each word is a shorter word times one generator, so a worklist that
    right-multiplies every member by every generator reaches them all, in
    any ring, commutative or not.  Raises ZeroInClosureError when 0 is one
    of those words.
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
    return MultiplicativeSet(ring, mask, gens)


# ---------------------------------------------------------------------------
# S-radicals


@dataclass(frozen=True)
class SRadicalResult:
    ideal: Ideal
    witnesses: dict[int, tuple[int, int]]  # member -> (s, n) with s * a**n in I
    is_s_radical: bool


def s_radical(ring: FiniteRing, S: MultiplicativeSet, I: Ideal) -> SRadicalResult:
    """Elements a with s * a**n in I for some s in S and n >= 1.

    Witnesses record the smallest such n and then the least s, read off
    :meth:`MultiplicativeSet.carriers` into I; the power search is bounded
    by the cycle of a's power sequence (at most |R|).
    """
    require_commutative(ring, "this ideal-theoretic operation")
    carriers = S.carriers(I.mask)
    mask = 0
    witnesses: dict[int, tuple[int, int]] = {}
    for a in range(ring.size):
        for n, p in enumerate(power_cycle(ring, a), 1):
            hit = carriers[p]
            if hit:
                mask |= 1 << a
                witnesses[a] = (S.least(hit), n)
                break
    return SRadicalResult(Ideal(ring, mask), witnesses, mask == I.mask)


def s_nilradical(ring: FiniteRing, S: MultiplicativeSet) -> SRadicalResult:
    """S-radical of the zero ideal; checked to be an ideal."""
    res = s_radical(ring, S, zero_ideal(ring))
    if not is_ideal_mask(ring, res.ideal.mask):
        raise SRingError(f"S-nilradical of {ring.label} failed the ideal check")
    return res


# ---------------------------------------------------------------------------
# S-primes


def definitional_witness(S: MultiplicativeSet, P: Ideal) -> int | None:
    """Least member s such that ab in P forces sa or sb in P; None if none.

    The AND of ``C[a] | C[b]``, C = ``S.carriers(P.mask)``, over the pairs
    with ab in P.  Both tests depend only on the cosets of a and b mod P, so
    a runs over the least element of each coset, skipping any a that every
    member carries into P, and b over the solutions of ab = t for t in P.
    """
    ring = P.ring
    carriers = S.carriers(P.mask)
    common = every = (1 << len(S.members)) - 1
    for a, _ in additive_cosets(ring, P.elements):
        ca = carriers[a]
        if ca == every:
            continue
        for t in P.elements:
            for b in ring.solve_mul_all(a, t):
                common &= ca | carriers[b]
        if not common:
            return None
    return S.least(common)


def is_s_prime(S: MultiplicativeSet, P: Ideal) -> SPrimeWitness | None:
    """Definitional S-prime test, cross-checked against the colon criterion.

    Returns a witness carrying the least s from :func:`definitional_witness`
    and the least s' with (P : s') prime, found independently by
    :func:`dominant_colon_witness` and :func:`is_prime_ideal`; a
    disagreement raises.  If Q = (P : s) is prime then each u in S lies
    outside Q (else su is in P and S), so (P : su) = (Q : u) = Q: every
    prime colon is the dominant colon D, and P passes iff D is prime.
    """
    require_commutative(P.ring, "this ideal-theoretic operation")
    if not P.is_proper or P.mask & S.mask:
        return None
    definitional = definitional_witness(S, P)
    colon_s, colon = dominant_colon_witness(S, P)
    colon_hit = (colon_s, colon) if is_prime_ideal(colon) else None
    if (definitional is None) != (colon_hit is None):
        raise SRingError(
            f"S-prime criteria disagree on {P!r}: definitional={definitional} "
            f"colon={colon_hit}")
    if definitional is None:
        return None
    return SPrimeWitness(P, definitional, colon_s, colon)


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


def s_minimal_s_primes(S: MultiplicativeSet,
                       spectrum: list[tuple[Ideal, SPrimeWitness]]) -> list[Ideal]:
    """S-primes P of ``spectrum`` (from :func:`s_spectrum`) such that every
    S-prime Q inside P absorbs sP for some s."""
    primes = [I for I, _ in spectrum]
    return [P for P in primes
            if all(S.witness(P.elements, Q.mask) is not None
                   for Q in primes if Q.issubset(P))]


def spectrum_intersection(ring: FiniteRing,
                          spectrum: list[tuple[Ideal, SPrimeWitness]]) -> Ideal:
    """Intersection of the S-primes of ``spectrum`` (from :func:`s_spectrum`)."""
    if not spectrum:
        raise EmptySpectrumError(f"{ring.label} has no S-prime ideal for this S")
    return Ideal(ring, intersection_mask(ring, (I for I, _ in spectrum)))


def dominant_colon_witness(S: MultiplicativeSet, P: Ideal) -> tuple[int, Ideal]:
    """Least s whose colon ideal (P : s) contains (P : s') for every s' in S.

    With t the product of all members, t is in S and s divides t, so
    (P : s) lies inside D = (P : t): D is the largest colon ideal.  One
    :func:`colon_ideals` walk yields D first and then each member's colon,
    in order, up to the first that equals D.  A colon outside D raises.
    """
    t = reduce(P.ring.mul, S.members)
    colons = colon_ideals(P, (t, *S.members))
    dominant = next(colons)
    for s, C in zip(S.members, colons):
        if C.mask == dominant.mask:
            return s, C
        if C.mask & ~dominant.mask:
            break
    raise SRingError(
        f"colon family of {P!r} is not directed; no dominant member found")
