"""Predicates for a ring with a designated multiplicative subset.

Every verdict carries explicit witnesses chosen at the least canonical
index, so repeated runs print identical reports.  A killer (s*a = 0, of
one element, of all nilpotents, of a or b in each zero-product pair) is the
least member in an AND of masks of ``S.carriers`` into the zero ideal; a
witness into another target (s*ann(a**n) inside ann(a**k)) is the least
one :meth:`MultiplicativeSet.witness` finds; a purity witness (s*a = a*b)
is the least s that :meth:`MultiplicativeSet.least_multipliers` maps a*b
to.

Annihilators are read from :meth:`FiniteRing.annihilator`, which computes
each one once per ring.

S-PF needs no purity witnesses until an annihilator fails: a in an ideal I
has one iff S meets the ideal I + ann(a), so :func:`is_s_pf` decides each
distinct annihilator from ideal masks, and only the first failing one gets
the witness walk of :func:`is_s_pure`, which must fail at the same element.

Bounded-degree zero-product searches never claim anything beyond their
degree bound and search mode; both fields travel with the verdict.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BudgetExceededError, SRingError
from .ideals import Ideal, MultiplicativeSet, definitional_witness, is_ideal_mask, zero_ideal
from .polynomials import poly
from .rings import (
    FiniteRing,
    QuotientRing,
    mask_elements,
    nilpotent_profile,
    power_cycle,
    require_commutative,
    thaw_literal,
)


def annihilator_chains(ring: FiniteRing) -> list[tuple[int, ...]]:
    """Per element a, the masks of ann(a) <= ann(a**2) <= ..., in index order.

    Each chain runs up to the first repeated power: the chain only grows, and
    from a power equal to 0 or to an earlier power on it is constant, so its
    last mask is the value it stabilizes at.  Elements share powers, and
    each power's mask is read from :meth:`FiniteRing.annihilator`.
    """
    zero = ring.zero
    annihilator = ring.annihilator
    chains = []
    for a in range(ring.size):
        anns = []
        for p in power_cycle(ring, a):
            anns.append(annihilator(p))
            if p == zero:
                break
        chains.append(tuple(anns))
    return chains


def is_reduced(ring: FiniteRing) -> bool:
    """Classical test: no nonzero nilpotent."""
    return len(nilpotent_profile(ring)) == 1


# ---------------------------------------------------------------------------
# S-reduced and friends


@dataclass(frozen=True)
class SReducedCertificate:
    verdict: bool
    witnesses: dict[int, int]
    uniform_witness: int | None
    failing: int | None

    def to_json(self, ring: FiniteRing) -> dict:
        return {
            "verdict": self.verdict,
            "uniform_witness": None if self.uniform_witness is None
            else thaw_literal(ring.decode(self.uniform_witness)),
            "witnesses": {
                str(thaw_literal(ring.decode(a))): thaw_literal(ring.decode(s))
                for a, s in sorted(self.witnesses.items())
            },
            "failing": None if self.failing is None
            else thaw_literal(ring.decode(self.failing)),
            "degenerate": False,  # 0 is never in S
        }


def is_s_reduced(ring: FiniteRing, S: MultiplicativeSet) -> SReducedCertificate:
    """Every nilpotent must be killed by some member of S.

    The witness map records the least killer per nilpotent; the uniform
    witness, the least member killing every nilpotent, comes from the AND
    of their killer masks.
    """
    require_commutative(ring, "this predicate")
    killers = S.killers
    uniform = killers[ring.zero]
    witnesses: dict[int, int] = {}
    for a in sorted(nilpotent_profile(ring)):
        mask = killers[a]
        if not mask:
            return SReducedCertificate(False, witnesses, None, a)
        witnesses[a] = S.least(mask)
        uniform &= mask
    return SReducedCertificate(True, witnesses, S.least(uniform), None)


def is_s_integral_domain(ring: FiniteRing, S: MultiplicativeSet) -> int | None:
    """Least s working for every zero-product pair: ab = 0 forces sa = 0 or sb = 0.

    The quantifier order matters: one s is fixed before all pairs.  This is
    the definitional S-prime test of the zero ideal.
    """
    require_commutative(ring, "this predicate")
    return definitional_witness(S, zero_ideal(ring))


@dataclass(frozen=True)
class SZeroIdealResult:
    verdict: bool
    witnesses: dict[int, int]
    failing: int | None


def is_s_zero_ideal(S: MultiplicativeSet, I: Ideal) -> SZeroIdealResult:
    killers = S.killers
    witnesses: dict[int, int] = {}
    for a in I.elements:
        mask = killers[a]
        if not mask:
            return SZeroIdealResult(False, witnesses, a)
        witnesses[a] = S.least(mask)
    return SZeroIdealResult(True, witnesses, None)


# ---------------------------------------------------------------------------
# Localization


@dataclass(frozen=True)
class LocalizationResult:
    """Localization of a finite ring, realized as the quotient by S-torsion.

    Multiplication by any s acts injectively on R/T, hence bijectively, so
    every image of S is a unit and the quotient is the localization.  Its
    expression quotients R by every element of T.
    """

    ring: QuotientRing
    torsion_kernel: Ideal

    def to_json(self, base: FiniteRing) -> dict:
        return {
            "torsion_kernel": [thaw_literal(base.decode(x))
                               for x in self.torsion_kernel.elements],
            "localized_size": self.ring.size,
            "degenerate": False,  # 0 is never in S
        }


def localize(ring: FiniteRing, S: MultiplicativeSet) -> LocalizationResult:
    require_commutative(ring, "this predicate")
    mask = sum(1 << x for x, killed_by in enumerate(S.killers) if killed_by)
    if not is_ideal_mask(ring, mask):
        raise SRingError(f"S-torsion set of {ring.label} is not an ideal")
    torsion = Ideal(ring, mask)
    loc = QuotientRing(ring, mask)
    for x in range(ring.size):
        if (loc.project(x) == loc.zero) != bool((mask >> x) & 1):
            raise SRingError("localization kernel differs from the torsion ideal")
    for s in S.members:
        if not loc.is_unit(loc.project(s)):
            raise SRingError(
                f"image of {s} is not a unit in the localization of {ring.label}")
    return LocalizationResult(loc, torsion)


# ---------------------------------------------------------------------------
# Purity


@dataclass(frozen=True)
class SPureResult:
    verdict: bool
    witnesses: dict[int, tuple[int, int]]  # a -> (b, s) with s*a = a*b
    failing: int | None


def is_s_pure(S: MultiplicativeSet, I: Ideal) -> SPureResult:
    """Each a in I needs b in I and s in S with s*a = a*b.

    The witness of a is the first b in I, in index order, that some s
    serves, with the least such s; one pass over S maps each value s*a to
    its least s (:meth:`MultiplicativeSet.least_multipliers`), and the walk
    over I stops at the first b whose a*b is in that map.
    """
    mul = I.ring.mul
    witnesses: dict[int, tuple[int, int]] = {}
    elems = I.elements
    for a in elems:
        least = S.least_multipliers(a)
        for b in elems:
            s = least.get(mul(a, b))
            if s is not None:
                witnesses[a] = (b, s)
                break
        else:
            return SPureResult(False, witnesses, a)
    return SPureResult(True, witnesses, None)


@dataclass(frozen=True)
class SPFResult:
    verdict: bool
    failing: int | None
    failing_annihilator: Ideal | None
    detail: SPureResult | None


def _s_meets_sum(S: MultiplicativeSet, I: int, J: int) -> bool:
    """Whether S meets the ideal I + J, for ideals given as bitmasks.

    When one ideal holds the other, I + J is the larger one.  Otherwise s
    lies in I + J iff s + x lies in the larger ideal for some x in the
    smaller one (x and -x range over the same ideal), at most
    |S|*min(|I|, |J|) additions.
    """
    if S.mask & (I | J):
        return True
    if not I & ~J or not J & ~I:
        return False
    if I.bit_count() < J.bit_count():
        I, J = J, I
    add, smaller = S.ring.add, mask_elements(J)
    return any((I >> add(s, x)) & 1 for s in S.members for x in smaller)


def _least_impure(S: MultiplicativeSet, I: int, ann) -> int | None:
    """The least a in the ideal I (a bitmask) with no b in I and s in S such
    that s*a = a*b, or None: :func:`is_s_pure`'s ``failing``, decided from
    ideals.  In a commutative ring s*a = a*b iff a*(s - b) = 0, so a passes
    iff S meets I + ann(a), which is decided once per distinct annihilator;
    ``ann`` maps an element to the bitmask of its annihilator.  When S
    meets I, every a passes with b = s, and no annihilator is needed.
    """
    if S.mask & I:
        return None
    verdicts: dict[int, bool] = {}
    for a in mask_elements(I):
        J = ann(a)
        ok = verdicts.get(J)
        if ok is None:
            ok = verdicts[J] = _s_meets_sum(S, I, J)
        if not ok:
            return a
    return None


def is_s_pf(ring: FiniteRing, S: MultiplicativeSet) -> SPFResult:
    """Every annihilator (0 : a) must be an S-pure ideal.

    Elements are walked in index order and each distinct annihilator is
    decided once by :func:`_least_impure`, so ``failing`` is the least a
    whose annihilator is not S-pure.  The failing annihilator alone gets
    :func:`is_s_pure`'s witness walk as ``detail``, and the two criteria
    must agree on its least impure element.
    """
    require_commutative(ring, "this predicate")
    ann = ring.annihilator
    pure: set[int] = set()
    for a in range(ring.size):
        mask = ann(a)
        if mask in pure:
            continue
        impure = _least_impure(S, mask, ann)
        if impure is None:
            pure.add(mask)
            continue
        ideal = Ideal(ring, mask)
        detail = is_s_pure(S, ideal)
        if detail.failing != impure:
            raise SRingError(
                f"S-purity criteria disagree on {ideal!r}: ideal sums fail at "
                f"{impure}, the witness walk at {detail.failing}")
        return SPFResult(False, a, ideal, detail)
    return SPFResult(True, None, None, None)


# ---------------------------------------------------------------------------
# Annihilator chains


@dataclass(frozen=True)
class HopfianEntry:
    """Certificate that the annihilator chain of one element is S-stationary.

    ``k`` is the least index with some s in S satisfying
    s*ann(a**n) <= ann(a**k) for all n >= k; ``stabilization`` is the plain
    chain stabilization point (always witnessed by s = 1 in a finite ring).
    """

    k: int
    s: int
    stabilization: int


def s_strongly_hopfian_profile(ring: FiniteRing,
                               S: MultiplicativeSet) -> dict[int, HopfianEntry]:
    """The Hopfian entry of every element, from :func:`annihilator_chains`.

    ``k`` and ``s`` depend only on the chain up to its stabilization, which
    also fixes the top annihilator, so the (k, s) search runs once per
    distinct such chain.
    """
    require_commutative(ring, "this predicate")
    profile: dict[int, HopfianEntry] = {}
    searched: dict[tuple[int, ...], tuple[int, int]] = {}
    for a, anns in enumerate(annihilator_chains(ring)):
        top = anns[-1]
        stabilization = anns.index(top) + 1
        chain = anns[:stabilization]
        hit = searched.get(chain)
        if hit is None:
            top_elements = mask_elements(top)
            # at k = stabilization the target is the top annihilator, an
            # ideal, so every member passes and the walk always stops
            for k in range(1, stabilization + 1):
                s = S.witness(top_elements, anns[k - 1])
                if s is not None:
                    break
            hit = searched[chain] = (k, s)
        profile[a] = HopfianEntry(*hit, stabilization)
    return profile


# ---------------------------------------------------------------------------
# Zero-product polynomial pairs


def _exhaustive_vector_pairs(ring: FiniteRing, degree: int):
    """All coefficient-vector pairs (a, b) of length D+1 = degree+1 with a*b = 0.

    Condition m of a*b = 0 is the sum of a_i*b_{m-i} = 0.  For every head
    a_0..a_{D-1}, the prefixes b_0..b_{D-1} are built level by level:
    condition k pins b_k by a_0*b_k = -(a_1*b_{k-1} + ... + a_k*b_0), which
    reads the head only, so one list of prefixes serves every last
    coefficient a_D.  The last coefficient b_D must then meet conditions
    D+j for j = 0..D, each a_j*b_D = -(sum of a_i*b_{D+j-i}, i = j+1..D).
    Per prefix, the terms with i < D are summed once; the term a_D*b_j is
    read off a table of -(c*b_j) per c.  Condition D (j = 0) lists the
    candidates, from ``solve_mul_all``; the others make one bitmask of the
    b_D that meet them all: the annihilator of a_D for j = D
    (:meth:`FiniteRing.annihilator`), and for
    0 < j < D the solutions of a_j*x = target, memoized per (a_j, target).
    So a candidate costs one bit test.  Factors keep their order, as the
    triangular carrier is noncommutative.  The pairs come in the order of
    a, then of each coefficient of b in its solution list.
    """
    size = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    solve = ring.solve_mul_all
    zero = ring.zero
    D = degree
    elements = range(size)
    annihilator = ring.annihilator
    nothing = [zero] * size  # -(c*0): condition 2D has no a_D term to add
    columns: dict[int, list[int]] = {}  # x -> -(c*x) for every c
    masks: dict[int, int] = {}  # c * size + t -> solutions of c*x = t
    for head in itertools.product(elements, repeat=D):
        prefixes: list[tuple[int, ...]] = [()]
        for k in range(D):
            longer = []
            for b in prefixes:
                t = zero
                for i in range(1, k + 1):
                    t = add(t, mul(head[i], b[k - i]))
                longer.extend([b + (x,) for x in solve(head[0], neg(t))])
            prefixes = longer
        # per prefix and j = 0..D: condition D+j without its a_D term,
        # and the column that gives -(a_D*b_j)
        known = []
        for b in prefixes:
            partial = []
            for j in range(D + 1):
                t = zero
                for i in range(j + 1, D):
                    t = add(t, mul(head[i], b[D + j - i]))
                partial.append(neg(t))
            tables = []
            for x in b:
                column = columns.get(x)
                if column is None:
                    column = columns[x] = [neg(mul(c, x)) for c in elements]
                tables.append(column)
            tables.append(nothing)
            known.append((b, partial, tables))
        for last in elements:
            a = head + (last,)
            a0 = a[0]
            top = annihilator(last)
            for b, partial, tables in known:
                mask = top
                for j in range(1, D):
                    t = add(partial[j], tables[j][last])
                    key = a[j] * size + t
                    m = masks.get(key)
                    if m is None:
                        m = 0
                        for x in solve(a[j], t):
                            m |= 1 << x
                        masks[key] = m
                    mask &= m
                if mask:
                    for x in solve(a0, add(partial[0], tables[0][last])):
                        if mask >> x & 1:
                            yield a, b + (x,)


def _sampled_vector_pairs(ring: FiniteRing, degree: int, seed: int, budget: int):
    """Seeded stream of exactly ``budget`` genuine zero-product vector pairs.

    The left vector is drawn uniformly; the right one is solved coefficient
    by coefficient choosing randomly among the solutions of each convolution
    condition, with the zero vector as the always-valid fallback.  Per left
    vector it makes up to 2 attempts: solve the leading coefficients, then
    up to 3 draws of the last one against the trailing conditions.  Degree 1
    runs the same draws in the same order without the generic loops: b0
    with a0*b0 = 0, then b1 with a0*b1 = -(a1*b0), kept if a1*b1 = 0.

    A unit a0 forces b = 0: each condition a0*b_k = -(terms in b_0..b_{k-1})
    then reads a0*b_k = 0.  Both paths yield the zero vector for it without
    a solver call or a random number.
    """
    rng = random.Random(seed)
    rnd = rng.random
    size = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    solve = ring.solve_mul_random
    zero = ring.zero
    units = ring.unit_flags
    if degree == 1:
        zero_vec = (zero, zero)
        for _ in range(budget):
            a0 = int(rnd() * size)
            a1 = int(rnd() * size)
            if units[a0]:
                yield (a0, a1), zero_vec
                continue
            b = None
            for _ in range(2):
                b0 = solve(a0, zero, rng)
                if b0 is None:
                    break
                t = neg(mul(a1, b0))
                for _ in range(3):
                    b1 = solve(a0, t, rng)
                    if b1 is None:
                        break
                    if mul(a1, b1) == zero:
                        b = (b0, b1)
                        break
                if b is not None:
                    break
            yield (a0, a1), b or zero_vec
        return
    D = degree
    zero_vec = (0,) * (D + 1)
    coefficients = range(D + 1)
    emitted = 0
    while emitted < budget:
        a = tuple([int(rnd() * size) for _ in coefficients])
        if units[a[0]]:
            yield a, zero_vec
            emitted += 1
            continue
        b = None
        for _ in range(2):
            cand = []
            fail = False
            for k in range(D):
                t = zero
                for i in range(1, k + 1):
                    t = add(t, mul(a[i], cand[k - i]))
                # the k = 0 condition is a0*b0 = 0: no sum to negate
                x = solve(a[0], neg(t) if k else zero, rng)
                if x is None:
                    fail = True
                    break
                cand.append(x)
            if fail:
                break
            # the last coefficient is the cheapest to redraw against the
            # trailing convolution conditions, so give it a few tries
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
        if b is None:
            b = zero_vec
        yield a, b
        emitted += 1


def zero_product_poly_pairs(ring: FiniteRing, degree: int, *, mode: str = "auto",
                            seed: int = 0, budget: int = 100_000,
                            exhaustive_budget: int = 10_000_000):
    """Stream of polynomial pairs (f, g) with f*g = 0 and deg <= degree.

    Exhaustive mode requires size**(2*degree+2) <= exhaustive_budget and
    emits every pair exactly once; sampled mode emits ``budget`` genuine
    pairs drawn from the given seed (duplicates possible).  Arguments are
    checked when the function is called, before the first pair is drawn.
    """
    _, src = _vector_pair_source(ring, degree, mode, seed, budget, exhaustive_budget)
    return ((poly(a), poly(b)) for a, b in src)


def _vector_pair_source(ring: FiniteRing, degree: int, mode: str, seed: int,
                        budget: int, exhaustive_budget: int):
    """The search mode to run and its stream of coefficient-vector pairs.

    ``auto`` enumerates exhaustively when size**(2*degree+2) fits in
    ``exhaustive_budget`` and samples otherwise.  Rejects a search that would
    check nothing: a negative degree has no polynomials, and a sampled
    search with a budget below 1 draws no pair; either would be vacuously
    true.  The stream is lazy, so no pair is drawn before it is iterated.
    """
    if degree < 0:
        raise SRingError(f"degree must be >= 0, got {degree}")
    space = ring.size ** (2 * degree + 2)
    if mode == "auto":
        mode = "exhaustive" if space <= exhaustive_budget else "sampled"
    elif mode == "exhaustive" and space > exhaustive_budget:
        raise BudgetExceededError(
            f"exhaustive pair space {space} exceeds budget {exhaustive_budget}")
    elif mode not in ("exhaustive", "sampled"):
        raise SRingError(f"unknown search mode {mode!r}")
    if mode == "exhaustive":
        return mode, _exhaustive_vector_pairs(ring, degree)
    if budget < 1:
        raise SRingError(f"sampled search needs a budget >= 1, got {budget}")
    return mode, _sampled_vector_pairs(ring, degree, seed, budget)


# ---------------------------------------------------------------------------
# Armendariz verdicts


@dataclass(frozen=True)
class ArmendarizViolation:
    f: tuple[int, ...]
    g: tuple[int, ...]
    i: int | None
    j: int | None
    strong: bool  # some coefficient product is killed by no member at all

    def to_json(self, ring: FiniteRing) -> dict:
        return {
            "f": [thaw_literal(ring.decode(c)) for c in self.f],
            "g": [thaw_literal(ring.decode(c)) for c in self.g],
            "i": self.i,
            "j": self.j,
            "strong": self.strong,
        }


@dataclass(frozen=True)
class ArmendarizVerdict:
    """Outcome of a bounded-degree zero-product coefficient check.

    Both readings are decided: ``per_pair_ok`` allows the witness to vary
    with the pair, ``uniform_witness`` must cover every examined pair.  The
    verdict is always relative to ``degree`` and ``mode``.
    """

    degree: int
    mode: str
    seed: int | None
    budget: int
    pairs_checked: int
    uniform_witness: int | None
    per_pair_ok: bool
    per_pair_histogram: dict[int, int]
    per_pair_violation: ArmendarizViolation | None
    uniform_failed_after: int | None
    degenerate = False  # 0 is never in S; bench/run.py reads it

    @property
    def uniform_ok(self) -> bool:
        return self.uniform_witness is not None

    def to_json(self, ring: FiniteRing) -> dict:
        return {
            "mode": {
                "degree": self.degree,
                "search": self.mode,
                "seed": self.seed,
                "budget": self.budget,
            },
            "pairs_checked": self.pairs_checked,
            "uniform_witness": None if self.uniform_witness is None
            else thaw_literal(ring.decode(self.uniform_witness)),
            "per_pair_ok": self.per_pair_ok,
            "per_pair_histogram": {
                str(thaw_literal(ring.decode(s))): n
                for s, n in sorted(self.per_pair_histogram.items())
            },
            "per_pair_violation": None if self.per_pair_violation is None
            else self.per_pair_violation.to_json(ring),
            "uniform_failed_after": self.uniform_failed_after,
            "degenerate": self.degenerate,
        }


def is_u_s_armendariz_up_to(ring: FiniteRing, S: MultiplicativeSet, degree: int,
                            *, mode: str = "auto", seed: int = 0,
                            budget: int = 100_000,
                            exhaustive_budget: int = 10_000_000) -> ArmendarizVerdict:
    """Check s * a_i * b_j = 0 over zero-product pairs up to ``degree``.

    Factor order is preserved, so the check is meaningful on the
    noncommutative triangular carrier as well.  On a genuine pair each
    antidiagonal sum of a_i*b_j over i + j = m is 0, and exactly one of its
    terms has i = 0 or j = degree: that term is minus the sum of the others.
    So s kills every a_i*b_j iff it kills those with 1 <= i <= degree and
    0 <= j < degree, and a pair costs degree**2 products and
    :attr:`MultiplicativeSet.killers` lookups (at degree 1 the one product
    a1*b0).  Degree 0 has no such product, so any ring would pass it: it
    is rejected, as a negative degree is.
    """
    if degree < 1:
        raise SRingError(f"the coefficient check needs degree >= 1, got {degree}")
    resolved, src = _vector_pair_source(ring, degree, mode, seed, budget,
                                        exhaustive_budget)
    mul = ring.mul
    killers = S.killers
    full_mask = killers[ring.zero]
    uniform_mask = full_mask
    # pairs per lowest set bit of their killer mask, named by member at the end
    by_least_bit: dict[int, int] = {}
    pairs = 0
    per_pair_ok = True
    per_pair_violation: ArmendarizViolation | None = None
    uniform_failed_after: int | None = None
    terms = [(i, j) for i in range(1, degree + 1) for j in range(degree)]
    for a, b in src:
        pairs += 1
        pm = full_mask
        for i, j in terms:
            pm &= killers[mul(a[i], b[j])]
        if pm:
            low = pm & -pm
            by_least_bit[low] = by_least_bit.get(low, 0) + 1
        elif per_pair_ok:
            per_pair_ok = False
            per_pair_violation = _locate_violation(ring, S, a, b)
        if uniform_mask:
            uniform_mask &= pm
            if not uniform_mask:
                uniform_failed_after = pairs
    return ArmendarizVerdict(
        degree=degree,
        mode=resolved,
        seed=None if resolved == "exhaustive" else seed,
        budget=budget,
        pairs_checked=pairs,
        uniform_witness=S.least(uniform_mask),
        per_pair_ok=per_pair_ok,
        per_pair_histogram={S.least(low): n for low, n in by_least_bit.items()},
        per_pair_violation=per_pair_violation,
        uniform_failed_after=uniform_failed_after,
    )


def _locate_violation(ring: FiniteRing, S: MultiplicativeSet, a, b) -> ArmendarizViolation:
    killers = S.killers
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if not killers[ring.mul(ai, bj)]:
                return ArmendarizViolation(a, b, i, j, strong=True)
    return ArmendarizViolation(a, b, None, None, strong=False)
