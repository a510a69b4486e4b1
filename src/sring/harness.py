"""Statement catalog, corpus generation, and counterexample search.

Every cataloged statement is an implication over one (ring, multiplicative
set) instance, defined once by its hypotheses and its conclusion; verify
and the searcher's variants all evaluate that definition.  Hypothesis
failures are a distinct verdict from holds/VIOLATED: the side conditions
(S-reduced, S disjoint from the zero divisors) fail often on random
instances and a vacuously green suite would be worthless.  "0 not in S"
holds by construction: a set whose closure reaches 0 is never built, so it
never reaches a report.

A VIOLATED verdict always carries a re-checkable payload listing the
concrete elements and ideals involved.  Statement checks are pure, so the
runner may fan instances out across worker processes; reports are merged
in canonical (statement, instance-index) order regardless of scheduling.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import os
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

from .errors import MalformedExpressionError, SizeCapExceededError, SRingError, ZeroInClosureError
from .ideals import (
    Ideal,
    MultiplicativeSet,
    enumerate_ideals,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    intersection_mask,
    is_ideal_mask,
    is_maximal_ideal,
    is_prime_ideal,
    mult_closure,
    s_minimal_s_primes,
    s_radical,
    s_nilradical,
    s_spectrum,
    spectrum_intersection,
)
from .predicates import (
    annihilator_chains,
    is_reduced,
    is_s_zero_ideal,
    is_s_integral_domain,
    is_s_pf,
    is_s_reduced,
    is_u_s_armendariz_up_to,
    localize,
)
from .rings import (
    FiniteRing,
    Idealization,
    IdealizationRing,
    ModuleSpec,
    Product,
    ProductRing,
    Quotient,
    QuotientRing,
    TriangularE,
    TriangularERing,
    ZMod,
    build_ring,
    mask_elements,
    nilpotent_profile,
    thaw_literal,
    zero_divisor_set,
)
from .ringfile import instance_to_json


class StatementId(enum.Enum):
    S_RADICAL_QUOTIENT = "an ideal is S-radical iff its quotient is S-reduced (quotient zero divisors avoiding S)"
    INTERSECTION_VS_PRODUCT = "over an S-reduced ring, I*J is S-zero iff the intersection of I and J is"
    SPECTRUM_S_ZERO = "over an S-reduced ring with 0 not in S, the intersection of all S-primes is S-zero"
    NILS_IN_COLON = "the S-nilradical sits inside the dominant colon ideal of every S-prime"
    NILS_S_ZERO = "over an S-reduced ring the S-nilradical is S-zero"
    LOCALIZATION_REDUCED = "the localization of an S-reduced ring is reduced"
    LOCALIZATION_ARTINIAN = "the localization is Artinian when every nonzero localized element is a unit or zero divisor"
    PRODUCT_OF_FIELDS = "a reduced ring with S avoiding zero divisors splits into a product of fields"
    POLY_TRANSFER = "S-reducedness transfers between the ring and its bounded-degree polynomials"
    U_S_RED_IMPLIES_U_S_ARM = "uniformly S-reduced rings pass the uniform zero-product coefficient test"
    E_RING_ARMENDARIZ = "the triangular matrix carrier over an S-reduced ring passes the uniform test"
    IDEALIZATION_ARMENDARIZ = "the square-zero extension of a uniformly S-reduced ring passes the uniform test"
    S_REDUCED_IMPLIES_HOPFIAN = "annihilator chains of an S-reduced ring are S-stationary"
    S_PF_IMPLIES_S_REDUCED = "rings with S-pure annihilators are S-reduced"
    STRUCTURE_FORWARD = "an S-reduced ring embeds S-subdirectly into its S-minimal S-prime quotients"
    STRUCTURE_CONVERSE = "such a subdirect decomposition forces S-reducedness back"
    NIL_IS_INTERSECTION = "with S avoiding zero divisors, the nilradical is the intersection of primes missing S"
    NIL_NILPOTENT = "with S avoiding zero divisors, the nilradical is a nilpotent ideal"


HOLDS = "holds"
HYP_NOT_MET = "hypothesis-not-met"
VIOLATED = "VIOLATED"

# Scope bounds and budgets of the catalog
EXHAUSTIVE_SIZE_LIMIT = 12  # carriers the uniform test searches exhaustively
E_BASE_LIMIT = 12  # largest base ring of E_RING_ARMENDARIZ
EXTENSION_SIZE_CAP = 4096  # largest idealization of IDEALIZATION_ARMENDARIZ
IDEAL_PAIR_LIMIT = 16  # most ideals INTERSECTION_VS_PRODUCT pairs up
POLY_BUDGET = 4096  # most coefficient vectors POLY_TRANSFER checks above degree 0


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 42
    count: int = 30
    max_size: int = 64


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 42
    budget: int = 100_000
    exhaustive_degree: int = 2
    sampled_degree: int = 1


@dataclass
class StatementReport:
    statement: StatementId
    instance_label: str
    instance_index: int
    hypotheses: dict
    verdict: str
    details: dict
    notes: tuple[str, ...]
    runtime: float

    def to_json(self) -> dict:
        # runtime is deliberately excluded: report streams must be
        # byte-identical across runs with the same seed
        return {
            "statement": self.statement.name,
            "instance": self.instance_label,
            "instance_index": self.instance_index,
            "hypotheses": self.hypotheses,
            "verdict": self.verdict,
            "details": self.details,
            "notes": list(self.notes),
        }


@dataclass
class CorpusInstance:
    label: str
    origin: str
    ring: FiniteRing
    mult_set: MultiplicativeSet
    index: int = -1

    def to_json(self) -> dict:
        doc = instance_to_json(self.ring, self.mult_set)
        doc["label"] = self.label
        return doc


def derive_seed(master: int, *parts) -> int:
    text = ":".join([str(master), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


# ---------------------------------------------------------------------------
# Corpus

_CURATED: tuple[tuple[str, object, tuple], ...] = (
    ("z24-pow2", ZMod(24), (2,)),
    ("z12-s4", ZMod(12), (4,)),
    ("z4-s3", ZMod(4), (3,)),
    ("z6-s2", ZMod(6), (2,)),
    ("z6-unit", ZMod(6), (1,)),
    ("z5-unit", ZMod(5), (1,)),
    ("z7-unit", ZMod(7), (1,)),
    ("z8-s3", ZMod(8), (3,)),
    ("z30-unit", ZMod(30), (1,)),
    ("z12-pow2", ZMod(12), (2,)),
    ("z2xz2-diag", Product((ZMod(2), ZMod(2))), ((1, 1),)),
    ("z2xz2-proj", Product((ZMod(2), ZMod(2))), ((1, 1), (1, 0))),
    ("z24-mod3", Quotient(ZMod(24), (3,)), (1,)),
    ("z2-dual", Idealization(ZMod(2), ModuleSpec(((0,),))), ((1, (0,)),)),
    ("z4-halfdual", Idealization(ZMod(4), ModuleSpec(((2,),))), ((3, (0,)),)),
)


def curated_instances() -> list[CorpusInstance]:
    out = []
    for label, expr, gens in _CURATED:
        ring = build_ring(expr)
        S = mult_closure(ring, tuple(ring.encode(g) for g in gens))
        out.append(CorpusInstance(label, "curated", ring, S))
    return out


_SQUARE_BLOCKS = (4, 8, 9, 16, 25, 27)


def _random_expression(rng: random.Random, max_size: int):
    roll = rng.random()
    if roll < 0.45:
        # bias toward moduli with square factors: squarefree carriers make
        # every S-predicate collapse to the classical one
        if rng.random() < 0.6:
            q = _SQUARE_BLOCKS[rng.randrange(len(_SQUARE_BLOCKS))]
            m = rng.randint(1, max(1, max_size // q))
            return ZMod(min(q * m, max_size))
        return ZMod(rng.randint(2, max_size))
    if roll < 0.70:
        n1 = rng.randint(2, 8)
        n2 = rng.randint(2, max(2, max_size // n1))
        return Product((ZMod(n1), ZMod(n2)))
    if roll < 0.85:
        n = rng.randint(4, max_size)
        g = rng.randint(2, n - 1)
        return Quotient(ZMod(n), (g,))
    n = rng.randint(2, 8)
    d = rng.randrange(n)
    return Idealization(ZMod(n), ModuleSpec(((d,),)))


def generate_corpus(config: CorpusConfig) -> list[CorpusInstance]:
    """Curated worked examples first, then seeded random constructions.

    The same config always yields the same instance list, byte for byte.
    """
    out = curated_instances()
    rng = random.Random(config.seed)
    made = 0
    attempts = 0
    max_attempts = 200 * max(config.count, 1) + 200
    while made < config.count:
        attempts += 1
        if attempts > max_attempts:
            raise SRingError("corpus generation exhausted its attempt budget")
        expr = _random_expression(rng, config.max_size)
        try:
            ring = build_ring(expr, size_cap=config.max_size)
        except (MalformedExpressionError, SizeCapExceededError):
            continue
        gens = tuple(rng.randint(1, ring.size - 1)
                     for _ in range(rng.choice((1, 1, 2))))
        try:
            S = mult_closure(ring, gens)
        except ZeroInClosureError:
            continue
        if len(S.members) > 12:
            # huge unit groups slow every scan without adding coverage;
            # the interesting sets in this theory are small powers
            continue
        out.append(CorpusInstance(f"seeded-{made:02d}", "seeded", ring, S))
        made += 1
    for i, inst in enumerate(out):
        inst.index = i
    return out


# ---------------------------------------------------------------------------
# Per-instance context with cached building blocks


class InstanceContext:
    def __init__(self, instance: CorpusInstance, cfg: VerifyConfig):
        self.instance = instance
        self.cfg = cfg
        self.ring = instance.ring
        self.S = instance.mult_set

    @cached_property
    def ideals(self) -> list[Ideal]:
        return enumerate_ideals(self.ring)

    @property
    def proper_ideals(self) -> list[Ideal]:
        return [I for I in self.ideals if I.is_proper]

    @cached_property
    def spectrum(self):
        return s_spectrum(self.ring, self.S, ideals=self.ideals)

    @cached_property
    def s_minimal(self):
        return s_minimal_s_primes(self.S, self.spectrum)

    @cached_property
    def nilpotents(self) -> dict[int, int]:
        return nilpotent_profile(self.ring)

    @cached_property
    def s_reduced(self):
        return is_s_reduced(self.ring, self.S)

    @cached_property
    def nil_mask(self) -> int:
        """Bitmask of the nilradical."""
        return sum(1 << a for a in self.nilpotents)

    @cached_property
    def s_meets_zero_divisors(self) -> bool:
        """Whether some member of S is a zero divisor: S never holds 0, so
        that is a member whose annihilator is more than {0}."""
        return any(self.ring.annihilator(s) != 1 for s in self.S.members)

    @cached_property
    def primes_missing_s(self) -> tuple[list[Ideal], int]:
        """Prime ideals disjoint from S, and the bitmask of their intersection."""
        primes = [I for I in self.ideals
                  if is_prime_ideal(I) and not (I.mask & self.S.mask)]
        return primes, intersection_mask(self.ring, primes)

    @cached_property
    def s_pf(self):
        return is_s_pf(self.ring, self.S)

    @cached_property
    def localization(self):
        return localize(self.ring, self.S)

    @cached_property
    def nil_s(self):
        return s_nilradical(self.ring, self.S)

    @cached_property
    def radical_quotient_records(self) -> list[dict]:
        """Per proper ideal: hypothesis status plus both sides of the equivalence."""
        out = []
        for I in self.proper_ideals:
            q = QuotientRing(self.ring, I.mask)
            sbar = self.projected_set(q)
            if sbar is None:
                out.append({"ideal": self.lits(I.elements), "hyp_ok": False,
                            "reason": "projected set contains 0", "lhs": None, "rhs": None})
                continue
            hyp_ok = all(q.annihilator(s) == 1 for s in sbar.members)
            lhs = s_radical(self.ring, self.S, I).is_s_radical
            rhs = is_s_reduced(q, sbar).verdict
            out.append({"ideal": self.lits(I.elements), "hyp_ok": hyp_ok,
                        "lhs": lhs, "rhs": rhs})
        return out

    @cached_property
    def structure(self) -> dict:
        """Kernel of the subdirect map plus per-quotient integral-domain checks.

        With no S-minimal S-prime the kernel is the whole ring.
        """
        ring, S = self.ring, self.S
        kernel = intersection_mask(ring, self.s_minimal)
        quotient_info = []
        for P in self.s_minimal:
            q = QuotientRing(self.ring, P.mask)
            sbar = self.projected_set(q)
            quotient_info.append({
                "prime": P, "quotient": q,
                "domain": sbar is not None and is_s_integral_domain(q, sbar) is not None,
                "surjective": len({q.project(r) for r in range(ring.size)}) == q.size})
        torsion_witnesses = {
            x: S.least(S.killers[x]) for x in mask_elements(kernel)}
        return {"kernel": kernel, "quotients": quotient_info,
                "torsion": torsion_witnesses}

    def projected_set(self, q: QuotientRing) -> MultiplicativeSet | None:
        """Image of S in the quotient; None when its closure reaches 0."""
        gens = tuple(sorted({q.project(g) for g in self.S.gens})) or (q.one,)
        try:
            return mult_closure(q, gens)
        except ZeroInClosureError:
            return None

    def lit(self, x: int):
        return thaw_literal(self.ring.decode(x))

    def lits(self, xs) -> list:
        return [self.lit(x) for x in xs]


# ---------------------------------------------------------------------------
# Statements.  Each is an implication, hypotheses => conclusion, over one
# instance; verify, drop-hypothesis and converse all read the one definition.


@dataclass(frozen=True)
class Statement:
    """One cataloged implication.

    ``hypotheses(ctx)`` maps each hypothesis name to whether it holds, and
    ``conclusion(ctx)`` returns ``(ok, details)``.  ``bounds(ctx)`` lists
    ``(quantity, value, limit)`` scope bounds that keep the conclusion
    affordable: they print as ``quantity<=limit`` after the hypotheses, a
    hypothesis-not-met report carries their values, and the searcher never
    drops them.  ``unmet(ctx)`` adds details to a hypothesis-not-met report.
    ``records(ctx)``, when set, gives the searcher one
    ``(hypotheses, (ok, details))`` pair per record instead of the
    instance-wide pair.  ``droppable`` is False when every hypothesis holds
    by construction, so none is ever false on a searched instance and
    ``drop-hypothesis`` and ``converse`` are unsupported.

    Five hypothesis names are never false, so dropping them finds nothing:
    ``zero_not_in_S`` and ``nondegenerate_mult_set`` hold by construction
    (a :class:`MultiplicativeSet` never holds 0), ``s_artinian`` and
    ``s_noetherian`` hold in every finite ring, and ``spectrum_nonempty``
    holds for every set :func:`mult_closure` builds.  As 0 is not in S, the
    zero ideal misses S, and in a finite ring an ideal maximal among those
    missing S exists and is prime; a prime that misses S is S-prime with
    s = 1, so ``EmptySpectrumError`` is never reached.
    """
    hypotheses: Callable[[InstanceContext], dict]
    conclusion: Callable[[InstanceContext], tuple[bool, dict]]
    notes: tuple[str, ...] = ()
    bounds: Callable[[InstanceContext], tuple] = lambda ctx: ()
    unmet: Callable[[InstanceContext], dict] = lambda ctx: {}
    records: Callable[[InstanceContext], list] | None = None
    droppable: bool = True


STATEMENTS: dict[StatementId, Statement] = {}


def _statement(statement_id: StatementId, hypotheses, **parts):
    """Register the decorated function as the conclusion of ``statement_id``."""
    def register(conclusion):
        STATEMENTS[statement_id] = Statement(hypotheses, conclusion, **parts)
        return conclusion
    return register


def _s_reduced(ctx: InstanceContext) -> dict:
    return {"s_reduced": ctx.s_reduced.verdict}


def _u_s_reduced(ctx: InstanceContext) -> dict:
    return {"u_s_reduced": ctx.s_reduced.uniform_witness is not None}


_S_ARTINIAN_NOTE = ("degenerate hypothesis: every finite ring is S-Artinian "
                    "(stationarity read as s*I_k inside I_n for n >= k)")


def _radical_quotient_cases(ctx: InstanceContext) -> list:
    # a quotient whose projected set would contain 0 has no set, so no
    # S-reducedness to compare
    return [({"quotient_zero_divisors_avoiding_S": r["hyp_ok"]},
             (r["lhs"] == r["rhs"], {"ideal": r["ideal"], "s_radical": r["lhs"],
                                     "quotient_s_reduced": r["rhs"]}))
            for r in ctx.radical_quotient_records if r["lhs"] is not None]


@_statement(StatementId.S_RADICAL_QUOTIENT,
            lambda ctx: {"nondegenerate_mult_set": True,
                         "some_ideal_with_quotient_zero_divisors_avoiding_S":
                             any(r["hyp_ok"] for r in ctx.radical_quotient_records)},
            unmet=lambda ctx: _radical_quotient(ctx)[1],
            records=_radical_quotient_cases)
def _radical_quotient(ctx: InstanceContext):
    records = ctx.radical_quotient_records
    checked = [r for r in records if r["hyp_ok"]]
    violations = [r for r in checked if r["lhs"] != r["rhs"]]
    return not violations, {"ideals_checked": len(checked),
                            "ideals_skipped": len(records) - len(checked),
                            "violations": violations}


@_statement(StatementId.INTERSECTION_VS_PRODUCT, _s_reduced,
            bounds=lambda ctx: (("ideal_count", len(ctx.ideals),
                                 IDEAL_PAIR_LIMIT),))
def _intersection_vs_product(ctx: InstanceContext):
    violations = []
    pairs = 0
    ideals = ctx.ideals
    for i, I in enumerate(ideals):
        for J in ideals[i:]:
            pairs += 1
            inter_ok = is_s_zero_ideal(ctx.S, ideal_intersection(I, J)).verdict
            prod_ok = is_s_zero_ideal(ctx.S, ideal_product(I, J)).verdict
            if inter_ok != prod_ok:
                violations.append({"I": ctx.lits(I.elements), "J": ctx.lits(J.elements),
                                   "intersection_s_zero": inter_ok,
                                   "product_s_zero": prod_ok})
    return not violations, {"pairs_checked": pairs, "violations": violations}


@_statement(StatementId.SPECTRUM_S_ZERO,
            lambda ctx: {"s_reduced": ctx.s_reduced.verdict,
                         "zero_not_in_S": True})
def _spectrum_s_zero(ctx: InstanceContext):
    inter = spectrum_intersection(ctx.ring, ctx.spectrum)
    witnesses = {}
    missing = []
    for x in inter.elements:
        s = ctx.S.least(ctx.S.killers[x])
        if s is None:
            missing.append(ctx.lit(x))
        else:
            witnesses[str(ctx.lit(x))] = ctx.lit(s)
    return not missing, {"spectrum_size": len(ctx.spectrum),
                         "intersection": ctx.lits(inter.elements),
                         "witnesses": witnesses, "unwitnessed": missing}


@_statement(StatementId.NILS_IN_COLON,
            lambda ctx: {"nondegenerate_mult_set": True,
                         "spectrum_nonempty": bool(ctx.spectrum)})
def _nils_in_colon(ctx: InstanceContext):
    nil_mask = ctx.nil_s.ideal.mask
    entries = []
    violations = []
    for P, w in ctx.spectrum:
        s_p, colon = w.colon_s, w.colon_prime
        entry = {"prime": ctx.lits(P.elements), "s_P": ctx.lit(s_p)}
        if not is_prime_ideal(colon):
            violations.append({**entry, "reason": "dominant colon ideal not prime",
                               "colon": ctx.lits(colon.elements)})
        elif nil_mask & ~colon.mask:
            extra = [ctx.lit(x) for x in mask_elements(nil_mask & ~colon.mask)]
            violations.append({**entry, "reason": "S-nilradical escapes colon ideal",
                               "escaping": extra})
        entries.append(entry)
    return not violations, {"primes": entries, "violations": violations,
                            "nil_s": ctx.lits(ctx.nil_s.ideal.elements)}


@_statement(StatementId.NILS_S_ZERO, _s_reduced)
def _nils_s_zero(ctx: InstanceContext):
    killers = ctx.S.killers
    missing = [ctx.lit(a) for a in ctx.nil_s.ideal.elements if not killers[a]]
    return not missing, {"nil_s": ctx.lits(ctx.nil_s.ideal.elements),
                         "unwitnessed": missing}


@_statement(StatementId.LOCALIZATION_REDUCED, _s_reduced)
def _localization_reduced(ctx: InstanceContext):
    loc = ctx.localization
    ok = is_reduced(loc.ring)
    return ok, {"kernel": ctx.lits(loc.torsion_kernel.elements),
                "localized_size": loc.ring.size, "localized_reduced": ok}


def _localization_artinian_hypotheses(ctx: InstanceContext) -> dict:
    loc = ctx.localization.ring
    zdiv = zero_divisor_set(loc)
    return {"s_noetherian": True,  # every finite ring is
            "s_reduced": ctx.s_reduced.verdict,
            "localized_elements_zero_divisor_or_unit":
                all(loc.is_unit(x) or x in zdiv for x in range(1, loc.size))}


@_statement(StatementId.LOCALIZATION_ARTINIAN, _localization_artinian_hypotheses,
            notes=("degenerate hypotheses: every finite ring is S-Noetherian and Artinian",))
def _localization_artinian(ctx: InstanceContext):
    loc = ctx.localization
    loc_ideals = enumerate_ideals(loc.ring)
    primes = [I for I in loc_ideals if is_prime_ideal(I)]
    non_maximal = [I for I in primes if not is_maximal_ideal(I, loc_ideals)]
    return not non_maximal, {"localized_size": loc.ring.size,
                             "prime_count": len(primes),
                             "all_primes_maximal": not non_maximal}


@_statement(StatementId.PRODUCT_OF_FIELDS,
            lambda ctx: {"reduced": len(ctx.nilpotents) == 1,
                         "S_avoids_zero_divisors": not ctx.s_meets_zero_divisors,
                         "s_artinian": True},
            notes=(_S_ARTINIAN_NOTE,))
def _product_of_fields(ctx: InstanceContext):
    ring = ctx.ring
    primes, inter = ctx.primes_missing_s
    failures = []
    for P in primes:
        if not is_maximal_ideal(P, ctx.ideals):
            failures.append({"reason": "prime not maximal",
                             "prime": ctx.lits(P.elements)})
    if inter != 1:
        failures.append({"reason": "intersection of the primes is not zero",
                         "intersection": [ctx.lit(x) for x in mask_elements(inter)]})
    for i, P in enumerate(primes):
        for Q in primes[i + 1:]:
            if ideal_sum(P, Q).size != ring.size:
                failures.append({"reason": "primes not comaximal",
                                 "P": ctx.lits(P.elements), "Q": ctx.lits(Q.elements)})
    quotients = [QuotientRing(ring, P.mask) for P in primes]
    if failures:
        return False, {"failures": failures}
    product = ProductRing(tuple(quotients))
    phi = [product._join(q.project(r) for q in quotients) for r in range(ring.size)]
    if len(set(phi)) != ring.size or product.size != ring.size:
        failures.append({"reason": "map not bijective",
                         "image_size": len(set(phi)), "product_size": product.size})
    else:
        bad = next(((a, b) for a in range(ring.size) for b in range(ring.size)
                    if phi[ring.add(a, b)] != product.add(phi[a], phi[b])
                    or phi[ring.mul(a, b)] != product.mul(phi[a], phi[b])), None)
        if bad is not None:
            failures.append({"reason": "map not a homomorphism",
                             "a": ctx.lit(bad[0]), "b": ctx.lit(bad[1])})
    for q in quotients:
        if not all(q.is_unit(x) for x in range(1, q.size)):
            failures.append({"reason": "quotient is not a field", "size": q.size})
    return not failures, {"field_sizes": sorted(q.size for q in quotients),
                          "products_verified": ring.size * ring.size,
                          "failures": failures}


# the hypothesis holds by construction and only shows in the report
@_statement(StatementId.POLY_TRANSFER,
            lambda ctx: {"nondegenerate_mult_set": True},
            droppable=False)
def _poly_transfer(ctx: InstanceContext):
    # the degree falls from 2 until the coefficient vectors fit in
    # POLY_BUDGET; degree 0 walks every nilpotent, however many there are
    nilp = sorted(ctx.nilpotents)
    degree = 2
    while degree > 0 and len(nilp) ** (degree + 1) > POLY_BUDGET:
        degree -= 1
    count = len(nilp) ** (degree + 1)
    poly_ok = True
    violating = None
    killers = ctx.S.killers
    for vec in itertools.product(nilp, repeat=degree + 1):
        common = killers[ctx.ring.zero]
        for c in vec:
            common &= killers[c]
        if not common:
            poly_ok = False
            violating = [ctx.lit(c) for c in vec]
            break
    ring_ok = ctx.s_reduced.verdict
    return ring_ok == poly_ok, {"degree": degree, "mode": "exhaustive",
                                "polynomials_checked": count,
                                "ring_s_reduced": ring_ok, "nilpotent_poly_side": poly_ok,
                                "violating_coefficients": violating}


def _uniform_test(ctx: InstanceContext, tag: str, carrier: FiniteRing,
                  S: MultiplicativeSet):
    """The uniform zero-product test on ``carrier``, seeded by ``tag``.

    Carriers of at most ``EXHAUSTIVE_SIZE_LIMIT`` elements are tested to the
    higher degree in ``auto`` mode: walked exhaustively when their pair
    space fits the exhaustive budget (every such carrier at the default
    degree 2), sampled with their seed otherwise.  Larger carriers are
    sampled within the budget.  A carrier built over the instance ring also
    reports its size and the size of its multiplicative set.
    """
    if carrier.size <= EXHAUSTIVE_SIZE_LIMIT:
        degree, mode = ctx.cfg.exhaustive_degree, "auto"
    else:
        degree, mode = ctx.cfg.sampled_degree, "sampled"
    verdict = is_u_s_armendariz_up_to(
        carrier, S, degree, mode=mode,
        seed=derive_seed(ctx.cfg.seed, tag, ctx.instance.label),
        budget=ctx.cfg.budget)
    details = verdict.to_json(carrier)
    if carrier is not ctx.ring:
        details = {"carrier_size": carrier.size,
                   "mult_set_size": len(S.members), **details}
    return verdict.uniform_ok, details


@_statement(StatementId.U_S_RED_IMPLIES_U_S_ARM, _u_s_reduced)
def _u_s_red_implies_arm(ctx: InstanceContext):
    return _uniform_test(ctx, "usred-arm", ctx.ring, ctx.S)


@_statement(StatementId.E_RING_ARMENDARIZ, _s_reduced,
            bounds=lambda ctx: (("base_size", ctx.ring.size, E_BASE_LIMIT),))
def _e_ring_armendariz(ctx: InstanceContext):
    e_ring = TriangularERing(ctx.ring)
    constant_quadruples = mult_closure(
        e_ring, tuple(e_ring._join((s, s, s, s)) for s in ctx.S.members))
    return _uniform_test(ctx, "e-ring", e_ring, constant_quadruples)


@_statement(StatementId.IDEALIZATION_ARMENDARIZ, _u_s_reduced,
            bounds=lambda ctx: (("extension_size", ctx.ring.size ** 2,
                                 EXTENSION_SIZE_CAP),))
def _idealization_armendariz(ctx: InstanceContext):
    rr = IdealizationRing(ctx.ring, (QuotientRing(ctx.ring, 1),))
    # (s*s, s) as the digits (module, base): the module R/(0) indexes s as s
    square_pairs = mult_closure(
        rr, tuple(rr._join((s, ctx.ring.mul(s, s))) for s in ctx.S.members))
    return _uniform_test(ctx, "idealization", rr, square_pairs)


@_statement(StatementId.S_REDUCED_IMPLIES_HOPFIAN, _s_reduced)
def _s_reduced_implies_hopfian(ctx: InstanceContext):
    ring, S = ctx.ring, ctx.S
    violations = []
    max_k = 0
    for a, anns in enumerate(annihilator_chains(ring)):
        for n in range(len(anns) - 1):
            upper, lower = mask_elements(anns[n + 1]), anns[n]
            s = S.witness(upper, lower)
            if s is None:
                violations.append({"a": ctx.lit(a), "n": n + 1})
                break
            # independent containment re-check, element by element
            for y in upper:
                if not (lower >> ring.mul(s, y)) & 1:
                    violations.append({"a": ctx.lit(a), "n": n + 1,
                                       "s": ctx.lit(s), "y": ctx.lit(y)})
                    break
        max_k = max(max_k, len(anns))
    return not violations, {"elements_profiled": ring.size, "longest_chain": max_k,
                            "violations": violations}


@_statement(StatementId.S_PF_IMPLIES_S_REDUCED,
            lambda ctx: {"s_pf": ctx.s_pf.verdict},
            unmet=lambda ctx: {"failing_annihilator_of": ctx.lit(ctx.s_pf.failing)})
def _s_pf_implies_s_reduced(ctx: InstanceContext):
    ok = ctx.s_reduced.verdict
    return ok, {"s_reduced": ok,
                "failing": None if ok else ctx.lit(ctx.s_reduced.failing)}


def _structure_forward_hypotheses(ctx: InstanceContext) -> dict:
    hyp = {"s_reduced": ctx.s_reduced.verdict}
    if hyp["s_reduced"] and not ctx.s_minimal:
        hyp["s_minimal_primes_exist"] = False
    return hyp


@_statement(StatementId.STRUCTURE_FORWARD, _structure_forward_hypotheses)
def _structure_forward(ctx: InstanceContext):
    data = ctx.structure
    violations = []
    for x, s in data["torsion"].items():
        if s is None:
            violations.append({"reason": "kernel element not S-torsion",
                               "element": ctx.lit(x)})
    for info in data["quotients"]:
        if not info["surjective"]:
            violations.append({"reason": "projection not surjective",
                               "prime": ctx.lits(info["prime"].elements)})
        if not info["domain"]:
            violations.append({"reason": "quotient not an S-integral domain",
                               "prime": ctx.lits(info["prime"].elements)})
    return not violations, {
        "minimal_prime_count": len(ctx.s_minimal),
        "kernel": [ctx.lit(x) for x in mask_elements(data["kernel"])],
        "quotient_sizes": [info["quotient"].size for info in data["quotients"]],
        "violations": violations,
    }


def _structure_converse_hypotheses(ctx: InstanceContext) -> dict:
    hyp = {"s_minimal_primes_exist": bool(ctx.s_minimal)}
    if ctx.s_minimal:
        data = ctx.structure
        hyp["kernel_is_s_torsion"] = all(
            s is not None for s in data["torsion"].values())
        hyp["quotients_are_s_integral_domains"] = all(
            info["domain"] for info in data["quotients"])
    return hyp


@_statement(StatementId.STRUCTURE_CONVERSE, _structure_converse_hypotheses)
def _structure_converse(ctx: InstanceContext):
    ring, S = ctx.ring, ctx.S
    kernel = ctx.structure["kernel"]
    violations = []
    derived = {}
    for a in sorted(ctx.nilpotents):
        s_star = S.witness((a,), kernel)
        if s_star is None:
            violations.append({"reason": "no member maps the nilpotent into the kernel",
                               "a": ctx.lit(a)})
            continue
        u = S.least(S.killers[ring.mul(s_star, a)])
        if u is None:
            violations.append({"reason": "kernel element escaped S-torsion",
                               "a": ctx.lit(a)})
            continue
        combined = ring.mul(u, s_star)
        if combined not in S or ring.mul(combined, a) != ring.zero:
            violations.append({"reason": "combined witness failed re-check",
                               "a": ctx.lit(a)})
            continue
        derived[str(ctx.lit(a))] = ctx.lit(combined)
    return not violations, {"rederived_witnesses": derived, "violations": violations,
                            "s_reduced_confirmed": not violations}


@_statement(StatementId.NIL_IS_INTERSECTION,
            lambda ctx: {"S_avoids_zero_divisors": not ctx.s_meets_zero_divisors,
                         "zero_not_in_S": True})
def _nil_is_intersection(ctx: InstanceContext):
    primes, inter = ctx.primes_missing_s
    return inter == ctx.nil_mask, {
        "nilradical": [ctx.lit(x) for x in mask_elements(ctx.nil_mask)],
        "primes_disjoint_from_S": len(primes),
        "intersection": [ctx.lit(x) for x in mask_elements(inter)]}


@_statement(StatementId.NIL_NILPOTENT,
            lambda ctx: {"S_avoids_zero_divisors": not ctx.s_meets_zero_divisors,
                         "s_artinian": True},
            notes=(_S_ARTINIAN_NOTE,))
def _nil_nilpotent(ctx: InstanceContext):
    ring, nil_mask = ctx.ring, ctx.nil_mask
    if not is_ideal_mask(ring, nil_mask):
        return False, {"reason": "nilradical is not an ideal"}
    N = Ideal(ring, nil_mask)
    power = N
    k = 1
    seen = {power.mask}
    while power.mask != 1:
        power = ideal_product(power, N)
        k += 1
        if power.mask in seen:
            return False, {"reason": "power chain of the nilradical stabilized above zero",
                           "stuck_at": [ctx.lit(x) for x in power.elements]}
        seen.add(power.mask)
    return True, {"nilradical": [ctx.lit(x) for x in mask_elements(nil_mask)],
                  "nilpotency_index": k}


def check_statement(statement: StatementId, instance: CorpusInstance,
                    cfg: VerifyConfig | None = None,
                    ctx: InstanceContext | None = None) -> StatementReport:
    """Report hypotheses => conclusion on one instance.

    The conclusion is evaluated only when every hypothesis and scope bound
    holds.
    """
    cfg = cfg or VerifyConfig()
    if ctx is None:
        ctx = InstanceContext(instance, cfg)
    start = time.perf_counter()
    stmt = STATEMENTS[statement]
    bounds = stmt.bounds(ctx)
    hyp = {**stmt.hypotheses(ctx),
           **{f"{quantity}<={limit}": value <= limit
              for quantity, value, limit in bounds}}
    if all(hyp.values()):
        ok, details = stmt.conclusion(ctx)
        verdict = HOLDS if ok else VIOLATED
    else:
        verdict = HYP_NOT_MET
        details = {**{quantity: value for quantity, value, _ in bounds},
                   **stmt.unmet(ctx)}
    runtime = time.perf_counter() - start
    return StatementReport(statement, instance.label, instance.index,
                           hyp, verdict, details, stmt.notes, runtime)


# ---------------------------------------------------------------------------
# Catalog runner (optionally fanned out across processes)

_STATEMENT_ORDER = {stmt: i for i, stmt in enumerate(StatementId)}


def _check_instance(instance: CorpusInstance, cfg: VerifyConfig,
                    statements) -> list[StatementReport]:
    """Reports for ``statements`` on one instance, sharing one context."""
    ctx = InstanceContext(instance, cfg)
    return [check_statement(stmt, instance, cfg, ctx) for stmt in statements]


def default_workers() -> int:
    """SRING_THREADS when set, else the CPU count; raises SRingError when the
    variable is set to anything but a positive integer."""
    env = os.environ.get("SRING_THREADS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SRingError(f"SRING_THREADS must be a positive integer, got {env!r}")
    return workers


def run_catalog(instances: list[CorpusInstance], cfg: VerifyConfig | None = None,
                statements: list[StatementId] | None = None,
                workers: int | None = None) -> list[StatementReport]:
    """Check every statement against every instance.

    With more than one worker the instances are distributed over processes;
    the merged report list is sorted into (statement, instance) order either
    way, so worker scheduling never shows in the output.
    """
    cfg = cfg or VerifyConfig()
    statements = statements or list(StatementId)
    workers = workers if workers is not None else default_workers()
    check = partial(_check_instance, cfg=cfg, statements=statements)
    # a statement subset runs serially: starting the pool and rebuilding
    # every pickled ring in the workers costs more than one cheap statement
    # over a few rings (S_PF_IMPLIES_S_REDUCED over the benchmark's three
    # large rings, 2 cores: 33-35 ms at 2 workers, 11 ms serial)
    if workers > 1 and len(instances) > 1 and set(statements) == set(StatementId):
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=min(workers, len(instances))) as pool:
            batches = list(pool.map(check, instances))
    else:
        batches = map(check, instances)
    return sorted(itertools.chain.from_iterable(batches),
                  key=lambda r: (_STATEMENT_ORDER[r.statement], r.instance_index))


def summarize(reports: list[StatementReport]) -> str:
    """Plain text table: statement x verdict counts plus accumulated time."""
    rows = {}
    for r in reports:
        row = rows.setdefault(r.statement,
                              {"holds": 0, "hyp": 0, "violated": 0, "time": 0.0})
        if r.verdict == HOLDS:
            row["holds"] += 1
        elif r.verdict == HYP_NOT_MET:
            row["hyp"] += 1
        else:
            row["violated"] += 1
        row["time"] += r.runtime
    width = max(len(s.name) for s in StatementId)
    lines = [f"{'statement':<{width}}  holds  hyp-not-met  violated  time(s)"]
    for stmt in StatementId:
        if stmt not in rows:
            continue
        row = rows[stmt]
        lines.append(f"{stmt.name:<{width}}  {row['holds']:>5}  "
                     f"{row['hyp']:>11}  {row['violated']:>8}  {row['time']:>7.2f}")
    total_violated = sum(row["violated"] for row in rows.values())
    total_time = sum(row["time"] for row in rows.values())
    lines.append(f"{'TOTAL':<{width}}  {sum(r['holds'] for r in rows.values()):>5}  "
                 f"{sum(r['hyp'] for r in rows.values()):>11}  "
                 f"{total_violated:>8}  {total_time:>7.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Counterexample search


@dataclass
class SearchResult:
    statement: StatementId
    variant: str
    found: bool
    supported: bool
    scanned: int
    instance: dict | None = None
    payload: dict | None = None
    shrink_steps: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {**asdict(self), "statement": self.statement.name}


SEARCH_VARIANTS = ("full", "drop-hypothesis", "converse")


def _variant_payload(statement: StatementId, variant: str,
                     instance: CorpusInstance, cfg: VerifyConfig):
    """The payload of a hit on one instance, or None.

    ``full`` hits a VIOLATED report.  ``drop-hypothesis`` hits a false
    hypothesis with a failing conclusion, ``converse`` a false hypothesis
    with a holding one; scope bounds must hold for either.  Their payload
    names the false hypotheses next to the conclusion's details.
    """
    ctx = InstanceContext(instance, cfg)
    if variant == "full":
        report = check_statement(statement, instance, cfg, ctx)
        return report.to_json() if report.verdict == VIOLATED else None
    stmt = STATEMENTS[statement]
    if stmt.records is not None:
        cases = stmt.records(ctx)
    elif all(value <= limit for _, value, limit in stmt.bounds(ctx)):
        cases = [(stmt.hypotheses(ctx), None)]
    else:
        return None
    for hyp, result in cases:
        false = [name for name, holds in hyp.items() if not holds]
        if not false:
            continue
        ok, details = stmt.conclusion(ctx) if result is None else result
        if ok == (variant == "converse"):
            return {"false_hypotheses": false, **details}
    return None


def _shrink_ring_moves(expr):
    """Smaller construction expressions, most aggressive shrink first."""
    if isinstance(expr, ZMod):
        for d in range(2, expr.n):
            if expr.n % d == 0:
                yield ZMod(d), None
    elif isinstance(expr, Product) and len(expr.factors) > 1:
        for i in range(len(expr.factors)):
            rest = expr.factors[:i] + expr.factors[i + 1:]
            yield rest[0] if len(rest) == 1 else Product(rest), ("drop-factor", i)
    elif isinstance(expr, (Idealization, TriangularE)):
        yield expr.base, ("take-base", None)


def _project_generator_literal(lit, move):
    kind, arg = move
    if not isinstance(lit, tuple) or not lit:
        return lit
    if kind == "take-base":
        return lit[0]
    if len(lit) > 1:  # drop-factor
        reduced = lit[:arg] + lit[arg + 1:]
        return reduced[0] if len(reduced) == 1 else reduced
    return lit


def _shrink_candidates(instance: CorpusInstance, max_size: int):
    ring, S = instance.ring, instance.mult_set
    gens_lits = [ring.decode(g) for g in S.gens]
    for expr, move in _shrink_ring_moves(ring.expression):
        lits = gens_lits if move is None else [
            _project_generator_literal(lit, move) for lit in gens_lits]
        try:
            new_ring = build_ring(expr, size_cap=max_size)
            new_gens = tuple(new_ring.encode(lit) for lit in lits)
            new_gens = tuple(g for g in new_gens if g != new_ring.zero) or (new_ring.one,)
            new_S = mult_closure(new_ring, new_gens)
        except (MalformedExpressionError, SizeCapExceededError, ZeroInClosureError):
            continue
        yield CorpusInstance(f"{instance.label}~shrunk", "shrunk", new_ring, new_S)
    if len(S.gens) > 1:
        for i in range(len(S.gens)):
            new_gens = S.gens[:i] + S.gens[i + 1:]
            try:
                new_S = mult_closure(ring, new_gens)
            except ZeroInClosureError:
                continue
            yield CorpusInstance(f"{instance.label}~shrunk", "shrunk", ring, new_S)


def counterexample_search(statement: StatementId, variant: str = "full",
                          corpus_config: CorpusConfig | None = None,
                          cfg: VerifyConfig | None = None) -> SearchResult:
    """Scan the corpus for the requested violation pattern, then shrink.

    Shrinking greedily prefers a smaller carrier, then fewer generators,
    and keeps going while the pattern persists.  A hit from the ``full``
    variant is a genuine soundness problem, never an expected outcome.
    """
    corpus_config = corpus_config or CorpusConfig()
    cfg = cfg or VerifyConfig()
    if variant not in SEARCH_VARIANTS or (
            variant != "full" and not STATEMENTS[statement].droppable):
        return SearchResult(statement, variant, False, False, 0)
    instances = generate_corpus(corpus_config)
    for scanned, inst in enumerate(instances, start=1):
        payload = _variant_payload(statement, variant, inst, cfg)
        if payload is None:
            continue
        steps = []
        current, current_payload = inst, payload
        improved = True
        while improved:
            improved = False
            for cand in _shrink_candidates(current, corpus_config.max_size):
                key_now = (current.ring.size, len(current.mult_set.gens))
                key_cand = (cand.ring.size, len(cand.mult_set.gens))
                if key_cand >= key_now:
                    continue
                cand_payload = _variant_payload(statement, variant, cand, cfg)
                if cand_payload is not None:
                    steps.append({"ring": cand.ring.label,
                                  "size": cand.ring.size,
                                  "generators": len(cand.mult_set.gens)})
                    current, current_payload = cand, cand_payload
                    improved = True
                    break
        return SearchResult(statement, variant, True, True, scanned,
                            instance=current.to_json(), payload=current_payload,
                            shrink_steps=steps)
    return SearchResult(statement, variant, False, True, len(instances))
