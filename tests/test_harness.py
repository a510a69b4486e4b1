"""Corpus generation, statement checks, and the counterexample searcher."""

import json

import pytest

from sring import (
    CorpusConfig,
    Idealization,
    ModuleSpec,
    Product,
    StatementId,
    TriangularE,
    VerifyConfig,
    ZMod,
    build_ring,
    check_statement,
    counterexample_search,
    generate_corpus,
    harness,
    mult_closure,
    run_catalog,
)
from sring.harness import HOLDS, HYP_NOT_MET, CorpusInstance, _shrink_candidates
from sring.rings import expression_label, thaw_literal


@pytest.fixture(scope="module")
def curated():
    return generate_corpus(CorpusConfig(count=0))


@pytest.fixture(scope="module")
def by_label(curated):
    return {inst.label: inst for inst in curated}


def test_default_corpus_layout():
    corpus = generate_corpus(CorpusConfig())
    assert corpus[0].label == "z24-pow2"
    assert corpus[0].to_json()["ring"] == {"type": "zmod", "n": 24}
    assert corpus[0].to_json()["mult_set"] == {"generators": [2]}
    assert corpus[0].mult_set.members == (1, 2, 4, 8, 16)
    seeded = [inst for inst in corpus if inst.origin == "seeded"]
    assert len(seeded) == 30
    for inst in seeded:
        S = inst.mult_set
        assert inst.ring.size <= 64
        assert inst.ring.one in S.members
        assert inst.ring.zero not in S
        for a in S.members:
            for b in S.members:
                assert inst.ring.mul(a, b) in S


def test_corpus_is_deterministic():
    a = json.dumps([i.to_json() for i in generate_corpus(CorpusConfig())],
                   sort_keys=True)
    b = json.dumps([i.to_json() for i in generate_corpus(CorpusConfig())],
                   sort_keys=True)
    assert a == b


def test_spectrum_s_zero_on_z24(by_label):
    report = check_statement(StatementId.SPECTRUM_S_ZERO, by_label["z24-pow2"])
    assert report.verdict == HOLDS
    assert report.details["intersection"] == [0]
    assert report.details["spectrum_size"] == 4


def test_spectrum_s_zero_hypothesis_gate(by_label):
    report = check_statement(StatementId.SPECTRUM_S_ZERO, by_label["z4-s3"])
    assert report.verdict == HYP_NOT_MET
    assert report.hypotheses["s_reduced"] is False


def test_product_of_fields_z30(by_label):
    report = check_statement(StatementId.PRODUCT_OF_FIELDS, by_label["z30-unit"])
    assert report.verdict == HOLDS
    assert report.details["field_sizes"] == [2, 3, 5]
    assert report.details["products_verified"] == 900


def test_s_radical_quotient_z24_skips_bad_ideals(by_label):
    report = check_statement(StatementId.S_RADICAL_QUOTIENT, by_label["z24-pow2"])
    assert report.verdict == HOLDS
    assert report.details["ideals_skipped"] >= 1
    assert report.details["ideals_checked"] >= 1
    assert report.details["violations"] == []


def test_structure_theorem_on_z24(by_label):
    fwd = check_statement(StatementId.STRUCTURE_FORWARD, by_label["z24-pow2"])
    assert fwd.verdict == HOLDS
    assert fwd.details["minimal_prime_count"] == 4
    conv = check_statement(StatementId.STRUCTURE_CONVERSE, by_label["z24-pow2"])
    assert conv.verdict == HOLDS
    assert conv.details["s_reduced_confirmed"]


def test_localization_artinian_notes_degeneracy(by_label):
    report = check_statement(StatementId.LOCALIZATION_ARTINIAN, by_label["z24-pow2"])
    assert report.verdict == HOLDS
    assert any("degenerate" in note for note in report.notes)
    assert report.details["all_primes_maximal"]


def test_nil_nilpotent_gates_and_holds(by_label):
    gated = check_statement(StatementId.NIL_NILPOTENT, by_label["z24-pow2"])
    assert gated.verdict == HYP_NOT_MET  # 2 is a zero divisor of Z24
    held = check_statement(StatementId.NIL_NILPOTENT, by_label["z4-halfdual"])
    assert held.verdict in (HOLDS, HYP_NOT_MET)
    z5 = check_statement(StatementId.NIL_NILPOTENT, by_label["z5-unit"])
    assert z5.verdict == HOLDS and z5.details["nilpotency_index"] == 1


def test_poly_transfer_equivalence_both_ways(by_label):
    ok = check_statement(StatementId.POLY_TRANSFER, by_label["z24-pow2"])
    assert ok.verdict == HOLDS and ok.details["ring_s_reduced"]
    neg = check_statement(StatementId.POLY_TRANSFER, by_label["z4-s3"])
    assert neg.verdict == HOLDS
    assert not neg.details["ring_s_reduced"]
    assert not neg.details["nilpotent_poly_side"]


def test_poly_transfer_walks_degree_zero_exhaustively(by_label, monkeypatch):
    # Z24 has 4 nilpotents: with a budget of 2 the degree falls to 0, where
    # every nilpotent is checked however many there are
    monkeypatch.setattr(harness, "POLY_BUDGET", 2)
    report = check_statement(StatementId.POLY_TRANSFER, by_label["z24-pow2"])
    assert report.verdict == HOLDS
    assert report.details["degree"] == 0
    assert report.details["polynomials_checked"] == 4
    assert report.details["mode"] == "exhaustive"


def test_e_ring_entry_gates_on_base_size(by_label):
    report = check_statement(StatementId.E_RING_ARMENDARIZ, by_label["z24-pow2"])
    assert report.verdict == HYP_NOT_MET
    assert report.details["base_size"] == 24


# Z_n instances and one quotient, one product and one idealization, so that
# every carrier family of the corpus crosses the worker boundary
FANOUT_LABELS = ("z4-s3", "z5-unit", "z24-pow2", "z24-mod3", "z2xz2-proj", "z4-halfdual")


def test_catalog_worker_fanout_matches_serial(by_label):
    # a subset keeps its corpus indices, which are not list positions
    instances = [by_label[label] for label in FANOUT_LABELS]
    cfg = VerifyConfig(budget=2000)
    serial = [r.to_json() for r in run_catalog(instances, cfg, workers=1)]
    fanned = [r.to_json() for r in run_catalog(instances, cfg, workers=2)]
    assert serial == fanned
    assert {r["instance_index"] for r in fanned} == {inst.index for inst in instances}
    assert {inst.index for inst in instances} != set(range(len(instances)))


SPAWN_FANOUT = """
import json, multiprocessing, sys
from sring import CorpusConfig, VerifyConfig, generate_corpus, run_catalog
multiprocessing.set_start_method("spawn")
by_label = {inst.label: inst for inst in generate_corpus(CorpusConfig(count=0))}
instances = [by_label[label] for label in sys.argv[1:]]
cfg = VerifyConfig(budget=2000)
json.dump([[r.to_json() for r in run_catalog(instances, cfg, workers=workers)]
           for workers in (1, 2)], sys.stdout)
"""


def test_catalog_fanout_under_spawn_matches_serial():
    # spawn workers import the package afresh and receive every ring by pickle
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sring
    src = str(Path(sring.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", SPAWN_FANOUT, *FANOUT_LABELS],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    serial, fanned = json.loads(done.stdout)
    assert len(serial) == 18 * len(FANOUT_LABELS)
    assert serial == fanned


def test_rings_and_instances_pickle_as_their_expressions(by_label):
    import pickle

    from sring import ZMod, build_ring
    from sring.rings import (IdealizationRing, ProductRing, QuotientRing, TriangularERing,
                             ideal_span)
    z4, z24 = build_ring(ZMod(4)), build_ring(ZMod(24))
    rings = [z24, ProductRing((z4, build_ring(ZMod(6)))),
             QuotientRing(z24, ideal_span(z24, [8])),
             IdealizationRing(z4, (QuotientRing(z4, ideal_span(z4, [2])),)),
             TriangularERing(build_ring(ZMod(3)))]
    for ring in rings:
        copy = pickle.loads(pickle.dumps(ring))
        assert type(copy) is type(ring) and copy.expression == ring.expression
        assert [copy.decode(x) for x in range(copy.size)] == \
            [ring.decode(x) for x in range(ring.size)], ring.label
        pairs = [(a, b) for a in range(ring.size) for b in range(ring.size)]
        assert [copy.mul(a, b) for a, b in pairs] == [ring.mul(a, b) for a, b in pairs]
    for label in FANOUT_LABELS:
        inst = by_label[label]
        copy = pickle.loads(pickle.dumps(inst))
        assert (copy.label, copy.index) == (inst.label, inst.index)
        assert copy.mult_set.ring is copy.ring
        assert copy.mult_set.members == inst.mult_set.members


def test_search_full_finds_nothing_on_sound_statement():
    result = counterexample_search(
        StatementId.SPECTRUM_S_ZERO, "full",
        CorpusConfig(count=4), VerifyConfig(budget=2000))
    assert result.supported and not result.found
    assert result.scanned >= 4


def test_search_drop_hypothesis_radical_quotient():
    result = counterexample_search(
        StatementId.S_RADICAL_QUOTIENT, "drop-hypothesis",
        CorpusConfig(count=0), VerifyConfig())
    assert result.found
    # the shrunk witness keeps the pattern: quotient S-reduced, ideal not S-radical
    assert result.payload["s_radical"] is False
    assert result.payload["quotient_s_reduced"] is True
    assert result.instance["ring"]["n"] <= 24


def test_search_drop_hypothesis_payload_rechecks_naively():
    result = counterexample_search(
        StatementId.SPECTRUM_S_ZERO, "drop-hypothesis",
        CorpusConfig(count=0), VerifyConfig())
    assert result.found
    from sring import build_ring, mult_closure, parse_ring_data
    ring, S = parse_ring_data({k: result.instance[k] for k in ("ring", "mult_set")})
    x = ring.encode(result.payload["unwitnessed"][0])
    # naive double-entry recheck: x is S-prime-universal yet never S-killed
    assert all(ring.mul(s, x) != ring.zero for s in S.members)
    for mask in _naive_ideal_masks(ring):
        if _naive_is_s_prime(ring, S, mask):
            assert (mask >> x) & 1


def _naive_ideal_masks(ring):
    # every ideal is an additive subgroup absorbing multiplication; sizes
    # here are tiny, so scan all subsets of a small ring directly
    if ring.size > 8:
        masks = set()
        for g in range(ring.size):
            elems = {0}
            frontier = {ring.mul(r, g) for r in range(ring.size)}
            elems |= frontier
            changed = True
            while changed:
                changed = False
                for a in list(elems):
                    for b in list(elems):
                        s = ring.add(a, b)
                        if s not in elems:
                            elems.add(s)
                            changed = True
            masks.add(sum(1 << e for e in elems))
        return masks
    out = []
    for bits in range(1, 1 << ring.size):
        if not bits & 1:
            continue
        elems = [x for x in range(ring.size) if (bits >> x) & 1]
        if len(elems) == ring.size:
            continue
        closed = all(ring.add(a, b) in elems for a in elems for b in elems)
        absorbing = all(ring.mul(r, a) in elems
                        for r in range(ring.size) for a in elems)
        if closed and absorbing:
            out.append(bits)
    return out


def _naive_is_s_prime(ring, S, mask):
    if mask & S.mask:
        return False
    for s in S.members:
        ok = True
        for a in range(ring.size):
            for b in range(ring.size):
                if (mask >> ring.mul(a, b)) & 1:
                    if not ((mask >> ring.mul(s, a)) & 1
                            or (mask >> ring.mul(s, b)) & 1):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return True
    return False


def test_search_converse_u_s_red():
    result = counterexample_search(
        StatementId.U_S_RED_IMPLIES_U_S_ARM, "converse",
        CorpusConfig(count=0), VerifyConfig(budget=2000))
    # Z4 with S = {1,3} is u-S-Armendariz up to the bound but not u-S-reduced
    assert result.found
    assert result.payload["false_hypotheses"] == ["u_s_reduced"]


def test_search_converse_hopfian_and_unsupported_variant():
    # the converse evaluates the chain conclusion instead of assuming it: in
    # Z4/{1,3}, ann(2) < ann(0) = Z4 and no member of S maps Z4 into ann(2),
    # so Z4/{1,3} drops the hypothesis and the conclusion together
    result = counterexample_search(
        StatementId.S_REDUCED_IMPLIES_HOPFIAN, "converse",
        CorpusConfig(count=0), VerifyConfig())
    assert result.supported and not result.found and result.scanned == 15
    result = counterexample_search(
        StatementId.S_REDUCED_IMPLIES_HOPFIAN, "drop-hypothesis",
        CorpusConfig(count=0), VerifyConfig())
    assert result.found and result.instance["ring"] == {"type": "zmod", "n": 4}
    assert result.payload["false_hypotheses"] == ["s_reduced"]
    assert result.payload["violations"] == [{"a": 2, "n": 1}]
    result = counterexample_search(
        StatementId.NIL_NILPOTENT, "no-such-variant", CorpusConfig(count=0), VerifyConfig())
    assert not result.supported and not result.found


SHRINK_CASES = [
    (Product((ZMod(4), ZMod(3))), [(3, 1), (1, 2)],
     [("Z3", [1, 2]), ("Z4", [3, 1]), ("Z4xZ3", [[1, 2]]), ("Z4xZ3", [[3, 1]])]),
    (Product((ZMod(4), ZMod(3), ZMod(2))), [(3, 2, 1)],
     [("Z3xZ2", [[2, 1]]), ("Z4xZ2", [[3, 1]]), ("Z4xZ3", [[3, 2]])]),
    (Idealization(ZMod(4), ModuleSpec(((0,),))), [(3, (1,))], [("Z4", [3])]),
    (TriangularE(ZMod(2)), [(1, 1, 0, 0)], [("Z2", [1])]),
]


@pytest.mark.parametrize("expr,gens,expected", SHRINK_CASES,
                         ids=[expression_label(case[0]) for case in SHRINK_CASES])
def test_shrink_candidates_on_structured_carriers(expr, gens, expected):
    """Factor drops, base takes and generator drops, each with the
    generators projected onto the smaller carrier."""
    ring = build_ring(expr)
    S = mult_closure(ring, tuple(ring.encode(g) for g in gens))
    inst = CorpusInstance("hit", "test", ring, S)
    candidates = list(_shrink_candidates(inst, 64))
    assert [(c.ring.label, [thaw_literal(c.ring.decode(g)) for g in c.mult_set.gens])
            for c in candidates] == expected
    assert {(c.label, c.origin) for c in candidates} == {("hit~shrunk", "shrunk")}


def assert_rebuilds(q):
    """build_ring(q.expression) names the same elements in the same order."""
    from sring import build_ring
    rebuilt = build_ring(q.expression, size_cap=max(q.size, q.base.size))
    assert [rebuilt.decode(x) for x in range(rebuilt.size)] == \
        [q.decode(x) for x in range(q.size)], q.expression
    pairs = [(a, b) for a in range(q.size) for b in range(q.size)]
    assert [rebuilt.mul(a, b) for a, b in pairs] == [q.mul(a, b) for a, b in pairs]


def test_quotient_expressions_rebuild_the_quotient(by_label):
    from sring import localize
    from sring.harness import InstanceContext
    from sring.rings import IdealizationRing, QuotientRing
    inst = by_label["z24-pow2"]
    ctx = InstanceContext(inst, VerifyConfig())
    quotients = [QuotientRing(ctx.ring, I.mask) for I in ctx.proper_ideals]
    assert len(quotients) == 7
    z24 = build_ring(ZMod(24))
    for gens in ((2,), (3,), (9,)):
        loc = localize(z24, mult_closure(z24, gens)).ring
        assert 1 < loc.size < 24
        quotients.append(loc)
    rr = build_ring(Idealization(ZMod(12), ModuleSpec(((4,), (0,), (6, 9)))))
    quotients += rr.module.digits
    quotients += IdealizationRing(z24, (QuotientRing(z24, 1),)).module.digits
    # an idealization built from its components names each by its quotient:
    # Z4 (+) Z4/(2) has 8 elements
    z4 = build_ring(ZMod(4))
    quotients.append(IdealizationRing(z4, (QuotientRing(z4, 5),)))
    assert quotients[-1].size == 8
    for q in quotients:
        assert_rebuilds(q)
