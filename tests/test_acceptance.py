"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2, 3, 5, 6, 7, 9, 11, 12, 13 read the report stream of a full
default-corpus verification run; criterion 14 compares that run byte for
byte against a second one.  The instance-specific criteria recompute their
values directly with independent oracles.

The wall-clock targets assume a 4-core machine (the runner fans instances
out across processes); on fewer cores the per-criterion budgets below are
the per-statement accumulated CPU times from the run summary.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from sring import (
    CorpusConfig,
    StatementId,
    VerifyConfig,
    ZMod,
    build_ring,
    counterexample_search,
    enumerate_ideals,
    generate_corpus,
    is_reduced,
    is_s_pf,
    is_s_reduced,
    is_u_s_armendariz_up_to,
    localize,
    mult_closure,
    nilpotent_profile,
    s_spectrum,
    spectrum_intersection,
)
from sring.cli import main as cli_main
from sring.ideals import colon_elem, is_prime_ideal, is_s_prime
from sring.rings import TriangularERing

GOLDEN = Path(__file__).parent / "golden"


def _accept(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    streams = []
    summaries = []
    for tag in ("a", "b"):
        out = tmp / f"run_{tag}.jsonl"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["verify", "--all", "--seed", "42",
                             "--jsonl", str(out)])
        assert code == 0, "default verification run reported a violation"
        streams.append(out.read_bytes())
        summaries.append(buf.getvalue())
    docs = [json.loads(line) for line in streams[0].decode().splitlines()]
    assert "manifest" in docs[0] and docs[0]["manifest"]["seed"] == 42
    return {"streams": streams, "reports": docs[1:], "summary": summaries[0]}


def _reports_for(runs, statement):
    return [r for r in runs["reports"] if r["statement"] == statement.name]


def _stmt_seconds(runs, statement):
    for line in runs["summary"].splitlines():
        parts = line.split()
        if parts and parts[0] == statement.name:
            return float(parts[-1])
    raise AssertionError(f"no summary row for {statement.name}")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig())


def test_criterion_01_worked_example_reproduction(z24, s24):
    start = time.perf_counter()
    profile = nilpotent_profile(z24)
    cert = is_s_reduced(z24, s24)
    elapsed = time.perf_counter() - start
    assert sorted(profile) == [0, 6, 12, 18]
    assert profile[6] == 3
    assert not is_reduced(z24)
    assert cert.verdict
    for a in (6, 12, 18):
        assert z24.mul(4, a) == 0  # s = 4 witnesses every nonzero nilpotent
        assert z24.mul(cert.witnesses[a], a) == 0
    assert cert.uniform_witness == 4
    assert elapsed < 1.0
    _accept(1, f"nilpotents {{0,6,12,18}}, S-reduced, uniform witness 4 "
               f"({elapsed:.3f}s)")


def test_criterion_02_spectrum_intersection_s_zero(verify_runs):
    reports = _reports_for(verify_runs, StatementId.SPECTRUM_S_ZERO)
    violated = [r for r in reports if r["verdict"] == "VIOLATED"]
    held = [r for r in reports if r["verdict"] == "holds"]
    assert not violated
    assert len(held) >= 10
    for r in held:
        assert r["hypotheses"]["s_reduced"] and r["hypotheses"]["zero_not_in_S"]
        assert r["details"]["unwitnessed"] == []
    seconds = _stmt_seconds(verify_runs, StatementId.SPECTRUM_S_ZERO)
    assert seconds < 60.0
    _accept(2, f"{len(held)} S-reduced instances, zero violations "
               f"({seconds:.2f}s accumulated)")


def test_criterion_03_dual_criterion_agreement(corpus):
    start = time.perf_counter()
    ideals_checked = 0
    disagreements = 0
    for inst in corpus:
        ring, S = inst.ring, inst.mult_set
        for ideal in enumerate_ideals(ring):
            if not ideal.is_proper:
                continue
            ideals_checked += 1
            # library definitional verdict (internally cross-checked too)
            witness = is_s_prime(S, ideal)
            # independent colon-criterion oracle, written out longhand
            colon_says = False
            if not (ideal.mask & S.mask):
                for s in S.members:
                    colon = colon_elem(ideal, s)
                    if is_prime_ideal(colon):
                        colon_says = True
                        break
            if (witness is not None) != colon_says:
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0
    _accept(3, f"{ideals_checked} ideals, zero disagreements ({elapsed:.2f}s)")


def test_criterion_04_z24_spectrum_golden(z24, s24):
    spectrum = s_spectrum(z24, s24)
    doc = {
        "spectrum": [
            {"ideal": list(I.elements), "witness_s": w.s,
             "colon_prime": list(w.colon_prime.elements)}
            for I, w in spectrum
        ],
        "intersection": list(spectrum_intersection(z24, spectrum).elements),
    }
    golden = json.loads((GOLDEN / "z24_spectrum.json").read_text())
    assert doc == golden
    members = {I.elements for I, _ in spectrum}
    assert members == {(0,), (0, 12), (0, 6, 12, 18), tuple(range(0, 24, 3))}
    # naive definitional re-check of every spectrum member and non-member
    def naive_s_prime(mask):
        if mask & s24.mask:
            return False
        for s in s24.members:
            if all((mask >> z24.mul(s, a)) & 1 or (mask >> z24.mul(s, b)) & 1
                   for a in range(24) for b in range(24)
                   if (mask >> z24.mul(a, b)) & 1):
                return True
        return False
    spectrum_masks = {I.mask for I, _ in spectrum}
    for ideal in enumerate_ideals(z24):
        if ideal.is_proper:
            assert naive_s_prime(ideal.mask) == (ideal.mask in spectrum_masks)
    _accept(4, "spectrum {(0),(12),(6),(3)}, colon primes (3), intersection (0)")


def test_criterion_05_radical_quotient_equivalence(verify_runs):
    reports = _reports_for(verify_runs, StatementId.S_RADICAL_QUOTIENT)
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    checked = sum(r["details"].get("ideals_checked", 0) for r in reports)
    assert checked > 0
    result = counterexample_search(StatementId.S_RADICAL_QUOTIENT,
                                   "drop-hypothesis", CorpusConfig(count=0),
                                   VerifyConfig())
    assert result.found
    assert result.payload["s_radical"] is False
    assert result.payload["quotient_s_reduced"] is True
    _accept(5, f"{checked} hypothesis-passing ideals equivalent; "
               f"dropping the hypothesis fails on {result.instance['ring']}")


def test_criterion_06_intersection_vs_product(verify_runs):
    reports = _reports_for(verify_runs, StatementId.INTERSECTION_VS_PRODUCT)
    held = [r for r in reports if r["verdict"] == "holds"]
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    pairs = sum(r["details"]["pairs_checked"] for r in held)
    assert pairs > 0
    _accept(6, f"{pairs} ideal pairs equivalent across {len(held)} instances")


def test_criterion_07_localization(z24, s24, verify_runs):
    loc = localize(z24, s24)
    assert loc.torsion_kernel.elements == tuple(range(0, 24, 3))
    assert loc.ring.size == 3
    assert is_reduced(loc.ring)
    assert all(loc.ring.is_unit(x) for x in range(1, 3))
    reports = _reports_for(verify_runs, StatementId.LOCALIZATION_REDUCED)
    held = [r for r in reports if r["verdict"] == "holds"]
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    assert all(r["details"]["localized_reduced"] for r in held)
    _accept(7, f"Z24 localizes to the field of size 3; "
               f"{len(held)} S-reduced instances localize reduced")


def test_criterion_08_product_of_fields():
    z30 = build_ring(ZMod(30))
    s = mult_closure(z30, (1,))
    from sring.harness import CorpusInstance, check_statement
    inst = CorpusInstance("z30", "test", z30, s, 0)
    start = time.perf_counter()
    report = check_statement(StatementId.PRODUCT_OF_FIELDS, inst)
    elapsed = time.perf_counter() - start
    assert report.verdict == "holds"
    assert report.details["field_sizes"] == [2, 3, 5]
    assert report.details["products_verified"] == 900
    # independent CRT oracle on all 900 products
    phi = lambda r: (r % 2, r % 3, r % 5)
    assert len({phi(r) for r in range(30)}) == 30
    for a in range(30):
        for b in range(30):
            pa, pb = phi(a), phi(b)
            assert phi((a + b) % 30) == tuple((x + y) % m for x, y, m
                                              in zip(pa, pb, (2, 3, 5)))
            assert phi((a * b) % 30) == tuple((x * y) % m for x, y, m
                                              in zip(pa, pb, (2, 3, 5)))
    assert elapsed < 1.0
    _accept(8, f"Z30 into fields of sizes 2,3,5; isomorphism verified "
               f"({elapsed:.3f}s)")


def test_criterion_09_uniform_armendariz_over_corpus(verify_runs):
    reports = _reports_for(verify_runs, StatementId.U_S_RED_IMPLIES_U_S_ARM)
    held = [r for r in reports if r["verdict"] == "holds"]
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    assert held
    by_instance = {r["instance"]: r for r in held}
    small = by_instance["z12-s4"]
    assert small["details"]["mode"] == {"degree": 2, "search": "exhaustive",
                                        "seed": None, "budget": 100000}
    large = by_instance["z24-pow2"]
    assert large["details"]["mode"]["search"] == "sampled"
    assert large["details"]["mode"]["degree"] == 1
    assert large["details"]["mode"]["budget"] == 100000
    assert large["details"]["pairs_checked"] == 100000
    for r in held:
        assert r["details"]["uniform_witness"] is not None
    seconds = _stmt_seconds(verify_runs, StatementId.U_S_RED_IMPLIES_U_S_ARM)
    assert seconds < 120.0
    _accept(9, f"{len(held)} uniformly-S-reduced instances pass "
               f"({seconds:.2f}s accumulated)")


def test_criterion_10_triangular_carrier(z12, s12, verify_runs):
    reports = _reports_for(verify_runs, StatementId.E_RING_ARMENDARIZ)
    catalog = next(r for r in reports if r["instance"] == "z12-s4")
    assert catalog["verdict"] == "holds"
    assert catalog["details"]["carrier_size"] == 20736
    assert catalog["details"]["mode"]["search"] == "sampled"
    # the criterion's exact construction: S' generated by the constant-4 matrix
    carrier = TriangularERing(z12)
    s_prime = mult_closure(carrier, (carrier.encode((4, 4, 4, 4)),))
    verdict = is_u_s_armendariz_up_to(carrier, s_prime, 1, mode="sampled",
                                      seed=42, budget=100_000)
    assert verdict.uniform_ok and verdict.per_pair_ok
    assert verdict.pairs_checked == 100_000
    assert verdict.per_pair_violation is None
    _accept(10, f"size-20736 carrier passes 100000 sampled pairs, uniform "
                f"witness {carrier.decode(verdict.uniform_witness)}")


def test_criterion_11_hopfian_chains(verify_runs):
    reports = _reports_for(verify_runs, StatementId.S_REDUCED_IMPLIES_HOPFIAN)
    held = [r for r in reports if r["verdict"] == "holds"]
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    for r in held:
        assert r["details"]["violations"] == []
        assert r["details"]["elements_profiled"] > 0
    _accept(11, f"annihilator chains stationary on {len(held)} instances")


def test_criterion_12_s_pf_implies_s_reduced(verify_runs):
    reports = _reports_for(verify_runs, StatementId.S_PF_IMPLIES_S_REDUCED)
    assert all(r["verdict"] != "VIOLATED" for r in reports)
    z4 = build_ring(ZMod(4))
    s4 = mult_closure(z4, (3,))
    assert not is_s_pf(z4, s4).verdict
    assert not is_s_reduced(z4, s4).verdict
    _accept(12, "S-PF instances all S-reduced; (Z4,{1,3}) is neither")


def test_criterion_13_structure_theorem(verify_runs):
    for stmt in (StatementId.STRUCTURE_FORWARD, StatementId.STRUCTURE_CONVERSE):
        reports = _reports_for(verify_runs, stmt)
        assert all(r["verdict"] != "VIOLATED" for r in reports)
    fwd = [r for r in _reports_for(verify_runs, StatementId.STRUCTURE_FORWARD)
           if r["verdict"] == "holds"]
    conv = [r for r in _reports_for(verify_runs, StatementId.STRUCTURE_CONVERSE)
            if r["verdict"] == "holds"]
    assert fwd and conv
    for r in conv:
        assert r["details"]["s_reduced_confirmed"]
    _accept(13, f"subdirect decomposition verified forward on {len(fwd)} "
                f"and re-derived on {len(conv)} instances")


def test_criterion_14_byte_identical_reports(verify_runs):
    a, b = verify_runs["streams"]
    assert a == b
    _accept(14, f"two verify --all --seed 42 runs agree on "
                f"{len(a.splitlines())} report lines ({len(a)} bytes)")


# sha256 of the verify --all --seed 42 stream.  A change that moves the
# stream on purpose updates this and says why, as with the CLI goldens.
VERIFY_STREAM_SHA256 = "3db3a3a4c102118da209d012aed61c9999c898068fba88317ca291fab792856d"


def test_verify_stream_matches_recorded_digest(verify_runs):
    stream = verify_runs["streams"][0]
    assert hashlib.sha256(stream).hexdigest() == VERIFY_STREAM_SHA256


# sha256 of the verify --all --seed 7 --count 40 --max-size 128 --budget 2000
# stream.  Its corpus holds rings of 65 to 128 elements, which the default
# corpus lacks.  A change that moves the stream on purpose updates this and
# says why, as with VERIFY_STREAM_SHA256.
MANY_RINGS_STREAM_SHA256 = "9918df82cc7b9561d43d83cb7a4699ab4d4529e56a19457b3df35197bbe6db73"


def test_many_rings_stream_matches_recorded_digest(tmp_path):
    corpus = generate_corpus(CorpusConfig(seed=7, count=40, max_size=128))
    assert any(inst.ring.size > 64 for inst in corpus)
    out = tmp_path / "many_rings.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["verify", "--all", "--seed", "7", "--count", "40",
                         "--max-size", "128", "--budget", "2000", "--workers", "1",
                         "--jsonl", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MANY_RINGS_STREAM_SHA256
