"""CLI commands against their recorded stdout, byte for byte.

The verify stream digest does not cover ``spectrum``, ``localize``,
``check`` or ``search``; these goldens do.  Each single-ring command reads a
ring file from ``golden/rings`` by a relative path, so the manifest (which
names the input path and its sha256) is the same on every checkout; ``search``
scans the built-in corpus.  Regenerate a golden only when a change to the
output is intended, and say so with the change.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sring import parse_ring_data
from sring.cli import main
from sring.harness import (
    HYP_NOT_MET,
    STATEMENTS,
    CorpusInstance,
    InstanceContext,
    StatementId,
    VerifyConfig,
    check_statement,
)

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # the S-prime witnesses (definitional s, colon s, colon prime) at and
    # above the 256-element operation-table limit: Z288, Z720, Z16xZ16,
    # Z16xZ17 and Z24(+)Z24; a three-factor product, Z12xZ12xZ6 (864
    # elements, 144 ideals); and near the size cap, Z3600 (45 ideals) and
    # Z48(+)Z48 (2,304 elements)
    ("spectrum", ring) for ring in ("z288_s22", "z720_s2", "z16xz17_s0_3",
                                    "z16xz16_s6_11", "z24_idealization_s5",
                                    "z12xz12xz6_s2_1_1", "z3600_s2",
                                    "z48_idealization_s5")
] + [
    (command, ring)
    for ring in ("z720_s2", "z16xz16_s6_11")
    # neither ring is S-reduced: these pin ``failing`` and the witness map
    # cut off at it
    for command in ("localize", "check s-integral-domain", "check s-pf",
                    "check s-strongly-hopfian", "check s-reduced",
                    "check u-s-reduced")
] + [
    # Z16xZ17 (272 elements, above the solution cache), S = <(0, 3)>:
    # S-reduced, u-S-reduced and an S-integral domain, each with witness (0, 1)
    (command, "z16xz17_s0_3")
    for command in ("localize", "check s-reduced", "check u-s-reduced",
                    "check s-integral-domain")
] + [
    # Z288, S = <22>: 129 elements have k below the chain's stabilization,
    # so the Hopfian witness search does not stop at its first index
    (command, "z288_s22") for command in ("check s-pf", "check s-strongly-hopfian")
] + [
    # Z24(+)Z24 (576 elements, above the operation-table limit), S = <(5, (0))>
    ("check u-s-armendariz --max-degree 1 --budget 3000 --seed 5",
     "z24_idealization_s5"),
    # E(Z6) (1,296 elements), S = <(2, 2, 2, 2)>: every sampled pair has the
    # witness 1, so this pins the verdict on a triangular carrier above the
    # solution cache but not the draws
    ("check u-s-armendariz --max-degree 1 --budget 3000 --seed 5", "e_z6_s2222"),
    # E(Z8) (4,096 elements), S = <(3, 0, 0, 0)>: the histogram counts the
    # sampled pairs with a witness, so it moves with the triangular solver's
    # random draws
    ("check u-s-armendariz --max-degree 1 --budget 3000 --seed 5", "e_z8_s3000"),
    # Z12 ⋉ Z12/(4) (48 elements), S = <(5, (0))>: the default degree 1 walks
    # all 23,936 zero-product pairs, and some pair has no witness in S, so
    # this pins the exhaustive degree-1 walk and the kill masks it feeds
    ("check u-s-armendariz", "z12_idealization_4_s5"),
] + [
    # 256-element carriers whose operation tables are composed from their
    # digits: Z4xZ4xZ4xZ4 (four digits), S = <(2, 1, 1, 1)>, and Z16(+)Z16
    # (a composed idealization mul table), S = <(5, (0))>
    (command, ring)
    for ring in ("z4xz4xz4xz4_s2_1_1_1", "z16_idealization_s5")
    for command in ("spectrum", "localize", "check s-pf")
] + [
    # S-PF on a ring that is S-PF (Z16xZ17, S = <(0, 3)>), on rings that
    # fail it at growing sizes up to the size cap (Z12xZ12xZ6, Z3600, the
    # idealizations Z24(+)Z24 and Z48(+)Z48, Z60xZ60 with S = <(2, 1)>,
    # Z16xZ16xZ16 with S = <(2, 1, 1)>)
    ("check s-pf", ring)
    for ring in ("z16xz17_s0_3", "z12xz12xz6_s2_1_1", "z3600_s2",
                 "z24_idealization_s5", "z48_idealization_s5", "z60xz60_s2_1",
                 "z16xz16xz16_s2_1_1")
]

SEARCHES = [f"search --statement {stmt.name} --variant {variant} --budget 2000"
            for stmt in StatementId for variant in ("drop-hypothesis", "converse")]


def golden_name(command: str, ring: str | None = None) -> str:
    """File name of a command's golden.

    A single-ring command is named by its first two words and its ring, so
    flags stay out of file names.  Every search starts ``search --statement``,
    so a search is named by its statement and variant instead.
    """
    words = command.split()
    if words[0] == "search":
        flags = dict(zip(words[1::2], words[2::2]))
        return f"search-{flags['--statement']}-{flags['--variant']}"
    return f"{'-'.join(words[:2])}-{ring}"


def run_golden(argv: list[str], name: str, monkeypatch) -> None:
    monkeypatch.chdir(GOLDEN)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    expected = (GOLDEN / "cli" / f"{name}.json").read_bytes()
    assert buf.getvalue().encode() == expected


@pytest.mark.parametrize("command,ring", CASES)
def test_single_ring_command_matches_golden(command, ring, monkeypatch):
    run_golden(command.split() + [f"rings/{ring}.json"],
               golden_name(command, ring), monkeypatch)


@pytest.mark.parametrize("command", SEARCHES)
def test_search_matches_golden(command, monkeypatch):
    run_golden(command.split(), golden_name(command), monkeypatch)


def search_hits():
    for path in sorted((GOLDEN / "cli").glob("search-*.json")):
        doc = json.loads(path.read_text())
        if doc["found"]:
            yield pytest.param(doc, id=path.stem)


@pytest.mark.parametrize("hit", list(search_hits()))
def test_search_hit_rechecks(hit):
    """Each recorded hit meets its pattern when the instance is checked afresh.

    The hypotheses the payload names are exactly the false ones, every scope
    bound holds, and the conclusion holds for a converse hit and fails for a
    drop-hypothesis hit, with the details the payload carries.
    """
    statement = StatementId[hit["statement"]]
    definition = STATEMENTS[statement]
    doc = hit["instance"]
    ring, S = parse_ring_data({k: doc[k] for k in ("ring", "mult_set")})
    instance = CorpusInstance(doc["label"], "golden", ring, S, 0)
    cfg = VerifyConfig(seed=hit["manifest"]["seed"],
                       budget=hit["manifest"]["caps"]["budget"])
    ctx = InstanceContext(instance, cfg)
    payload = dict(hit["payload"])
    named = payload.pop("false_hypotheses")
    if definition.records is not None:
        # a per-record hit: other records may meet the hypothesis, so the
        # record is re-derived rather than the whole report
        matches = [(hyp, result) for hyp, result in definition.records(ctx)
                   if json.loads(json.dumps(result[1])) == payload]
        assert len(matches) == 1
        hypotheses, (ok, details) = matches[0]
    else:
        report = check_statement(statement, instance, cfg, ctx)
        assert report.verdict == HYP_NOT_MET
        bounds = {f"{q}<={limit}" for q, _, limit in definition.bounds(ctx)}
        assert all(report.hypotheses[key] for key in bounds)
        hypotheses = {k: v for k, v in report.hypotheses.items() if k not in bounds}
        ok, details = definition.conclusion(ctx)
    assert named and [k for k, v in hypotheses.items() if not v] == named
    assert ok is (hit["variant"] == "converse")
    assert json.loads(json.dumps(details)) == payload


def test_every_golden_file_has_a_case():
    """Each ring file under ``golden/rings`` is the input of some case, and
    each recorded output is some case's golden, so no file goes stale."""
    rings = {ring for _, ring in CASES}
    assert rings == {path.stem for path in (GOLDEN / "rings").glob("*.json")}
    names = {golden_name(command, ring) for command, ring in CASES}
    names |= {golden_name(command) for command in SEARCHES}
    assert names == {path.stem for path in (GOLDEN / "cli").glob("*.json")}
