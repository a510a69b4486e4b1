"""Ring-definition parsing and the command-line surface."""

import json

import pytest

from sring import MalformedExpressionError, SRingError, parse_ring_data, parse_ring_file
from sring.cli import main
from sring.harness import curated_instances, default_workers


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ARMENDARIZ_STATEMENTS = {"U_S_RED_IMPLIES_U_S_ARM", "E_RING_ARMENDARIZ",
                         "IDEALIZATION_ARMENDARIZ"}
Z24_DOC = {"ring": {"type": "zmod", "n": 24}, "mult_set": {"generators": [2]}}


def test_parse_ring_data_examples():
    ring, S = parse_ring_data(Z24_DOC)
    assert ring.size == 24 and S.members == (1, 2, 4, 8, 16)
    ring, S = parse_ring_data({"ring": {"type": "zmod", "n": 6}})
    assert S.members == (1,)  # missing mult_set defaults to the unit set


def test_parse_structured_document():
    doc = {"ring": {"type": "idealization",
                    "base": {"type": "zmod", "n": 4},
                    "module": {"cyclic": [[2]]}},
           "mult_set": {"generators": [[3, [0]]]}}
    ring, S = parse_ring_data(doc)
    assert ring.size == 8
    assert len(S.members) == 2


def test_parse_error_paths():
    with pytest.raises(MalformedExpressionError, match=r"ring\.n"):
        parse_ring_data({"ring": {"type": "zmod", "n": "x"}})
    with pytest.raises(MalformedExpressionError, match=r"factors\[1\]"):
        parse_ring_data({"ring": {"type": "product",
                                  "factors": [{"type": "zmod", "n": 2}, 7]}})
    with pytest.raises(MalformedExpressionError, match="unknown key"):
        parse_ring_data({"ring": {"type": "zmod", "n": 4}, "extra": 1})
    with pytest.raises(MalformedExpressionError, match="generators"):
        parse_ring_data({"ring": {"type": "zmod", "n": 4},
                         "mult_set": {"generators": []}})


def test_parse_ring_file_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ring": {"type": "zmod", \n "n":}}')
    with pytest.raises(MalformedExpressionError, match="line 2"):
        parse_ring_file(str(path))


def test_cli_check_s_reduced(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    assert main(["check", "s-reduced", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predicate"] == "s-reduced"
    assert doc["verdict"] is True
    assert doc["witnesses"]["uniform_witness"] == 4


def test_cli_exit_codes(tmp_path, capsys):
    zero_doc = {"ring": {"type": "zmod", "n": 4}, "mult_set": {"generators": [2]}}
    path = write(tmp_path, "z4.json", zero_doc)
    assert main(["check", "s-reduced", path]) == 3

    bad = write(tmp_path, "bad.json", {"ring": {"type": "zmod", "n": 1}})
    assert main(["describe", bad]) == 2

    big = write(tmp_path, "big.json", {"ring": {"type": "zmod", "n": 5000}})
    assert main(["describe", big]) == 4
    assert main(["describe", big, "--cap", "8192"]) == 0
    capsys.readouterr()

    assert main(["check", "no-such-predicate", big]) == 2
    assert main(["verify", "--statement", "NOT_A_STATEMENT"]) == 2


def test_cli_spectrum_golden(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    assert main(["spectrum", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    three = list(range(0, 24, 3))
    assert doc["spectrum"] == [
        {"ideal": [0], "witness_s": 8, "colon_prime": three},
        {"ideal": [0, 12], "witness_s": 4, "colon_prime": three},
        {"ideal": [0, 6, 12, 18], "witness_s": 2, "colon_prime": three},
        {"ideal": three, "witness_s": 1, "colon_prime": three},
    ]
    assert doc["intersection"] == [0]


def test_cli_spectrum_ideal_cap_counts_principal_ideals(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    # Z24 has 8 ideals, every one of them principal
    assert main(["spectrum", path, "--ideal-cap", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "exceeds cap 0" in captured.err
    assert main(["spectrum", path, "--ideal-cap", "7"]) == 2
    capsys.readouterr()
    assert main(["spectrum", path, "--ideal-cap", "8"]) == 0


def test_cli_localize_and_describe(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    assert main(["localize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    loc = doc["localization"]
    assert loc["localized_size"] == 3
    assert loc["localized_reduced"] and loc["localized_is_field"]
    assert loc["torsion_kernel"] == list(range(0, 24, 3))

    assert main(["describe", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ring"]["nilpotents"] == [0, 6, 12, 18]
    assert not doc["ring"]["reduced"]
    assert doc["mult_set"]["members"] == [1, 2, 4, 8, 16]


def test_cli_check_armendariz_mode_block(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    # degree 1 keeps the pair space enumerable, so auto picks exhaustive
    assert main(["check", "u-s-armendariz", path, "--max-degree", "1",
                 "--budget", "2000", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == {"degree": 1, "search": "exhaustive", "seed": None,
                           "budget": 2000}
    assert doc["verdict"] is True
    # degree 2 blows past the exhaustive budget and falls back to sampling
    assert main(["check", "u-s-armendariz", path, "--max-degree", "2",
                 "--budget", "2000", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == {"degree": 2, "search": "sampled", "seed": 7,
                           "budget": 2000}
    assert doc["witnesses"]["pairs_checked"] == 2000


def test_cli_verify_single_statement_and_corpus_dir(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a-z24.json").write_text(json.dumps(Z24_DOC))
    (corpus_dir / "b-z6.json").write_text(json.dumps(
        {"ring": {"type": "zmod", "n": 6}, "mult_set": {"generators": [2]}}))
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--statement", "SPECTRUM_S_ZERO",
                 "--corpus", str(corpus_dir), "--jsonl", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert "manifest" in docs[0]
    reports = docs[1:]
    assert [r["instance"] for r in reports] == ["a-z24.json", "b-z6.json"]
    assert all(r["verdict"] == "holds" for r in reports)
    summary = capsys.readouterr().out
    assert "SPECTRUM_S_ZERO" in summary


def z6_corpus(tmp_path):
    """Corpus directory holding one small ring file."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write(corpus_dir, "z6.json",
          {"ring": {"type": "zmod", "n": 6}, "mult_set": {"generators": [2]}})
    return str(corpus_dir)


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--max-degree", "-1"),
    ("check", "--budget", "0"),
    ("verify", "--max-degree", "-1"),
    ("verify", "--budget", "0"),
    ("verify", "--count", "-3"),
    ("verify", "--workers", "0"),
    ("verify", "--max-size", "1"),
    ("search", "--count", "-1"),
    ("search", "--budget", "0"),
    ("search", "--max-size", "1"),
])
def test_cli_rejects_out_of_range_integers(tmp_path, capsys, command, flag, value):
    if command == "check":
        argv = ["check", "u-s-armendariz", write(tmp_path, "z24.json", Z24_DOC)]
    elif command == "verify":
        argv = ["verify", "--statement", "SPECTRUM_S_ZERO",
                "--corpus", z6_corpus(tmp_path), "--jsonl", str(tmp_path / "r.jsonl")]
    else:
        argv = ["search", "--statement", "S_RADICAL_QUOTIENT",
                "--variant", "drop-hypothesis", "--count", "0"]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer >=" in captured.err


def test_sring_threads_must_be_a_positive_integer(tmp_path, capsys, monkeypatch):
    argv = ["verify", "--all", "--corpus", z6_corpus(tmp_path),
            "--jsonl", str(tmp_path / "r.jsonl")]
    monkeypatch.setenv("SRING_THREADS", "abc")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "SRING_THREADS" in captured.err
    for bad in ("0", "-2", "1.5"):
        monkeypatch.setenv("SRING_THREADS", bad)
        with pytest.raises(SRingError, match="SRING_THREADS"):
            default_workers()
    monkeypatch.setenv("SRING_THREADS", " 3 ")
    assert default_workers() == 3


def nested_quotients(levels: int) -> str:
    """A ring document whose expression is ``levels`` nodes deep: quotients
    of Z4 by 0, nested inside one another."""
    ring = '{"type": "zmod", "n": 4}'
    for _ in range(levels - 1):
        ring = f'{{"type": "quotient", "base": {ring}, "ideal": [0]}}'
    return f'{{"ring": {ring}}}'


@pytest.mark.parametrize("case", ["not-utf8", "too-deep", "nested-600", "directory",
                                  "corpus-file"])
def test_cli_bad_input_files_exit_with_usage_error(tmp_path, capsys, case):
    if case == "not-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"ring": {"type": "zmod", "n": 4}, "x": "\xe9"}')
        argv = ["check", "s-reduced", str(path)]
    elif case == "too-deep":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        argv = ["check", "s-reduced", str(path)]
    elif case == "nested-600":
        # valid JSON that decodes and would build, but overflows the stack
        # in the carrier's recursive solvers unless it is rejected on parse
        path = tmp_path / "nested.json"
        path.write_text(nested_quotients(600))
        argv = ["describe", str(path)]
    elif case == "directory":
        argv = ["check", "s-reduced", str(tmp_path)]
    else:
        argv = ["verify", "--all", "--corpus", write(tmp_path, "z24.json", Z24_DOC),
                "--jsonl", str(tmp_path / "r.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_cli_search_drop_hypothesis(capsys):
    code = main(["search", "--statement", "S_RADICAL_QUOTIENT",
                 "--variant", "drop-hypothesis", "--count", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True
    assert doc["payload"]["quotient_s_reduced"] is True


def test_cli_reports_are_byte_stable(tmp_path, capsys):
    path = write(tmp_path, "z24.json", Z24_DOC)
    outputs = []
    for _ in range(2):
        assert main(["spectrum", path]) == 0
        first = capsys.readouterr().out
        assert main(["check", "s-reduced", path]) == 0
        second = capsys.readouterr().out
        outputs.append((first, second))
    assert outputs[0] == outputs[1]


def test_cli_verify_above_degree_2_samples_what_the_walk_cannot_fit(tmp_path, capsys):
    # a carrier of n elements has n**8 degree-3 pairs: up to 7 elements
    # they fit the exhaustive budget of 10**7, from 8 on they are sampled
    out = tmp_path / "r.jsonl"
    assert main(["verify", "--all", "--count", "0", "--max-degree", "3",
                 "--budget", "200", "--workers", "1", "--jsonl", str(out)]) == 0
    capsys.readouterr()
    sizes = {inst.label: inst.ring.size for inst in curated_instances()}
    searches = []
    for line in out.read_text().splitlines()[1:]:
        report = json.loads(line)
        if report["statement"] not in ARMENDARIZ_STATEMENTS or \
                report["verdict"] == "hypothesis-not-met":
            continue
        details = report["details"]
        size = details.get("carrier_size", sizes[report["instance"]])
        expected = "exhaustive" if size ** 8 <= 10**7 else "sampled"
        assert details["mode"]["degree"] == 3
        assert details["mode"]["search"] == expected, (report["instance"], size)
        searches.append(expected)
    assert {"exhaustive", "sampled"} <= set(searches)


@pytest.mark.parametrize("doc, code, message", [
    ({"ring": {"type": "product", "factors": [
        {"type": "zmod", "n": 4},
        {"type": "quotient", "base": {"type": "zmod", "n": 6}, "ideal": [1]}]}},
     2, "ring.factors[1]: quotient of Z6 by the unit ideal collapses to the zero ring"),
    ({"ring": {"type": "product", "factors": [{"type": "zmod", "n": 64},
                                              {"type": "zmod", "n": 128}]}},
     4, "ring: product size 8192 exceeds cap 4096"),
])
def test_cli_ring_construction_errors_name_their_node(tmp_path, capsys, doc, code, message):
    assert main(["describe", write(tmp_path, "ring.json", doc)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
