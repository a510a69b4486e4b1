"""Command-line surface.

Exit codes: 0 success (verify: no violated statements), 1 violated
statement or a full-variant search hit, 2 usage or parse error,
3 zero entered a multiplicative closure, 4 size cap exceeded.

All randomness flows from --seed; reports are emitted with sorted keys and
no timestamps, so identical invocations produce byte-identical output.
The SRING_THREADS environment variable caps the verification worker count
(default: available parallelism); a value that is not a positive integer is
a usage error.  Integer flags are range-checked at parse time (usage
error): --cap >= 1, --max-degree >= 0, --budget >= 1, --count >= 0,
--max-size >= 4, --workers >= 1.  A ``verify --corpus`` file whose ring is
noncommutative is a usage error, raised when the corpus is loaded, before
any statement runs.  ``verify`` applies --cap to every instance, of the
built-in corpus too; an instance above it exits 4 with an error that names
the instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .errors import (
    MalformedExpressionError,
    SizeCapExceededError,
    SRingError,
    ZeroInClosureError,
)
from .harness import (
    VIOLATED,
    CorpusConfig,
    CorpusInstance,
    StatementId,
    VerifyConfig,
    counterexample_search,
    generate_corpus,
    run_catalog,
    summarize,
)
from .ideals import s_spectrum, spectrum_intersection
from .predicates import (
    is_reduced,
    is_s_integral_domain,
    is_s_pf,
    is_s_reduced,
    is_u_s_armendariz_up_to,
    localize,
    s_strongly_hopfian_profile,
)
from .rings import DEFAULT_SIZE_CAP, nilpotent_profile, thaw_literal, zero_divisor_set
from .ringfile import parse_ring_file

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_ZERO_IN_CLOSURE = 3
EXIT_SIZE_CAP = 4

PROPERTIES = (
    "s-reduced",
    "u-s-reduced",
    "s-integral-domain",
    "s-pf",
    "s-strongly-hopfian",
    "u-s-armendariz",
    "reduced",
)


def _manifest(seed, caps: dict, inputs: dict) -> dict:
    return {
        "tool": "sring",
        "version": __version__,
        "seed": seed,
        "caps": caps,
        "inputs": inputs,
    }


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _lit(ring, x):
    return thaw_literal(ring.decode(x))


def _cmd_check(args) -> int:
    ring, S = parse_ring_file(args.input, size_cap=args.cap)
    manifest = _manifest(args.seed,
                         {"ring_size": args.cap, "budget": args.budget,
                          "max_degree": args.max_degree},
                         {args.input: _digest(args.input)})
    name = args.property
    mode = {"degree": None, "search": "exhaustive", "seed": None, "budget": None}
    if name == "s-reduced":
        cert = is_s_reduced(ring, S)
        verdict, witnesses = cert.verdict, cert.to_json(ring)
    elif name == "u-s-reduced":
        cert = is_s_reduced(ring, S)
        verdict = cert.uniform_witness is not None
        witnesses = {"uniform_witness": None if cert.uniform_witness is None
                     else _lit(ring, cert.uniform_witness)}
    elif name == "s-integral-domain":
        s = is_s_integral_domain(ring, S)
        verdict = s is not None
        witnesses = {"witness": None if s is None else _lit(ring, s)}
    elif name == "s-pf":
        res = is_s_pf(ring, S)
        verdict = res.verdict
        witnesses = {"failing_annihilator_of": None if res.failing is None
                     else _lit(ring, res.failing)}
    elif name == "s-strongly-hopfian":
        profile = s_strongly_hopfian_profile(ring, S)
        verdict = True
        witnesses = {str(_lit(ring, a)): {"k": e.k, "s": _lit(ring, e.s),
                                          "stabilization": e.stabilization}
                     for a, e in sorted(profile.items())}
    elif name == "u-s-armendariz":
        v = is_u_s_armendariz_up_to(ring, S, args.max_degree, mode="auto",
                                    seed=args.seed, budget=args.budget)
        verdict = v.uniform_ok
        doc = v.to_json(ring)
        witnesses = {k: doc[k] for k in
                     ("uniform_witness", "per_pair_ok", "per_pair_histogram",
                      "pairs_checked")}
        mode = doc["mode"]
    elif name == "reduced":
        nonzero = [a for a in sorted(nilpotent_profile(ring)) if a]
        verdict = not nonzero
        witnesses = {"nonzero_nilpotents": [_lit(ring, a) for a in nonzero]}
    else:  # pragma: no cover - argparse rejects unknown names first
        raise SRingError(f"unknown property {name!r}")
    _emit({"manifest": manifest, "predicate": name, "verdict": verdict,
           "witnesses": witnesses, "mode": mode})
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    ring, S = parse_ring_file(args.input, size_cap=args.cap)
    spectrum = s_spectrum(ring, S, cap=args.ideal_cap)
    entries = [
        {"ideal": [_lit(ring, x) for x in I.elements],
         "witness_s": _lit(ring, w.s),
         "colon_prime": [_lit(ring, x) for x in w.colon_prime.elements]}
        for I, w in spectrum
    ]
    inter = spectrum_intersection(ring, spectrum)
    _emit({
        "manifest": _manifest(args.seed, {"ring_size": args.cap,
                                          "ideal_count": args.ideal_cap},
                              {args.input: _digest(args.input)}),
        "spectrum": entries,
        "intersection": [_lit(ring, x) for x in inter.elements],
    })
    return EXIT_OK


def _cmd_localize(args) -> int:
    ring, S = parse_ring_file(args.input, size_cap=args.cap)
    loc = localize(ring, S)
    _emit({
        "manifest": _manifest(args.seed, {"ring_size": args.cap},
                              {args.input: _digest(args.input)}),
        "localization": {
            **loc.to_json(ring),
            "localized_reduced": is_reduced(loc.ring),
            "localized_is_field": all(loc.ring.is_unit(x)
                                      for x in range(1, loc.ring.size)),
        },
    })
    return EXIT_OK


def _cmd_describe(args) -> int:
    ring, S = parse_ring_file(args.input, size_cap=args.cap)
    nil = nilpotent_profile(ring)
    _emit({
        "manifest": _manifest(args.seed, {"ring_size": args.cap},
                              {args.input: _digest(args.input)}),
        "ring": {
            "label": ring.label,
            "size": ring.size,
            "commutative": ring.commutative,
            "zero": _lit(ring, ring.zero),
            "one": _lit(ring, ring.one),
            "reduced": len(nil) == 1,
            "nilpotents": [_lit(ring, a) for a in sorted(nil)],
            "zero_divisors": [_lit(ring, a) for a in sorted(zero_divisor_set(ring))],
        },
        "mult_set": {"members": [_lit(ring, s) for s in S.members]},
    })
    return EXIT_OK


def _corpus_from_dir(directory: str, cap: int) -> list[CorpusInstance]:
    import os
    paths = sorted(p for p in os.listdir(directory) if p.endswith(".json"))
    if not paths:
        raise MalformedExpressionError(f"{directory}: no .json ring definitions found")
    out = []
    for i, name in enumerate(paths):
        path = f"{directory}/{name}"
        try:
            ring, S = parse_ring_file(path, size_cap=cap)
        except SizeCapExceededError as exc:
            raise SizeCapExceededError(f"{path}: {exc}") from exc
        if not ring.commutative:
            raise MalformedExpressionError(
                f"{path}: {ring.label} is noncommutative; "
                "the catalog's statements assume commutativity")
        out.append(CorpusInstance(name, "file", ring, S, i))
    return out


def _cmd_verify(args) -> int:
    if not args.all and not args.statement:
        sys.stderr.write("verify: pass --all or --statement ID\n")
        return EXIT_USAGE
    statements = None
    if args.statement:
        statements = [StatementId[args.statement]]
    corpus_cfg = CorpusConfig(seed=args.seed, count=args.count,
                              max_size=args.max_size)
    verify_cfg = VerifyConfig(seed=args.seed, budget=args.budget)
    if args.max_degree is not None:
        verify_cfg = VerifyConfig(seed=args.seed, budget=args.budget,
                                  sampled_degree=args.max_degree,
                                  exhaustive_degree=args.max_degree)
    if args.corpus:
        instances = _corpus_from_dir(args.corpus, args.cap)
        inputs = {f"{args.corpus}/{inst.label}": _digest(f"{args.corpus}/{inst.label}")
                  for inst in instances}
    else:
        instances = generate_corpus(corpus_cfg)
        for inst in instances:
            if inst.ring.size > args.cap:
                raise SizeCapExceededError(
                    f"{inst.label}: ring size {inst.ring.size} exceeds cap {args.cap}")
        inputs = {"corpus": "built-in",
                  "corpus_config": {"seed": corpus_cfg.seed,
                                    "count": corpus_cfg.count,
                                    "max_size": corpus_cfg.max_size}}
    manifest = _manifest(args.seed,
                         {"ring_size": args.cap, "budget": verify_cfg.budget,
                          "exhaustive_degree": verify_cfg.exhaustive_degree,
                          "sampled_degree": verify_cfg.sampled_degree,
                          "max_size": corpus_cfg.max_size,
                          "count": corpus_cfg.count},
                         inputs)
    start = time.perf_counter()
    reports = run_catalog(instances, verify_cfg, statements=statements,
                          workers=args.workers)
    wall = time.perf_counter() - start
    lines = [_dump({"manifest": manifest})]
    lines += [_dump(r.to_json()) for r in reports]
    payload = "\n".join(lines) + "\n"
    if args.jsonl == "-":
        sys.stdout.write(payload)
        summary_stream = sys.stderr
    else:
        with open(args.jsonl, "w") as fh:
            fh.write(payload)
        summary_stream = sys.stdout
    summary_stream.write(summarize(reports) + "\n")
    summary_stream.write(f"instances={len(instances)} reports={len(reports)} "
                         f"wall={wall:.2f}s\n")
    violated = sum(1 for r in reports if r.verdict == VIOLATED)
    return EXIT_VIOLATED if violated else EXIT_OK


def _cmd_search(args) -> int:
    corpus_cfg = CorpusConfig(seed=args.seed, count=args.count,
                              max_size=args.max_size)
    verify_cfg = VerifyConfig(seed=args.seed, budget=args.budget)
    result = counterexample_search(StatementId[args.statement], args.variant,
                                   corpus_cfg, verify_cfg)
    _emit({
        "manifest": _manifest(args.seed, {"max_size": args.max_size,
                                          "count": args.count,
                                          "budget": args.budget},
                              {"corpus": "built-in"}),
        **result.to_json(),
    })
    if args.variant == "full" and result.found:
        return EXIT_VIOLATED
    return EXIT_OK


def _int_at_least(low: int):
    """argparse ``type=`` for integers no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sring",
        description="Exact computations over finite rings with a designated "
                    "multiplicative subset: predicates, spectra, localization, "
                    "statement verification, counterexample search.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="ring-definition JSON file")
        p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_SIZE_CAP,
                       help="ring size cap (default %(default)s)")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("check", help="decide one predicate on an instance")
    p.add_argument("property", choices=PROPERTIES)
    common(p)
    p.add_argument("--max-degree", type=_int_at_least(0), default=1)
    p.add_argument("--budget", type=_int_at_least(1), default=100_000)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("spectrum", help="list the S-prime ideals with witnesses")
    common(p)
    p.add_argument("--ideal-cap", type=int, default=4096)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("localize", help="compute the localization at S")
    common(p)
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("describe", help="summarize an instance")
    common(p)
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("verify", help="run the statement catalog over a corpus")
    common(p, with_input=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="run every cataloged statement")
    group.add_argument("--statement", choices=[s.name for s in StatementId])
    p.add_argument("--corpus", help="directory of ring-definition files "
                                    "(default: built-in corpus)")
    p.add_argument("--count", type=_int_at_least(0), default=30,
                   help="seeded instances to add to the built-in corpus")
    p.add_argument("--max-size", type=_int_at_least(4), default=64)
    p.add_argument("--budget", type=_int_at_least(1), default=100_000)
    p.add_argument("--max-degree", type=_int_at_least(0), default=None)
    p.add_argument("--workers", type=_int_at_least(1), default=None,
                   help="worker processes (default: SRING_THREADS or cpu count)")
    p.add_argument("--jsonl", default="-",
                   help="report stream destination ('-' = stdout, summary then "
                        "goes to stderr)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="look for counterexamples to statement variants")
    p.add_argument("--statement", required=True,
                   choices=[s.name for s in StatementId])
    p.add_argument("--variant", default="full",
                   choices=["full", "drop-hypothesis", "converse"])
    p.add_argument("--max-size", type=_int_at_least(4), default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=_int_at_least(0), default=30)
    p.add_argument("--budget", type=_int_at_least(1), default=100_000)
    p.set_defaults(fn=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ZeroInClosureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ZERO_IN_CLOSURE
    except SizeCapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SIZE_CAP
    except (MalformedExpressionError, OSError, SRingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
