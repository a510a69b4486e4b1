#!/usr/bin/env python3
"""sring benchmark: three workloads through the ``sring`` CLI entry point.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout holding ``src/sring``).  The
program is imported from ``src/`` and each command goes through
``sring.cli.main`` in this process, so ``verify`` forks its own workers as it
does for users.  Every output is checked against the plain-integer oracles in
``oracles.py`` and against properties the method must have.

With ``--trace 0`` the run repeats whole rounds of commands for ``--seconds``
and reports the end-to-end metrics as medians over rounds.  With
``--trace 1`` it makes one untraced and one traced pass at one worker and
reports the per-layer metrics.  The last line of stdout is the JSON result;
progress and the stream digest go to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
# Median time of calibration() on the 2-vCPU virtual machine the benchmark was
# defined on, in a steady stretch; time metrics are scaled to this speed.
CALIBRATION_REFERENCE_S = 0.060
OUT = Path(".bench_out")  # relative to ROOT, so report streams name no absolute path
PREDICATES = ("reduced", "s-reduced", "u-s-reduced", "s-integral-domain",
              "s-pf", "s-strongly-hopfian")

END_TO_END = {
    "setup_s": "s", "verify_s": "s", "spectrum_s": "s", "check_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}
FAMILIES = ("zmod", "product", "quotient", "idealization", "triangular")
# the catalog's statement ids, spelled out so the metric names stay fixed
STATEMENTS = (
    "S_RADICAL_QUOTIENT", "INTERSECTION_VS_PRODUCT", "SPECTRUM_S_ZERO",
    "NILS_IN_COLON", "NILS_S_ZERO", "LOCALIZATION_REDUCED",
    "LOCALIZATION_ARTINIAN", "PRODUCT_OF_FIELDS", "POLY_TRANSFER",
    "U_S_RED_IMPLIES_U_S_ARM", "E_RING_ARMENDARIZ", "IDEALIZATION_ARMENDARIZ",
    "S_REDUCED_IMPLIES_HOPFIAN", "S_PF_IMPLIES_S_REDUCED", "STRUCTURE_FORWARD",
    "STRUCTURE_CONVERSE", "NIL_IS_INTERSECTION", "NIL_NILPOTENT",
)
# traced functions reported with summed time and call count, then time only
SPANNED = ("rings.build_ring", "rings.ideal_span", "rings.solve_mul_random",
           "rings.solve_mul_all", "ideals.enumerate_ideals", "ideals.ideal_sum",
           "ideals.is_s_prime", "predicates.is_u_s_armendariz_up_to")
TIMED = ("ringfile.parse_ring_data", "ideals.s_radical", "ideals.mult_closure",
         "predicates.is_s_reduced", "predicates.is_s_pf",
         "predicates.s_strongly_hopfian_profile", "predicates.localize",
         "harness.generate_corpus")
LAYER_SELF = ("rings", "ringfile", "ideals", "predicates", "harness")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANNED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in TIMED:
        units[f"{name}.s"] = "s"
    for op in ("mul", "add", "solve_mul_random"):
        for fam in FAMILIES:
            units[f"rings.{op}.{fam}.ops_per_s"] = "1/s"
    units.update({
        "ideals.enumerate_ideals.rings": "count",
        "ideals.ideal_sum.yield_ratio": "ratio",
        "predicates.zero_product.pairs": "count",
        "predicates.zero_product.pairs_per_s": "1/s",
        "predicates.zero_product.informative_ratio": "ratio",
        "harness.worker_idle_s": "s",
        "harness.slowest_instance_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
    })
    for st in STATEMENTS:
        units[f"harness.check.{st}.s"] = "s"
    for layer in LAYER_SELF:
        units[f"{layer}.self_s"] = "s"
    return units


def load_program():
    src = ROOT / "src"
    if not (src / "sring" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no sring package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import sring.cli  # noqa: F401  (loads every layer module)


def log(msg: str) -> None:
    sys.stderr.write(f"bench: {msg}\n")
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# Accounting, measurement helpers


class Ledger:
    """Operations attempted and failed: commands run and checks made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                log(f"FAILED: {what}")


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def run_cli(argv: list[str], times: dict, key: str, tracer=None) -> tuple[int, str]:
    """One ``sring`` command in process; adds its wall time to ``times[key]``
    and the CPU time of this process and its workers to ``times["cpu_s"]``."""
    from sring import cli
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(argv[0]) if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        code = cli.main(argv)
        times[key] += time.perf_counter() - t0
        times["cpu_s"] += cpu_seconds() - c0
    return code, out.getvalue()


def new_times() -> dict:
    return {"verify_s": 0.0, "spectrum_s": 0.0, "check_s": 0.0, "cpu_s": 0.0}


class CatalogCapture:
    """Keeps the reports ``run_catalog`` hands back to the CLI (for timings)."""

    def __init__(self):
        self.calls: list[tuple] = []

    def __enter__(self):
        from sring import cli, harness
        self.cli = cli
        self.original = cli.run_catalog

        def capture(instances, cfg=None, statements=None, workers=None):
            t0 = time.perf_counter()
            reports = self.original(instances, cfg, statements=statements,
                                    workers=workers)
            wall = time.perf_counter() - t0
            parallel = (len(instances) > 1 and (statements is None or
                        set(statements) == set(harness.StatementId)))
            used = min(workers or harness.default_workers(), len(instances)) \
                if parallel else 1
            self.calls.append((reports, wall, max(used, 1)))
            return reports

        cli.run_catalog = capture
        return self

    def __exit__(self, *exc):
        self.cli.run_catalog = self.original
        return False

    def idle_and_slowest(self) -> tuple[float, float]:
        idle = slowest = 0.0
        for reports, wall, workers in self.calls:
            per_instance: dict[int, float] = {}
            for r in reports:
                per_instance[r.instance_index] = \
                    per_instance.get(r.instance_index, 0.0) + r.runtime
            idle += workers * wall - sum(per_instance.values())
            slowest = max(slowest, max(per_instance.values(), default=0.0))
        return idle, slowest


# ---------------------------------------------------------------------------
# Ring files with a known product-of-cyclic shape, and their oracle checks


class RingSpec:
    """A ring file Z_m1 x ... x Z_mk with S generated by ``gens``."""

    def __init__(self, ms, gens):
        self.ms = tuple(ms)
        self.gens = [tuple(g) for g in gens]
        self.S = oracles.closure(self.ms, self.gens)
        self.members = set(self.S)
        self.exact = len(self.ms) == 1  # element index = residue: least witness known
        self._memo: dict = {}

    def memo(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def doc(self) -> dict:
        factors = [{"type": "zmod", "n": m} for m in self.ms]
        ring = factors[0] if self.exact else {"type": "product", "factors": factors}
        gens = [g[0] if self.exact else list(g) for g in self.gens]
        return {"ring": ring, "mult_set": {"generators": gens}}

    def el(self, lit) -> tuple:
        return tuple(lit) if isinstance(lit, list) else (lit,)

    def is_member(self, lit) -> bool:
        return lit is not None and self.el(lit) in self.members

    def kills(self, s, a) -> bool:
        return oracles.is_zero(oracles.mul(self.ms, s, a))


def cyclic_moduli(expr) -> tuple[int, ...] | None:
    """(m1, ..., mk) for Z_m1 x ... x Z_mk (k = 1 for Z_n), else None."""
    from sring.rings import Product, ZMod
    if isinstance(expr, ZMod):
        return (expr.n,)
    if isinstance(expr, Product) and all(isinstance(f, ZMod) for f in expr.factors):
        return tuple(f.n for f in expr.factors)
    return None


def spec_of_instance(inst):
    """RingSpec for a corpus instance over Z_n or a product of Z_n's, else None."""
    ms = cyclic_moduli(inst.ring.expression)
    if ms is None:
        return None
    gens = []
    for g in inst.mult_set.gens:
        lit = inst.ring.decode(g)
        gens.append(lit if isinstance(lit, tuple) else (lit,))
    return RingSpec(ms, gens)


def check_predicate(ledger: Ledger, spec: RingSpec, name: str, doc: dict, tag: str):
    ms, S = spec.ms, spec.S
    w = doc["witnesses"]
    verdict = doc["verdict"]
    if name == "reduced":
        nil = spec.memo("nil", lambda: oracles.nilpotents(ms))
        got = {spec.el(x) for x in w["nonzero_nilpotents"]}
        zero = tuple(0 for _ in ms)
        ledger.check(verdict == (len(nil) == 1) and got == nil - {zero},
                     f"{tag}: nilradical is the multiples of rad(n)")
    elif name in ("s-reduced", "u-s-reduced"):
        killers, uniform = spec.memo("sred", lambda: oracles.s_reduced(ms, S))
        ok = None not in killers.values()
        uw = w["uniform_witness"]
        good = (uw is None) == (not uniform) and (
            uw is None or (spec.el(uw) in uniform
                           and (not spec.exact or spec.el(uw) == uniform[0])))
        if name == "u-s-reduced":
            ledger.check(verdict == bool(uniform) and good,
                         f"{tag}: uniform S-reduced witness")
            return
        good = good and verdict == ok
        if good and ok:
            got = {spec.el(json.loads(k)): spec.el(v) for k, v in w["witnesses"].items()}
            good = set(got) == set(killers) and all(
                spec.is_member(list(s)) and spec.kills(s, a) for a, s in got.items())
            if spec.exact:
                good = good and got == killers
        elif good:
            unkilled = [a for a, s in killers.items() if s is None]
            failing = spec.el(w["failing"])
            good = failing in unkilled and (not spec.exact or failing == unkilled[0])
        ledger.check(good, f"{tag}: S-reduced verdict and witnesses")
    elif name == "s-integral-domain":
        wits = spec.memo("sid", lambda: oracles.s_integral_domain_witnesses(ms, S))
        x = w["witness"]
        good = verdict == bool(wits) and (x is None or spec.el(x) in wits)
        if spec.exact and wits:
            good = good and spec.el(x) == wits[0]
        ledger.check(good, f"{tag}: S-integral-domain witness")
    elif name == "s-pf":
        failing = spec.memo("spf", lambda: oracles.s_pf_failing(ms, S))
        x = w["failing_annihilator_of"]
        good = verdict == (not failing) and (x is None) == (not failing)
        if failing:
            good = good and spec.el(x) in failing
            if spec.exact:
                good = good and spec.el(x) == failing[0]
        ledger.check(good, f"{tag}: S-PF verdict")
    elif name == "s-strongly-hopfian":
        table = spec.memo("hopf", lambda: {
            a: oracles.hopfian_entry(ms, a, S) for a in oracles.elements(ms)})
        got = {spec.el(json.loads(k)): v for k, v in w.items()}
        good = verdict is True and set(got) == set(table)
        if good:
            for a, entry in got.items():
                k, stab, admissible = table[a]
                s = spec.el(entry["s"])
                if (entry["k"], entry["stabilization"]) != (k, stab) \
                        or s not in admissible \
                        or (spec.exact and s != admissible[0]):
                    good = False
                    break
        ledger.check(good, f"{tag}: annihilator chains and stabilization")


def check_localize(ledger: Ledger, spec: RingSpec, doc: dict, tag: str):
    loc = doc["localization"]
    ms, S = spec.ms, spec.S
    T = spec.memo("torsion", lambda: oracles.torsion(ms, S))
    ds = spec.memo("locms", lambda: oracles.localized_moduli(ms, S))
    size = len(list(oracles.elements(ms))) // len(T)
    nontrivial = [d for d in ds if d > 1]
    good = ({spec.el(x) for x in loc["torsion_kernel"]} == T
            and loc["localized_size"] == size == oracles.math.prod(ds)
            and loc["localized_reduced"] == all(oracles.rad(d) == d for d in ds)
            and loc["localized_is_field"] == (
                len(nontrivial) == 0
                or (len(nontrivial) == 1 and oracles.is_prime(nontrivial[0])))
            and loc["degenerate"] is False)
    if spec.exact and len(spec.gens) == 1:
        good = good and size == oracles.coprime_part(ms[0], spec.gens[0][0])
    ledger.check(good, f"{tag}: localization size, kernel and type")


def check_spectrum(ledger: Ledger, spec: RingSpec, doc: dict, tag: str):
    ms, S = spec.ms, spec.S
    expected = spec.memo("sprimes", lambda: oracles.s_prime_ideals(ms, S))
    primes = spec.memo("primes", lambda: oracles.prime_ideals(ms))
    got = [frozenset(spec.el(x) for x in e["ideal"]) for e in doc["spectrum"]]
    good = len(got) == len(set(got)) and set(got) == expected
    for e, ideal in zip(doc["spectrum"], got):
        colon = frozenset(spec.el(x) for x in e["colon_prime"])
        if not (spec.is_member(e["witness_s"]) and colon in primes and ideal <= colon):
            good = False
    inter = frozenset.intersection(*expected) if expected else frozenset()
    good = good and {spec.el(x) for x in doc["intersection"]} == inter
    ledger.check(good, f"{tag}: S-prime ideals, witnesses and their intersection")


def inspect_ring(ledger, path: Path, spec, predicates, *, spectrum: bool, seed: int,
                 times: dict, tracer=None):
    """spectrum (optional), localize and the given predicates on one ring file."""
    def command(argv, key):
        code, out = run_cli(argv + [str(path), "--seed", str(seed)], times, key, tracer)
        ledger.check(code == 0, f"{' '.join(argv)} {path.name}: exit {code}")
        return json.loads(out) if code == 0 and spec is not None else None

    tag = path.stem
    if spectrum:
        doc = command(["spectrum"], "spectrum_s")
        if doc is not None:
            check_spectrum(ledger, spec, doc, tag)
    doc = command(["localize"], "check_s")
    if doc is not None:
        check_localize(ledger, spec, doc, tag)
    for name in predicates:
        doc = command(["check", name], "check_s")
        if doc is not None:
            check_predicate(ledger, spec, name, doc, f"{tag} {name}")


# ---------------------------------------------------------------------------
# Report-stream checks shared by the verify commands


def check_stream(ledger: Ledger, code: int, payload: str, labels: list[str],
                 statements: list[str], specs: dict, tag: str) -> None:
    ledger.check(code == 0, f"{tag}: verify exit code {code}")
    lines = payload.splitlines()
    ok = bool(lines) and "manifest" in json.loads(lines[0])
    ledger.check(ok, f"{tag}: stream starts with its manifest")
    reports = [json.loads(line) for line in lines[1:]]
    expected = [(st, i) for st in statements for i in range(len(labels))]
    ledger.check([(r["statement"], r["instance_index"]) for r in reports] == expected,
                 f"{tag}: every (statement, instance) pair once, in canonical order")
    ledger.check(all(0 <= r["instance_index"] < len(labels)
                     and r["instance"] == labels[r["instance_index"]] for r in reports),
                 f"{tag}: instance labels")
    for r in reports:
        ledger.check(r["verdict"] != "VIOLATED",
                     f"{tag}: {r['statement']} VIOLATED on {r['instance']}")
        spec = specs.get(r["instance"])
        if spec is None:
            continue
        if r["statement"] == "U_S_RED_IMPLIES_U_S_ARM" and r["verdict"] == "holds" \
                and r["details"]["mode"]["search"] == "exhaustive" and spec.exact:
            expected = oracles.zero_product_pair_count(spec.ms[0],
                                                        r["details"]["mode"]["degree"])
            ledger.check(r["details"]["pairs_checked"] == expected,
                         f"{tag}: exhaustive pair count on {r['instance']}")
        if r["statement"] == "S_PF_IMPLIES_S_REDUCED":
            failing = spec.memo("spf", lambda: oracles.s_pf_failing(spec.ms, spec.S))
            ledger.check(r["hypotheses"]["s_pf"] == (not failing),
                         f"{tag}: S-PF hypothesis on {r['instance']}")


# ---------------------------------------------------------------------------
# Workloads


class CorpusWorkload:
    """``sring verify --all`` over a built-in corpus saved as ring files, then
    the single-ring commands on the corpus's curated worked examples.

    The corpus is generated once from a fixed corpus seed, so every run checks
    the same rings; the benchmark seed is verify's ``--seed``, which draws the
    sampled zero-product pairs.  (A corpus drawn per seed would let the share
    of large Armendariz carriers, and with it the run time, vary by a third.)
    """

    def __init__(self, name, seed, corpus_seed, count, max_size, budget):
        self.name, self.seed, self.corpus_seed = name, seed, corpus_seed
        self.count, self.max_size, self.budget = count, max_size, budget
        self.folder = OUT / name / "corpus"

    def setup_once(self):
        from sring.harness import CorpusConfig, generate_corpus
        return generate_corpus(CorpusConfig(seed=self.corpus_seed, count=self.count,
                                            max_size=self.max_size))

    def prepare(self, instances) -> None:
        from sring.harness import StatementId
        self.statements = [st.name for st in StatementId]
        self.folder.mkdir(parents=True, exist_ok=True)
        for old in self.folder.glob("*.json"):
            old.unlink()
        self.labels, self.specs, self.files = [], {}, []
        for inst in instances:
            doc = inst.to_json()
            doc.pop("label")
            path = self.folder / f"{inst.index:03d}-{inst.label}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
            spec = spec_of_instance(inst)
            if spec is not None:
                self.specs[path.name] = spec
            self.labels.append(path.name)
            if inst.origin == "curated":
                self.files.append((path, spec))
        self.stream_digest = None

    def verify_argv(self, workers=None) -> list[str]:
        argv = ["verify", "--all", "--corpus", str(self.folder), "--seed", str(self.seed),
                "--budget", str(self.budget)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv

    def verify(self, ledger, times: dict, workers=None, tracer=None) -> str:
        code, payload = run_cli(self.verify_argv(workers), times, "verify_s", tracer)
        check_stream(ledger, code, payload, self.labels, self.statements,
                     self.specs, self.name)
        return payload

    def round(self, ledger, workers=None, tracer=None) -> tuple[dict, str]:
        times = new_times()
        payload = self.verify(ledger, times, workers, tracer)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if self.stream_digest is None:
            self.stream_digest = digest
            log(f"{self.name} stream sha256={digest} bytes={len(payload.encode())} "
                f"reports={len(payload.splitlines()) - 1}")
        ledger.check(digest == self.stream_digest,
                     f"{self.name}: stream identical to the run's first stream")
        for path, spec in self.files:
            inspect_ring(ledger, path, spec, PREDICATES, spectrum=True, seed=self.seed,
                         times=times, tracer=tracer)
        return times, payload


LARGE_SHAPES = (
    # name, moduli, run spectrum, predicates checked, generator class or fixed
    ("z288", (288,), True, PREDICATES, ((2,), 8)),
    ("z16xz16", (16, 16), False, ("s-pf",), ((2, 1), 8)),
    ("z720-s2", (720,), False, PREDICATES, (2,)),
)
LARGE_STATEMENT = "S_PF_IMPLIES_S_REDUCED"


def large_generator(ms, gcds, size: int, rng: random.Random) -> tuple:
    """A seeded generator g with gcd(g_i, m_i) = gcds and |<g>| = size.

    Every choice in the class has the same divisibility profile, hence the
    same ideal-theoretic shape and nearly the same cost, while the members
    of S and every witness differ from seed to seed.
    """
    cands = [g for g in oracles.elements(ms)
             if tuple(oracles.math.gcd(x, m) for x, m in zip(g, ms)) == gcds
             and len(oracles.closure(ms, [g])) == size]
    return cands[rng.randrange(len(cands))]


class LargeRingsWorkload:
    """``spectrum``, ``localize`` and ``check`` on ring files of 256 to 720
    elements, plus one ``verify --statement`` over the same files."""

    name = "large-rings"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"large-rings:{seed}")
        self.folder = OUT / self.name / "rings"
        self.rings = []
        for name, ms, spectrum, predicates, gen in LARGE_SHAPES:
            if isinstance(gen[0], tuple):
                gen = large_generator(ms, *gen, rng)
            self.rings.append((self.folder / f"{name}.json", RingSpec(ms, [gen]),
                               spectrum, predicates))

    def write_files(self) -> None:
        self.folder.mkdir(parents=True, exist_ok=True)
        for old in self.folder.glob("*.json"):
            old.unlink()
        for path, spec, *_ in self.rings:
            path.write_text(json.dumps(spec.doc(), sort_keys=True) + "\n")

    def setup_once(self):
        from sring.ringfile import parse_ring_file
        return [parse_ring_file(path) for path, *_ in self.rings]

    def prepare(self, _built) -> None:
        self.labels = sorted(path.name for path, *_ in self.rings)
        self.specs = {path.name: spec for path, spec, *_ in self.rings}
        for path, spec, *_ in self.rings:
            log(f"large-rings {path.stem}: S generated by {spec.gens[0]}, "
                f"{len(spec.S)} members")

    def round(self, ledger, workers=None, tracer=None) -> tuple[dict, str]:
        times = new_times()
        for path, spec, spectrum, predicates in self.rings:
            inspect_ring(ledger, path, spec, predicates, spectrum=spectrum,
                         seed=self.seed, times=times, tracer=tracer)
        argv = ["verify", "--statement", LARGE_STATEMENT, "--corpus", str(self.folder),
                "--seed", str(self.seed)]
        code, payload = run_cli(argv, times, "verify_s", tracer)
        check_stream(ledger, code, payload, self.labels, [LARGE_STATEMENT],
                     self.specs, self.name)
        return times, payload


def make_workload(name: str, seed: int):
    if name == "catalog":
        return CorpusWorkload("catalog", seed, corpus_seed=42, count=30, max_size=64,
                              budget=5000)
    if name == "many-rings":
        return CorpusWorkload("many-rings", seed, corpus_seed=7, count=40,
                              max_size=128, budget=2000)
    return LargeRingsWorkload(seed)


def time_setup(workload) -> tuple[float, object]:
    """One timed construction of the workload's rings: (seconds, rings built)."""
    settle()
    t0 = time.perf_counter()
    built = workload.setup_once()
    return time.perf_counter() - t0, built


def set_up(workload) -> float:
    """Construct the workload's rings, prepare its inputs and oracles, and
    return the construction time."""
    if isinstance(workload, LargeRingsWorkload):
        workload.write_files()
    elapsed, built = time_setup(workload)
    workload.prepare(built)
    return elapsed


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def settle() -> None:
    """Collect, then freeze what survives so the commands' collections skip
    the benchmark's own long-lived objects, as in a fresh CLI process."""
    gc.collect()
    gc.freeze()


def calibration() -> float:
    """Seconds for a fixed piece of pure-Python integer and dict work.

    On a shared virtual machine the CPU speed drifts by up to half within
    minutes and moves every timing of a run together; timing this loop next
    to each round measures that speed, so runs can be compared across it.
    """
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(400_000):
        acc += (i * i) % 7
        if i % 4 == 0:
            table[i % 977] = table.get(i % 977, 0) + acc
    return time.perf_counter() - t0


def timed_run(workload, seconds: float, ledger: Ledger) -> dict:
    """Whole rounds for ``seconds``, each between two timings of the
    calibration loop.  A round's times (and the set-up timed just before it)
    are scaled by the reference calibration time over the mean of the two:
    seconds at the reference machine speed.  Metrics are medians over rounds.
    """
    set_up(workload)
    samples = []
    start = time.perf_counter()
    calib = calibration()
    while True:
        setup_s = time_setup(workload)[0]
        settle()
        times, _ = workload.round(ledger)
        after = calibration()
        speed = CALIBRATION_REFERENCE_S / ((calib + after) / 2)
        calib = after
        times["setup_s"] = setup_s
        samples.append({k: v * speed for k, v in times.items()})
        log("round " + " ".join(f"{k}={v:.4f}" for k, v in times.items())
            + f" scale={speed:.4f}")
        if time.perf_counter() - start >= seconds:
            break
    log(f"{workload.name}: {len(samples)} rounds")
    metrics = {k: statistics.median(r[k] for r in samples)
               for k in ("setup_s", "verify_s", "spectrum_s", "check_s", "cpu_s")}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in END_TO_END}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def fallback_carrier(family: str):
    """A fixed carrier for a family the traced round never touched."""
    from sring import rings as R
    expr = {
        "zmod": R.ZMod(720),
        "product": R.Product((R.ZMod(8), R.ZMod(8), R.ZMod(4))),
        "quotient": R.Quotient(R.ZMod(720), (16,)),
        "idealization": R.Idealization(R.ZMod(64), R.ModuleSpec(((0,),))),
        "triangular": R.TriangularE(R.ZMod(12)),
    }[family]
    return R.build_ring(expr, size_cap=12 ** 4)


def family_of(ring) -> str | None:
    return {"ZModRing": "zmod", "ProductRing": "product", "QuotientRing": "quotient",
            "IdealizationRing": "idealization",
            "TriangularERing": "triangular"}.get(type(ring).__name__)


def kernel_rates(rings, min_seconds: float = 0.1) -> dict:
    """mul / add / solve_mul_random per second on the largest carrier per family."""
    largest = {}
    for ring in rings:
        fam = family_of(ring)
        if fam and (fam not in largest or ring.size > largest[fam].size):
            largest[fam] = ring
    fallbacks = [fam for fam in FAMILIES if fam not in largest]
    for fam in fallbacks:
        largest[fam] = fallback_carrier(fam)
    rates = {}
    for fam in FAMILIES:
        ring = largest[fam]
        rng = random.Random(ring.size)
        pairs = [(rng.randrange(ring.size), rng.randrange(ring.size))
                 for _ in range(2000)]
        targets = [(a, ring.mul(a, b)) for a, b in pairs]
        solve_rng = random.Random(0)
        loops = {
            "mul": lambda: [ring.mul(a, b) for a, b in pairs],
            "add": lambda: [ring.add(a, b) for a, b in pairs],
            "solve_mul_random": lambda: [ring.solve_mul_random(a, t, solve_rng)
                                         for a, t in targets],
        }
        for op, loop in loops.items():
            done = 0
            t0 = time.perf_counter()
            while True:
                loop()
                done += len(pairs)
                elapsed = time.perf_counter() - t0
                if elapsed >= min_seconds:
                    break
            rates[f"rings.{op}.{fam}.ops_per_s"] = done / elapsed
        log(f"kernel carrier {fam}: {ring.label} ({ring.size} elements)"
            + (" [fallback]" if fam in fallbacks else ""))
    return rates


def informative_pairs(ledger: Ledger, tracer: Tracer) -> tuple[int, int]:
    """Re-stream every traced zero-product search; count pairs with g != 0."""
    from sring.predicates import zero_product_poly_pairs
    pairs = informative = 0
    for ring, degree, verdict, kwargs in tracer.armendariz_calls:
        if verdict.degenerate:
            continue
        n = good = 0
        for _f, g in zero_product_poly_pairs(
                ring, degree, mode=verdict.mode, seed=kwargs.get("seed", 0),
                budget=kwargs.get("budget", 100_000),
                exhaustive_budget=kwargs.get("exhaustive_budget", 10_000_000)):
            n += 1
            good += not g.is_zero
        ledger.check(n == verdict.pairs_checked,
                     f"re-streamed pair count on {ring.label}")
        pairs += n
        informative += good
    return pairs, informative


def check_ideal_counts(ledger: Ledger, tracer: Tracer) -> None:
    """Every enumerated Z_n or product of Z_n's has prod(divisor counts) ideals."""
    for ring, count in tracer.enumerated.values():
        ms = cyclic_moduli(ring.expression)
        if ms is not None:
            ledger.check(count == oracles.ideal_count(ms),
                         f"ideal count of {ring.label}: {count}")


def command_seconds(times: dict) -> float:
    return times["verify_s"] + times["spectrum_s"] + times["check_s"]


def untraced_round(workload, ledger: Ledger) -> float:
    settle()
    times, _ = workload.round(ledger, workers=1)
    return command_seconds(times)


def traced_run(workload, ledger: Ledger, seed: int) -> dict:
    set_up(workload)
    corpus = isinstance(workload, CorpusWorkload)
    # worker idle time comes from the nproc-worker verify (corpus workloads)
    # or from the serial verify inside the round (large-rings)
    with CatalogCapture() as capture:
        if corpus:
            nproc_payload = workload.verify(ledger, new_times())
        else:
            untraced = untraced_round(workload, ledger)
    if corpus:
        untraced = untraced_round(workload, ledger)
    idle, slowest = capture.idle_and_slowest()

    tracer = Tracer(workload.name)
    settle()
    tracer.install()
    try:
        times, traced_payload = workload.round(ledger, workers=1, tracer=tracer)
    finally:
        tracer.uninstall()
    traced = command_seconds(times)
    if corpus:
        ledger.check(traced_payload == nproc_payload,
                     f"{workload.name}: traced one-worker stream equals the "
                     "nproc-worker stream byte for byte")
    check_ideal_counts(ledger, tracer)
    pairs, informative = informative_pairs(ledger, tracer)
    rates = kernel_rates(tracer.rings.values())

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.jsonl")
    m = {}
    for key in SPANNED:
        m[f"{key}.s"] = tracer.total[key]
        m[f"{key}.calls"] = tracer.calls[key]
    for key in TIMED:
        m[f"{key}.s"] = tracer.total[key]
    m.update(rates)
    m["ideals.enumerate_ideals.rings"] = len(tracer.enumerated)
    m["ideals.ideal_sum.yield_ratio"] = (tracer.enum_found / tracer.enum_sums
                                         if tracer.enum_sums else 0.0)
    arm_s = tracer.total["predicates.is_u_s_armendariz_up_to"]
    checked = sum(v.pairs_checked for _, _, v, _ in tracer.armendariz_calls)
    m["predicates.zero_product.pairs"] = checked
    m["predicates.zero_product.pairs_per_s"] = checked / arm_s if arm_s else 0.0
    m["predicates.zero_product.informative_ratio"] = (informative / pairs
                                                      if pairs else 0.0)
    m["harness.worker_idle_s"] = idle
    m["harness.slowest_instance_s"] = slowest
    for st in STATEMENTS:
        m[f"harness.check.{st}.s"] = tracer.by_statement[st]
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = tracer.self_time[layer]
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_ratio"] = traced / untraced - 1.0
    m["trace.spans"] = len(tracer.spans)
    log(f"{workload.name}: commands of the untraced one-worker round {untraced:.2f}s, "
        f"traced {traced:.2f}s, {len(tracer.spans)} spans")
    units = per_layer_units()
    return {k: {"value": m[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "many-rings", "large-rings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    load_program()
    # verify's worker count is its own default (available parallelism)
    os.environ.pop("SRING_THREADS", None)
    ledger = Ledger()
    from selftest import run_selftest
    run_selftest(ledger)
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        metrics = traced_run(workload, ledger, args.seed)
    else:
        metrics = timed_run(workload, args.seconds, ledger)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
