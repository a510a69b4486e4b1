#!/usr/bin/env python3
"""Self-test of the benchmark's oracles against values known by hand.

    python3 bench/selftest.py

Runs in well under a second and needs no sring.  The benchmark also runs it
at the start of every run and counts each value as one check.
"""

from __future__ import annotations

import sys

import oracles as O


def _z(n):
    return (n,)


def _S(ms, *gens):
    return O.closure(ms, [g if isinstance(g, tuple) else (g,) for g in gens])


def cases():
    z24, z720 = _z(24), _z(720)
    S24 = _S(z24, 2)
    S720 = _S(z720, 2)
    killers, uniform = O.s_reduced(z24, S24)
    yield "Z24: nilpotents are 0, 6, 12, 18", O.nilpotents(z24) == {(0,), (6,), (12,), (18,)}
    yield "Z24/<2>: S = {1, 2, 4, 8, 16}", S24 == [(1,), (2,), (4,), (8,), (16,)]
    yield "Z24/<2>: S-reduced with least uniform witness 4", \
        None not in killers.values() and uniform[0] == (4,)
    yield "Z8/<3>: not S-reduced, no unit kills 2", \
        O.s_reduced(_z(8), _S(_z(8), 3))[0][(2,)] is None
    yield "Z720 has 30 ideals", O.ideal_count(z720) == 30 == len(O.divisors(720))
    yield "Z8 x Z8 x Z4 has 48 ideals", O.ideal_count((8, 8, 4)) == 48
    yield "Z4^4 has 81 ideals", O.ideal_count((4, 4, 4, 4)) == 81
    yield "Z720/<2> has 10 S-primes", len(O.s_primes(z720, S720)) == 10
    yield "Z720/<2>: S-primes are dZ with d = 2^a * 3 or 2^a * 5, a <= 4", \
        sorted(d for (d,) in O.s_primes(z720, S720)) == [3, 5, 6, 10, 12, 20, 24, 40, 48, 80]
    yield "Z720 localized at <2> has 45 elements", \
        O.coprime_part(720, 2) == 45 == 720 // len(O.torsion(z720, S720))
    yield "Z720: nilradical is the multiples of rad(720) = 30", \
        O.nilpotents(z720) == {(x,) for x in range(0, 720, 30)}
    yield "Z6/<2>: least S-integral-domain witness 2", \
        O.s_integral_domain_witnesses(_z(6), _S(_z(6), 2))[:1] == [(2,)]
    yield "Z7 is a domain: witness 1", \
        O.s_integral_domain_witnesses(_z(7), _S(_z(7), 1))[:1] == [(1,)]
    yield "Z4 is not PF: ann(2) = {0, 2} is not pure", \
        O.s_pf_failing(_z(4), _S(_z(4), 1)) == [(2,)]
    yield "Z6 is PF", O.s_pf_failing(_z(6), _S(_z(6), 1)) == []
    yield "Z8: chain of 2 is {0,4} < {0,2,4,6} < Z8, stable at 3", \
        O.hopfian_entry(_z(8), (2,), _S(_z(8), 1))[:2] == (3, 3)
    yield "Z8/<3>: a unit has a stable chain at 1", \
        O.hopfian_entry(_z(8), (3,), _S(_z(8), 3))[:2] == (1, 1)
    yield "Z12/<2>: even members of S make the chain of 6 stationary at k = 1", \
        O.hopfian_entry(_z(12), (6,), _S(_z(12), 2)) == (1, 2, [(2,), (4,), (8,)])
    yield "F_5[x], degree <= 2: 2*5^3 - 1 zero-product pairs", \
        O.zero_product_pair_count(5, 2) == 249
    yield "F_2[x], degree <= 1: 7 zero-product pairs", O.zero_product_pair_count(2, 1) == 7
    yield "pair counts multiply over Z6 = Z2 x Z3", \
        O.zero_product_pair_count(6, 1) == 7 * 17
    yield "Z4[x], degree 0: pairs (a, b) with ab = 0 in Z4 number 8", \
        O.zero_product_pair_count(4, 0) == 8
    yield "Z2 x Z2 with S = <(1, 0)>: S-primes 0 x Z2 and 0", \
        O.s_primes((2, 2), _S((2, 2), (1, 0))) == [(2, 1), (2, 2)]


def run_selftest(ledger) -> None:
    for name, ok in cases():
        ledger.check(ok, f"oracle self-test: {name}")


class _Tally:
    failed = 0

    def check(self, ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        self.failed += not ok


if __name__ == "__main__":
    tally = _Tally()
    run_selftest(tally)
    sys.exit(1 if tally.failed else 0)
