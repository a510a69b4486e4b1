"""The random ``a*x = t`` solvers of carriers above the solution cache draw
exactly the recorded values.

The degree-1 sampler tests compare two streams that call the same
``solve_mul_random``, so they cannot see a change in what it draws.  Here
one seeded generator feeds a fixed list of equations per ring, half with a
target t = a*b (always solvable) and half with a random target (often
not), and the sha256 of every result and of one final ``rng.random()``
pins both the values drawn and how many random numbers each call took.
The digests were recorded with the solvers as they stood before their
tables were reworked; a change that moves any of them moves the sampled
zero-product streams.

The pair sampler does not call the solver for a unit left coefficient,
whose only solution of a*x = 0 is 0: it burns the draws the call would
take, counted once per carrier on one*x = 0.  So every unit must take
exactly that many draws and return 0.
"""

import hashlib
import random

import pytest

from sring import Idealization, ModuleSpec, TriangularE, ZMod, build_ring
from sring.predicates import _draws_per_unit_solve, _DrawCounter
from sring.rings import SOLUTION_CACHE_LIMIT

RINGS = {
    "UT3(Z5)": TriangularE(ZMod(5)),
    "UT3(Z12)": TriangularE(ZMod(12)),
    "Z56(+)Z56": Idealization(ZMod(56), ModuleSpec(((0,),))),
    "Z16(+)(0;2)": Idealization(ZMod(16), ModuleSpec(((0,), (2,)))),
}

DIGESTS = {
    "UT3(Z5)": "d894e1edda201a2afa060c92a0a87aad6bfa837ff14f69ca6eb26fcdcf909e3d",
    "UT3(Z12)": "caf58a2653d75a46cae0227aee943e80b5437550ce2a1f4e44df32f6a28bdf55",
    "Z56(+)Z56": "60030f28fcb3abc83ed85937bffc61cd386ff5d2390fa4482d566f8c0ec8e4ec",
    "Z16(+)(0;2)": "c131fed56122c131804b6a0b68f40363e0824cbf6aaa242ed8549a7c522c5c38",
}


def equations(ring, count=2000):
    """``count`` pairs (a, t): even positions t = a*b, odd ones t random."""
    pick = random.Random(2024).random
    out = []
    for k in range(count):
        a = int(pick() * ring.size)
        u = int(pick() * ring.size)
        out.append((a, ring.mul(a, u) if k % 2 == 0 else u))
    return out


def draw_digest(ring) -> tuple[str, int, int]:
    """(sha256 of the draws, unsolvable count, solved count)."""
    rng = random.Random(7)
    h = hashlib.sha256()
    unsolved = solved = 0
    for a, t in equations(ring):
        x = ring.solve_mul_random(a, t, rng)
        if x is None:
            unsolved += 1
        else:
            solved += 1
            assert ring.mul(a, x) == t, (ring.label, a, t, x)
        h.update(repr(x).encode() + b";")
    h.update(repr(rng.random()).encode())
    return h.hexdigest(), unsolved, solved


@pytest.mark.parametrize("name", list(RINGS))
def test_random_solver_draws_are_pinned(name):
    ring = build_ring(RINGS[name], size_cap=20736)
    # every ring here draws with its own solver, not from cached lists
    assert ring.size > SOLUTION_CACHE_LIMIT
    digest, unsolved, solved = draw_digest(ring)
    # both kinds of target occur, so the digest covers both paths
    assert unsolved > 0 and solved >= 1000
    assert digest == DIGESTS[name]


# a triangular solver draws x, y, w and z; an idealization's draws its
# base solution y and then the module solution
UNIT_DRAWS = {"UT3(Z5)": 4, "UT3(Z12)": 4, "Z56(+)Z56": 2, "Z16(+)(0;2)": 2}


@pytest.mark.parametrize("name", list(RINGS))
def test_every_unit_takes_the_probed_draws(name):
    ring = build_ring(RINGS[name], size_cap=20736)
    k = _draws_per_unit_solve(ring)
    assert k == UNIT_DRAWS[name]
    units = [u for u, unit in enumerate(ring.unit_flags) if unit]
    assert units
    for u in units:
        counter = _DrawCounter()
        assert ring.solve_mul_random(u, ring.zero, counter) == ring.zero
        assert counter.draws == k, (u, counter.draws)
