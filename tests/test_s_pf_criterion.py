"""The ideal-sum S-purity criterion against the witness walk.

In a commutative ring, a in an ideal I has b in I and s in S with
s*a = a*b iff S meets the ideal I + ann(a); ``is_s_pf`` decides each
annihilator that way, once per distinct ann(a), while ``is_s_pure`` walks
the elements of the ideal for witnesses.  The reference here is the walk:
``is_s_pure`` on each distinct annihilator, in index order, with
annihilators found by scanning the ring.  Each check compares the verdict,
the least failing element, the failing annihilator and the walk's detail.
"""

from pathlib import Path

import pytest

from sring import (
    Idealization,
    ModuleSpec,
    Product,
    Quotient,
    ZMod,
    build_ring,
    enumerate_ideals,
    is_s_pf,
    is_s_pure,
    mult_closure,
    parse_ring_file,
    predicates,
)
from sring.cli import main
from sring.errors import SRingError
from sring.ideals import Ideal
from sring.rings import mask_elements, power_cycle

GOLDEN_RINGS = Path(__file__).parent / "golden" / "rings"


def scanned_annihilators(ring) -> list[int]:
    """Per element a, the bitmask of every x with a*x = 0, by scan."""
    n, mul, zero = ring.size, ring.mul, ring.zero
    return [sum(1 << x for x in range(n) if mul(a, x) == zero) for a in range(n)]


def reference_s_pf(ring, S):
    """(verdict, failing, failing annihilator mask, detail) from the witness
    walk on each distinct annihilator, in index order."""
    checked = set()
    for a, mask in enumerate(scanned_annihilators(ring)):
        if mask in checked:
            continue
        checked.add(mask)
        detail = is_s_pure(S, Ideal(ring, mask))
        if not detail.verdict:
            return False, a, mask, detail
    return True, None, None, None


def s_pf_outcome(ring, S):
    res = is_s_pf(ring, S)
    ann = res.failing_annihilator
    return res.verdict, res.failing, None if ann is None else ann.mask, res.detail


def single_generator_sets(ring):
    """Every distinct S = <g>, g an element whose powers miss 0."""
    sets = {}
    for g in range(ring.size):
        if ring.zero not in power_cycle(ring, g):
            S = mult_closure(ring, (g,))
            sets.setdefault(S.mask, S)
    return list(sets.values())


def commutative_golden_rings(limit: int):
    for path in sorted(GOLDEN_RINGS.glob("*.json")):
        ring, S = parse_ring_file(str(path))
        if ring.commutative and ring.size <= limit:
            yield pytest.param(ring, S, id=path.stem)


@pytest.mark.parametrize("ring,S", list(commutative_golden_rings(300)))
def test_s_pf_matches_the_witness_walk_on_golden_rings(ring, S):
    assert s_pf_outcome(ring, S) == reference_s_pf(ring, S)


# carriers of at most 64 elements: cyclic, products, local, quotients of a
# product and idealizations over non-reduced bases
SMALL = [
    ZMod(24), ZMod(36), ZMod(60),
    Product((ZMod(4), ZMod(12))), Product((ZMod(6), ZMod(6))),
    Product((ZMod(2), ZMod(2), ZMod(2), ZMod(2))),
    Quotient(Product((ZMod(4), ZMod(12))), ((2, 4),)),
    Idealization(ZMod(4), ModuleSpec(((0,),))),
    Idealization(ZMod(8), ModuleSpec(((4,),))),
    Idealization(ZMod(12), ModuleSpec(((4,),))),
]


def test_criterion_matches_the_witness_walk_on_every_ideal():
    """On every ideal I of each small carrier and every single-generator S,
    the criterion's least failing element is the walk's, and ``is_s_pf``
    matches the reference.  The cases reach the criterion's last branch,
    where S misses both I and ann(a) and neither holds the other, with
    both outcomes."""
    summed = {True: 0, False: 0}
    for expr in SMALL:
        ring = build_ring(expr)
        anns = scanned_annihilators(ring)
        ideals = [I.mask for I in enumerate_ideals(ring)]
        for S in single_generator_sets(ring):
            assert s_pf_outcome(ring, S) == reference_s_pf(ring, S), S
            for I in ideals:
                assert predicates._least_impure(S, I, anns.__getitem__) == \
                    is_s_pure(S, Ideal(ring, I)).failing, (S, I)
                for a in mask_elements(I):
                    J = anns[a]
                    if not S.mask & (I | J) and I & ~J and J & ~I:
                        summed[predicates._s_meets_sum(S, I, J)] += 1
    assert summed[True] and summed[False], summed


def _call_pure_sums_impure(monkeypatch):
    monkeypatch.setattr(predicates, "_s_meets_sum", lambda S, I, J: False)


def test_disagreeing_criteria_raise(monkeypatch):
    """Z6 with S = {1} is S-PF; a criterion that calls the pure annihilator
    ann(1) = 0 impure is caught by the witness walk."""
    ring = build_ring(ZMod(6))
    S = mult_closure(ring, (1,))
    assert is_s_pf(ring, S).verdict
    _call_pure_sums_impure(monkeypatch)
    with pytest.raises(SRingError, match="S-purity criteria disagree"):
        is_s_pf(ring, S)


def test_disagreeing_criteria_exit_2_without_traceback(monkeypatch, tmp_path, capsys):
    path = tmp_path / "z6.json"
    path.write_text('{"ring": {"type": "zmod", "n": 6}, "mult_set": {"generators": [1]}}')
    _call_pure_sums_impure(monkeypatch)
    assert main(["check", "s-pf", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: S-purity criteria disagree")
    assert "Traceback" not in err
