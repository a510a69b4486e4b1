"""Single-ring commands against their recorded stdout, byte for byte.

The verify stream digest does not cover ``spectrum``, ``localize`` or
``check``; these goldens do.  Each command reads a ring file from
``golden/rings`` by a relative path, so the manifest (which names the input
path and its sha256) is the same on every checkout.  Regenerate a golden only
when a change to the output is intended, and say so with the change.
"""

import contextlib
import io
from pathlib import Path

import pytest

from sring.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [("spectrum", "z288_s22")] + [
    (command, ring)
    for ring in ("z720_s2", "z16xz16_s6_11")
    for command in ("localize", "check s-integral-domain", "check s-pf",
                    "check s-strongly-hopfian")
] + [
    # Z24(+)Z24 (576 elements, above the operation-table limit), S = <(5, (0))>
    ("check u-s-armendariz --max-degree 1 --budget 3000 --seed 5",
     "z24_idealization_s5"),
]


@pytest.mark.parametrize("command,ring", CASES)
def test_single_ring_command_matches_golden(command, ring, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(command.split() + [f"rings/{ring}.json"])
    assert code == 0
    name = "-".join(command.split()[:2])  # the command, without its flags
    expected = (GOLDEN / "cli" / f"{name}-{ring}.json").read_bytes()
    assert buf.getvalue().encode() == expected
