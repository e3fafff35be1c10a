"""The ``ell`` commands of the CLI against a golden record, byte for byte.

``golden_ell_cli.txt`` holds one line per (argv, output mode): the ``repr`` of
``(argv, exit code, stdout, stderr)``.  The inputs are fixed integer and
rational Weierstrass pairs for ``ell fibers`` and ``ell quotient`` and fixed
fiber lists for ``ell shioda-tate``, including inputs that end in an error
envelope.  The record was written once by ``render()`` below from the code in
which every ``RatPoly`` coefficient was a ``Fraction``, so a change of
coefficient type that moves any printed digit, key or exit code fails here.
Regenerate it only together with a change that means to move ``ell`` output,
and say so in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

from k3lat.cli import main

GOLDEN = Path(__file__).with_name("golden_ell_cli.txt")

# (a, b) pairs, low degree first
INTEGER_PAIRS = [
    ("1,0,0,0,1", "1"),  # the t^4 family: 8 I_1 and I_16 at infinity
    ("-3,2,5,0,1", "1"),
    ("2,-1,3,0,-2", "1,4,-3,2,0,5,-1,2,3"),  # generic: 8 I_1 + 8 I_2
    ("1,2,0,-1,1", "3,0,1,-2,0,1,0,0,1"),
    ("0,1", "0,0,1"),  # additive places
    ("0", "-1,0,0,0,0,0,0,0,2"),
    ("4,0,-8", "4,0,-8,0,4"),  # a^2 - 4b has a repeated factor
]
RATIONAL_PAIRS = [
    ("1/2,-3", "1,0,1/3"),
    ("2/3,-1/3,1,0,-2/3", "1/3,4/3,-1,2/3,0,5/3,-1/3,2/3,1"),  # the generic pair over 3
    ("0,0,0,0,1/2", "1/16"),
    ("3/2,0,0,0,1", "1/4"),
    ("-7/5,1/10", "9/25,0,-1/7"),
]
BAD_PAIRS = [
    ("1,0,1", "0"),  # b = 0: degenerate
    ("2", "1"),  # a^2 - 4b = 0: degenerate
    ("1,2,3,4,5,6", "1"),  # deg a > 4
    ("1", "1,x"),
    ("1", "1/0"),
]
FIBER_LISTS = [
    ("I2:8,I1:8", "2"),
    ("I16:1,I1:8", "2"),
    ("I8:1,I2:8", "2"),
    ("I3:8", "3"),
    ("I1:24", "1"),
    ("I2:8", "0"),
    ("II:1", "1"),
]


def argv_lists() -> list[list[str]]:
    out = []
    for a, b in INTEGER_PAIRS + RATIONAL_PAIRS + BAD_PAIRS:
        # "=" keeps argparse from reading "-3,2" as an option
        for command in ("fibers", "quotient"):
            out.append(["ell", command, f"--a={a}", f"--b={b}"])
    for fibers, torsion in FIBER_LISTS:
        out.append(["ell", "shioda-tate", "--fibers", fibers, "--torsion", torsion])
    return out


def render() -> str:
    lines = []
    for argv in argv_lists():
        for full in (argv, ["--json"] + argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(full)
            lines.append(repr((full, code, out.getvalue(), err.getvalue())) + "\n")
    return "".join(lines)


def test_ell_cli_matches_the_golden_record():
    assert render() == GOLDEN.read_text(encoding="utf-8")
