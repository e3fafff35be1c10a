"""The non-``ell`` commands of the CLI against a golden record, byte for byte.

``golden_cli.txt`` holds one line per (argv, output mode): the ``repr`` of
``(argv, exit code, stdout, stderr)``, as in ``golden_ell_cli.txt``.  It covers
``lattice info/show/roots``, ``disc``, ``k3 maps/push/pull``, ``ns classify``,
``ns moduli`` on all six worked examples, ``ns obstruction`` and
``verify-paper``, and one error envelope for each subcommand that can end in
one.  The record was written once by ``render()`` below from the code in which
``Signature`` and ``CommandResult`` were dataclasses, so a change of record type
that moves any printed digit, key or exit code fails here.  Usage errors are
left out: argparse words them differently from one Python version to the next.
Regenerate the record only together with a change that means to move CLI
output, and say so in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

from k3lat.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

LATTICES = [
    ["--std", "U"],
    ["--std", "E8", "--twist", "-2"],
    ["--std", "An", "--param", "3", "--twist", "-1"],
    ["--std", "rank1", "--param", "-6"],
    ["--std", "NikulinN"],
    ["--std", "Gamma16", "--twist", "-1"],
]
ROOTS = [
    (["--std", "E8", "--twist", "-1"], "-2", False),
    (["--std", "An", "--param", "4", "--twist", "-1"], "-2", True),
    (["--std", "NikulinN"], "-4", True),
    (["--std", "rank1", "--param", "-2"], "-8", True),
]
DISCS = [
    ["--std", "NikulinN"],
    ["--std", "An", "--param", "5", "--twist", "2"],
    ["--std", "E8", "--twist", "-2"],
    ["--std", "U", "--twist", "3"],
]
PUSHES = [
    [0] * 30,
    [1, -2, 3, 0, 1, 0, -1, 2, 0, 0, 1, 1, 0, 0, -3, 2, 1, 0, 0, 0, 1, 0, 0, 2, -1, 0, 0, 1, 0, 3],
]
PULLS = [
    [1] + [0] * 12 + [1] + [0] * 8,
    [2, -1, 0, 3, 1, 0, 0, -2, 1, 0, 0, 0, 1, 1, 0, 2, 0, -1, 0, 0, 1, 3],
]
MODULI_EXAMPLES = ["M2", "M6", "M4", "M4tilde", "M8", "M8tilde"]
# each ends in an error envelope: bad_input, not_definite, odd_lattice, malformed_json
ERRORS = [
    ["lattice", "info"],
    ["lattice", "show", "--std", "An"],
    ["lattice", "roots", "--std", "U", "--norm", "-2"],
    ["disc", "--std", "rank1", "--param", "3"],
    ["glue", "--base", "no-such-dir/base.json", "--vectors", "no-such-dir/vectors.json"],
    ["k3", "push", "--vector", "[1, 2]"],
    ["k3", "pull", "--vector", "[1, 2]"],
    ["ns", "classify", "--L2", "7"],
    ["ns", "obstruction", "--rankT", "14"],
]


def argv_lists() -> list[list[str]]:
    out = []
    for source in LATTICES:
        out += [["lattice", "info", *source], ["lattice", "show", *source]]
    for source, norm, listed in ROOTS:
        out.append(["lattice", "roots", *source, "--norm", norm] + (["--vectors"] if listed else []))
    out += [["disc", *source] for source in DISCS]
    out.append(["k3", "maps"])
    out += [["k3", "push", "--vector", json.dumps(v)] for v in PUSHES]
    out += [["k3", "pull", "--vector", json.dumps(v)] for v in PULLS]
    out += [["ns", "classify", "--L2", two_d] for two_d in ("2", "4", "8", "16")]
    out += [["ns", "moduli", "--example", example] for example in MODULI_EXAMPLES]
    out += [["ns", "obstruction", "--rankT", rank] for rank in ("1", "5", "12", "13")]
    out += [["verify-paper"], ["verify-paper", "--seed", "7"]]
    return out + ERRORS


def render() -> str:
    lines = []
    for argv in argv_lists():
        for full in (argv, ["--json"] + argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(full)
            lines.append(repr((full, code, out.getvalue(), err.getvalue())) + "\n")
    return "".join(lines)


def test_cli_matches_the_golden_record():
    assert render() == GOLDEN.read_text(encoding="utf-8")
