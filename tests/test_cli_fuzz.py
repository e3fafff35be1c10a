"""Fuzzing the CLI in process: every argv ends in an exit code and one JSON error.

Argument lists are drawn from the parser's own words (commands, flags, lattice
kinds) mixed with junk tokens, and file arguments point at drawn JSON
documents: lattice-shaped (with or without glue vectors) or arbitrary.  Whatever the
input, ``cli.main`` must return 0, 1, 2 or 3 without raising.  An error goes
out as one JSON object: the ``--json`` envelope on stdout, or the plain error
object on stderr (after argparse's usage text when the argv does not parse).
The short-vector term bound is lowered for the run, so a drawn norm search
ends in ``unsupported`` quickly instead of using up the time.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lat import lattice
from k3lat.cli import main

_SOURCE = ("--std", "--twist", "--param", "--file")
#: each command with the flags its parser knows
COMMANDS = {
    ("lattice", "info"): _SOURCE,
    ("lattice", "show"): _SOURCE,
    ("lattice", "roots"): _SOURCE + ("--norm", "--vectors"),
    ("disc",): _SOURCE,
    ("glue",): ("--base", "--vectors"),
    ("k3", "maps"): (),
    ("k3", "push"): ("--vector",),
    ("k3", "pull"): ("--vector",),
    ("ns", "classify"): ("--L2",),
    ("ns", "moduli"): ("--example",),
    ("ns", "obstruction"): ("--rankT",),
    ("ell", "fibers"): ("--a", "--b"),
    ("ell", "quotient"): ("--a", "--b"),
    ("ell", "shioda-tate"): ("--fibers", "--torsion"),
    ("lattice",): (),
    ("frobnicate",): (),
    (): (),
}
FLAGS = sorted({flag for flags in COMMANDS.values() for flag in flags} | {"--json", "--seed"})
SMALL_INTS = st.integers(-12, 24).map(str)
JUNK = st.one_of(
    st.sampled_from(["", "-", "1/0", "x", "1e3", "0x10", "9" * 30, "FILE"]), st.text(max_size=6)
)
VALUES = {
    "--std": st.sampled_from(["U", "E8", "An", "rank1", "NikulinN", "Gamma16"]),
    "--file": st.just("FILE"),
    "--base": st.just("FILE"),
    "--vectors": st.just("FILE"),
    "--example": st.sampled_from(["M2", "M6", "M4", "M4tilde", "M8", "M8tilde"]),
    "--a": st.sampled_from(["1,0,0,0,1", "1,2,0,-1,1", "0", "1/2,-3", "1,1,1,1,1,1"]),
    "--b": st.sampled_from(["1", "3,0,1,-2,0,1,0,0,1", "0", "1,0,1", "2/3"]),
    "--fibers": st.sampled_from(["I2:8,I1:8", "I16:1,I1:8", "I2:x", "I0:1", "II:1"]),
    "--vector": st.sampled_from(
        ["[]", "{}", "[1,2]", json.dumps([0] * 22), json.dumps([1] + [0] * 29), '["1/2"]']
    ),
}
ENTRIES = st.one_of(
    st.integers(-4, 4), st.sampled_from(["1/2", "-1/3", "2", "a", None, 1.5, True, [], {}])
)
JSON_DOCS = st.one_of(
    st.integers(1, 5).flatmap(  # lattice-shaped, square or not
        lambda n: st.fixed_dictionaries(
            {"gram": st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=1, max_size=n)},
            optional={  # one file serves glue as --base and as --vectors
                "labels": st.lists(st.text(max_size=2), max_size=n),
                "name": st.text(max_size=3),
                "vectors": st.lists(st.lists(ENTRIES, min_size=n - 1, max_size=n), max_size=3),
            },
        )
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=8,
    ),
)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    flags = [f for f in COMMANDS[command] if draw(st.integers(0, 9))]  # most of its own flags
    if not draw(st.integers(0, 4)):
        flags.append(draw(st.sampled_from(FLAGS)))  # sometimes a stray one
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        switch = flag == "--json" or (
            flag == "--vectors" and command == ("lattice", "roots")
        )
        if not switch:
            argv.append(draw(VALUES.get(flag, SMALL_INTS) if draw(st.integers(0, 4)) else JUNK))
    if draw(st.booleans()):
        argv.insert(0, "--json")
    return argv, draw(JSON_DOCS)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(invocations())
# open() refuses a path with a NUL in it by raising ValueError, not OSError
@example((["glue", "--base", "\x00", "--vectors", "FILE"], {"gram": [[2]]}))
@settings(max_examples=200, deadline=None)
def test_every_invocation_ends_in_an_exit_code_and_one_json_error(case):
    argv, doc = case
    bound = lattice._SHORT_VECTOR_TERM_BOUND
    lattice._SHORT_VECTOR_TERM_BOUND = 30_000
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [path if a == "FILE" else a for a in argv]
            code, out, err = _run(argv)
    finally:
        lattice._SHORT_VECTOR_TERM_BOUND = bound
    assert code in (0, 1, 2, 3)
    if code == 2:  # argparse's usage text, then the JSON error
        error = json.loads(err.splitlines()[-1])
        assert error["status"] == "error" and error["code"] == "usage"
    elif argv[:1] == ["--json"]:
        envelope = json.loads(out)
        assert err == "" and (envelope["status"] == "ok") == (code == 0)
    elif code:
        error = json.loads(err)
        assert out == "" and error["status"] == "error"
    else:
        assert err == ""
