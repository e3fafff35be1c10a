"""Workload ``cli_oneshot``: fresh ``python -m k3lat.cli --json`` processes.

One item is one child process, started after the previous one exited.  The
seeded mix cycles through thirteen commands (``lattice info/show/roots``,
``disc``, ``ns classify/moduli/obstruction``, ``k3 maps/push/pull``, ``ell
fibers/quotient/shioda-tate``) in a shuffled order per cycle, with random
arguments.  This is the only workload that pays for process start, the
package import, argparse and JSON rendering.

Each output is checked for exit code 0, ``"status": "ok"`` and a payload
equal to the same library call made in this process.  The children are
started by ``spawner.py``, so that each one's peak RSS is its own.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from k3lat.discforms import discriminant_form
from k3lat.elliptic import (
    RatPoly,
    WeierstrassFibration,
    fiber_configuration,
    parse_fiber_list,
    shioda_tate,
    two_isogeny_quotient,
)
from k3lat.involution import QuotientCohomology
from k3lat.lattice import enumerate_vectors_of_norm, standard_lattice
from k3lat.nsfamilies import classify_ns, det_square_class_obstruction, moduli_dimension

PROBE = Path(__file__).with_name("cli_probe.py")
SPAWNER = Path(__file__).with_name("spawner.py")

COMMANDS = (
    "lattice info", "lattice show", "lattice roots", "disc",
    "ns classify", "ns moduli", "ns obstruction",
    "k3 maps", "k3 push", "k3 pull",
    "ell fibers", "ell quotient", "ell shioda-tate",
)
MODULI_EXAMPLES = ("M2", "M6", "M4", "M4tilde", "M8", "M8tilde")


def plain(x):
    """JSON data of a library result, rendered independently of the CLI."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, RatPoly):
        return x.coeff_strings()
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


# -- argument draws -----------------------------------------------------------
# Every draw is a valid request: the benchmark measures work, not rejections.


def _std_args(kind, twist, param=None):
    args = ["--std", kind, "--twist", str(twist)]
    return args + (["--param", str(param)] if param is not None else [])


def _draw_any_lattice(rng):
    kind = rng.choice(("U", "E8", "An", "rank1", "NikulinN", "Gamma16"))
    twist = rng.choice((-3, -2, -1, 1, 2, 3))
    param = None
    if kind == "An":
        param = rng.randint(1, 10)
    elif kind == "rank1":
        param = rng.choice((-1, 1)) * rng.randint(1, 200)
    return kind, twist, param


def _draw_even_lattice(rng):
    """Even lattice with |A_M| <= 2^12, so the q histogram stays small."""
    while True:
        kind, twist, param = _draw_any_lattice(rng)
        if kind == "rank1":
            param = 2 * param
        lat = standard_lattice(kind, twist, param)
        if abs(lat.determinant) <= 2 ** 12:
            return kind, twist, param


def _draw_definite(rng):
    """Negative definite lattice and a norm with at most a few thousand vectors."""
    choice = rng.randrange(5)
    if choice == 0:
        return ("E8", rng.choice((-1, -2)), None), rng.choice((-2, -4))
    if choice == 1:
        return ("An", rng.choice((-1, -2)), rng.randint(1, 8)), rng.choice((-2, -4))
    if choice == 2:
        return ("NikulinN", 1, None), rng.choice((-2, -4))
    if choice == 3:
        return ("Gamma16", -1, None), -2
    return ("rank1", 1, -2 * rng.randint(1, 50)), -2 * rng.randint(1, 200)


def _poly_arg(coeffs):
    return ",".join(str(c) for c in coeffs)


def _draw_fibration(rng):
    while True:
        a = [rng.randint(-4, 4) for _ in range(5)]
        b = [rng.randint(-4, 4) for _ in range(9)]
        if any(b) and RatPoly(a) * RatPoly(a) != 4 * RatPoly(b):
            return _poly_arg(a), _poly_arg(b)


def draw(command, rng) -> list[str]:
    """CLI arguments (after ``--json``) for one item of ``command``."""
    if command in ("lattice info", "lattice show"):
        return command.split() + _std_args(*_draw_any_lattice(rng))
    if command == "lattice roots":
        (kind, twist, param), norm = _draw_definite(rng)
        args = ["lattice", "roots"] + _std_args(kind, twist, param) + ["--norm", str(norm)]
        return args + (["--vectors"] if rng.random() < 0.5 else [])
    if command == "disc":
        return ["disc"] + _std_args(*_draw_even_lattice(rng))
    if command == "ns classify":
        return ["ns", "classify", "--L2", str(2 * rng.randint(1, 100))]
    if command == "ns moduli":
        return ["ns", "moduli", "--example", rng.choice(MODULI_EXAMPLES)]
    if command == "ns obstruction":
        return ["ns", "obstruction", "--rankT", str(rng.randint(1, 13))]
    if command == "k3 maps":
        return ["k3", "maps"]
    if command == "k3 push":
        return ["k3", "push", "--vector", json.dumps([rng.randint(-3, 3) for _ in range(30)])]
    if command == "k3 pull":
        return ["k3", "pull", "--vector", json.dumps([rng.randint(-3, 3) for _ in range(22)])]
    if command in ("ell fibers", "ell quotient"):
        a, b = _draw_fibration(rng)
        # "=" keeps argparse from reading "-2,1" as an option
        return command.split() + [f"--a={a}", f"--b={b}"]
    fibers = [(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
    return ["ell", "shioda-tate", "--fibers", ",".join(f"I{n}:{c}" for n, c in fibers),
            "--torsion", str(rng.randint(1, 4))]


# -- reference payloads ----------------------------------------------------------


def _option(args, name, default=None):
    for i, arg in enumerate(args):
        if arg == name:
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return default


def _lattice_of(args):
    param = _option(args, "--param")
    return standard_lattice(
        _option(args, "--std"), int(_option(args, "--twist", "1")),
        None if param is None else int(param))


def _fibration_of(args):
    return WeierstrassFibration(
        RatPoly.from_string(_option(args, "--a")), RatPoly.from_string(_option(args, "--b")))


def reference(args):
    """Expected payload of ``k3lat --json <args>`` from direct library calls."""
    command = " ".join(args[:2]) if args[0] != "disc" else "disc"
    if command == "lattice info":
        lat = _lattice_of(args)
        return {"rank": lat.rank, "det": lat.determinant, "even": lat.is_even,
                "signature": list(lat.signature.as_pair())}
    if command == "lattice show":
        return _lattice_of(args).to_json()
    if command == "lattice roots":
        norm = int(_option(args, "--norm"))
        vectors = enumerate_vectors_of_norm(_lattice_of(args), norm)
        out = {"norm": norm, "count": len(vectors)}
        if "--vectors" in args:
            out["vectors"] = [list(v) for v in vectors]
        return out
    if command == "disc":
        form = discriminant_form(_lattice_of(args))
        hist = dict(sorted(form.q_histogram().items()))
        return {"invariant_factors": list(form.invariant_factors), "elements": form.order,
                "q_histogram": {str(k): v for k, v in hist.items()}}
    if command == "ns classify":
        return [
            {"two_d": f.two_d, "variant": f.variant, "det": f.lattice.determinant,
             "even": f.lattice.is_even, "signature": list(f.lattice.signature.as_pair()),
             "glue_vector": list(f.glue_vector) if f.glue_vector else None,
             "lattice": f.lattice.to_json()}
            for f in classify_ns(int(_option(args, "--L2")))
        ]
    if command == "ns moduli":
        example = _option(args, "--example")
        return {"example": example, "dimension": moduli_dimension(example)}
    if command == "ns obstruction":
        return plain(det_square_class_obstruction(int(_option(args, "--rankT"))))
    if command == "k3 maps":
        return plain(QuotientCohomology().adjunction_report())
    if command == "k3 push":
        return {"vector": QuotientCohomology().push(json.loads(_option(args, "--vector")))}
    if command == "k3 pull":
        return {"vector": QuotientCohomology().pull(json.loads(_option(args, "--vector")))}
    if command == "ell fibers":
        return fiber_configuration(_fibration_of(args)).to_json()
    if command == "ell quotient":
        quot = two_isogeny_quotient(_fibration_of(args))
        return {"a": quot.a.coeff_strings(), "b": quot.b.coeff_strings(),
                "fibers": fiber_configuration(quot).to_json()}
    rank, disc = shioda_tate(parse_fiber_list(_option(args, "--fibers")),
                             int(_option(args, "--torsion")))
    return {"picard_rank": rank, "ns_discriminant": str(disc)}


# -- the workload ------------------------------------------------------------------


class Spawner:
    """Client of ``spawner.py``, which starts each CLI process from a small process."""

    def __init__(self, root: Path):
        spool = root / ".perfbench"
        spool.mkdir(exist_ok=True)
        self.out = spool / f"cli-{os.getpid()}.out"
        self.err = spool / f"cli-{os.getpid()}.err"
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], cwd=root, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        atexit.register(self.close)

    def run(self, argv, cwd: Path, env):
        """Run ``argv`` to its end: (completed process, seconds, its peak RSS in MB)."""
        request = {"argv": argv, "cwd": str(cwd), "env": env, "out": str(self.out), "err": str(self.err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        proc = subprocess.CompletedProcess(argv, reply["returncode"], self.out.read_text(), self.err.read_text())
        return proc, reply["seconds"], reply["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


class CliOneshot:
    name = "cli_oneshot"

    def __init__(self, seed: int):
        self.seed = seed
        self.root = Path.cwd()
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.probe = False  # set when tracing: children run cli_probe.py
        self.child_reports = []
        self.child_rss_mb = []  # peak RSS of each CLI process, in MB
        self.spawner = None  # started by the first item

    def inputs(self):
        """Argument lists: every command once per cycle, shuffled per cycle."""
        rng = random.Random(f"cli_oneshot:{self.seed}")
        while True:
            order = list(COMMANDS)
            rng.shuffle(order)
            for command in order:
                yield draw(command, rng)

    def warm_up(self) -> None:
        self.run(["lattice", "info", "--std", "E8", "--twist", "-2"])

    def run(self, args):
        if self.probe:
            argv = [sys.executable, str(PROBE), "--json", *args]
        else:
            argv = [sys.executable, "-m", "k3lat.cli", "--json", *args]
        if self.spawner is None:
            self.spawner = Spawner(self.root)
        proc, elapsed, rss_mb = self.spawner.run(argv, self.root, self.env)
        self.child_rss_mb.append(rss_mb)
        if self.probe and proc.returncode == 0:
            report = json.loads(proc.stderr.strip().splitlines()[-1])
            report["process_s"] = elapsed
            self.child_reports.append(report)
        return proc

    def check(self, args, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"{args}: exit code {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}"]
        try:
            envelope = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [f"{args}: stdout is not JSON: {exc}"]
        if envelope.get("status") != "ok":
            return [f"{args}: status {envelope.get('status')!r}"]
        expected = json.loads(json.dumps(reference(args)))
        if envelope.get("payload") != expected:
            return [f"{args}: payload differs from the library call"]
        return []
