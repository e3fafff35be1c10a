"""Acceptance gate: every criterion runs exactly, one pass/fail line each.

The same checks back the ``k3lat verify-paper`` CLI command; here each
criterion is its own test so a failure pinpoints the broken claim.  All
tolerances are exact (integer/rational equality); the two seeded criteria use
the fixed default seed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3lat
from k3lat import (
    InvolutionModule,
    direct_sum,
    hyperbolic_plane,
    k3_lattice,
    lattice_fingerprint,
    linalg,
    nsfamilies,
    rank_one,
    verify,
)
from k3lat.cli import run
from k3lat.discforms import FiniteQuadraticForm
from k3lat.elliptic import RatPoly, WeierstrassFibration
from k3lat.errors import K3LatError
from k3lat.nsfamilies import EigenspaceReport, MorrisonNikulinReport
from k3lat.verify import CRITERIA, DEFAULT_SEED

PACKAGE = Path(k3lat.__file__).parent


@pytest.mark.parametrize(
    "number,title,func", CRITERIA, ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA]
)
def test_criterion(number, title, func):
    try:
        detail = func()
    except K3LatError:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")
    assert detail is not None


def test_verify_paper_cli_is_superset():
    result = run(["verify-paper", "--seed", str(DEFAULT_SEED)])
    assert result.status == "ok"
    assert result.exit_code == 0
    assert result.payload["all_passed"] is True
    assert len(result.payload["results"]) == len(CRITERIA)
    assert all(line.startswith("[PASS]") for line in result.diagnostics)


def _sixteen_gon(rng):
    return WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1]))


def _zero_table(two_d, variant="plain"):
    return EigenspaceReport(0, 0, 0, 0)


_pairing_row = FiniteQuadraticForm._pairing_row


def _b_plus_one(form, x):
    """b(x, g_j) + 1 for every generator g_j, in the row that b_numerator and rows read."""
    return [c + 1 for c in _pairing_row(form, x)]


_enumerate_vectors_of_norm = verify.enumerate_vectors_of_norm


def _half_space_only(lattice, norm):
    """The search without the negatives it appends: one of each +-v."""
    vectors = _enumerate_vectors_of_norm(lattice, norm)
    return [v for v in vectors if next(c for c in reversed(v) if c) > 0]


_e8_simple_reflections = verify.e8_simple_reflections


def _first_reflection_replaced():
    """The E8 reflections with the first one replaced by the identity."""
    return [linalg.identity_matrix(8)] + _e8_simple_reflections()[1:]


def _wrong_glue_vector(d):
    return (1, 0, 0, 0, 0, 0, 0, 0)


#: tilde_family refuses (1, 0, ..., 0), of norm -4, at 2d = 8 (criteria 6 and 11);
#: criterion 8 reads the split (4, 4) off it there and fails its check
_GLUE_CODES = {6: "bad_input", 8: "check_failed", 11: "bad_input"}


def _identity_on_k3():
    return InvolutionModule(k3_lattice(), linalg.identity_matrix(22))


_morrison_nikulin = nsfamilies.morrison_nikulin_lattices


def _t_with_the_form_of_ns(n):
    """T = <2n> + U^2: the discriminant group of the real T, but q_T = +q_NS."""
    real = _morrison_nikulin(n)
    t = direct_sum([rank_one(2 * n), hyperbolic_plane(), hyperbolic_plane()])
    return MorrisonNikulinReport(real.ns, t, real.ns_fingerprint, lattice_fingerprint(t))


@pytest.mark.parametrize(
    "module, name, replacement, failing, code, warm",
    [
        # criteria 6 and 11 build the tilde families from this vector, and criterion 8
        # reads the tilde polarization off it
        (nsfamilies, "canonical_glue_vector", _wrong_glue_vector, [6, 8, 11], _GLUE_CODES, False),
        (verify, "_random_weierstrass", _sixteen_gon, [9], "unsupported", False),
        (verify, "eigenspace_dimensions", _zero_table, [8], "check_failed", False),
        # after a full pass has filled every memo, the patch still reaches glue
        (nsfamilies, "canonical_glue_vector", _wrong_glue_vector, [6, 8, 11], _GLUE_CODES, True),
        # criterion 11 checks q against b on integer numerators, read from the x P rows
        (FiniteQuadraticForm, "_pairing_row", _b_plus_one, [11], "check_failed", True),
        # 240 roots of Gamma16(-1) and 120 of E8(-1), so both root counts fail
        (verify, "enumerate_vectors_of_norm", _half_space_only, [2, 3], "check_failed", False),
        # after a full pass has cached every search, the patched search is still read
        (verify, "enumerate_vectors_of_norm", _half_space_only, [2, 3], "check_failed", True),
        # after a full pass has cached the W(E8) orbits, other generators get their own partition
        (verify, "e8_simple_reflections", _first_reflection_replaced, [6], "check_failed", True),
        # (s, t, r) = (22, 0, 0) is not (6, 0, 8)
        (verify, "swap_involution", _identity_on_k3, [5], "check_failed", False),
        # the q_T = -q_NS check fails first, not the later fingerprint check on T
        (verify, "morrison_nikulin_lattices", _t_with_the_form_of_ns, [10],
         "check_failed: rank-17 pair", False),
        # 20 - rho = 10 Weierstrass parameters, not 11
        (verify, "MODULI_COUNT", 11, [9], "check_failed", False),
    ],
    ids=[
        "glue-vector", "i16-pair", "eigenspace-table", "glue-vector-warm", "b-numerator",
        "half-space-search", "half-space-search-warm", "replaced-reflection-warm",
        "identity-involution", "t-with-the-form-of-ns",
        "weierstrass-count",
    ],
)
def test_domain_error_fails_only_its_criteria(
    monkeypatch, module, name, replacement, failing, code, warm
):
    if warm:
        assert all(r.passed for r in verify.run_all(DEFAULT_SEED))
    monkeypatch.setattr(module, name, replacement)
    results = verify.run_all(DEFAULT_SEED)
    assert [r.number for r in results] == [n for n, _, _ in CRITERIA]
    assert [r.number for r in results if not r.passed] == failing
    codes = code if isinstance(code, dict) else dict.fromkeys(failing, code)
    assert all(r.detail.startswith(f"{codes[r.number]}: ") for r in results if not r.passed)


def _run_optimized(pycache, *args):
    """Run ``python -O`` with this package importable, as a user would.

    Both runs share one bytecode cache under ``pycache``, so the second reuses
    what the first compiled and nothing is written next to the sources.
    """
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run(
        [sys.executable, "-O", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


_BROKEN_TABLE = """
import json, sys
from k3lat import verify
from k3lat.nsfamilies import EigenspaceReport
verify.eigenspace_dimensions = lambda two_d, variant="plain": EigenspaceReport(0, 0, 0, 0)
results = verify.run_all(0)
print(json.dumps({"optimize": sys.flags.optimize,
                  "failed": {r.number: r.detail for r in results if not r.passed}}))
"""


def test_checks_still_fail_under_python_O(tmp_path):
    proc = _run_optimized(tmp_path, "-c", _BROKEN_TABLE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["failed"] == {
        "8": "check_failed: eigenspaces(6,plain) = (0, 0, 0, 0) != (3, 2, 6, 2)"
    }
    proc = _run_optimized(tmp_path, "-m", "k3lat.cli", "--json", "verify-paper")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["all_passed"] is True


def test_no_assert_statements_in_the_package():
    # assert is stripped under python -O; every check goes through errors.require
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from k3lat.cli import main
codes = []
for argv in (
    ["ell", "fibers", "--a", "1,2,0,-1,1", "--b", "3,0,1,-2,0,1,0,0,1"],
    ["ell", "quotient", "--a", "1,0,0,0,1", "--b", "1"],
    ["lattice", "info", "--std", "E8", "--twist", "-2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["--json", *argv]))
loaded = sorted(m for m, mod in sys.modules.items() if m.partition(".")[0] == "sympy" and mod)
print(json.dumps({"codes": codes, "sympy": loaded}))
"""


def test_cli_runs_without_sympy():
    # sympy is a test oracle only; an eager import in the package would fail here
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "sympy": []}
