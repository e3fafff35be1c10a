"""Acceptance gate: every criterion runs exactly, one pass/fail line each.

The same checks back the ``k3lat verify-paper`` CLI command; here each
criterion is its own test so a failure pinpoints the broken claim.  All
tolerances are exact (integer/rational equality); the two seeded criteria use
the fixed default seed.
"""

import pytest

from k3lat import nsfamilies, verify
from k3lat.cli import run
from k3lat.elliptic import RatPoly, WeierstrassFibration
from k3lat.errors import K3LatError
from k3lat.verify import CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize(
    "number,title,func", CRITERIA, ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA]
)
def test_criterion(number, title, func):
    try:
        detail = func()
    except (AssertionError, K3LatError):
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


@pytest.mark.parametrize(
    "module, name, replacement, failing, code",
    [
        # criteria 6 and 11 both build the tilde families from this vector
        (
            nsfamilies,
            "canonical_glue_vector",
            lambda d: (1, 0, 0, 0, 0, 0, 0, 0),
            [6, 11],
            "bad_input",
        ),
        (verify, "_random_weierstrass", _sixteen_gon, [9], "unsupported"),
    ],
    ids=["glue-vector", "i16-pair"],
)
def test_domain_error_fails_only_its_criteria(
    monkeypatch, module, name, replacement, failing, code
):
    monkeypatch.setattr(module, name, replacement)
    results = verify.run_all(DEFAULT_SEED)
    assert [r.number for r in results] == [n for n, _, _ in CRITERIA]
    assert [r.number for r in results if not r.passed] == failing
    assert all(r.detail.startswith(f"{code}: ") for r in results if not r.passed)
