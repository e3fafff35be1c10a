"""The in-repo factorizer over Q, checked against sympy's ``factor_list``.

sympy is a test oracle only; the package never imports it.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import polyfactor
from k3lat.elliptic import RatPoly, irreducible_factors
from k3lat.errors import UnsupportedError
from oracles import squarefree_part

F = Fraction
_T = sympy.Symbol("t")


def _primitive_normalized(coeffs) -> RatPoly:
    """The integer-primitive multiple of a polynomial with positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return RatPoly([c // content for c in ints])


def _sympy_factors(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """The factorization in irreducible_factors' form, from sympy."""
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], _T, domain="QQ"
    )
    out = []
    for f, e in poly.factor_list()[1]:
        rp = _primitive_normalized([F(c.p, c.q) for c in reversed(f.all_coeffs())])
        if rp.degree >= 1:
            out.append((rp, int(e)))
    return sorted(out, key=lambda fe: (fe[0].degree, fe[0].coeffs))


def _product(*factors) -> RatPoly:
    out = RatPoly([1])
    for f in factors:
        out = out * RatPoly(f)
    return out


# -- against the oracle ----------------------------------------------------------

INTEGER = st.integers(-6, 6).map(F)
RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
COEFF = st.one_of(INTEGER, RATIONAL)
FACTOR = st.lists(COEFF, min_size=2, max_size=4).filter(lambda cs: cs[-1] != 0)


@st.composite
def products(draw):
    """Degree <= 8 products from a small pool, so factors repeat and are shared."""
    pool = draw(st.lists(FACTOR, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    p = RatPoly([draw(RATIONAL.filter(bool))])
    for i in picks:
        if p.degree + len(pool[i]) - 1 <= 8:
            p = p * RatPoly(pool[i])
    return p


@settings(max_examples=100, deadline=None)
@given(products())
def test_matches_sympy_on_products(p):
    assert irreducible_factors(p) == _sympy_factors(p)


@settings(max_examples=50, deadline=None)
@given(st.lists(INTEGER, min_size=2, max_size=9).filter(lambda cs: cs[-1] != 0))
def test_matches_sympy_on_integer_polynomials(cs):
    p = RatPoly(cs)
    assert irreducible_factors(p) == _sympy_factors(p)


_ODD_PRIMES_TO_113 = [p for p in range(3, 114, 2) if all(p % q for q in range(3, p, 2))]
_P = math.prod(_ODD_PRIMES_TO_113)
_BIG = random.Random(2024)


def _big_factor(degree):
    """500-digit coefficients: the product of three has coefficients of 1000-1500 digits."""
    return [_BIG.randrange(-(10 ** 500), 10 ** 500) for _ in range(degree)] + [10 ** 499 + 7]


FIXED = {
    "t^8-1": _product([-1, 0, 0, 0, 0, 0, 0, 0, 1]),
    "t^8+1": _product([1, 0, 0, 0, 0, 0, 0, 0, 1]),
    "sd-quartic": _product([1, 0, -10, 0, 1]),
    "sd-octic": _product([576, 0, -960, 0, 352, 0, -40, 0, 1]),
    "repeated": _product([1, 0, 1], [1, 0, 1], [-1, 1], [-1, 1], [-1, 1]),
    "non-monic-rational": _product([F(-1, 3), F(2, 5)], [F(1, 2), 0, F(-7, 4)], [3]) * F(5, 6),
    "1000-digits": _product(_big_factor(1), _big_factor(1), _big_factor(2)),
    # t^2 - P and t^2 - P^2 are not squarefree mod any prime up to 113
    "prime-past-113": _product([-_P, 0, 1], [-_P * _P, 0, 1]),
}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_cases_match_sympy(name):
    assert irreducible_factors(FIXED[name]) == _sympy_factors(FIXED[name])


def test_fixed_cases_have_the_expected_factors():
    def shape(name):
        return [(f.coeffs, e) for f, e in irreducible_factors(FIXED[name])]

    assert shape("t^8-1") == [((-1, 1), 1), ((1, 1), 1), ((1, 0, 1), 1), ((1, 0, 0, 0, 1), 1)]
    assert shape("t^8+1") == [(FIXED["t^8+1"].coeffs, 1)]
    assert shape("sd-octic") == [(FIXED["sd-octic"].coeffs, 1)]
    assert shape("repeated") == [((-1, 1), 3), ((1, 0, 1), 2)]
    assert shape("non-monic-rational") == [((-5, 6), 1), ((-2, 0, 7), 1)]
    assert shape("prime-past-113") == [((-_P, 1), 1), ((_P, 1), 1), ((-_P, 0, 1), 1)]


def test_prime_search_goes_past_113():
    f = tuple(int(c) for c in FIXED["prime-past-113"].coeffs)
    assert not any(polyfactor._separable_mod(f, p) for p in _ODD_PRIMES_TO_113)
    assert polyfactor._separable_mod([-_P, 0, 1], 127)


def test_swinnerton_dyer_octic_needs_recombination(monkeypatch):
    # irreducible over Q, but a product of factors of degree <= 2 mod every prime
    seen = []
    recombine = polyfactor._recombine

    def record(f, lifted, m):
        out = recombine(f, lifted, m)
        seen.append((len(lifted), len(out)))
        return out

    monkeypatch.setattr(polyfactor, "_recombine", record)
    polyfactor.factor.cache_clear()
    try:
        assert len(irreducible_factors(FIXED["sd-octic"])) == 1
    finally:
        polyfactor.factor.cache_clear()
    assert len(seen) == 1 and seen[0][0] >= 4 and seen[0][1] == 1


def test_no_prime_test_or_bezout_lift_is_repeated(monkeypatch):
    separable_mod, lift_factors, lift_bezout = (
        polyfactor._separable_mod, polyfactor._hensel_factors, polyfactor._hensel_bezout
    )
    primes_tested, factor_moduli, bezout_moduli = [], [], []

    def count_separable(f, p):
        primes_tested.append(p)
        return separable_mod(f, p)

    def count_factors(f, g, h, s, t, m):
        factor_moduli.append(m)
        return lift_factors(f, g, h, s, t, m)

    def count_bezout(g, h, s, t, m):
        bezout_moduli.append(m)
        return lift_bezout(g, h, s, t, m)

    monkeypatch.setattr(polyfactor, "_separable_mod", count_separable)
    monkeypatch.setattr(polyfactor, "_hensel_factors", count_factors)
    monkeypatch.setattr(polyfactor, "_hensel_bezout", count_bezout)
    polyfactor.factor.cache_clear()
    try:
        # squarefree mod 3, its first prime, and split there into more factors than over Q
        assert len(irreducible_factors(FIXED["t^8-1"])) == 4
    finally:
        polyfactor.factor.cache_clear()
    # the squarefree test of factor() chose the prime; _factor_squarefree reused it
    assert primes_tested == [3]
    # every lifting node lifts its factors to the top modulus, and its s, t one step short
    top = max(factor_moduli)
    assert top not in bezout_moduli
    assert sorted(bezout_moduli) == sorted(m for m in factor_moduli if m != top)


# -- squarefree decomposition, memo and limits -------------------------------------


def test_yun_decomposition():
    f = [int(c) for c in FIXED["repeated"].coeffs]
    assert polyfactor.squarefree_decomposition(f) == [([1, 0, 1], 2), ([-1, 1], 3)]
    assert polyfactor.squarefree_decomposition([7]) == []
    assert squarefree_part(FIXED["repeated"]) == _product([1, 0, 1], [-1, 1])


def test_memo_is_keyed_on_the_primitive_form():
    p = FIXED["sd-quartic"]
    first = irreducible_factors(p)
    hits = polyfactor.factor.cache_info().hits
    assert irreducible_factors(p * F(-16, 3)) == first
    assert polyfactor.factor.cache_info().hits == hits + 1


def test_more_than_16_modular_factors_is_unsupported():
    # seventeen distinct roots: squarefree first mod 17, where it splits into 17 linear factors
    p = _product(*([-i, 1] for i in range(17)))
    with pytest.raises(UnsupportedError, match="17 factors mod 17"):
        irreducible_factors(p)
