"""The in-repo factorizer over Q, checked against sympy's ``factor_list``.

sympy is a test oracle only; the package never imports it.
"""

import functools
import math
import random
import threading
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lat import polyfactor, verify
from k3lat.elliptic import RatPoly, irreducible_factors
from k3lat.errors import CheckFailed, UnsupportedError
from oracles import fraction_poly, fraction_poly_gcd, squarefree_part, tree_hensel_lift

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


@st.composite
def lopsided_products(draw):
    """A factor of degree > n/2 with up to 30-digit coefficients, times small factors."""
    big = draw(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=6, max_size=8)
               .filter(lambda cs: cs[-1] != 0))
    smalls = draw(st.lists(FACTOR, min_size=1, max_size=3))
    p = RatPoly([F(c) for c in big])
    for f in smalls:
        if p.degree + len(f) - 1 < 2 * (len(big) - 1):  # big keeps more than half
            p = p * RatPoly(f)
    return p


@st.composite
def many_modular_factors(draw):
    """Up to 12 distinct rational roots and t^2 - c: 5 to 14 factors mod the chosen prime."""
    roots = draw(st.lists(st.integers(-30, 30), min_size=4, max_size=12, unique=True))
    p = _product(*([-r, 1] for r in roots))
    c = draw(st.integers(-40, 40))
    return p * RatPoly([-c, 0, 1]) if c not in {r * r for r in roots} else p


@settings(max_examples=40, deadline=None)
@given(lopsided_products())
def test_matches_sympy_with_a_factor_of_more_than_half_the_degree(p):
    assert irreducible_factors(p) == _sympy_factors(p)


@settings(max_examples=40, deadline=None)
@given(many_modular_factors())
def test_matches_sympy_with_many_modular_factors(p):
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


def _count_lifts(monkeypatch, f):
    """Lists, in call order, of the moduli each Hensel step takes g to and t is q^-1 mod.

    A step takes f = q g + e mod m^2 and then g from mod m to m^2; t = q^-1
    comes mod p from ``_inverse``, then mod each later m from one Newton step.
    """
    g_moduli, t_moduli = [], []
    divmod_, inverse, newton = polyfactor._divmod, polyfactor._inverse, polyfactor._newton_inverse

    def count_divmod(a, b, m):
        if a == f:
            g_moduli.append(m)
        return divmod_(a, b, m)

    def count_inverse(a, g, p):
        t_moduli.append(p)
        return inverse(a, g, p)

    def count_newton(t, q, g, m):
        t_moduli.append(m)
        return newton(t, q, g, m)

    monkeypatch.setattr(polyfactor, "_divmod", count_divmod)
    monkeypatch.setattr(polyfactor, "_inverse", count_inverse)
    monkeypatch.setattr(polyfactor, "_newton_inverse", count_newton)
    return g_moduli, t_moduli


def _count_primes_tested(monkeypatch):
    """The list of primes each later separability test is called with."""
    primes_tested = []
    separable_mod = polyfactor._separable_mod

    def count(f, p):
        primes_tested.append(p)
        return separable_mod(f, p)

    monkeypatch.setattr(polyfactor, "_separable_mod", count)
    return primes_tested


def test_no_prime_test_or_bezout_lift_is_repeated(monkeypatch):
    primes_tested = _count_primes_tested(monkeypatch)
    g_moduli, t_moduli = _count_lifts(monkeypatch, [-1, 0, 0, 0, 0, 0, 0, 0, 1])
    polyfactor.factor.cache_clear()
    try:
        # squarefree mod 3, its first prime, and split there into more factors than over Q
        assert len(irreducible_factors(FIXED["t^8-1"])) == 4
    finally:
        polyfactor.factor.cache_clear()
    # the squarefree test of factor() chose the prime; _factor_squarefree reused it
    assert primes_tested == [3]
    # t - 1, t + 1, t^2 + 1 and t^4 + 1 = (t^2 + t + 2)(t^2 + 2t + 2) mod 3 each
    # lift g up to the top modulus 3^4, and the Bezout cofactor t one step short
    assert g_moduli == [3 ** 2, 3 ** 4] * 5
    assert t_moduli == [3, 3 ** 2] * 5

    # t^2 + t + 1 = (t - 1)^2 mod 3 is separable mod 5, so Yun is never entered
    primes_tested.clear()
    entered = []
    monkeypatch.setattr(polyfactor, "squarefree_decomposition", entered.append)
    polyfactor.factor.cache_clear()
    try:
        assert polyfactor.factor((1, 1, 1)) == (((1, 1, 1), 1),)
    finally:
        polyfactor.factor.cache_clear()
    assert primes_tested == [3, 5]
    assert entered == []


_G3, _G5 = [58, 69, 25, 5], [-97, -5, -22, -63, 74, 4]


def test_lift_stops_at_the_small_side_mignotte_bound(monkeypatch):
    # mod 3 the factors have degrees 1, 2 and 5, so no recombined factor has
    # degree above 3, and the bound has C(3, 1) = 3 where 2^8 stood before
    f = polyfactor._mul(_G3, _G5)
    g_moduli, t_moduli = _count_lifts(monkeypatch, f)
    recombined = []
    recombine = polyfactor._recombine

    def record(f, lifted, m):
        recombined.append((sorted(len(u) - 1 for u in lifted), m))
        return recombine(f, lifted, m)

    monkeypatch.setattr(polyfactor, "_recombine", record)
    polyfactor.factor.cache_clear()
    try:
        assert polyfactor.factor(tuple(f)) == ((tuple(_G3), 1), (tuple(_G5), 1))
    finally:
        polyfactor.factor.cache_clear()
    norm = math.isqrt(sum(c * c for c in f)) + 1
    assert 3 ** 8 <= 2 * 20 * 3 * norm < 3 ** 16 <= 2 * 20 * 2 ** 8 * norm
    # the degree-5 factor is in no subset of at most half the degree: not lifted
    assert recombined == [([1, 2], 3 ** 16)]
    # both lifted factors square their modulus from 3 up to the top, 3^8 -> 3^16,
    # and t one step short, from 3 to 3^8
    assert g_moduli == [3 ** 2, 3 ** 4, 3 ** 8, 3 ** 16] * 2
    assert t_moduli == [3, 3 ** 2, 3 ** 4, 3 ** 8] * 2


def test_a_wrong_lift_fails_its_check_instead_of_leaving_f_irreducible(monkeypatch):
    # t stays q^-1 mod (g, 3) only, so g is wrong mod 3^4 on
    monkeypatch.setattr(polyfactor, "_newton_inverse", lambda t, q, g, m: t)
    polyfactor.factor.cache_clear()
    try:
        with pytest.raises(CheckFailed, match=r"a degree-\d lift does not divide f mod 3\^16"):
            polyfactor.factor(tuple(polyfactor._mul(_G3, _G5)))
    finally:
        polyfactor.factor.cache_clear()


_SMALL_FACTOR = st.lists(st.integers(-9, 9), min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=100, deadline=None)
@given(st.lists(_SMALL_FACTOR, min_size=1, max_size=3), st.integers(0, 4))
def test_per_factor_lifts_equal_the_tree_lifts(pieces, steps):
    f = polyfactor._primitive(functools.reduce(polyfactor._mul, pieces))
    p = next((p for p in _ODD_PRIMES_TO_113 if polyfactor._separable_mod(f, p)), None)
    assume(p is not None)
    monic = polyfactor._monic(polyfactor._trim(f, p), p)
    rng = random.Random(0)
    modular = [u for g, d in polyfactor._distinct_degree(monic, p)
               for u in polyfactor._equal_degree(g, d, p, rng)]
    # every modular factor, also those of more than half the degree
    lifts = [polyfactor._lift(f, u, p, steps) for u in modular]
    assert lifts == tree_hensel_lift(f, modular, p, steps)


def test_a_squarefree_f_handed_back_by_yun_skips_the_certifying_primes(monkeypatch):
    # t^2 + 105 = t^2 mod 3, 5 and 7, so it goes through Yun, whose only part is itself
    primes_tested = _count_primes_tested(monkeypatch)
    polyfactor.factor.cache_clear()
    try:
        assert polyfactor.factor((105, 0, 1)) == (((105, 0, 1), 1),)
    finally:
        polyfactor.factor.cache_clear()
    assert primes_tested == [3, 5, 7, 11]


# -- the gcd over Z and its certificate mod small primes -----------------------------

#: leading coefficients divisible by 3, 5 or 7 (or all three), which the
#: certificate must skip, and units for every prime
_LEAD = st.sampled_from([1, -1, 2, 3, -5, 7, 15, -21, 35, 105])


@st.composite
def gcd_pairs(draw):
    """Integer pairs with a planted common factor (often a constant), b sometimes zero."""

    def poly(max_degree):
        return draw(st.lists(st.integers(-9, 9), max_size=max_degree)) + [draw(_LEAD)]

    shared = poly(3)
    a = polyfactor._mul(shared, poly(5))
    b = polyfactor._mul(shared, poly(5)) if draw(st.integers(0, 9)) else []
    return a, b


@settings(max_examples=200, deadline=None)
@given(gcd_pairs())
def test_gcd_z_matches_the_fraction_euclid_oracle(pair):
    a, b = pair
    monic = fraction_poly_gcd(fraction_poly(a), fraction_poly(b))
    assert tuple(polyfactor._gcd_z(a, b)) == _primitive_normalized(monic).coeffs


def test_the_certificate_skips_a_prime_dividing_the_leading_coefficient():
    # (3t + 1)(t + 1) and (3t + 1)(t + 2) are t + 1 and t + 2 mod 3, coprime there
    assert polyfactor._gcd_z([1, 4, 3], [2, 7, 3]) == [1, 3]


def _count_prs(monkeypatch):
    """The list of (a, b) each later PRS run is called with."""
    runs = []
    prs = polyfactor._prs

    def count(a, b):
        runs.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(polyfactor, "_prs", count)
    return runs


def test_a_pair_coprime_over_q_but_not_mod_3_5_or_7_runs_the_prs(monkeypatch):
    runs = _count_prs(monkeypatch)
    # t and t + 105 = 3 * 5 * 7 agree mod each certifying prime
    assert polyfactor._gcd_z([0, 1], [105, 1]) == [1]
    assert runs == [([0, 1], [105, 1])]


def test_the_gcd_with_zero_is_the_primitive_part_with_no_prime_tried(monkeypatch):
    runs, gcds = _count_prs(monkeypatch), []
    gcd = polyfactor._gcd
    monkeypatch.setattr(polyfactor, "_gcd", lambda a, b, p: gcds.append(p) or gcd(a, b, p))
    assert polyfactor._gcd_z([-6, 0, -4], []) == [3, 0, 2]
    assert runs == [] and gcds == []


def test_a_warm_pass_runs_at_most_five_prs(monkeypatch):
    assert all(r.passed for r in verify.run_all(0))
    runs = _count_prs(monkeypatch)
    assert all(r.passed for r in verify.run_all(1))
    # the draw screens' gcds and Yun's gcd(f, f') are certified coprime mod p
    assert len(runs) <= 5


# -- squarefree decomposition, memo and limits -------------------------------------


def test_yun_decomposition():
    f = [int(c) for c in FIXED["repeated"].coeffs]
    assert polyfactor.squarefree_decomposition(f) == [([1, 0, 1], 2), ([-1, 1], 3)]
    assert polyfactor.squarefree_decomposition([7]) == []
    assert squarefree_part(FIXED["repeated"]) == _product([1, 0, 1], [-1, 1])


def test_yun_fails_instead_of_spinning_on_a_wrong_gcd(monkeypatch):
    # a gcd of 1 for every pair never splits (t - 1)^2: b would keep its degree forever
    monkeypatch.setattr(polyfactor, "_gcd_z", lambda a, b: [1])
    raised = []

    def run():
        try:
            polyfactor.squarefree_decomposition([1, -2, 1])
        except CheckFailed as e:
            raised.append(e)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1)
    assert not worker.is_alive()
    assert len(raised) == 1 and "degree 2" in str(raised[0])


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
