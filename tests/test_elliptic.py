"""Weierstrass models, fiber configurations, the 2-isogeny quotient."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lat import (
    BadInputError,
    CheckFailed,
    RatPoly,
    UnsupportedError,
    WeierstrassFibration,
    direct_sum,
    fiber_configuration,
    hyperbolic_plane,
    i16_component_permutation,
    lattice_fingerprint,
    nikulin,
    nikulin_node_coords,
    shioda_tate,
    torsion_section_translation_data,
    two_isogeny_quotient,
)
from k3lat import elliptic, lattice, verify
from k3lat.elliptic import (
    ADDITIVE,
    _cycle_gram,
    irreducible_factors,
    parse_fiber_list,
)
from oracles import (
    fraction_poly,
    fraction_poly_add,
    fraction_poly_derivative,
    fraction_poly_divmod,
    fraction_poly_gcd,
    fraction_poly_monic,
    fraction_poly_mul,
    fraction_poly_neg,
    squarefree_part,
)

F = Fraction


# -- polynomial layer ----------------------------------------------------------


def test_ratpoly_parse_and_canonical_form():
    p = RatPoly.from_string("1, 0, -3/2")
    assert p.coeffs == (F(1), F(0), F(-3, 2))
    assert RatPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert RatPoly([]).is_zero
    assert RatPoly.from_string("").is_zero
    assert RatPoly.from_string(" ").is_zero
    # every entry must be present; an empty one is refused, not skipped
    for text in ("1, x", "1,,2", ",1", "1,", "1, ,2", ",", "1.5", "1e9999999", "1,2e0"):
        with pytest.raises(BadInputError, match="coefficient list"):
            RatPoly.from_string(text)
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    for bad in (5, ["a"], ["1/0"], [0.1], [1, 2.0], [F(1, 2), float("inf")], ["0.5"], ["1e3"]):
        with pytest.raises(BadInputError):
            RatPoly(bad)
    # only a list or tuple is a coefficient list: text, a dict or a generator is not
    for bad in ("12", {"3": 0, "4": 1}, b"12", (c for c in (1, 2))):
        with pytest.raises(BadInputError, match="list of exact rationals"):
            RatPoly(bad)
    with pytest.raises(BadInputError):
        RatPoly([1]) * 0.5


def test_ratpoly_keeps_integral_coefficients_as_ints():
    p = RatPoly([F(4, 2), 3, F(1, 3), True, "5/5"])
    assert [type(c) for c in p.coeffs] == [int, int, Fraction, int, int]
    assert p.coeffs == (2, 3, F(1, 3), 1, 1)
    assert type(RatPoly([])[0]) is int
    assert [type(c) for c in (p * 3).coeffs] == [int, int, int, int, int]
    assert RatPoly([2, 4]).monic().coeffs == (F(1, 2), 1)


def test_integer_input_builds_no_fraction(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError(f"a Fraction{args} was built from integer input")

    monkeypatch.setattr(elliptic, "Fraction", NoFraction)
    t = RatPoly([0, 1])
    p = (t * t - 2) * (t * 3 + 1)
    assert divmod(p, t * t - 2) == (t * 3 + 1, RatPoly())
    assert (t * t - 2).divides(p) and not (t * t + 2).divides(p)
    q = (t * t - 2) * (t + 1)
    assert (q * 5).monic() == q
    assert (q * 5).gcd(q * (t - 3)) == q
    fib = WeierstrassFibration([1, 2, 0, -1, 1], [3, 0, 1, -2, 0, 1, 0, 0, 1])
    assert fiber_configuration(two_isogeny_quotient(fib)).all_multiplicative


MIXED_COEFFS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),  # integral ones too
)
MIXED_POLYS = st.lists(MIXED_COEFFS, max_size=5)  # zero and constants included


def _assert_canonical(p):
    """Integral coefficients are ints; only the others are Fractions."""
    assert all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.coeffs
    ), p.coeffs


def _agrees(p, oracle):
    _assert_canonical(p)
    assert p.coeffs == tuple(oracle)


@given(MIXED_POLYS, MIXED_POLYS, MIXED_COEFFS)
@settings(max_examples=300, deadline=None)
def test_ratpoly_matches_the_fraction_oracle(xs, ys, scalar):
    p, q = RatPoly(xs), RatPoly(ys)
    a, b = fraction_poly(xs), fraction_poly(ys)
    _agrees(p, a)
    _agrees(p + q, fraction_poly_add(a, b))
    _agrees(p - q, fraction_poly_add(a, fraction_poly_neg(b)))
    _agrees(-p, fraction_poly_neg(a))
    _agrees(p * q, fraction_poly_mul(a, b))
    _agrees(p * scalar, fraction_poly_mul(a, fraction_poly([scalar])))
    _agrees(p.monic(), fraction_poly_monic(a))
    _agrees(p.gcd(q), fraction_poly_gcd(a, b))
    _agrees(p.derivative(), fraction_poly_derivative(a))
    if not q.is_zero:
        quo, rem = divmod(p, q)
        want_quo, want_rem = fraction_poly_divmod(a, b)
        _agrees(quo, want_quo)
        _agrees(rem, want_rem)
        assert q.divides(p) == (not want_rem)
    text = ", ".join(str(c) for c in xs)
    _agrees(RatPoly.from_string(text), a)
    assert hash(p) == hash(tuple(a))
    assert p.coeff_strings() == [str(c) for c in a]


def test_ratpoly_arithmetic():
    p = RatPoly([1, 1])  # 1 + t
    q = RatPoly([-1, 1])  # -1 + t
    assert (p * q).coeffs == (F(-1), F(0), F(1))
    assert (p + q).coeffs == (F(0), F(2))
    assert (p - p).is_zero
    quo, rem = divmod(RatPoly([-1, 0, 1]), p)
    assert quo == q and rem.is_zero
    assert p.divides(RatPoly([-1, 0, 1]))
    assert not p.divides(RatPoly([1, 0, 1]))


def test_ratpoly_gcd_and_squarefree():
    p = RatPoly([1, 1]) * RatPoly([1, 1]) * RatPoly([2, 1])
    sf = squarefree_part(p)
    assert sf == (RatPoly([1, 1]) * RatPoly([2, 1])).monic()


def test_irreducible_factorization():
    p = RatPoly([-1, 0, 1]) * RatPoly([1, 0, 1]) * RatPoly([1, 0, 1])
    factors = irreducible_factors(p)
    as_tuples = [(f.coeffs, e) for f, e in factors]
    assert ((F(1), F(0), F(1)), 2) in as_tuples
    assert ((F(-1), F(1)), 1) in as_tuples
    assert ((F(1), F(1)), 1) in as_tuples


def test_factorization_of_constant_is_empty():
    assert irreducible_factors(RatPoly([5])) == []


# -- fibration construction ------------------------------------------------------


def test_discriminant_formula():
    fib = WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1]))
    assert fib.discriminant == RatPoly([-3, 0, 0, 0, 2, 0, 0, 0, 1])  # (t^4+1)^2 - 4


def test_degenerate_family_rejected():
    with pytest.raises(BadInputError):
        WeierstrassFibration(RatPoly([1]), RatPoly([]))  # b = 0 forces Delta = 0
    with pytest.raises(BadInputError):
        WeierstrassFibration(RatPoly([2]), RatPoly([1]))  # a^2 - 4b = 0


def test_degree_bounds_enforced():
    with pytest.raises(BadInputError):
        WeierstrassFibration(RatPoly([0] * 5 + [1]), RatPoly([1]))
    with pytest.raises(BadInputError):
        WeierstrassFibration(RatPoly([1]), RatPoly([0] * 9 + [1]))


def test_generic_discriminant_degree():
    fib = WeierstrassFibration(
        RatPoly([1, 2, 3, 4, 5]), RatPoly([8, 7, 6, 5, 4, 3, 2, 1, 1])
    )
    assert fib.discriminant.degree == 24


# -- fiber configurations ---------------------------------------------------------


def test_sixteen_gon_configuration():
    fib = WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1]))
    report = fiber_configuration(fib)
    assert report.weight("I1") == 8
    inf = [p for p in report.places if p.location == "infinity"]
    assert len(inf) == 1 and inf[0].kodaira == "I16" and inf[0].order == 16
    assert report.order_sum() == 24
    assert report.all_multiplicative


def test_quotient_swaps_sixteen_gon():
    fib = WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1]))
    quot = two_isogeny_quotient(fib)
    assert quot.a == RatPoly([-2, 0, 0, 0, -2])
    assert quot.b == RatPoly([-3, 0, 0, 0, 2, 0, 0, 0, 1])
    report = fiber_configuration(quot)
    assert report.weight("I2") == 8
    inf = [p for p in report.places if p.location == "infinity"]
    assert len(inf) == 1 and inf[0].kodaira == "I8"


def test_generic_shape_and_quotient_swap():
    a = RatPoly([3, 1, 0, 2, 1])
    b = RatPoly([1, 4, 2, 0, 3, 1, 2, 1, 1])
    fib = WeierstrassFibration(a, b)
    report = fiber_configuration(fib)
    assert report.weight("I2") == 8 and report.weight("I1") == 8
    for place in report.places:
        if place.kodaira == "I2":
            assert place.factor.divides(b)
        if place.kodaira == "I1":
            assert place.factor.divides(a * a - 4 * b)
    quot = two_isogeny_quotient(fib)
    qreport = fiber_configuration(quot)
    assert qreport.weight("I2") == 8 and qreport.weight("I1") == 8
    for place in qreport.places:
        if place.kodaira == "I2":
            assert place.factor.divides(a * a - 4 * b)
        if place.kodaira == "I1":
            assert place.factor.divides(b)


def test_additive_place_flagged_not_classified():
    # a = t, b = t^2: Delta = -3 t^6, and t divides both a and b
    fib = WeierstrassFibration(RatPoly([0, 1]), RatPoly([0, 0, 1]))
    report = fiber_configuration(fib)
    finite = [p for p in report.places if p.location != "infinity"]
    assert len(finite) == 1 and finite[0].kodaira == ADDITIVE
    assert not report.all_multiplicative
    assert report.order_sum() == 24


def test_double_quotient_scaling_identity():
    a = RatPoly([1, 2, 0, 1, 3])
    b = RatPoly([2, 0, 1, 0, 0, 1, 0, 0, 2])
    fib = WeierstrassFibration(a, b)
    double = two_isogeny_quotient(two_isogeny_quotient(fib))
    assert double.a == 4 * a
    assert double.b == 16 * b
    assert [
        (p.location, p.order, p.kodaira) for p in fiber_configuration(double).places
    ] == [(p.location, p.order, p.kodaira) for p in fiber_configuration(fib).places]


def test_the_fiber_checks_render_no_place_as_text(monkeypatch):
    # a place keeps its factor; only output (JSON, failure messages) renders it
    rendered = []
    to_text = RatPoly.__str__
    monkeypatch.setattr(RatPoly, "__str__", lambda p: rendered.append(p.coeffs) or to_text(p))
    verify.check_generic_family(verify.DEFAULT_SEED)
    verify.check_sixteen_gon_family(verify.DEFAULT_SEED)
    assert rendered == []
    report = fiber_configuration(WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1])))
    assert [p["location"] for p in report.to_json()["places"]][-2:] == ["t^4 + 3", "infinity"]
    assert [p.degree for p in report.places] == [1, 1, 2, 4, 1]


def _oracle_places(fib):
    """Places from the definition: factor Delta, and Delta^ at s = 0 for infinity."""
    places = []
    for factor, mult in irreducible_factors(fib.discriminant):
        additive = factor.divides(fib.a) and factor.divides(fib.b)
        places.append(
            (str(factor), factor.coeff_strings(), factor.degree, mult,
             ADDITIVE if additive else f"I{mult}")
        )
    ahat = RatPoly([fib.a[4 - i] for i in range(5)])  # s^4 a(1/s)
    bhat = RatPoly([fib.b[8 - i] for i in range(9)])  # s^8 b(1/s)
    dhat = bhat * bhat * (ahat * ahat - 4 * bhat)
    m_inf = next(i for i, c in enumerate(dhat.coeffs) if c)
    if m_inf:
        additive = ahat[0] == 0 and bhat[0] == 0
        places.append(("infinity", None, 1, m_inf, ADDITIVE if additive else f"I{m_inf}"))
    return places


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def fibrations(draw):
    """deg a <= 4, deg b <= 8; half the time a shared linear factor makes a place additive."""
    if draw(st.booleans()):
        root = RatPoly([draw(COEFFS), 1])
        a = RatPoly(draw(st.lists(COEFFS, max_size=4))) * root
        b = RatPoly(draw(st.lists(COEFFS, max_size=8))) * root
    else:
        a = RatPoly(draw(st.lists(COEFFS, max_size=5)))
        b = RatPoly(draw(st.lists(COEFFS, max_size=9)))
    assume(not (b * b * (a * a - 4 * b)).is_zero)
    return WeierstrassFibration(a, b)


@settings(max_examples=30, deadline=None)
@given(fibrations())
def test_stored_c_is_the_quotient_b(fib):
    assert fib.c == fib.a * fib.a - 4 * fib.b
    assert two_isogeny_quotient(fib).b == fib.c


@settings(max_examples=60, deadline=None)
@given(fibrations())
def test_fiber_configuration_matches_factored_discriminant(fib):
    report = fiber_configuration(fib)
    got = [(p.location, p.factor.coeff_strings() if p.factor else None, p.degree, p.order,
            p.kodaira) for p in report.places]
    assert got == _oracle_places(fib)


# -- Shioda-Tate -------------------------------------------------------------------


def test_shioda_tate_generic_family():
    rank, disc = shioda_tate([(2, 8), (1, 8)], torsion_order=2)
    assert rank == 10
    assert disc == F(2 ** 8, 4) == 64


def test_shioda_tate_sixteen_gon():
    rank, disc = shioda_tate([(16, 1), (1, 8)], torsion_order=2)
    assert (rank, disc) == (17, F(4))


def test_shioda_tate_trivial_configuration():
    rank, disc = shioda_tate([(1, 24)], torsion_order=1)
    assert (rank, disc) == (2, F(1))


def test_shioda_tate_rejects_bad_input():
    with pytest.raises(BadInputError):
        shioda_tate([(0, 3)], torsion_order=1)
    with pytest.raises(BadInputError):
        shioda_tate([(2, 8)], torsion_order=0)
    # (2.5, 8.9) is no fiber I_2 eight times, and torsion 2.0 is no integer
    with pytest.raises(BadInputError):
        shioda_tate([(2.5, 8.9)], 2)
    with pytest.raises(BadInputError):
        shioda_tate([(2, 8)], torsion_order=2.0)


def test_parse_fiber_list():
    assert parse_fiber_list("I2:8,I1:8") == [(2, 8), (1, 8)]
    assert parse_fiber_list("I16") == [(16, 1)]
    with pytest.raises(BadInputError):
        parse_fiber_list("IV:2")
    with pytest.raises(BadInputError):
        parse_fiber_list("")


# -- 2-torsion section bookkeeping ---------------------------------------------------


def test_torsion_section_report(monkeypatch):
    fib = WeierstrassFibration(
        RatPoly([3, 1, 0, 2, 1]), RatPoly([1, 4, 2, 0, 3, 1, 2, 1, 1])
    )
    rep = torsion_section_translation_data(fib)
    assert rep.fibers.to_json() == fiber_configuration(fib).to_json()
    assert rep.tau == (1, 2, 0, 0, 0, 0, 0, 0, 0, -1)
    ns, tau = rep.ns_lattice, list(rep.tau)
    assert ns.norm(tau) == -2
    assert ns.inner(tau, [1] + [0] * 9) == 0  # sigma
    assert ns.inner(tau, [0, 1] + [0] * 8) == 1  # the fiber
    assert [ns.inner(tau, [0, 0] + nikulin_node_coords(i)) for i in range(1, 9)] == [1] * 8
    assert ns.determinant == -(2 ** 6)
    assert lattice_fingerprint(ns) == lattice_fingerprint(direct_sum([hyperbolic_plane(), nikulin()]))
    # the cached section data checks itself: wrong node classes fail naming the pairing
    elliptic._u_plus_n_section_data.cache_clear()
    monkeypatch.setattr(lattice, "nikulin_node_coords", lambda i: [0] * 8)
    try:
        with pytest.raises(CheckFailed, match=r"tau\.N_1 = 0, not 1"):
            torsion_section_translation_data(fib)
    finally:
        elliptic._u_plus_n_section_data.cache_clear()


def test_torsion_section_rejects_wrong_shape():
    fib = WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), RatPoly([1]))  # I16 shape
    with pytest.raises(UnsupportedError):
        torsion_section_translation_data(fib)
    b = RatPoly([1])
    for root in (1, 1, 2, 3, 4, 5, 6, 7):
        b = b * RatPoly([-root, 1])
    fib = WeierstrassFibration(RatPoly([1, 0, 0, 0, 1]), b)  # I4 at t = 1, good at infinity
    with pytest.raises(UnsupportedError, match="8 x I_2"):
        torsion_section_translation_data(fib)


# -- 16-gon combinatorics --------------------------------------------------------------


def _cycle_without_edge(k):
    def broken(n):
        g = _cycle_gram(n)
        g[k][k + 1] = g[k + 1][k] = 0
        return g

    return broken


def test_i16_permutation_report(monkeypatch):
    assert i16_component_permutation() == tuple((i + 8) % 16 for i in range(16))
    # a cycle missing the edge C_k C_{k+1} breaks the A_7(-1) chain of its window
    for edge, window in ((0, (14, 15, 0, 1, 2, 3, 4)), (9, (6, 7, 8, 9, 10, 11, 12))):
        monkeypatch.setattr(elliptic, "_cycle_gram", _cycle_without_edge(edge))
        with pytest.raises(CheckFailed, match=re.escape(f"window {window} is not an A_7(-1) chain")):
            i16_component_permutation()
