"""Property-based invariants across the stock constructors."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import (
    a_n,
    count_invariant_monomials,
    direct_sum,
    discriminant_form,
    e8,
    enumerate_vectors_of_norm,
    gamma16,
    hyperbolic_plane,
    nikulin,
    rank_one,
    shioda_tate,
)
from k3lat.elliptic import RatPoly

STOCK = [
    hyperbolic_plane(),
    hyperbolic_plane(2),
    hyperbolic_plane(-1),
    e8(),
    e8(-1),
    e8(-2),
    nikulin(),
    a_n(2),
    a_n(4, -1),
    rank_one(2),
    rank_one(-8),
    gamma16(-1),
]


@pytest.mark.parametrize("lat", STOCK, ids=lambda l: l.name or "lattice")
def test_signature_counts_sum_to_rank(lat):
    sig = lat.signature
    assert sig.positive + sig.negative == lat.rank
    assert all(row == tuple(lat.gram[j][i] for j in range(lat.rank)) for i, row in enumerate(lat.gram))


@pytest.mark.parametrize("lat", [l for l in STOCK if l.is_even], ids=lambda l: l.name or "lattice")
def test_disc_group_order_is_determinant(lat):
    assert discriminant_form(lat).order == abs(lat.determinant)


@given(
    st.sampled_from([l for l in STOCK if l.rank <= 8]),
    st.integers(min_value=-2, max_value=3).filter(lambda n: n != 0),
)
@settings(max_examples=60, deadline=None)
def test_twist_determinant_law(lat, n):
    assert lat.twist(n).determinant == n ** lat.rank * lat.determinant


@given(st.lists(st.sampled_from([l for l in STOCK if l.rank <= 8]), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_direct_sum_additivity(parts):
    total = direct_sum(parts)
    assert total.rank == sum(p.rank for p in parts)
    det = 1
    for p in parts:
        det *= p.determinant
    assert total.determinant == det
    pos = sum(p.signature.positive for p in parts)
    neg = sum(p.signature.negative for p in parts)
    assert total.signature.as_pair() == (pos, neg)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=6),
    st.sets(st.integers(min_value=0, max_value=4), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_monomial_parity_split(num_vars, degree, negated):
    negated = {i for i in negated if i < num_vars}
    inv = count_invariant_monomials(num_vars, negated, degree)
    anti = count_invariant_monomials(num_vars, negated, degree, "anti_invariant")
    assert inv + anti == comb(num_vars + degree - 1, degree)
    if not negated:
        assert anti == 0


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=8)),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_shioda_tate_formula(fibers, torsion):
    rank, disc = shioda_tate(fibers, torsion_order=torsion)
    assert rank == 2 + sum(c * (n - 1) for n, c in fibers)
    prod = 1
    for n, c in fibers:
        prod *= n ** c
    assert disc == Fraction(prod, torsion ** 2)


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_ratpoly_division_identity(pc, qc):
    p, q = RatPoly(pc), RatPoly(qc)
    if q.is_zero:
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


@pytest.mark.parametrize(
    "lat,norm",
    [(e8(-1), -2), (e8(-1), -4), (nikulin(), -2), (nikulin(), -4), (a_n(3, -1), -2)],
)
def test_short_vectors_come_in_sign_pairs(lat, norm):
    vectors = enumerate_vectors_of_norm(lat, norm)
    assert len(vectors) % 2 == 0
    seen = set(vectors)
    for v in vectors:
        assert tuple(-c for c in v) in seen
        assert lat.norm(list(v)) == norm
    assert list(vectors) == sorted(vectors)
