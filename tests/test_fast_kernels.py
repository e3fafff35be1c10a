"""The fast kernels against the simple forms they stand in for.

Sparse ``linalg`` products against the dense products of ``oracles``; the
memo of Gram invariants against a count of real eliminations; the
coordinate-wise induced action against a per-element sum; and the integer
multiply-back check of ``irreducible_factors`` against a factorizer that
loses a multiplicity or shifts a coefficient.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lat import lattice, linalg, polyfactor
from k3lat.discforms import action_on_disc, discriminant_form
from k3lat.elliptic import RatPoly, irreducible_factors
from k3lat.errors import CheckFailed, DegenerateGramError
from k3lat.lattice import Lattice, a_n, e8, e8_simple_reflections, hyperbolic_plane, nikulin
from oracles import (
    dense_dot,
    dense_mat_mul,
    dense_mat_vec,
    dense_pairing_matrix,
    nikulin_permutation_matrix,
    per_element_action_table,
)

# mostly zeros, as in the push/pull matrices and the reflections
_ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def _matrix(rows, cols):
    return st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


_SHAPE = st.integers(0, 5)


@given(st.tuples(_SHAPE, _SHAPE, _SHAPE).flatmap(
    lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[2]))
))
@example(([[0, 0], [1, Fraction(1, 2)]], [[0, 3], [0, 0]]))
@settings(max_examples=100, deadline=None)
def test_sparse_mat_mul_equals_the_dense_product(ab):
    a, b = ab
    assert linalg.mat_mul(a, b) == dense_mat_mul(a, b)


@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_matrix(n, n), st.lists(_ENTRY, min_size=n, max_size=n),
                        st.lists(_ENTRY, min_size=n, max_size=n))
))
@example(([[1, 2], [3, 4]], [0, 0], [Fraction(1, 2), 0]))
@settings(max_examples=100, deadline=None)
def test_sparse_mat_vec_and_dot_equal_the_dense_ones(data):
    gram, v, w = data
    assert linalg.mat_vec(gram, v) == dense_mat_vec(gram, v)
    assert linalg.dot(v, w, gram) == dense_dot(v, w, gram)


@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[1]))
))
@example(([[0, 0, 0], [1, 0, 2]], [[2, 1, 0], [1, 0, 0], [0, 0, -2]]))
@settings(max_examples=100, deadline=None)
def test_sparse_pairing_matrix_equals_the_dense_one(data):
    vectors, gram = data
    assert linalg.pairing_matrix(vectors, gram) == dense_pairing_matrix(vectors, gram)


def test_equal_grams_are_eliminated_once_and_errors_are_never_cached(monkeypatch):
    calls = []
    eliminate = linalg.signature_of_symmetric

    def counting(gram):
        calls.append(gram)
        return eliminate(gram)

    monkeypatch.setattr(linalg, "signature_of_symmetric", counting)
    lattice._gram_invariants.cache_clear()
    gram = [[-2, 1], [1, -4]]
    first, second = Lattice(gram), Lattice([list(row) for row in gram], name="again")
    assert len(calls) == 1
    assert first.determinant == second.determinant == 7
    assert first.signature == second.signature and first.signature.as_pair() == (0, 2)
    for _ in range(2):
        with pytest.raises(DegenerateGramError, match="gram matrix is degenerate"):
            Lattice([[2, 2], [2, 2]])
    assert len(calls) == 3


def _reflections(cartan):
    n = len(cartan)
    return [
        [[int(r == c) - (cartan[i][c] if r == i else 0) for c in range(n)] for r in range(n)]
        for i in range(n)
    ]


_ACTIONS = [
    ("U(2)", hyperbolic_plane(2), [[[0, 1], [1, 0]], [[-1, 0], [0, -1]]]),
    ("N", nikulin(), [nikulin_permutation_matrix(p) for p in
                      [(2, 1, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 1)]]),
    ("A3", a_n(3), _reflections(a_n(3).gram_rows()) + [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]),
    ("E8(-2)", e8(-2), e8_simple_reflections()),
]


@pytest.mark.parametrize("lat, matrices", [a[1:] for a in _ACTIONS], ids=[a[0] for a in _ACTIONS])
def test_coordinatewise_action_table_equals_the_per_element_sum(lat, matrices):
    form = discriminant_form(lat)
    for matrix in matrices:
        assert action_on_disc(form, matrix) == per_element_action_table(form, matrix)


_POLYS = [
    RatPoly([1, 1]) * RatPoly([1, 1]) * RatPoly([1, 0, 1]),  # (t+1)^2 (t^2+1)
    -RatPoly([Fraction(1, 2), 1]) * RatPoly([Fraction(1, 2), 1]) * RatPoly([3, 0, 7]) * 5,
]


def _drop_a_multiplicity(g, e):
    return g, e - 1


def _shift_the_constant(g, e):  # same degrees, so only the coefficients show it
    return (g[0] + 1, *g[1:]), e


@pytest.mark.parametrize("corrupt", [_drop_a_multiplicity, _shift_the_constant])
@pytest.mark.parametrize("p", _POLYS, ids=["monic", "rational-negative-lc"])
def test_a_wrong_factorization_fails_the_integer_multiply_back(monkeypatch, p, corrupt):
    assert sum(f.degree * e for f, e in irreducible_factors(p)) == p.degree
    factor = polyfactor.factor

    def corrupted(f):
        first, *rest = factor(f)
        return (corrupt(*first), *rest)

    monkeypatch.setattr(polyfactor, "factor", corrupted)
    message = f"the factors of a degree-{p.degree} polynomial do not multiply back to it"
    with pytest.raises(CheckFailed, match=re.escape(message)):
        irreducible_factors(p)
