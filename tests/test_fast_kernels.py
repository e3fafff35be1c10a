"""The fast kernels against the simple forms they stand in for.

Sparse ``linalg`` products against the dense products of ``oracles``; the
one-pass all-int check of ``exact_ints`` against ``exact_rational`` of each
entry; the memo of Gram invariants against a count of real eliminations; the
coordinate-wise induced action against a per-element sum; the sign-deduplicated
root span against the span of every vector given; the unit-pivot Smith form
against its defining identities and the determinantal divisors; the b and
x + y rows of a discriminant form against ``b_numerator`` and ``add``; and the
integer multiply-back check of ``irreducible_factors`` against a factorizer
that loses a multiplicity or shifts a coefficient.
"""

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3lat import lattice, linalg, polyfactor
from k3lat.discforms import action_on_disc, discriminant_form
from k3lat.elliptic import RatPoly, irreducible_factors
from k3lat.errors import BadInputError, CheckFailed, DegenerateGramError
from k3lat.involution import k3_lattice, swap_involution_matrix
from k3lat.lattice import (
    Lattice,
    a_n,
    direct_sum,
    e8,
    e8_simple_reflections,
    gamma16,
    hyperbolic_plane,
    nikulin,
    rank_one,
    sublattice_index,
)
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


@given(st.one_of(st.lists(st.integers(), max_size=8).map(tuple), st.lists(st.one_of(
    st.integers(), st.booleans(), st.fractions(max_denominator=3), st.floats(allow_nan=False),
    st.sampled_from(["7", " -3 ", "1/2", "1e3"])), max_size=8)))
@settings(max_examples=200, deadline=None)
def test_exact_ints_reads_each_entry_by_exact_rational(values):
    # the one-pass check for all-int lists gives what the per-entry reader gives
    try:
        expected = [linalg.exact_rational(x) for x in values]
    except BadInputError:
        expected = None
    if expected is not None and any(type(x) is not int for x in expected):
        expected = None
    if expected is None:
        with pytest.raises(BadInputError, match="entries must be integers"):
            linalg.exact_ints(values, "entries")
    else:
        got = linalg.exact_ints(values, "entries")
        assert got == expected and type(got) is list and got is not values
        assert all(type(x) is int for x in got)


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


@given(
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_span_index_ignores_negatives_duplicates_and_zero_vectors(basis, data):
    det = linalg.bareiss_determinant(basis)
    assume(det != 0)
    n = len(basis)
    lat = Lattice(linalg.identity_matrix(n))
    assert sublattice_index(lat, basis) == abs(det)
    extra = data.draw(st.lists(st.sampled_from(range(n)), max_size=3 * n))
    padded = basis + [[-c for c in basis[i]] for i in extra] + [basis[i] for i in extra]
    padded += [[0] * n] * data.draw(st.integers(0, 3))
    padded = data.draw(st.permutations(padded))
    assert sublattice_index(lat, padded) == abs(det)


def _determinantal_divisors(mat):
    """gcd of the k x k minors for k = 1..rank: d_1 d_2 ... d_k of the Smith form."""
    m, n = len(mat), len(mat[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = math.gcd(*(
            linalg.bareiss_determinant([[mat[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ))
        if not g:
            break
        out.append(g)
    return out


_NO_UNITS = st.sampled_from([0, 0, 2, -2, 3, -3, 4, 6, -6, 9])


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.booleans()).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(-6, 6) if s[2] else _NO_UNITS, min_size=s[1], max_size=s[1]),
            min_size=s[0], max_size=s[0],
        )
    )
)
@example([[2, 0], [0, 3]])
@example([[6, 4], [4, 6]])
@settings(max_examples=150, deadline=None)
def test_smith_form_identities_and_determinantal_divisors(mat):
    m, n = len(mat), len(mat[0])
    d, u, v = linalg.smith_normal_form(mat)
    assert linalg.mat_mul(linalg.mat_mul(u, mat), v) == d
    assert abs(linalg.bareiss_determinant(u)) == abs(linalg.bareiss_determinant(v)) == 1
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    factors = [x for x in diag if x]
    assert all(x > 0 for x in factors) and diag == factors + [0] * (len(diag) - len(factors))
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert list(itertools.accumulate(factors, lambda a, b: a * b)) == _determinantal_divisors(mat)


def test_coprime_non_unit_pivots_still_give_a_divisibility_chain():
    # no unit entry, and 2 does not divide 3: the chain needs the gcd step
    assert linalg.invariant_factors([[2, 0], [0, 3]]) == [1, 6]


def _swap_plus(sign):
    return [[x + sign * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(swap_involution_matrix())]


#: sha256 (first 16 hex digits) of the JSON of (d, u, v), pinned from the
#: full-scan pivot search the unit stop replaced: a unit is the first least
#: entry in row-major order, so the transforms must not change
_SMITH_PINS = [
    ("U", hyperbolic_plane().gram_rows(), "67ec546fedca56b8"),
    ("U(2)", hyperbolic_plane(2).gram_rows(), "ee2fdf79bb4c70ef"),
    ("E8(-1)", e8(-1).gram_rows(), "5df549d3da7634b8"),
    ("E8(-2)", e8(-2).gram_rows(), "3079cb98f8d465f3"),
    ("N", nikulin().gram_rows(), "615792e3def01ea5"),
    ("A3(-1)", a_n(3, -1).gram_rows(), "be95cd541a0278d6"),
    ("<-6>", rank_one(-6).gram_rows(), "7581ecbd3ca91e54"),
    ("U(2)+<2>", direct_sum([hyperbolic_plane(2), rank_one(2)]).gram_rows(), "83abd62272ac6e00"),
    ("Gamma16(-1)", gamma16(-1).gram_rows(), "6bd3095dc4c0b836"),
    ("K3", k3_lattice().gram_rows(), "73a08c05310b465c"),
    ("g-1", _swap_plus(-1), "76731fe81f551c32"),
    ("g+1", _swap_plus(1), "103099409ae50a9f"),
]


@pytest.mark.parametrize("mat, pin", [p[1:] for p in _SMITH_PINS], ids=[p[0] for p in _SMITH_PINS])
def test_smith_transforms_of_the_stock_matrices_are_pinned(mat, pin):
    digest = hashlib.sha256(json.dumps(linalg.smith_normal_form(mat)).encode()).hexdigest()
    assert digest[:16] == pin


_FORMS = [
    hyperbolic_plane(), hyperbolic_plane(2), e8(-2), nikulin(), a_n(2), a_n(3, -1), a_n(7), rank_one(4),
    rank_one(-6), rank_one(12), direct_sum([hyperbolic_plane(2), rank_one(2)]),
    direct_sum([rank_one(4), rank_one(6)]),
]


@pytest.mark.parametrize("lat", _FORMS, ids=repr)
def test_b_and_sum_rows_equal_b_numerator_and_add(lat):
    form = discriminant_form(lat)
    assert form.order <= 256
    elements = list(form.elements())
    for x in elements:
        b_row, positions = form.rows(x)
        assert b_row == [form.b_numerator(x, y) for y in elements]
        assert [elements[at] for at in positions] == [form.add(x, y) for y in elements]


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
