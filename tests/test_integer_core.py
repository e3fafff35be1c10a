"""The integer cores of discriminant forms, induced actions, Fincke-Pohst, glue,
signatures, the Gamma16 model and polynomial gcds.

Expected values come from outside the code under test: a Fraction oracle built
here from the generator lifts and the Gram matrix, the class of the image of
every lift, theta-series coefficients, brute-force box enumeration, the
inverse of the overlattice basis, Fraction LDL^T elimination, the rational
Cholesky short-vector search, Fraction dot products and Euclid over Fractions.
"""

import contextlib
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3lat import (
    BadInputError,
    DegenerateGramError,
    GlueData,
    NonIsotropicGlueError,
    NotDualVectorError,
    UnsupportedError,
    a_n,
    direct_sum,
    discriminant_form,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    gamma16,
    glue,
    hyperbolic_plane,
    nikulin,
    nikulin_square_in_gamma16,
    rank_one,
)
from k3lat import lattice, linalg, nsfamilies, polyfactor
from k3lat.discforms import action_on_disc
from k3lat.elliptic import RatPoly
from k3lat.lattice import Lattice
from oracles import (
    fraction_poly,
    fraction_poly_gcd,
    gamma16_basis_vectors,
    nikulin_permutation_matrix,
)

TWISTS = st.sampled_from([-3, -2, -1, 1, 2, 3])

BLOCKS = st.one_of(
    st.builds(hyperbolic_plane, TWISTS),
    st.builds(a_n, st.integers(1, 6), TWISTS),
    st.builds(lambda m, t: rank_one(2 * m, t), st.integers(1, 12), TWISTS),
    st.builds(e8, st.sampled_from([-2, -1, 1, 2])),
    st.builds(nikulin, st.sampled_from([-1, 1])),
)


def _pair(v, w, gram):
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


@st.composite
def forms_with_elements(draw):
    blocks = draw(st.lists(BLOCKS, min_size=1, max_size=3))
    lat = direct_sum(blocks)
    assume(lat.rank <= 22 and abs(lat.determinant) <= 2 ** 10)
    form = discriminant_form(lat)
    element = st.tuples(*[st.integers(0, d - 1) for d in form.invariant_factors])
    return lat, form, draw(element), draw(element)


@given(forms_with_elements())
@settings(max_examples=40, deadline=None)
def test_q_and_b_match_fraction_oracle(case):
    lat, form, x, y = case
    gram = lat.gram_rows()
    lx, ly = form.lift(x), form.lift(y)
    assert form.order == abs(lat.determinant)
    assert form.q(x) == _pair(lx, lx, gram) % 2
    assert form.b(x, y) == _pair(lx, ly, gram) % 1
    assert form.element_of(lx) == x
    # the lifts are the columns of G^-1 U^-1 over the nontrivial factors
    d, u, _ = linalg.smith_normal_form(gram)
    cols = linalg.mat_mul(linalg.rational_inverse(gram), linalg.rational_inverse(u))
    keep = [i for i in range(lat.rank) if d[i][i] > 1]
    assert form.generators == tuple(tuple(row[i] for row in cols) for i in keep)


def test_every_value_is_the_canonical_fraction():
    lat = direct_sum([rank_one(12), a_n(2), hyperbolic_plane(2)])
    gram = lat.gram_rows()
    form = discriminant_form(lat)
    elements = list(form.elements())
    assert len(elements) == 144
    for x in elements:
        lx = form.lift(x)
        want = _pair(lx, lx, gram) % 2
        got = form.q(x)
        assert type(got) is Fraction and str(got) == str(want)
        for y in elements[:12]:
            assert str(form.b(x, y)) == str(_pair(lx, form.lift(y), gram) % 1)


def test_element_of_rejects_wrong_length():
    form = discriminant_form(hyperbolic_plane(2))
    for vec in ([Fraction(1, 2)], [Fraction(1, 2), 0, 0]):
        with pytest.raises(BadInputError):
            form.element_of(vec)


@pytest.mark.parametrize(
    "method, args",
    [
        ("q", [(1,)]),
        ("q", [(1,) * 7]),
        ("b", [(1,), (1,) * 6]),
        ("b", [(1,) * 6, (1,) * 7]),
        ("add", [(1,), (1,) * 6]),
        ("add", [(1,) * 7, (1,) * 6]),
        ("reduce", [[1, 2, 3]]),
        ("scale", [3, (1,) * 7]),
        ("scale", [3, (1,)]),
    ],
)
def test_form_rejects_elements_of_the_wrong_length(method, args):
    form = discriminant_form(nikulin())  # A_N = (Z/2)^6
    with pytest.raises(BadInputError, match="lie in"):
        getattr(form, method)(*args)


def _oracle_table(form, matrix):
    return {x: form.element_of(linalg.mat_vec(matrix, form.lift(x))) for x in form.elements()}


@pytest.mark.parametrize("index", range(8))
def test_e8m2_reflection_tables_match_lifted_images(index):
    form = discriminant_form(e8(-2))
    matrix = e8_simple_reflections()[index]
    assert action_on_disc(form, matrix) == _oracle_table(form, matrix)


@pytest.mark.parametrize(
    "perm",
    [(2, 1, 3, 4, 5, 6, 7, 8), (1, 2, 3, 4, 5, 6, 8, 7), (2, 3, 4, 5, 6, 7, 8, 1)],
)
def test_nikulin_permutation_tables_match_lifted_images(perm):
    form = discriminant_form(nikulin())
    matrix = nikulin_permutation_matrix(perm)
    assert action_on_disc(form, matrix) == _oracle_table(form, matrix)


@pytest.mark.parametrize("n, twist", [(2, 1), (3, -1), (4, 2), (5, 1)])
def test_a_n_reflection_tables_match_lifted_images(n, twist):
    # A_n(t) has cyclic and mixed discriminant groups, so the tables also
    # exercise multiples of the generator images beyond 0 and 1
    cartan = a_n(n).gram_rows()
    form = discriminant_form(a_n(n, twist))
    assert any(d > 2 for d in form.invariant_factors)
    for i in range(n):
        matrix = [[int(r == c) - (cartan[i][c] if r == i else 0) for c in range(n)] for r in range(n)]
        assert action_on_disc(form, matrix) == _oracle_table(form, matrix)


@pytest.mark.parametrize(
    "lat, norm, count",
    [
        (e8(-1), -2, 240),
        (e8(-1), -4, 2160),
        (e8(-1), -6, 6720),
        (gamma16(-1), -2, 480),
        (gamma16(-1), -4, 61920),
    ],
    ids=["E8-2", "E8-4", "E8-6", "Gamma16-2", "Gamma16-4"],
)
def test_counts_match_theta_coefficients(lat, norm, count):
    # theta series: E8 is 1 + 240 q + 2160 q^2 + 6720 q^3 + ..., Gamma16 is
    # 1 + 480 q + 61920 q^2 + ...
    vectors = enumerate_vectors_of_norm(lat, norm)
    assert len(vectors) == len(set(vectors)) == count
    assert list(vectors) == sorted(vectors)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.sampled_from([-2, -4, -6, -8]),
)
@settings(max_examples=40, deadline=None)
def test_random_definite_forms_match_box_enumeration(basis, norm):
    b = sympy.Matrix(basis)
    assume(b.det() != 0)
    gram = [[-int(x) for x in row] for row in (b.T * b).tolist()]
    lat = Lattice(gram)
    # x_i^2 <= Q(x) (Q^-1)_ii for the positive form Q = -gram
    inv = (b.T * b).inv()
    bounds = [math.isqrt(int(sympy.floor(-norm * inv[i, i]))) for i in range(lat.rank)]
    assume(math.prod(2 * t + 1 for t in bounds) <= 20000)
    expected = sorted(
        v
        for v in itertools.product(*[range(-t, t + 1) for t in bounds])
        if _pair(v, v, gram) == norm
    )
    assert list(enumerate_vectors_of_norm(lat, norm)) == expected


class _PastCap(Exception):
    pass


def _fraction_cholesky_search(gram, norm, cap):
    """(vectors, terms) of norm ``norm`` by the rational Cholesky preprocessing.

    Q(x) = sum_i q_ii (x_i + sum_{j>i} q_ij x_j)^2 for Q = -gram, scaled to
    integer rows over each row's common denominator.  It walks the full tree,
    both signs of every vector, but counts only the terms of the nodes that
    the half-space search of enumerate_vectors_of_norm walks: those where no
    coordinate is set yet or the first nonzero one set (x_{n-1} downward) is
    positive.  None when it would count more than cap.
    """
    n = len(gram)
    q = [[Fraction(-x) for x in row] for row in gram]
    for i in range(n):
        piv = q[i][i]
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / piv
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    dens = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    coef = [[int(q[i][j] * dens[i]) for j in range(i + 1, n)] for i in range(n)]
    weights = [q[i][i] / (dens[i] * dens[i]) for i in range(n)]
    scale = math.lcm(*(w.denominator for w in weights))
    cs = [int(w * scale) for w in weights]
    found, x, terms = [], [0] * n, 0

    def descend(i, remaining, shift):
        nonlocal terms
        if next((c for c in reversed(x[i + 1:]) if c), 1) > 0:
            terms += n - i
        if terms > cap:
            raise _PastCap
        den, c = dens[i], cs[i]
        t = math.isqrt(remaining // c)
        if i == 0:
            if c * t * t == remaining:
                for y in (-t, t) if t else (0,):
                    if (y - shift) % den == 0:
                        x[0] = (y - shift) // den
                        found.append(tuple(x))
                x[0] = 0
            return
        below = coef[i - 1]
        rest = sum(a * xj for a, xj in zip(below[1:], x[i + 1:]))
        for xi in range(-((t + shift) // den), (t - shift) // den + 1):
            x[i] = xi
            y = den * xi + shift
            descend(i - 1, remaining - c * y * y, rest + below[0] * xi)
        x[i] = 0

    try:
        descend(n - 1, -norm * scale, 0)
    except _PastCap:
        return None
    return sorted(v for v in found if any(v)), terms


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.sampled_from([-2, -4, -6, -8]),
)
@settings(max_examples=60, deadline=None)
def test_search_matches_the_fraction_cholesky_oracle(basis, norm):
    # the pivot rows describe the same real intervals as the rational
    # Cholesky bounds, so the search finds the same vectors after the same
    # number of terms: it completes at that bound and stops one below it
    assume(linalg.bareiss_determinant(basis) != 0)
    n = len(basis)
    gram = [[-sum(r[i] * r[j] for r in basis) for j in range(n)] for i in range(n)]
    oracle = _fraction_cholesky_search(gram, norm, 100_000)
    assume(oracle is not None)
    vectors, terms = oracle
    lat = Lattice(gram)
    bound = lattice._SHORT_VECTOR_TERM_BOUND
    try:
        lattice._SHORT_VECTOR_TERM_BOUND = terms
        assert list(enumerate_vectors_of_norm(lat, norm)) == vectors
        lattice._SHORT_VECTOR_TERM_BOUND = terms - 1
        with pytest.raises(UnsupportedError):
            enumerate_vectors_of_norm(lat, norm)
    finally:
        lattice._SHORT_VECTOR_TERM_BOUND = bound


#: coordinate terms the Gamma16(-1) search at norm -4 sums, the largest search
#: in the tests, over one of each +-v
_GAMMA16_NORM_FOUR_TERMS = 1_039_299


@pytest.mark.parametrize("bound, completes", [(_GAMMA16_NORM_FOUR_TERMS, True),
                                              (_GAMMA16_NORM_FOUR_TERMS - 1, False)])
def test_gamma16_norm_four_search_sums_a_pinned_number_of_terms(monkeypatch, bound, completes):
    assert _GAMMA16_NORM_FOUR_TERMS < lattice._SHORT_VECTOR_TERM_BOUND
    monkeypatch.setattr(lattice, "_SHORT_VECTOR_TERM_BOUND", bound)
    if completes:
        assert len(enumerate_vectors_of_norm(gamma16(-1), -4)) == 61920
    else:
        with pytest.raises(UnsupportedError):
            enumerate_vectors_of_norm(gamma16(-1), -4)


@st.composite
def order_two_glue(draw):
    blocks = draw(st.lists(BLOCKS, min_size=1, max_size=3))
    lat = direct_sum(blocks)
    assume(lat.rank <= 22 and abs(lat.determinant) <= 2 ** 10)
    form = discriminant_form(lat)
    halves = [
        x
        for x in form.elements()
        if any(x) and form.scale(2, x) == form.zero() and form.q(x) == 0
    ]
    assume(halves)
    x = draw(st.sampled_from(halves))
    # shift the lift by a lattice vector, and sometimes add a redundant
    # multiple, so the HNF has real reduction work to do
    shift = draw(st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank))
    v = [c + s for c, s in zip(form.lift(x), shift)]
    vectors = [v, [3 * c for c in v]] if draw(st.booleans()) else [v]
    return lat, vectors


@given(order_two_glue())
@settings(max_examples=30, deadline=None)
def test_glue_matches_fraction_oracle(case):
    lat, vectors = case
    over = glue(GlueData.of(lat, vectors))
    n = lat.rank
    basis = [list(row) for row in over.basis_in_base]
    inclusion = [list(row) for row in over.inclusion]
    inverse = linalg.rational_inverse(basis)
    assert over.glue_order == 2
    assert over.lattice.gram_rows() == linalg.pairing_matrix(basis, lat.gram_rows())
    assert inclusion == inverse
    assert linalg.mat_mul(inclusion, basis) == linalg.identity_matrix(n)
    # the basis spans Z^n + Z v: each row is in it, and Z^n (the line above)
    # and v have integral coordinates in the basis
    v = vectors[0]
    for row in basis:
        assert any(all((b - k * c).denominator == 1 for b, c in zip(row, v)) for k in (0, 1))
    assert all(c.denominator == 1 for c in linalg.mat_vec(linalg.transpose(inverse), v))
    # and it is the canonical HNF basis over the denominator 2
    scaled = [[int(2 * b) for b in row] for row in basis]
    assert linalg.hermite_normal_form(scaled) == scaled


def _fraction_ldl(gram):
    """Symmetric Gaussian elimination over Q: the signature by Fraction pivots.

    Returns (pos, neg, rows) with rows[i] entries i..n-1 of step i's row, a row
    of the Schur complement of the leading i x i block.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    rows = []
    for i in range(n):
        piv = next((k for k in range(i, n) if a[k][k] != 0), None)
        if piv is None:
            pair = next(
                ((k, l) for k in range(i, n) for l in range(k + 1, n) if a[k][l] != 0), None
            )
            if pair is None:
                raise DegenerateGramError(
                    "symmetric form is degenerate (zero block of size %d)" % (n - i)
                )
            k, l = pair
            for c in range(n):
                a[k][c] += a[l][c]
            for r in range(n):
                a[r][k] += a[r][l]
            piv = k
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            for r in range(n):
                a[r][i], a[r][piv] = a[r][piv], a[r][i]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rows.append(a[i][i:])
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / p
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
        for c in range(i + 1, n):
            a[i][c] = Fraction(0)
    return pos, neg, rows


@st.composite
def symmetric_matrices(draw):
    """Symmetric ints, n <= 8; zero diagonal half the time, a repeated index sometimes."""
    n = draw(st.integers(1, 8))
    zero_diagonal = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                a[i][j] = a[j][i] = draw(st.integers(-4, 4))
    if n > 1 and draw(st.integers(0, 3)) == 0:  # index n-1 repeats index 0: degenerate
        a[n - 1] = list(a[0])
        for i in range(n):
            a[i][n - 1] = a[n - 1][i]
    return a


def _outcome(eliminate, gram):
    try:
        return eliminate(gram)
    except DegenerateGramError as exc:
        return ("degenerate", str(exc))


@given(symmetric_matrices())
@example([[0, 1, 0], [1, 0, 0], [0, 0, -3]])  # the pair trick, then a negative pivot
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 1, 1], [1, 0, 0], [1, 0, 0]])  # degenerate after the pair trick
@settings(max_examples=300, deadline=None)
def test_bareiss_signature_matches_fraction_ldl(gram):
    # every Bareiss division is checked to be exact, so an inexact one would
    # raise CheckFailed here instead of agreeing with the oracle
    got = _outcome(linalg.signature_of_symmetric, gram)
    assert got[:2] == _outcome(_fraction_ldl, gram)[:2]


@given(symmetric_matrices())
@example([[0, 1, 0], [1, 0, 0], [0, 0, -3]])
@example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])  # definite: no pivoting
@settings(max_examples=300, deadline=None)
def test_pivot_rows_give_the_determinant_and_ldl(gram):
    got = _outcome(linalg.signature_of_symmetric, gram)
    want = _outcome(_fraction_ldl, gram)
    if got[0] == "degenerate":
        assert want[0] == "degenerate" and linalg.bareiss_determinant(gram) == 0
        return
    rows, fraction_rows = got[2], want[2]
    n = len(gram)
    assert rows[-1][0] == linalg.bareiss_determinant(gram)
    # Bareiss row i is the Schur complement row times the previous pivot D_i
    prev = [1] + [row[0] for row in rows[:-1]]
    assert rows == [[d * x for x in row] for d, row in zip(prev, fraction_rows)]
    if all(linalg.bareiss_determinant([r[:k] for r in gram[:k]]) for k in range(1, n + 1)):
        # no pivoting: G = L D L^T with L_ci = a_ic / D_{i+1} and d_i = D_{i+1} / D_i
        lower = [[Fraction(rows[i][c - i], rows[i][0]) if c >= i else 0 for i in range(n)]
                 for c in range(n)]
        d = [Fraction(row[0], p) for row, p in zip(rows, prev)]
        rebuilt = [[sum(lower[r][i] * d[i] * lower[c][i] for i in range(n)) for c in range(n)]
                   for r in range(n)]
        assert rebuilt == gram


def test_gamma16_gram_is_the_fraction_dot_products():
    basis = gamma16_basis_vectors()
    dots = [[sum(x * y for x, y in zip(v, w)) for w in basis] for v in basis]
    assert all(d.denominator == 1 for row in dots for d in row)
    assert gamma16().gram == tuple(tuple(int(d) for d in row) for row in dots)
    assert gamma16(-1).gram == tuple(tuple(-int(d) for d in row) for row in dots)


RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),  # integral ones too
)


@contextlib.contextmanager
def _fractions_built():
    """The argument tuples of every Fraction built inside the block."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counting_new)
        yield built


@given(st.lists(RATIONALS, max_size=8))
@settings(max_examples=200, deadline=None)
def test_clear_denominators_matches_fraction_oracle(values):
    with _fractions_built() as built:
        den, ints = linalg.clear_denominators(values)
    assert built == []  # ints and Fractions are read, never rebuilt
    assert all(type(x) is int for x in ints)
    assert [Fraction(x, den) for x in ints] == [Fraction(v) for v in values]
    # den is least: it clears every entry and no den / p does
    for p in sympy.primefactors(den):
        assert any((Fraction(v) * (den // p)).denominator != 1 for v in values)


def test_clear_denominators_reads_text_and_refuses_floats():
    assert linalg.clear_denominators([]) == (1, [])
    assert linalg.clear_denominators(["1/2", True, Fraction(-2, 3)]) == (6, [3, 6, -4])
    for bad in ([0.5], [1, float("nan")], ["x"], [None], ["1/0"], 5, "10", b"10",
                ["1.5"], ["1e3"], ["1e9999999"], [2.0], {"1": 0}):
        with pytest.raises(BadInputError, match="exact rational"):
            linalg.clear_denominators(bad)


@given(st.fractions(), st.floats(allow_nan=True))
@settings(max_examples=200, deadline=None)
def test_exact_rational_reads_fraction_text_and_refuses_floats(f, x):
    assert linalg.exact_rational(str(f)) == f
    with pytest.raises(BadInputError, match="float"):
        linalg.exact_rational(x)


def _nikulin_form():
    return discriminant_form(nikulin())


_ELEMENT = (1, 0, 0, 0, 0, 0)

#: the public readers of outside numbers past the kernels, each called with
#: one bad entry; the hot q_numerator, b_numerator and rows are left unchecked
_OUTSIDE_NUMBER_READERS = {
    "reduce": lambda bad: _nikulin_form().reduce([bad] * 6),
    "add": lambda bad: _nikulin_form().add((bad,) + _ELEMENT[1:], _ELEMENT),
    "scale factor": lambda bad: _nikulin_form().scale(bad, _ELEMENT),
    "scale element": lambda bad: _nikulin_form().scale(3, (bad,) + _ELEMENT[1:]),
    "q": lambda bad: _nikulin_form().q((bad,) + _ELEMENT[1:]),
    "b": lambda bad: _nikulin_form().b(_ELEMENT, (bad,) + _ELEMENT[1:]),
    "norm": lambda bad: e8(-1).norm([bad] * 8),
    "inner": lambda bad: e8(-1).inner([1] * 8, [bad] + [0] * 7),
    "nikulin_node_coords": lattice.nikulin_node_coords,
    "polarization": nsfamilies.polarization,
    "eigenspace_dimensions": nsfamilies.eigenspace_dimensions,
    "plain_family": nsfamilies.plain_family,
    "tilde_family": nsfamilies.tilde_family,
    "classify_ns": nsfamilies.classify_ns,
    "count_invariant_monomials vars": lambda bad: nsfamilies.count_invariant_monomials(bad, set(), 2),
    "count_invariant_monomials degree": lambda bad: nsfamilies.count_invariant_monomials(3, set(), bad),
    "count_invariant_monomials negated": lambda bad: nsfamilies.count_invariant_monomials(3, {bad}, 2),
    "glue_vector_norm_class": nsfamilies.glue_vector_norm_class,
    "canonical_glue_vector": nsfamilies.canonical_glue_vector,
    "det_square_class_obstruction": nsfamilies.det_square_class_obstruction,
}


@pytest.mark.parametrize("bad", [8.0, 1.5, "1.5", "1e3", None],
                         ids=["float-8.0", "float-1.5", "text-1.5", "text-1e3", "None"])
@pytest.mark.parametrize("reader", _OUTSIDE_NUMBER_READERS)
def test_public_readers_refuse_floats_and_inexact_text(reader, bad):
    # each once returned a float, truncated it or raised a bare TypeError
    with pytest.raises(BadInputError):
        _OUTSIDE_NUMBER_READERS[reader](bad)


def test_public_readers_read_integral_fractions_and_text_by_the_one_rule():
    form = _nikulin_form()
    assert form.reduce(["3", Fraction(4, 2), 0, 0, 0, -1]) == (1, 0, 0, 0, 0, 1)
    assert form.q(["1", 0, 0, 0, 0, 0]) == form.q(_ELEMENT)
    assert nsfamilies.polarization(Fraction(8), "tilde") == nsfamilies.polarization(8, "tilde")
    assert nsfamilies.eigenspace_dimensions("8") == nsfamilies.eigenspace_dimensions(8)
    assert nsfamilies.glue_vector_norm_class("4") == nsfamilies.glue_vector_norm_class(4) == 0
    assert nsfamilies.canonical_glue_vector("6") == nsfamilies.canonical_glue_vector(6)
    assert nsfamilies.count_invariant_monomials(3, {"1", Fraction(2)}, 2) == 4
    assert e8(-1).norm([Fraction(1, 2)] + [0] * 7) == Fraction(-1, 2)


def test_gamma16_embedding_builds_no_fraction():
    with _fractions_built() as built:
        assert nikulin_square_in_gamma16() == 2 ** 6
    assert built == []


def _gamma16_oracle_coordinates(y):
    """Coordinates of y / 2 through the inverse of the Fraction basis matrix."""
    inverse = linalg.rational_inverse(linalg.transpose(gamma16_basis_vectors()))
    return linalg.mat_vec(inverse, [Fraction(c, 2) for c in y])


@given(st.lists(st.integers(-6, 6), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_gamma16_back_substitution_matches_rational_inverse(coords):
    basis = gamma16_basis_vectors()
    y = [int(2 * sum(c * v[j] for c, v in zip(coords, basis))) for j in range(16)]
    assert lattice.gamma16_contains_doubled(y)
    assert lattice.gamma16_coordinates_doubled(y) == _gamma16_oracle_coordinates(y) == coords


@given(st.lists(st.integers(-4, 4), min_size=16, max_size=16))
@settings(max_examples=60, deadline=None)
def test_gamma16_membership_matches_rational_inverse(y):
    integral = all(Fraction(c).denominator == 1 for c in _gamma16_oracle_coordinates(y))
    assert lattice.gamma16_contains_doubled(y) == integral


def _fraction_euclid_gcd(a, b):
    """Monic gcd over Q by Euclid on Fraction coefficients."""
    return RatPoly(fraction_poly_gcd(fraction_poly(a.coeffs), fraction_poly(b.coeffs)))


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def rational_polys(max_degree):
    return st.lists(RATIONALS, max_size=max_degree + 1).map(RatPoly)


@given(
    rational_polys(3), rational_polys(4), rational_polys(4),
    st.sampled_from(["both", "zero", "constant"]),
)
@settings(max_examples=200, deadline=None)
def test_prs_gcd_matches_fraction_euclid(shared, left, right, shape):
    # a planted shared factor, non-monic leading coefficients throughout, and
    # zero or constant second operands
    a = left * shared
    b = {"both": right * shared, "zero": RatPoly(), "constant": RatPoly([Fraction(-3, 2)])}[shape]
    assert a.gcd(b) == _fraction_euclid_gcd(a, b)
    assert b.gcd(a) == _fraction_euclid_gcd(b, a)
    if shape == "both" and not (shared.is_zero or left.is_zero or right.is_zero):
        assert shared.divides(a.gcd(b))


def test_prs_gcd_edge_cases_without_the_factorizer(monkeypatch):
    # _gcd_z is the one shared gcd kernel; the Fraction-Euclid oracles above
    # check it, and the screens must still never run the factorizer itself
    def refuse(*args):
        raise AssertionError("the gcd screen called the factorizer")

    for name in ("factor", "squarefree_decomposition"):
        monkeypatch.setattr(polyfactor, name, refuse)
    t = RatPoly([0, 1])
    assert RatPoly().gcd(RatPoly()) == RatPoly()
    assert RatPoly().gcd(RatPoly([0, 0, 4])) == RatPoly([0, 0, 1])
    assert RatPoly([Fraction(2, 3)]).gcd(t * t + 1) == RatPoly([1])
    p = (t - Fraction(1, 2)) * (t * 3 + 2) * Fraction(7, 5)
    assert p.gcd(p.derivative()) == RatPoly([1])
    assert (p * p).gcd((p * p).derivative()) == p.monic()


def test_glue_mixed_denominators_are_scaled_by_their_lcm():
    base = Lattice([[2, 0], [0, 6]])
    with pytest.raises(NotDualVectorError):  # G v = (2/3, 3)
        glue(GlueData.of(base, [[Fraction(1, 3), Fraction(1, 2)]]))
    with pytest.raises(NonIsotropicGlueError):  # G v = (1, 2) is dual, q = 7/6
        glue(GlueData.of(base, [[Fraction(1, 2), Fraction(1, 3)]]))
