"""Involution invariants and the push/pull transfer maps."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import (
    BadInputError,
    InvolutionModule,
    Lattice,
    QuotientCohomology,
    direct_sum,
    e8,
    hyperbolic_plane,
    invariant_and_antiinvariant,
    k3_lattice,
    lattice_fingerprint,
    str_invariants,
    swap_involution,
)
from k3lat import linalg
from k3lat.cli import run
from k3lat.lattice import nikulin, nikulin_node_coords
from oracles import nikulin_permutation_matrix

F = Fraction


def test_str_of_the_swap_involution():
    inv = str_invariants(swap_involution())
    assert (inv.s, inv.t, inv.r) == (6, 0, 8)


def test_str_of_identity_and_negation():
    lat = direct_sum([hyperbolic_plane(), e8(-1)])
    n = lat.rank
    ident = linalg.identity_matrix(n)
    inv = str_invariants(InvolutionModule(lat, ident))
    assert (inv.s, inv.t, inv.r) == (n, 0, 0)
    neg = [[-x for x in row] for row in ident]
    inv = str_invariants(InvolutionModule(lat, neg))
    assert (inv.s, inv.t, inv.r) == (0, n, 0)


def test_str_of_u_swap_is_one_regular_block():
    lat = hyperbolic_plane()
    inv = str_invariants(InvolutionModule(lat, [[0, 1], [1, 0]]))
    assert (inv.s, inv.t, inv.r) == (0, 0, 1)


@given(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1)
)
@settings(max_examples=50, deadline=None)
def test_str_of_mixed_blocks_in_any_basis(s, t, r, seed):
    """Trivial, sign and swap blocks on <2>'s, read in a seeded unimodular basis."""
    n = s + t + 2 * r
    if n == 0:
        return
    g = linalg.identity_matrix(n)
    for i in range(s, s + t):
        g[i][i] = -1
    for k in range(s + t, n, 2):
        g[k][k] = g[k + 1][k + 1] = 0
        g[k][k + 1] = g[k + 1][k] = 1
    # P = E_1 ... E_m with E = I + c e_i e_j^T, so P^-1 = E_m^-1 ... E_1^-1
    rng = random.Random(seed)
    p, p_inv = linalg.identity_matrix(n), linalg.identity_matrix(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in p:
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]
    assert linalg.mat_mul(p, p_inv) == linalg.identity_matrix(n)
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    lat = Lattice(linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(gram, p)))
    action = linalg.mat_mul(p_inv, linalg.mat_mul(g, p))
    inv = str_invariants(InvolutionModule(lat, action))
    assert (inv.s, inv.t, inv.r) == (s, t, r)


def test_involution_module_validation():
    lat = hyperbolic_plane()
    with pytest.raises(BadInputError):
        InvolutionModule(lat, [[1, 1], [0, 1]])  # not an involution
    with pytest.raises(BadInputError):
        InvolutionModule(lat, [[1, 0], [0, -1]])  # involution but not an isometry of U
    with pytest.raises(BadInputError):
        InvolutionModule(lat, [[F(3, 2), 0], [0, 1]])  # int() would make it the identity


def test_invariant_and_antiinvariant_of_swap():
    pair = invariant_and_antiinvariant(swap_involution())
    assert pair.invariant.rank == 14
    assert pair.anti_invariant.rank == 8
    expected_inv = direct_sum([hyperbolic_plane()] * 3 + [e8(-2)])
    assert lattice_fingerprint(pair.invariant) == lattice_fingerprint(expected_inv)
    assert lattice_fingerprint(pair.anti_invariant) == lattice_fingerprint(e8(-2))
    gram = k3_lattice().gram_rows()
    for u in pair.invariant_basis:
        for v in pair.anti_invariant_basis:
            assert linalg.dot(u, v, gram) == 0


@pytest.mark.parametrize(
    "module",
    [swap_involution(),
     InvolutionModule(nikulin(), nikulin_permutation_matrix([2, 1, 4, 3, 6, 5, 8, 7]))],
    ids=["swap", "nikulin-pairs"],
)
def test_anti_invariant_basis_is_negated(module):
    pair = invariant_and_antiinvariant(module)
    assert pair.anti_invariant.rank > 0
    for v in pair.anti_invariant_basis:
        assert linalg.mat_vec(module.action_rows(), v) == [-x for x in v]


def test_swap_on_e8_pair_doubles_the_form():
    lat = direct_sum([e8(-1), e8(-1)])
    action = [[0] * 16 for _ in range(16)]
    for j in range(8):
        action[j][8 + j] = 1
        action[8 + j][j] = 1
    pair = invariant_and_antiinvariant(InvolutionModule(lat, action))
    assert lattice_fingerprint(pair.invariant) == lattice_fingerprint(e8(-2))


def test_identity_involution_edge_case():
    lat = hyperbolic_plane()
    pair = invariant_and_antiinvariant(InvolutionModule(lat, [[1, 0], [0, 1]]))
    assert pair.invariant.gram == lat.gram
    assert pair.anti_invariant.rank == 0


# -- transfer maps ------------------------------------------------------------


@pytest.fixture(scope="module")
def model():
    return QuotientCohomology()


def test_push_kills_anti_invariant_classes(model):
    for x in ([1, 0, 0, 0, 0, 0, 0, 0], [2, -1, 3, 0, 0, 1, 0, 5]):
        v = [0] * 30
        for j in range(8):
            v[6 + j] = x[j]
            v[14 + j] = -x[j]
        assert model.push(v) == [0] * 22


def test_push_sends_exceptional_to_nodal(model):
    for i in range(1, 9):
        v = [0] * 30
        v[22 + i - 1] = 1
        expected = [0] * 22
        for j, c in enumerate(nikulin_node_coords(i)):
            expected[6 + j] = c
        assert model.push(v) == expected


def test_push_is_identity_on_u_cubed(model):
    v = [0] * 30
    v[0], v[3], v[5] = 4, -1, 7
    out = model.push(v)
    assert out[:6] == v[:6] and not any(out[6:])


def test_pull_of_nodal_classes_doubles(model):
    for i in range(1, 9):
        w = [0] * 22
        for j, c in enumerate(nikulin_node_coords(i)):
            w[6 + j] = c
        expected = [0] * 30
        expected[22 + i - 1] = 2
        assert model.pull(w) == expected


def test_pull_is_diagonal_on_e8_and_doubles_u(model):
    w = [0] * 22
    w[14] = 1  # a vector of the E8(-1) block
    out = model.pull(w)
    assert out[6] == 1 and out[14] == 1 and sum(map(abs, out)) == 2
    w = [0] * 22
    w[0] = 3
    assert model.pull(w)[0] == 6


def test_pull_extended_on_glue_vector(model):
    w = [F(1, 2)] + [0] * 5 + [0, 0, 0, F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), 1] + [0] * 8
    out = model.pull(w)
    expected = [0] * 30
    expected[0] = 1
    for i in (22, 23, 24, 29):
        expected[i] = 1
    assert out == expected


def test_pull_extended_on_nhat(model):
    w = [0] * 22
    w[13] = 1  # Nhat
    assert model.pull(w) == [0] * 22 + [1] * 8


@given(st.lists(st.integers(-9, 9), min_size=22, max_size=22))
@settings(max_examples=50, deadline=None)
def test_pull_extended_agrees_with_pull_on_sublattice(model, w):
    # on integral w, a vector of U(2)^3 + N + E8(-1), no halving is needed
    assert model.pull(w) == linalg.mat_vec(model.pull_matrix, w)


@given(
    st.lists(st.integers(-3, 3), min_size=14, max_size=14),
    st.lists(st.integers(-3, 3), min_size=14, max_size=14),
    st.lists(st.integers(-3, 3), min_size=16, max_size=16),
)
@settings(max_examples=50, deadline=None)
def test_pull_on_the_glued_lattice_doubles_the_form(model, a, b, e8_parts):
    # v and w are integer combinations of the overlattice basis, plus an
    # integral E8(-1) part: every vector of the glued Y lattice is one such
    basis = model.overlattice.basis_in_base
    v, w = (
        [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(14)] + list(e8_part)
        for coeffs, e8_part in ((a, e8_parts[:8]), (b, e8_parts[8:]))
    )
    pv, pw = model.pull(v), model.pull(w)
    assert all(type(x) is int for x in pv + pw)
    assert model.blowup.inner(pv, pw) == 2 * model.y_sub.inner(v, w)


def test_push_and_pull_reject_non_integral_entries(model):
    # entries used to be truncated by int(), so 3/2 was pushed as 1
    with pytest.raises(BadInputError):
        model.push([F(3, 2)] + [0] * 29)
    with pytest.raises(BadInputError):
        model.pull([0] * 21 + [F(-1, 2)])


def test_overlattice_membership_refuses_floats(model):
    w = [F(1, 2)] + [0] * 5 + [0, 0, 0, F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), 1] + [0] * 8
    assert model.contains_in_overlattice(w)
    assert not model.contains_in_overlattice([F(1, 2)] + [0] * 21)
    for method in (model.contains_in_overlattice, model.pull):
        with pytest.raises(BadInputError, match="float"):
            method([0.5] + [0] * 21)
        for text in ("0" * 22, "1" * 22):  # not read as a vector of its characters
            with pytest.raises(BadInputError):
                method(text)


def test_integral_pulls_skip_the_overlattice_coordinates(model, monkeypatch):
    # an integral vector lies in U(2)^3 + N + E8(-1), inside the glued lattice,
    # so its pull is its column of the pull matrix without the membership product
    glue = [F(1, 2)] + [0] * 5 + [0, 0, 0, F(-1, 2), F(-1, 2), F(-1, 2), F(-1, 2), 1] + [0] * 8
    assert model.pull(glue) == [1] + [0] * 21 + [1, 1, 1, 0, 0, 0, 0, 1]
    refused = run(["k3", "pull", "--vector", json.dumps(["1/2"] + [0] * 21)])
    assert (refused.exit_code, refused.error_code) == (1, "bad_input")
    monkeypatch.setattr(model, "overlattice", None)
    for i in range(22):
        w = [int(i == j) for j in range(22)]
        assert model.pull(w) == [row[i] for row in model.pull_matrix]


def test_pull_extended_rejects_outside_vectors(model):
    w = [F(1, 2)] + [0] * 21  # e_1/2 alone is not in the glued lattice
    with pytest.raises(BadInputError):
        model.pull(w)


def test_adjunction_report(model):
    report = model.adjunction_report()
    assert report["all_hold"]
    assert report["str"] == (6, 0, 8)
    fp = report["y_full_fingerprint"]
    assert (fp.rank, fp.signature, fp.determinant) == (22, (3, 19), -1)


def test_adjunction_spot_values(model):
    # push(E_1) = N_1 pairs to -2 with itself; pull(N_1) = 2E_1 pairs to -2 with E_1
    e1 = [0] * 30
    e1[22] = 1
    n1 = model.push(e1)
    y = model.y_sub
    assert y.norm(n1) == -2
    xt = model.blowup
    assert xt.inner(e1, model.pull(n1)) == -2


def test_push_pull_composition_is_multiplication_by_two(model):
    composed = linalg.mat_mul(model.push_matrix, model.pull_matrix)
    assert composed == [[2 * (i == j) for j in range(22)] for i in range(22)]


def test_pairing_tables_agree(model):
    p, q = model.push_matrix, model.pull_matrix
    lhs = linalg.mat_mul(linalg.transpose(p), model.y_sub.gram_rows())
    rhs = linalg.mat_mul(model.blowup.gram_rows(), q)
    assert lhs == rhs
