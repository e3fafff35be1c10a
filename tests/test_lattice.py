"""Lattice constructors, invariants, complements, and short vectors."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3lat import (
    BadInputError,
    CheckFailed,
    DegenerateGramError,
    IsotropicComplementError,
    Lattice,
    NotDefiniteError,
    UnsupportedError,
    a_n,
    direct_sum,
    e8,
    enumerate_vectors_of_norm,
    gamma16,
    gamma16_contains_doubled,
    gamma16_coordinates_doubled,
    hyperbolic_plane,
    minus_one_sum,
    nikulin,
    nikulin_node_coords,
    orthogonal_complement,
    rank_one,
    standard_lattice,
    sublattice_index,
)
from k3lat import lattice, linalg
from k3lat.involution import k3_lattice, swap_involution, invariant_and_antiinvariant
from fractions import Fraction
from oracles import gamma16_basis_vectors


def test_u_twist_two():
    lat = hyperbolic_plane(2)
    assert lat.gram == ((0, 2), (2, 0))


def test_e8_minus_one_is_even_unimodular_negative_definite():
    lat = e8(-1)
    assert lat.is_even
    assert lat.determinant == 1
    assert lat.signature.as_pair() == (0, 8)


def test_nikulin_invariants():
    lat = nikulin()
    assert lat.is_even
    assert lat.determinant == 2 ** 6  # Schur complement: (-2)^7 * (-1/2)
    assert lat.signature.as_pair() == (0, 8)


def test_nikulin_n8_is_a_minus_two_class():
    lat = nikulin()
    n8 = nikulin_node_coords(8)
    assert lat.norm(n8) == -2
    for i in range(1, 8):
        assert lat.inner(n8, nikulin_node_coords(i)) == 0


def test_gamma16_is_even_unimodular():
    lat = gamma16()
    assert lat.rank == 16
    assert lat.is_even
    assert lat.determinant == 1
    assert lat.signature.as_pair() == (16, 0)
    assert gamma16(-1).signature.as_pair() == (0, 16)


def test_gamma16_membership():
    # y = 2x, so the half-sum (1/2, ..., 1/2) is [1] * 16
    half = [1] * 16
    assert gamma16_contains_doubled(half)
    assert not gamma16_contains_doubled([1] * 15 + [-1])  # odd sum
    assert not gamma16_contains_doubled([1] + [0] * 15)  # mixed parity
    e1me2 = [2, -2] + [0] * 14
    assert gamma16_contains_doubled(e1me2)
    odd = [2] + [0] * 15
    assert not gamma16_contains_doubled(odd)


def test_gamma16_coordinates_roundtrip():
    basis = gamma16_basis_vectors()
    half = [1] * 16
    coords = gamma16_coordinates_doubled(half)
    rebuilt = [sum(c * basis[i][j] for i, c in enumerate(coords)) for j in range(16)]
    assert rebuilt == [Fraction(c, 2) for c in half]
    with pytest.raises(BadInputError):
        gamma16_coordinates_doubled([2] + [0] * 15)


def test_gamma16_back_check_catches_a_swapped_last_pair(monkeypatch):
    # 2 (e_15 - e_16): coefficient 1 on e_15 - e_16 and 0 on e_15 + e_16
    y = [0] * 14 + [2, -2]
    assert gamma16_coordinates_doubled(y)[13:15] == [1, 0]
    # swapping the two basis rows the back-check multiplies by is the same as
    # swapping the split (s - z_16) / 2, (s + z_16) / 2 of the last pair
    basis = lattice._gamma16_doubled_basis()
    basis[13], basis[14] = basis[14], basis[13]
    monkeypatch.setattr(lattice, "_gamma16_doubled_basis", lambda: basis)
    with pytest.raises(CheckFailed, match="Gamma16 coordinates"):
        gamma16_coordinates_doubled(y)


def test_standard_lattice_dispatch_and_errors():
    assert standard_lattice("U", 2).gram == ((0, 2), (2, 0))
    assert standard_lattice("An", 1, param=3).rank == 3
    assert standard_lattice("rank1", 1, param=6).gram == ((6,),)
    with pytest.raises(BadInputError):
        standard_lattice("Leech", 1)
    with pytest.raises(BadInputError):
        standard_lattice("U", 0)
    with pytest.raises(BadInputError):
        standard_lattice("rank1", 1, param=0)


_STANDARD = [
    (hyperbolic_plane, (), "U(-2)"), (e8, (), "E8(-2)"), (a_n, (3,), "A3(-2)"),
    (rank_one, (6,), "<6>(-2)"), (nikulin, (), "N(-2)"), (gamma16, (), "Gamma16(-2)"),
]
_STANDARD_IDS = ["U", "E8", "An", "rank1", "NikulinN", "Gamma16"]


@pytest.mark.parametrize("make, params, name", _STANDARD, ids=_STANDARD_IDS)
def test_standard_constructor_builds_one_lattice(monkeypatch, make, params, name):
    # the twist scales the Gram before the one construction, not after it,
    # and the memo builds nothing on a repeated call
    make.cache_clear()
    built = []
    init = Lattice.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__init__", counting_init)
    lat = make(*params, -2)
    assert len(built) == 1
    assert make(*params, -2) is lat
    assert len(built) == 1
    assert lat.name == name and lat.twist(1).name == name


@pytest.mark.parametrize("make, params, name", _STANDARD, ids=_STANDARD_IDS)
def test_memoized_lattice_is_immutable(make, params, name):
    lat = make(*params, -2)
    with pytest.raises(AttributeError):
        lat.name = "changed"
    with pytest.raises(AttributeError):
        del lat.labels
    assert make(*params, -2) is lat and lat.name == name


@pytest.mark.parametrize(
    "make",
    [e8, hyperbolic_plane, lambda t: e8(twist=t), lambda t: a_n(3, t), lambda t: rank_one(6, t)],
    ids=["e8", "U", "e8-keyword", "a_n", "rank_one"],
)
def test_memo_keeps_the_float_and_unhashable_refusals(make):
    # typed keys: a float twist is not the cached int twist, so exact_ints still sees it
    make(2)
    for bad in (2.0, [2]):
        with pytest.raises(BadInputError):
            make(bad)


@pytest.mark.parametrize(
    "call, error",
    [(lambda: a_n(0), BadInputError), (lambda: a_n(33), UnsupportedError),
     (lambda: rank_one(0), BadInputError), (lambda: e8(0), BadInputError),
     (lambda: a_n(3, 0), BadInputError), (lambda: direct_sum([]), BadInputError),
     (lambda: a_n(2.5), BadInputError), (lambda: a_n("x"), BadInputError),
     (lambda: minus_one_sum(2.5), BadInputError), (lambda: minus_one_sum(0), BadInputError),
     (lambda: minus_one_sum(-3), BadInputError)],
    ids=["a_n(0)", "a_n(33)", "rank_one(0)", "e8-twist-0", "a_n-twist-0", "empty-sum",
         "a_n(2.5)", "a_n-str", "minus_one_sum(2.5)", "minus_one_sum(0)", "minus_one_sum(-3)"],
)
def test_refused_constructor_raises_on_every_call(call, error):
    for _ in range(3):
        with pytest.raises(error):
            call()


def test_direct_sum_memo_keys_on_labels_and_names():
    # a Lattice compares Grams only; the memo must not hand one part's labels to another
    x, y, bare = Lattice([[2]], ["x"], "X"), Lattice([[2]], ["y"], "Y"), Lattice([[2]])
    assert x == y == bare
    assert direct_sum([x, x]).labels == ("x1", "x2") and direct_sum([x, x]).name == "X + X"
    assert direct_sum([y, y]).labels == ("y1", "y2") and direct_sum([y, y]).name == "Y + Y"
    assert direct_sum([bare, bare]).labels == ("b1", "b2") and direct_sum([bare, bare]).name == "? + ?"
    assert direct_sum([x, y], name="P").name == "P" and direct_sum([x, y], name="Q").name == "Q"
    assert direct_sum([x, y]) is direct_sum(iter([x, y]))


@pytest.mark.parametrize(
    "data",
    [{"gram": [[2, 1], [1, 2]], "labels": "ab"}, {"gram": [[2, 1], [1, 2]], "labels": {"a": 1, "b": 2}},
     {"gram": [[2]], "name": ["x"]}, {"gram": [[2]], "name": 5}],
    ids=["labels-str", "labels-dict", "name-list", "name-int"],
)
def test_labels_and_name_from_json_are_validated(data):
    with pytest.raises(BadInputError):
        Lattice.from_json(data)


def test_direct_sum_k3_lattice():
    lat = direct_sum([hyperbolic_plane()] * 3 + [e8(-1), e8(-1)])
    assert lat.rank == 22
    assert lat.determinant == -1
    assert lat.signature.as_pair() == (3, 19)


def test_direct_sum_singleton_and_empty():
    assert direct_sum([hyperbolic_plane()]).gram == hyperbolic_plane().gram
    with pytest.raises(BadInputError):
        direct_sum([])


def test_direct_sum_label_disambiguation():
    lat = direct_sum([hyperbolic_plane(2)] * 3)
    assert lat.labels == ("e1", "f1", "e2", "f2", "e3", "f3")
    mixed = direct_sum([hyperbolic_plane(), nikulin()])
    assert mixed.labels[:2] == ("e", "f")
    assert mixed.labels[2:] == nikulin().labels


def test_lambda_2d_block_determinant():
    lam = direct_sum([rank_one(4), e8(-2)])
    assert lam.rank == 9
    # det E8(-2) = (-2)^8 = 256, so the block determinant is positive
    assert lam.determinant == 4 * 2 ** 8
    assert lam.signature.as_pair() == (1, 8)


def test_degenerate_gram_rejected():
    with pytest.raises(DegenerateGramError):
        Lattice([[1, 1], [1, 1]])
    with pytest.raises(BadInputError):
        Lattice([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(BadInputError):
        Lattice([[1, 2, 3]])  # not square
    # 1e23 is the float 99999999999999991611392, never the integer 10^23
    for gram in (5, [5], [["a"]], [[Fraction(1, 2)]], [[float("inf")]], [[1e23, 0], [0, 2]],
                 [[2.0]], [["1.5"]], [["2e0"]], ["22"]):
        with pytest.raises(BadInputError):
            Lattice(gram)
    assert Lattice([["2", "-1"], [-1, " 2 "]]).gram == ((2, -1), (-1, 2))
    with pytest.raises(BadInputError):
        Lattice([[2]], labels=5)


def test_twist_determinant_law():
    stock = [hyperbolic_plane(), e8(), nikulin(), a_n(3), rank_one(2), gamma16()]
    for lat in stock:
        for n in (-2, -1, 1, 2, 3):
            assert lat.twist(n).determinant == n ** lat.rank * lat.determinant
    with pytest.raises(BadInputError):
        hyperbolic_plane().twist(0)


def test_signature_of_twisted_sum():
    lat = direct_sum([hyperbolic_plane(2)] * 3 + [nikulin()])
    assert lat.signature.as_pair() == (3, 11)


def test_orthogonal_complement_of_e8_block():
    lam = direct_sum([rank_one(4), e8(-2)])
    block = [[0] * 9 for _ in range(8)]
    for i in range(8):
        block[i][1 + i] = 1
    comp, basis = orthogonal_complement(lam, block)
    assert comp.rank == 1
    assert comp.gram == ((4,),)
    assert basis == [[1, 0, 0, 0, 0, 0, 0, 0, 0]]


def test_orthogonal_complement_isotropic_rejected():
    with pytest.raises(IsotropicComplementError):
        orthogonal_complement(hyperbolic_plane(), [[1, 0]])


def test_orthogonal_complement_of_invariant_block_is_e8_minus_two():
    pair = invariant_and_antiinvariant(swap_involution())
    comp, _ = orthogonal_complement(k3_lattice(), pair.invariant_basis)
    from k3lat import lattice_fingerprint

    assert lattice_fingerprint(comp) == lattice_fingerprint(e8(-2))


def test_orthogonal_complement_is_primitive():
    from k3lat import is_primitive

    lat = direct_sum([hyperbolic_plane(), e8(-1)])
    vectors = [[1, 2] + [0] * 8, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]
    comp, basis = orthogonal_complement(lat, vectors)
    ok, torsion = is_primitive(lat, basis)
    assert ok and torsion == []


def test_enumerate_roots_of_e8():
    roots = enumerate_vectors_of_norm(e8(-1), -2)
    assert len(roots) == 240
    assert roots[0] == (-2, -3, -4, -6, -5, -4, -3, -2)  # lex-first (lowest root)
    assert roots[-1] == (2, 3, 4, 6, 5, 4, 3, 2)
    assert all(tuple(-c for c in v) in set(roots) for v in roots)


def test_enumerate_norms_in_twisted_e8():
    assert enumerate_vectors_of_norm(e8(-2), -2) == []
    assert len(enumerate_vectors_of_norm(e8(-2), -4)) == 240
    assert len(enumerate_vectors_of_norm(e8(-2), -8)) == 2160


def test_enumerate_rejects_indefinite_and_bad_norm():
    with pytest.raises(NotDefiniteError):
        enumerate_vectors_of_norm(hyperbolic_plane(), -2)
    with pytest.raises(NotDefiniteError):
        enumerate_vectors_of_norm(e8(), -2)  # positive definite
    with pytest.raises(BadInputError):
        enumerate_vectors_of_norm(e8(-1), 2)
    with pytest.raises(BadInputError):
        enumerate_vectors_of_norm(e8(-1), -3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_n_root_counts(n):
    roots = enumerate_vectors_of_norm(a_n(n, -1), -2)
    assert len(roots) == n * (n + 1)


def test_enumeration_against_box_scan():
    # independent oracle: exhaustive box scan with a provably sufficient box
    cases = [
        (Lattice([[-2, 1], [1, -2]]), -6, 3),  # eigenvalues of -gram are 1, 3
        (Lattice([[-2, 0, 0], [0, -4, 0], [0, 0, -6]]), -12, 3),
        (Lattice([[-4, 1], [1, -2]]), -4, 2),
    ]
    for lat, norm, box in cases:
        fast = set(enumerate_vectors_of_norm(lat, norm))
        slow = set()
        from itertools import product

        for coords in product(range(-box, box + 1), repeat=lat.rank):
            if any(coords) and lat.norm(list(coords)) == norm:
                slow.add(coords)
        assert fast == slow


def test_gamma16_root_system():
    roots = enumerate_vectors_of_norm(gamma16(-1), -2)
    assert len(roots) == 480  # the D-type rank-16 root system
    assert sublattice_index(gamma16(-1), roots) == 2


def test_enumeration_deterministic():
    once = enumerate_vectors_of_norm(nikulin(), -2)
    twice = enumerate_vectors_of_norm(nikulin(), -2)
    assert once == twice
    assert len(once) == 16  # the eight nodal classes and their negatives


def test_sublattice_index():
    u = hyperbolic_plane()
    assert sublattice_index(u, [[1, 0], [0, 1]]) == 1
    assert sublattice_index(u, [[2, 0], [0, 2]]) == 4
    nodes = [nikulin_node_coords(i) for i in range(1, 9)]
    assert sublattice_index(nikulin(), nodes) == 2
    assert sublattice_index(u, [[1, 0], [0, 2], [0, 3]]) == 1  # a redundant family
    for bad in ([[1, 0], [2, 0]], [[1, 0], [0, 1, 0]], [[Fraction(1, 2), 0], [0, 2]], []):
        with pytest.raises(BadInputError):
            sublattice_index(u, bad)
    with pytest.raises(BadInputError):
        orthogonal_complement(u, [[Fraction(1, 2), 0]])


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_sublattice_index_of_a_square_basis_is_its_determinant(basis):
    det = linalg.bareiss_determinant(basis)
    assume(det != 0)
    assert sublattice_index(minus_one_sum(len(basis)), basis) == abs(det)


def test_json_roundtrip_bit_identical():
    for lat in [hyperbolic_plane(3), nikulin(), gamma16(-1), e8(-2)]:
        text = lat.to_json_str()
        back = Lattice.from_json(json.loads(text))
        assert back.to_json_str() == text
        assert back.gram == lat.gram


def test_rank_zero_lattice():
    empty = Lattice([])
    assert empty.rank == 0
    assert empty.determinant == 1
    assert empty.signature.as_pair() == (0, 0)
