"""Discriminant forms: group structure, q/b values, subgroups, orbits."""

import time
from fractions import Fraction

import pytest

from k3lat import (
    BadInputError,
    OddLatticeError,
    UnsupportedError,
    a_n,
    direct_sum,
    discriminant_form,
    e8,
    e8_simple_reflections,
    enumerate_isotropic_subgroups,
    hyperbolic_plane,
    nikulin,
    orbits_under_generators,
    qK_on_U2_cubed,
    rank_one,
)
from k3lat.discforms import action_on_disc
from k3lat.lattice import Lattice
from oracles import nikulin_permutation_matrix

F = Fraction


def test_u2_disc_form():
    form = discriminant_form(hyperbolic_plane(2))
    assert form.invariant_factors == (2, 2)
    e_half = form.element_of([F(1, 2), 0])
    f_half = form.element_of([0, F(1, 2)])
    assert form.q(e_half) == 0
    assert form.q(f_half) == 0
    assert form.b(e_half, f_half) == F(1, 2)
    # q(e/2 + f/2) = (e+f)^2/4 = 1: the form is x1*x2, not identically zero
    assert form.q(form.add(e_half, f_half)) == 1


def test_unimodular_lattice_has_trivial_group():
    form = discriminant_form(e8(-1))
    assert form.invariant_factors == ()
    assert form.order == 1


def test_nikulin_disc_form():
    form = discriminant_form(nikulin())
    assert form.invariant_factors == (2,) * 6
    pair = form.element_of([F(1, 2), F(1, 2), 0, 0, 0, 0, 0, 0])
    assert form.q(pair) == 1


def test_odd_lattice_rejected():
    with pytest.raises(OddLatticeError):
        discriminant_form(rank_one(3))
    with pytest.raises(OddLatticeError):
        discriminant_form(Lattice([[1]]))


def test_order_matches_determinant():
    for lat in [hyperbolic_plane(2), nikulin(), a_n(4), rank_one(12), e8(-2)]:
        form = discriminant_form(lat)
        assert form.order == abs(lat.determinant)


def test_qk_verification_report():
    report = qK_on_U2_cubed()
    assert report == {"elements_checked": 64, "q_zero": 36, "q_one": 28}


def test_form_in_4z_forces_integer_q_values():
    # when the quadratic form of M lies in 4Z, q is {0,1}-valued mod 2Z
    for lat in [e8(-2), hyperbolic_plane(2), direct_sum([hyperbolic_plane(2)] * 3)]:
        assert all(lat.norm(row) % 4 == 0 for row in [[1 if j == i else 0 for j in range(lat.rank)] for i in range(lat.rank)])
        hist = discriminant_form(lat).q_histogram()
        assert set(hist) <= {F(0), F(1)}
    # the converse fails: q_N is {0,1}-valued although N contains norm -2 vectors
    hist = discriminant_form(nikulin()).q_histogram()
    assert set(hist) <= {F(0), F(1)}
    assert nikulin().norm([1, 0, 0, 0, 0, 0, 0, 0]) == -2


def test_element_of_rejects_non_dual_vectors():
    form = discriminant_form(hyperbolic_plane(2))
    with pytest.raises(BadInputError):
        form.element_of([F(1, 3), 0])


def test_element_of_refuses_floats():
    form = discriminant_form(hyperbolic_plane(2))
    assert form.element_of([F(1, 2), 0]) == form.element_of(["1/2", 0])
    with pytest.raises(BadInputError, match="float"):
        form.element_of([0.5, 0])
    with pytest.raises(BadInputError):
        form.element_of("10")  # text is not read as a vector of its characters


def test_lift_and_element_roundtrip():
    form = discriminant_form(direct_sum([rank_one(4), nikulin()]))
    for x in form.elements():
        assert form.element_of(form.lift(x)) == x


def test_polarization_identity_exhaustive():
    for lat in [hyperbolic_plane(2), nikulin(), a_n(3), rank_one(8)]:
        form = discriminant_form(lat)
        elements = list(form.elements())
        for x in elements:
            for y in elements:
                lhs = (form.q(form.add(x, y)) - form.q(x) - form.q(y)) % 2
                assert lhs == (2 * form.b(x, y)) % 2
            assert form.q(form.scale(2, x)) == (4 * form.q(x)) % 2


# -- isotropic subgroups -----------------------------------------------------


def test_trivial_subgroup_only_for_order_one():
    form = discriminant_form(nikulin())
    subs = enumerate_isotropic_subgroups(form, 1)
    assert len(subs) == 1
    assert subs[0].elements == (form.zero(),)


def test_u2_isotropic_order_two():
    # q = x1*x2 kills e/2 + f/2, so exactly <e/2> and <f/2> survive
    form = discriminant_form(hyperbolic_plane(2))
    subs = enumerate_isotropic_subgroups(form, 2)
    assert len(subs) == 2
    gens = sorted(s.elements[1] if s.elements[0] == form.zero() else s.elements[0] for s in subs)
    assert gens == [(0, 1), (1, 0)]


def test_isotropic_count_against_element_scan():
    # order-2 subgroups correspond to isotropic elements of order 2
    form = discriminant_form(direct_sum([rank_one(4), e8(-2)]))
    subs = enumerate_isotropic_subgroups(form, 2)
    scan = sum(
        1
        for x in form.elements()
        if any(x) and form.scale(2, x) == form.zero() and form.q(x) == 0
    )
    assert len(subs) == scan == 255
    for sub in subs[:10]:
        assert all(form.q(e) == 0 for e in sub.elements)


def test_isotropic_subgroups_order_four_all_isotropic():
    form = discriminant_form(direct_sum([hyperbolic_plane(2), hyperbolic_plane(2)]))
    subs = enumerate_isotropic_subgroups(form, 4)
    assert subs, "the sum of two hyperbolic planes has isotropic planes"
    for sub in subs:
        assert len(sub.elements) == 4
        assert all(form.q(e) == 0 for e in sub.elements)


def test_subgroup_bound_covers_two_elementary_groups():
    # U(2)^7 has the 2-elementary group (Z/2)^14 of order 16384, past the bound 2^12;
    # the search over it ran for minutes
    form = discriminant_form(direct_sum([hyperbolic_plane(2)] * 7))
    with pytest.raises(UnsupportedError, match="exceeds the enumeration bound 4096"):
        enumerate_isotropic_subgroups(form, 4)


def test_u2_fourth_power_order_four_stays_under_the_work_bound():
    # its closures visit 36,450 elements, about half the bound
    form = discriminant_form(direct_sum([hyperbolic_plane(2)] * 4))
    assert len(enumerate_isotropic_subgroups(form, 4)) == 1575


@pytest.mark.parametrize("copies, order", [(4, 8), (5, 4), (5, 8), (6, 4)])
def test_subgroup_search_past_its_work_bound_is_unsupported(copies, order):
    # these ran 8.6 s, 2.9 s, past 15 s and past 20 s before the work bound
    form = discriminant_form(direct_sum([hyperbolic_plane(2)] * copies))
    start = time.process_time()
    with pytest.raises(UnsupportedError, match="past the bound 65536"):
        enumerate_isotropic_subgroups(form, order)
    assert time.process_time() - start < 1.0


def test_nonexistent_order_returns_empty():
    form = discriminant_form(hyperbolic_plane(2))
    assert enumerate_isotropic_subgroups(form, 3) == []


# -- orbits -------------------------------------------------------------------


def _s8_generators():
    perms = []
    for i in range(1, 8):  # adjacent transpositions generate S8
        perm = list(range(1, 9))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        perms.append(nikulin_permutation_matrix(perm))
    return perms


def test_s8_orbits_on_nikulin_disc_group():
    form = discriminant_form(nikulin())
    orbits = orbits_under_generators(form, _s8_generators())
    assert [len(o) for o in orbits] == [1, 28, 35]
    # representatives: 0, (N_i+N_j)/2, (N_1+N_i+N_j+N_k)/2
    pair = form.element_of([F(1, 2), F(1, 2), 0, 0, 0, 0, 0, 0])
    four = form.element_of([F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0, 0, 0])
    assert pair in orbits[1]
    assert four in orbits[2]


def test_weyl_orbits_on_e8_minus_two():
    form = discriminant_form(e8(-2))
    orbits = orbits_under_generators(form, e8_simple_reflections())
    assert [len(o) for o in orbits] == [1, 120, 135]
    level = {"zero": set(), "0": set(), "1": set()}
    for x in form.elements():
        key = "zero" if not any(x) else str(form.q(x))
        level[key].add(x)
    assert {frozenset(o) for o in orbits} == {frozenset(s) for s in level.values()}


def test_identity_generator_gives_singletons():
    form = discriminant_form(hyperbolic_plane(2))
    ident = [[1, 0], [0, 1]]
    orbits = orbits_under_generators(form, [ident])
    assert all(len(o) == 1 for o in orbits)
    assert len(orbits) == 4


def test_non_isometry_generator_rejected():
    form = discriminant_form(hyperbolic_plane(2))
    with pytest.raises(BadInputError):
        orbits_under_generators(form, [[[1, 1], [0, 1]]])


def test_orbits_refine_q_level_sets():
    form = discriminant_form(nikulin())
    orbits = orbits_under_generators(form, _s8_generators())
    for orbit in orbits:
        values = {form.q(x) for x in orbit}
        assert len(values) == 1


def test_action_table_entry_with_the_wrong_q_is_rejected(monkeypatch):
    # A_U(2) = (Z/2)^2 has q = 0 at (0, 0) and q = 1 at (1, 1).  The table
    # pairs each element of elements() with its image; with elements() listing
    # (0, 0) and (1, 1) in each other's place, the identity's table sends (1, 1)
    # to (0, 0) and back, and the generator images (1, 0), (0, 1) do not move
    form = discriminant_form(hyperbolic_plane(2))
    ident = [[1, 0], [0, 1]]
    assert (form.q((0, 0)), form.q((1, 1))) == (0, 1)
    assert action_on_disc(form, ident)[(1, 1)] == (1, 1)  # and form.q_numerators is built
    swapped = {(0, 0): (1, 1), (1, 1): (0, 0)}
    elements = form.elements
    monkeypatch.setattr(form, "elements", lambda: (swapped.get(x, x) for x in elements()))
    with pytest.raises(BadInputError, match="fails to preserve q"):
        action_on_disc(form, ident)


def test_q_and_b_are_their_numerators_over_one_denominator():
    for lat in [hyperbolic_plane(2), nikulin(), a_n(4), rank_one(12), e8(-2)]:
        form = discriminant_form(lat)
        den = form.denominator
        for x in form.elements():
            assert 0 <= form.q_numerator(x) < 2 * den
            assert form.q(x) == F(form.q_numerator(x), den)
            y = form.scale(5, x)
            assert 0 <= form.b_numerator(x, y) < den
            assert form.b(x, y) == F(form.b_numerator(x, y), den)


def test_discriminant_form_is_shared_per_gram():
    gram = nikulin().gram
    first, second = Lattice(gram, name="one"), Lattice(gram, name="two")
    assert discriminant_form(first) is discriminant_form(second)
    # everything the form keeps is immutable
    form = discriminant_form(first)
    for attr in ("invariant_factors", "generators", "_coordinates", "_scaled", "_pair"):
        assert isinstance(getattr(form, attr), tuple)
