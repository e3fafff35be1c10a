"""Rank-9 families, fingerprints, obstructions, eigenspaces, moduli."""

import pytest

from k3lat import (
    BadInputError,
    NotPrimitiveError,
    classify_ns,
    count_invariant_monomials,
    det_square_class_obstruction,
    direct_sum,
    e8,
    eigenspace_dimensions,
    hyperbolic_plane,
    k3_lattice,
    lattice_fingerprint,
    moduli_dimension,
    morrison_nikulin_lattices,
    nikulin,
    rank_one,
    transcendental_fingerprint,
)
from k3lat import linalg, nsfamilies, verify
from k3lat.errors import CheckFailed
from k3lat.involution import QuotientCohomology, swap_involution_matrix
from k3lat.lattice import _MODULI_EXAMPLES
from k3lat.nsfamilies import (
    canonical_glue_vector,
    k3_model_morrison_nikulin,
    k3_model_with_u_plus_n,
    polarization,
    tilde_family,
)


def test_classify_two_mod_four_gives_one_family():
    for two_d in (2, 6, 10, 38):
        families = classify_ns(two_d)
        assert len(families) == 1
        assert families[0].variant == "plain"
        assert families[0].lattice.rank == 9
        assert families[0].lattice.determinant == two_d * 2 ** 8


def test_classify_zero_mod_four_gives_two_families():
    families = classify_ns(4)
    assert [f.variant for f in families] == ["plain", "tilde"]
    tilde = families[1]
    assert e8(-2).norm(list(tilde.glue_vector)) == -4  # d = 2: v^2 = 8k + 4
    assert tilde.lattice.is_even
    assert tilde.lattice.determinant == families[0].lattice.determinant // 4


def test_classify_eight():
    plain, tilde = classify_ns(8)
    assert e8(-2).norm(list(tilde.glue_vector)) == -8  # d = 4: v^2 = 8k
    assert tilde.lattice.determinant == 8 * 2 ** 8 // 4


def test_classify_rejects_bad_degree():
    with pytest.raises(BadInputError):
        classify_ns(0)
    with pytest.raises(BadInputError):
        classify_ns(5)
    with pytest.raises(BadInputError):
        classify_ns(-4)


def test_tilde_requires_d_even():
    with pytest.raises(BadInputError):
        tilde_family(6)  # d = 3


def test_tilde_rejects_wrong_norm_class():
    v8 = canonical_glue_vector(4)  # norm -8, valid for d = 0 mod 4
    with pytest.raises(BadInputError):
        tilde_family(4, v8)  # d = 2 needs v^2 = 4 mod 8
    # entries are read exactly, never truncated: this is not (1, 1, 0, ..., 0)
    with pytest.raises(BadInputError):
        tilde_family(8, [1.5, 1.2, 0, 0, 0, 0, 0, 0])


def test_tilde_fingerprint_independent_of_glue_vector():
    from k3lat import enumerate_vectors_of_norm

    reference = lattice_fingerprint(tilde_family(8).lattice)
    candidates = enumerate_vectors_of_norm(e8(-2), -8)
    for v in (candidates[1], candidates[100], candidates[-1]):
        assert lattice_fingerprint(tilde_family(8, v).lattice) == reference


def test_e8_primitive_in_tilde():
    from k3lat import is_primitive

    fam = tilde_family(4)
    over = fam.overlattice
    rows = [list(over.inclusion[i]) for i in range(1, 9)]
    ok, _ = is_primitive(fam.lattice, rows)
    assert ok


# -- transcendental fingerprints ----------------------------------------------


def test_transcendental_of_u_plus_n():
    ambient, ns_basis = k3_model_with_u_plus_n()
    fp = transcendental_fingerprint(ambient, ns_basis)
    expected = lattice_fingerprint(direct_sum([hyperbolic_plane()] * 2 + [nikulin()]))
    assert fp == expected
    assert fp.signature == (2, 10)
    assert fp.invariant_factors == (2,) * 6


def test_transcendental_of_rank17_pair():
    ambient, ns_basis = k3_model_morrison_nikulin(2)
    fp = transcendental_fingerprint(ambient, ns_basis)
    expected = lattice_fingerprint(
        direct_sum([rank_one(-4), hyperbolic_plane(), hyperbolic_plane()])
    )
    assert fp == expected


def test_transcendental_of_full_lattice_is_rank_zero():
    identity = [[int(i == j) for j in range(22)] for i in range(22)]
    fp = transcendental_fingerprint(k3_lattice(), identity)
    assert fp.rank == 0


def test_transcendental_rejects_imprimitive():
    ambient, ns_basis = k3_model_morrison_nikulin(1)
    doubled = [[2 * x for x in ns_basis[0]]] + ns_basis[1:]
    with pytest.raises(NotPrimitiveError):
        transcendental_fingerprint(ambient, doubled)


# -- square-class obstruction ---------------------------------------------------


def test_obstruction_generic_rank_nine():
    rep = det_square_class_obstruction(13)
    assert rep.d == 1
    assert (rep.det_ratio_numerator, rep.det_ratio_denominator) == (8, 1)
    assert not rep.is_square


def test_obstruction_vanishes_for_even_rank():
    rep = det_square_class_obstruction(12)
    assert rep.d == 2 and rep.det_ratio_numerator == 16
    assert rep.is_square


def test_obstruction_parity_exhaustive():
    for rank_t in range(1, 14):
        rep = det_square_class_obstruction(rank_t)
        assert rep.is_square == (rank_t % 2 == 0)
        assert rep.det_ratio_numerator == 2 ** (16 - rank_t)


def test_obstruction_range_check():
    for bad in (0, 14, -3):
        with pytest.raises(BadInputError):
            det_square_class_obstruction(bad)


# -- eigenspaces ----------------------------------------------------------------


@pytest.mark.parametrize(
    "two_d,variant,expected",
    [
        (6, "plain", (3, 2, 6, 2)),
        (2, "plain", (2, 1, 6, 2)),
        (8, "plain", (3, 3, 4, 4)),
        (4, "plain", (2, 2, 4, 4)),
        (8, "tilde", (4, 2, 8, 0)),
        (4, "tilde", (3, 1, 8, 0)),
    ],
)
def test_eigenspace_tables(two_d, variant, expected):
    rep = eigenspace_dimensions(two_d, variant)
    assert (rep.h_plus, rep.h_minus, rep.fixed_points_plus, rep.fixed_points_minus) == expected


def test_eigenspace_sum_rule():
    for two_d in range(2, 30, 2):
        rep = eigenspace_dimensions(two_d)
        assert rep.h_plus + rep.h_minus == two_d // 2 + 2


@pytest.mark.parametrize("two_d", range(2, 42, 2))
def test_eigenspaces_follow_from_the_fixed_point_split(two_d):
    variants = ["plain", "tilde"] if two_d % 4 == 0 else ["plain"]
    for variant in variants:
        rep = eigenspace_dimensions(two_d, variant)
        assert rep.h_plus + rep.h_minus == two_d // 2 + 2
        assert 4 * (rep.h_plus - rep.h_minus) == rep.fixed_points_plus - rep.fixed_points_minus


def test_eigenspace_rejects_inconsistent_variant():
    with pytest.raises(BadInputError):
        eigenspace_dimensions(6, "tilde")
    with pytest.raises(BadInputError):
        eigenspace_dimensions(8, "other")


# -- monomial counting and moduli -------------------------------------------------


def test_monomial_counts_from_worked_examples():
    assert count_invariant_monomials(3, {0}, 6) == 16
    assert count_invariant_monomials(4, {0, 1}, 4) == 19
    assert count_invariant_monomials(6, {3, 4, 5}, 2) == 12
    assert count_invariant_monomials(5, {0, 1}, 2) == 9
    assert count_invariant_monomials(5, {0, 1}, 3) == 19
    assert count_invariant_monomials(6, {3, 4, 5}, 2, "anti_invariant") == 9
    assert count_invariant_monomials(6, {4, 5}, 2) == 13


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _enumerated_count(num_vars, negated, degree, parity="invariant"):
    """The count by listing every exponent vector of the given degree."""
    want_odd = parity == "anti_invariant"
    return sum(
        (sum(expo[i] for i in negated) % 2 == 1) == want_odd
        for expo in _compositions(degree, num_vars)
    )


def test_monomial_counts_match_enumeration():
    for n in range(0, 7):
        for d in range(0, 7):
            for k in range(0, n + 1):
                negated = set(range(n - k, n))
                for parity in ("invariant", "anti_invariant"):
                    assert count_invariant_monomials(n, negated, d, parity) == _enumerated_count(
                        n, negated, d, parity
                    ), (n, negated, d, parity)


def test_monomial_count_sum_identity():
    from math import comb

    for n in (1, 2, 3, 4, 5):
        for d in (0, 1, 2, 3, 4):
            for negated in (set(), {0}, set(range(n))):
                inv = count_invariant_monomials(n, negated, d)
                anti = count_invariant_monomials(n, negated, d, "anti_invariant")
                assert inv + anti == comb(n + d - 1, d)


def test_monomial_validation():
    with pytest.raises(BadInputError):
        count_invariant_monomials(3, {0}, -1)
    with pytest.raises(BadInputError):
        count_invariant_monomials(3, {5}, 2)
    with pytest.raises(BadInputError):
        count_invariant_monomials(3, {0}, 2, "odd")


@pytest.mark.parametrize("example", ["M2", "M6", "M4", "M4tilde", "M8", "M8tilde"])
def test_all_moduli_are_eleven(example):
    assert moduli_dimension(example) == 11


def test_moduli_counts_read_the_eigenspaces():
    # (h+, h-, dim GL(h+) x GL(h-)); M4tilde, the hyperelliptic case, is written out
    expected = {"M2": (2, 1, 5), "M4": (2, 2, 8), "M6": (3, 2, 13), "M8": (3, 3, 18),
                "M8tilde": (4, 2, 20)}
    got = {}
    for example, (two_d, variant) in nsfamilies._MODULI_FAMILIES.items():
        rep = eigenspace_dimensions(two_d, variant)
        got[example] = (rep.h_plus, rep.h_minus, rep.h_plus ** 2 + rep.h_minus ** 2)
    assert got == expected
    assert sorted([*nsfamilies._MODULI_FAMILIES, "M4tilde"]) == sorted(_MODULI_EXAMPLES)


def test_moduli_rejects_unsupported():
    with pytest.raises(BadInputError):
        moduli_dimension("M12")


_build_push = QuotientCohomology._build_push
_canonical_glue_vector = nsfamilies.canonical_glue_vector


def _doubled_push():
    """The push with its U block doubled: pi_* L~ / 2 is integral, so every S is empty."""
    p = _build_push()
    return [[2 * x for x in row] if i < 6 else row for i, row in enumerate(p)]


def test_doubled_push_fails_the_moduli_count(monkeypatch):
    # plain L^2 = 6 reads (8, 0), and h+ - h- = 2 does not fit h+ + h- = 5
    monkeypatch.setattr(QuotientCohomology, "_build_push", staticmethod(_doubled_push))
    with pytest.raises(CheckFailed, match=r"fixed-point split \(8, 0\) does not fit L\^2 = 6"):
        verify.check_eigenspaces_and_moduli()


def test_glue_vector_of_the_wrong_norm_class_fails_the_moduli_count(monkeypatch):
    # d + 2 has the other residue mod 4: x^2 = -2 for d = 4 leaves u' half-integral
    monkeypatch.setattr(nsfamilies, "canonical_glue_vector", lambda d: _canonical_glue_vector(d + 2))
    expected = r"eigenspaces\(8,tilde\) = \(3, 3, 4, 4\) != \(4, 2, 8, 0\)"
    with pytest.raises(CheckFailed, match=expected):
        verify.check_eigenspaces_and_moduli()


@pytest.mark.parametrize("two_d", range(2, 42, 2))
def test_fixed_point_split_is_the_papers(two_d):
    expected = {"plain": (6, 2) if two_d % 4 == 2 else (4, 4), "tilde": (8, 0)}
    for variant in ["plain", "tilde"] if two_d % 4 == 0 else ["plain"]:
        rep = eigenspace_dimensions(two_d, variant)
        assert (rep.fixed_points_plus, rep.fixed_points_minus) == expected[variant]


@pytest.mark.parametrize("two_d", range(2, 42, 2))
def test_polarization_is_swap_fixed_of_norm_two_d(two_d):
    k3, swap = k3_lattice(), swap_involution_matrix()
    for variant in ["plain", "tilde"] if two_d % 4 == 0 else ["plain"]:
        lvec = polarization(two_d, variant)
        assert k3.norm(lvec) == two_d
        assert linalg.mat_vec(swap, lvec) == lvec
        if variant == "tilde":
            x = list(canonical_glue_vector(two_d // 2))
            glued = [a + b for a, b in zip(lvec, [0] * 6 + x + [-c for c in x])]
            assert all(c % 2 == 0 for c in glued)


def test_morrison_nikulin_model_takes_the_plain_polarization():
    for n in (1, 2, 3, 4):
        _ambient, ns_basis = k3_model_morrison_nikulin(n)
        assert ns_basis[0] == polarization(2 * n)
        assert ns_basis[1:] == linalg.identity_matrix(22)[6:]


# -- rank-17 pairs ----------------------------------------------------------------


def test_morrison_nikulin_n2():
    rep = morrison_nikulin_lattices(2)
    assert abs(rep.ns.determinant) == 4
    assert abs(rep.transcendental.determinant) == 4
    assert rep.ns_fingerprint.signature == (1, 16)
    assert rep.t_fingerprint.signature == (2, 3)


def test_morrison_nikulin_n1():
    rep = morrison_nikulin_lattices(1)
    expected_t = lattice_fingerprint(
        direct_sum([rank_one(-2), hyperbolic_plane(), hyperbolic_plane()])
    )
    assert rep.t_fingerprint == expected_t


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_morrison_nikulin_rank_sum(n):
    rep = morrison_nikulin_lattices(n)
    fp_ns, fp_t = rep.ns_fingerprint, rep.t_fingerprint
    assert (rep.ns.rank, rep.transcendental.rank) == (17, 5)
    assert (fp_ns.signature, fp_t.signature) == ((1, 16), (2, 3))
    assert fp_ns.invariant_factors == fp_t.invariant_factors == (2 * n,)
    fp_minus = lattice_fingerprint(rep.ns.twist(-1))  # the form of NS(-1) is -q_NS
    assert fp_t.q_histogram == fp_minus.q_histogram
