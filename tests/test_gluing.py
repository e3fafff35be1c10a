"""Overlattice gluing, primitivity, and the two flagship constructions."""

from fractions import Fraction
from itertools import permutations

import pytest

from k3lat import (
    BadInputError,
    CheckFailed,
    GlueData,
    NonIsotropicGlueError,
    NotDualVectorError,
    direct_sum,
    e8,
    enumerate_vectors_of_norm,
    gamma16,
    glue,
    hyperbolic_plane,
    is_primitive,
    lattice_fingerprint,
    nikulin_square_in_gamma16,
    nikulin_square_overlattice,
    rank_one,
    sublattice_index,
    u2cubed_nikulin_overlattice,
)
from k3lat import gluing, linalg
from k3lat.gluing import (
    u2cubed_nikulin_base,
    u2cubed_nikulin_glue_vectors,
    verification_block,
)
from k3lat.lattice import Lattice, nikulin_node_coords

F = Fraction


def test_unimodular_glue_fingerprint():
    over = u2cubed_nikulin_overlattice()
    lat = over.lattice
    assert lat.is_even
    assert lat.determinant == -1
    assert lat.signature.as_pair() == (3, 11)
    assert over.glue_order == 64
    # unique even unimodular lattice of signature (3,11): matches U^3 + E8(-1)
    target = direct_sum([hyperbolic_plane()] * 3 + [e8(-1)])
    assert lattice_fingerprint(lat) == lattice_fingerprint(target)


def test_glue_restriction_recovers_base():
    # glue requires this on every call; restate it here from the returned data
    over = u2cubed_nikulin_overlattice()
    back = linalg.pairing_matrix(over.inclusion, over.lattice.gram_rows())
    assert back == over.base.gram_rows()
    assert verification_block(over) == {
        "even": True,
        "det": -1,
        "signature": [3, 11],
        "index": 64,
    }


def test_glue_determinant_law():
    over = u2cubed_nikulin_overlattice()
    assert over.lattice.determinant * over.glue_order ** 2 == over.base.determinant


def test_trivial_glue_returns_base():
    base = u2cubed_nikulin_base()
    over = glue(GlueData.of(base, []))
    assert over.lattice.gram == base.gram
    assert over.glue_order == 1


def test_glue_memo_gives_each_caller_its_own_base():
    # Lattice compares Grams only; the memo of glue also keys on labels and name
    gram = hyperbolic_plane(2).gram
    bases = [Lattice(gram, ("e", "f"), "one"), Lattice(gram, ("e", "f"), "two"),
             Lattice(gram, ("x", "y"), "one")]
    assert bases[0] == bases[1] == bases[2]
    vectors = [[F(1, 2), 0]]
    overs = [glue(GlueData.of(base, vectors)) for base in bases]
    for base, over in zip(bases, overs):
        assert (over.base.name, over.base.labels) == (base.name, base.labels)
    assert glue(GlueData.of(Lattice(gram, ("e", "f"), "one"), vectors)) is overs[0]
    assert overs[0].lattice.gram == ((0, 1), (1, 0))


def test_non_isotropic_glue_reports_element():
    base = direct_sum([rank_one(2), rank_one(2)])
    with pytest.raises(NonIsotropicGlueError):
        glue(GlueData.of(base, [[F(1, 2), F(1, 2)]]))  # q = (2+2)/4 = 1 mod 2Z


def test_non_dual_vector_rejected():
    with pytest.raises(NotDualVectorError):
        glue(GlueData.of(hyperbolic_plane(2), [[F(1, 3), 0]]))


@pytest.mark.parametrize(
    "vectors",
    [[["a", 0]], [5], [["1/0", 0]], [[0.1, 0]], ["10"], [["0.5", 0]], [["1e3", 0]],
     [{"0": 1, "1": 0}]],
    ids=["str", "int", "1/0", "float", "text-vector", "decimal-text", "exponent-text", "dict"],
)
def test_malformed_glue_vectors_rejected(vectors):
    with pytest.raises(BadInputError):
        GlueData.of(hyperbolic_plane(2), vectors)


def test_gamma16_glue():
    over = nikulin_square_overlattice()
    lat = over.lattice
    assert lat.rank == 16
    assert lat.is_even
    assert lat.determinant == 1
    assert lat.signature.as_pair() == (0, 16)
    assert lattice_fingerprint(lat) == lattice_fingerprint(gamma16(-1))


def test_gamma16_not_generated_by_roots():
    over = nikulin_square_overlattice()
    roots = enumerate_vectors_of_norm(over.lattice, -2)
    assert len(roots) == 480
    assert sublattice_index(over.lattice, roots) == 2


def test_nikulin_factors_primitive_in_glued_overlattice():
    over = nikulin_square_overlattice()
    first = [list(over.inclusion[i]) for i in range(8)]
    second = [list(over.inclusion[i]) for i in range(8, 16)]
    ok1, _ = is_primitive(over.lattice, first)
    ok2, _ = is_primitive(over.lattice, second)
    assert ok1 and ok2


def test_is_primitive_examples():
    amb = rank_one(2)
    ok, torsion = is_primitive(amb, [[2]])
    assert not ok and torsion == [2]
    lat = direct_sum([hyperbolic_plane(), hyperbolic_plane()])
    ok, torsion = is_primitive(lat, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert ok and torsion == []
    with pytest.raises(BadInputError):
        is_primitive(lat, [[1, 0, 0, 0], [0, 0, 1, 0], [2, 0, -3, 0]])
    with pytest.raises(BadInputError):
        is_primitive(amb, [[F(3, 2)]])


def test_embedding_report(monkeypatch):
    # raises unless isometric, inside Gamma16 and with both factors primitive
    assert nikulin_square_in_gamma16() == 2 ** 6
    monkeypatch.setattr(gluing, "gamma16_contains_doubled", lambda y: False)
    with pytest.raises(CheckFailed, match="image 0 is not in Gamma16"):
        nikulin_square_in_gamma16()
    monkeypatch.undo()
    monkeypatch.setattr(gluing, "is_primitive", lambda ambient, rows: (False, [2]))
    with pytest.raises(CheckFailed, match=r"the first N has cokernel torsion \[2\]"):
        nikulin_square_in_gamma16()


def test_glue_vectors_have_norm_minus_two_values():
    base = u2cubed_nikulin_base()
    for v in u2cubed_nikulin_glue_vectors():
        assert base.norm(v) == -2  # even: q vanishes mod 2Z


def test_s8_conjugate_glue_choices_have_equal_fingerprints():
    # relabelling the nodal classes gives fingerprint-identical overlattices
    base = u2cubed_nikulin_base()
    reference = lattice_fingerprint(u2cubed_nikulin_overlattice().lattice)
    patterns = [
        (1, 2, 3, 8),
        (1, 5, 6, 8),
        (2, 6, 7, 8),
        (1, 2, 4, 8),
        (1, 5, 7, 8),
        (3, 4, 5, 8),
    ]
    for sigma in list(permutations(range(1, 9)))[::5040][:1] + [
        (2, 1, 3, 4, 5, 6, 7, 8),
        (8, 7, 6, 5, 4, 3, 2, 1),
        (3, 1, 2, 5, 4, 7, 8, 6),
    ]:
        vectors = []
        for slot, nodes in enumerate(patterns):
            v = [F(0)] * 14
            v[[0, 2, 4, 1, 3, 5][slot]] = F(1, 2)
            for i in nodes:
                for j, c in enumerate(nikulin_node_coords(sigma[i - 1])):
                    v[6 + j] += F(c, 2)
            vectors.append(v)
        over = glue(GlueData.of(base, vectors))
        assert over.glue_order == 64
        assert lattice_fingerprint(over.lattice) == reference


def test_gamma16_stabilizes_against_e8_pair():
    # invariant fingerprints agree; an explicit isometry is out of scope
    left = direct_sum([hyperbolic_plane()] * 3 + [gamma16(-1)])
    right = direct_sum([hyperbolic_plane()] * 3 + [e8(-1), e8(-1)])
    assert lattice_fingerprint(left) == lattice_fingerprint(right)


def test_stock_glue_data_on_ints_is_the_cleared_halves():
    # built from the doubled ints, each datum equals GlueData.of of the Fraction
    # halves (den 2 least), so glue's memo hands back the same overlattice
    over = u2cubed_nikulin_overlattice()
    assert glue(GlueData.of(u2cubed_nikulin_base(), u2cubed_nikulin_glue_vectors())) is over
    from k3lat.nsfamilies import plain_family, tilde_family

    for two_d in (4, 8):
        fam = tilde_family(two_d)
        halves = [F(1, 2)] + [F(c, 2) for c in fam.glue_vector]
        assert glue(GlueData.of(plain_family(two_d).lattice, [halves])) is fam.overlattice


def test_tilde_glue_determinant_law():
    from k3lat.nsfamilies import tilde_family

    for two_d in (4, 8, 12, 16):
        fam = tilde_family(two_d)
        over = fam.overlattice
        assert over.lattice.determinant * over.glue_order ** 2 == over.base.determinant
