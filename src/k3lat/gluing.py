"""Even overlattices from isotropic glue subgroups.

An even overlattice of M corresponds to an isotropic subgroup of the
discriminant form A_M; ``glue`` realizes the overlattice with a canonical
Hermite-normal-form integral basis so outputs are diff-able.  The two stock
gluings construct the even unimodular overlattice of U(2)^3 + N and the
diagonal overlattice of N + N (a copy of Gamma16(-1) not generated by its
roots), together with the explicit half-integer embedding of N + N into the
coordinate model of Gamma16(-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, NonIsotropicGlueError, NotDualVectorError
from . import linalg
from .discforms import _closure, discriminant_form
from .lattice import (
    Lattice,
    direct_sum,
    gamma16_contains,
    gamma16_coordinates,
    hyperbolic_plane,
    nikulin,
    nikulin_node_coords,
)


@dataclass(frozen=True)
class GlueData:
    """A base lattice plus rational glue vectors whose classes generate H."""

    base: Lattice
    glue_vectors: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def of(base: Lattice, vectors) -> "GlueData":
        vecs = tuple(tuple(Fraction(c) for c in v) for v in vectors)
        for v in vecs:
            if len(v) != base.rank:
                raise BadInputError("glue vectors must have the base rank as length")
        return GlueData(base, vecs)


@dataclass(frozen=True)
class Overlattice:
    lattice: Lattice
    #: rows express the overlattice basis in base coordinates (rational)
    basis_in_base: tuple[tuple[Fraction, ...], ...]
    #: rows express the old basis in the new one (integral)
    inclusion: tuple[tuple[int, ...], ...]
    base: Lattice
    glue_order: int


def glue(data: GlueData) -> Overlattice:
    """Even overlattice generated by the base and the glue vectors.

    Validates that the glue classes are dual vectors and that the subgroup
    they generate is isotropic for q (reporting the first violating element
    in lexicographic order), then returns the overlattice in a Hermite normal
    form basis together with the inclusion of the base.
    """
    base = data.base
    n = base.rank
    gram = base.gram_rows()
    for v in data.glue_vectors:
        gv = linalg.mat_vec(gram, list(v))
        if any(x.denominator != 1 for x in gv):
            raise NotDualVectorError(f"glue vector {v} is not in the dual lattice")

    form = discriminant_form(base)
    classes = [form.element_of(list(v)) for v in data.glue_vectors]
    subgroup = _closure(form, classes)
    for elem in sorted(subgroup):
        if form.q(elem) != 0:
            raise NonIsotropicGlueError(
                f"glue subgroup is not isotropic: q{elem} = {form.q(elem)} != 0 mod 2Z"
            )
    order = len(subgroup)

    if not data.glue_vectors:
        ident = tuple(tuple(row) for row in linalg.identity_matrix(n))
        basis = tuple(tuple(Fraction(x) for x in row) for row in linalg.identity_matrix(n))
        return Overlattice(base, basis, ident, base, 1)

    denom = math.lcm(*(c.denominator for v in data.glue_vectors for c in v))
    rows = [[denom * x for x in row] for row in linalg.identity_matrix(n)]
    for v in data.glue_vectors:
        scaled = [c * denom for c in v]
        rows.append([int(c) for c in scaled])
    hnf = linalg.hermite_normal_form(rows)
    assert len(hnf) == n
    basis = [[Fraction(x, denom) for x in row] for row in hnf]

    det_hnf = 1
    for i in range(n):
        det_hnf *= hnf[i][i]
    index = denom ** n // abs(det_hnf)
    assert index == order, "overlattice index disagrees with the glue subgroup order"

    new_gram_frac = linalg.pairing_matrix(basis, gram)
    new_gram = []
    for row in new_gram_frac:
        assert all(x.denominator == 1 for x in row), "glued form is not integral"
        new_gram.append([int(x) for x in row])
    for i in range(n):
        assert new_gram[i][i] % 2 == 0, "glued lattice is not even"
    over = Lattice(new_gram, name=None)

    binv = linalg.rational_inverse([[Fraction(x) for x in row] for row in basis])
    inclusion = []
    for i in range(n):
        row = binv[i]  # old basis vector e_i in new coordinates
        assert all(x.denominator == 1 for x in row)
        inclusion.append(tuple(int(x) for x in row))
    return Overlattice(
        over,
        tuple(tuple(r) for r in basis),
        tuple(inclusion),
        base,
        order,
    )


def is_primitive(ambient: Lattice, vectors) -> tuple[bool, list[int]]:
    """Whether the span of ``vectors`` is a primitive sublattice.

    Returns (flag, torsion invariant factors of the cokernel).  Vectors are
    coordinates in the ambient basis and must be linearly independent.
    """
    vecs = [list(map(int, v)) for v in vectors]
    if not vecs:
        return True, []
    if any(len(v) != ambient.rank for v in vecs):
        raise BadInputError("vectors must have the ambient rank as length")
    if linalg.rational_rank(vecs) != len(vecs):
        raise BadInputError("vectors are not linearly independent")
    cols = linalg.transpose(vecs)
    factors = linalg.invariant_factors(cols)
    torsion = [d for d in factors if d > 1]
    return not torsion, torsion


# ---------------------------------------------------------------------------
# stock glue data


def u2cubed_nikulin_base() -> Lattice:
    """U(2)^3 + N, the sublattice of H^2 of the quotient surface used for gluing."""
    return direct_sum([hyperbolic_plane(2)] * 3 + [nikulin()], name="U(2)^3 + N")


# index pattern of the nodal classes entering each half-integer glue vector,
# matched with e_1,e_2,e_3,f_1,f_2,f_3 of U(2)^3
_GLUE_PATTERN = (
    ("e", 1, (1, 2, 3, 8)),
    ("e", 2, (1, 5, 6, 8)),
    ("e", 3, (2, 6, 7, 8)),
    ("f", 1, (1, 2, 4, 8)),
    ("f", 2, (1, 5, 7, 8)),
    ("f", 3, (3, 4, 5, 8)),
)


def u2cubed_nikulin_glue_vectors() -> list[list[Fraction]]:
    """The six half-integer glue vectors in U(2)^3 + N coordinates."""
    out = []
    for kind, copy, nodes in _GLUE_PATTERN:
        v = [Fraction(0)] * 14
        slot = 2 * (copy - 1) + (0 if kind == "e" else 1)
        v[slot] = Fraction(1, 2)
        for i in nodes:
            for j, c in enumerate(nikulin_node_coords(i)):
                v[6 + j] += Fraction(c, 2)
        out.append(v)
    return out


def u2cubed_nikulin_overlattice() -> Overlattice:
    """Even unimodular overlattice of U(2)^3 + N (rank 14, signature (3,11))."""
    return glue(GlueData.of(u2cubed_nikulin_base(), u2cubed_nikulin_glue_vectors()))


def nikulin_square_base() -> Lattice:
    return direct_sum([nikulin(), nikulin()], name="N + N")


def nikulin_square_glue_vectors() -> list[list[Fraction]]:
    """Diagonal glue (x, x) over generators of A_N; valid since q_N = -q_N."""
    form = discriminant_form(nikulin())
    out = []
    for gen in form.generators:
        out.append(list(gen) + list(gen))
    return out


def nikulin_square_overlattice() -> Overlattice:
    """The diagonal even unimodular overlattice of N + N (= Gamma16(-1))."""
    return glue(GlueData.of(nikulin_square_base(), nikulin_square_glue_vectors()))


# ---------------------------------------------------------------------------
# explicit embedding N + N -> Gamma16(-1)


def _ambient_pair(x, y) -> Fraction:
    # Gamma16(-1): bilinear form is minus the standard dot product
    return -sum(a * b for a, b in zip(x, y))


def nikulin_square_in_gamma16() -> dict:
    """Check the explicit embedding of N + N into Gamma16(-1).

    (N_i, 0) -> e_i + e_{i+8} and (0, N_i) -> e_i - e_{i+8}; the half-sum
    classes map to half-integer vectors.  Verifies it is an isometric
    embedding with both factors primitive and image of index 2^6.
    """
    base = nikulin_square_base()

    def unit(i):
        v = [Fraction(0)] * 16
        v[i] = Fraction(1)
        return v

    first_images = []
    for i in range(1, 8):
        v = [Fraction(0)] * 16
        v[i - 1] = Fraction(1)
        v[i - 1 + 8] = Fraction(1)
        first_images.append(v)
    first_images.append([Fraction(1, 2)] * 16)  # (Nhat, 0)
    second_images = []
    for i in range(1, 8):
        v = [Fraction(0)] * 16
        v[i - 1] = Fraction(1)
        v[i - 1 + 8] = Fraction(-1)
        second_images.append(v)
    second_images.append([Fraction(1, 2)] * 8 + [Fraction(-1, 2)] * 8)  # (0, Nhat)

    images = first_images + second_images
    gram = base.gram_rows()
    isometric = all(
        _ambient_pair(images[i], images[j]) == gram[i][j]
        for i in range(16)
        for j in range(16)
    )
    membership = all(gamma16_contains(v) for v in images)
    coords = [gamma16_coordinates(v) for v in images]

    prim_first, tors_first = is_primitive_in_coords(coords[:8])
    prim_second, tors_second = is_primitive_in_coords(coords[8:])
    index = abs(linalg.bareiss_determinant(coords))

    e1p9 = [a + b for a, b in zip(unit(0), unit(8))]
    e1m9 = [a - b for a, b in zip(unit(0), unit(8))]
    spot = {
        "pair_orthogonal": _ambient_pair(e1p9, e1m9) == 0,
        "norm_minus_two": _ambient_pair(e1p9, e1p9) == -2,
    }
    return {
        "isometric_embedding": isometric,
        "in_gamma16": membership,
        "first_factor_primitive": prim_first,
        "second_factor_primitive": prim_second,
        "cokernel_factors": [tors_first, tors_second],
        "index": index,
        "spot_checks": spot,
    }


def is_primitive_in_coords(vectors) -> tuple[bool, list[int]]:
    """Primitivity of an integer coordinate family (no ambient form needed)."""
    cols = linalg.transpose([list(map(int, v)) for v in vectors])
    factors = linalg.invariant_factors(cols)
    torsion = [d for d in factors if d > 1]
    return not torsion, torsion


def restriction_recovers_base(over: Overlattice) -> bool:
    """The base Gram is recovered by restricting the overlattice form."""
    inc = [list(row) for row in over.inclusion]
    back = linalg.pairing_matrix(inc, over.lattice.gram_rows())
    return linalg.mat_eq(back, over.base.gram_rows())


def verification_block(over: Overlattice) -> dict:
    lat = over.lattice
    return {
        "even": lat.is_even,
        "det": lat.determinant,
        "signature": list(lat.signature.as_pair()),
        "index": over.glue_order,
    }
