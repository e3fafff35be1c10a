"""Even overlattices from isotropic glue subgroups.

An even overlattice of M corresponds to an isotropic subgroup of the
discriminant form A_M; ``glue`` realizes the overlattice with a canonical
Hermite-normal-form integral basis so outputs are diff-able.  The two stock
gluings construct the even unimodular overlattice of U(2)^3 + N and the
diagonal overlattice of N + N (a copy of Gamma16(-1) not generated by its
roots), together with the explicit half-integer embedding of N + N into the
coordinate model of Gamma16(-1).  A claim fails where it is computed: ``glue``
and the embedding raise CheckFailed (``errors.require``) when one does not
hold, and return only data.  ``glue`` is memoized on its input, the base and
the glue vectors; an Overlattice is immutable, so callers share it, and an
error is raised afresh on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, NonIsotropicGlueError, NotDualVectorError, require
from . import discforms, linalg
from .lattice import (
    Lattice,
    direct_sum,
    gamma16,
    gamma16_contains_doubled,
    gamma16_coordinates_doubled,
    hyperbolic_plane,
    nikulin,
    nikulin_node_coords,
    sublattice_index,
)


@dataclass(frozen=True)
class GlueData:
    """A base lattice plus rational glue vectors whose classes generate H.

    Each glue vector v is kept as (den, den * v) on ints, den least.
    """

    base: Lattice
    glue_vectors: tuple[tuple[int, tuple[int, ...]], ...]

    @staticmethod
    def of(base: Lattice, vectors) -> "GlueData":
        try:
            cleared = [linalg.clear_denominators(v) for v in vectors]
        except TypeError as exc:
            raise BadInputError("glue vectors must be lists of exact rationals") from exc
        if any(len(w) != base.rank for _, w in cleared):
            raise BadInputError("glue vectors must have the base rank as length")
        return GlueData(base, tuple((den, tuple(w)) for den, w in cleared))


@dataclass(frozen=True)
class Overlattice:
    lattice: Lattice
    #: rows express the overlattice basis in base coordinates (rational)
    basis_in_base: tuple[tuple[Fraction, ...], ...]
    #: rows express the old basis in the new one (integral)
    inclusion: tuple[tuple[int, ...], ...]
    base: Lattice
    glue_order: int


# about 12 distinct inputs per verify-paper pass
@functools.lru_cache(maxsize=32)
def glue(data: GlueData) -> Overlattice:
    """Even overlattice generated by the base and the glue vectors.

    Validates that the glue classes are dual vectors and that the subgroup
    they generate is isotropic for q (reporting the first violating element
    in lexicographic order), then returns the overlattice in a Hermite normal
    form basis together with the inclusion of the base.  Requires (CheckFailed)
    that the inclusion restricts the glued form to the base form.
    """
    base = data.base
    n = base.rank
    gram = base.gram
    pairings = []  # G v on ints, one per glue vector
    for den, w in data.glue_vectors:
        gw = linalg.mat_vec(gram, w)
        if any(x % den for x in gw):  # G v integral <=> G (den v) = 0 mod den
            v = tuple(Fraction(x, den) for x in w)
            raise NotDualVectorError(f"glue vector {v} is not in the dual lattice")
        pairings.append([x // den for x in gw])

    form = discforms.discriminant_form(base)
    classes = [form._class_of_pairing(gw) for gw in pairings]
    subgroup = discforms._closure(form, classes)
    for elem in sorted(subgroup):
        if form.q_numerator(elem):
            raise NonIsotropicGlueError(
                f"glue subgroup is not isotropic: q{elem} = {form.q(elem)} != 0 mod 2Z"
            )
    order = len(subgroup)

    if not data.glue_vectors:
        ident = tuple(tuple(row) for row in linalg.identity_matrix(n))
        basis = tuple(tuple(Fraction(x) for x in row) for row in linalg.identity_matrix(n))
        return Overlattice(base, basis, ident, base, 1)

    # H = denom * (overlattice basis) is the integral, upper-triangular HNF of
    # denom * Z^n plus the scaled glue vectors
    denom = math.lcm(*(den for den, _ in data.glue_vectors))
    rows = [[denom * x for x in row] for row in linalg.identity_matrix(n)]
    rows += [[(denom // den) * x for x in w] for den, w in data.glue_vectors]
    hnf = linalg.hermite_normal_form(rows)
    require(len(hnf) == n, f"glue HNF has rank {len(hnf)}, not the base rank {n}")
    index = denom ** n // math.prod(hnf[i][i] for i in range(n))
    require(index == order, f"overlattice index {index} != glue subgroup order {order}")

    scaled = linalg.pairing_matrix(hnf, gram)  # H G H^T = denom^2 * new Gram
    d2 = denom * denom
    bad = next(((i, j) for i, row in enumerate(scaled) for j, x in enumerate(row) if x % d2), None)
    require(bad is None, f"glued Gram entry {bad} is not integral")
    new_gram = [[x // d2 for x in row] for row in scaled]
    bad = next((i for i in range(n) if new_gram[i][i] % 2), None)
    require(bad is None, f"glued Gram diagonal entry {bad} is odd: the overlattice is not even")
    over = Lattice(new_gram, name=None)

    # row i of the inclusion is e_i in the new basis H / denom: inc * H = denom * I,
    # solved by forward substitution over the columns of the triangular H
    inclusion = []
    inexact = []
    for i in range(n):
        row = [0] * n
        for j in range(i, n):
            rest = (denom if j == i else 0) - sum(row[k] * hnf[k][j] for k in range(i, j))
            row[j], r = divmod(rest, hnf[j][j])
            if r:
                inexact.append((i, j))
        inclusion.append(tuple(row))
    require(not inexact, f"base vectors are not integral in the overlattice basis at {inexact[:3]}")
    back = linalg.pairing_matrix(inclusion, new_gram)
    bad = next(((i, j) for i in range(n) for j in range(n) if back[i][j] != gram[i][j]), None)
    require(bad is None, f"the glued form does not restrict to the base form at entry {bad}")
    basis = tuple(tuple(Fraction(x, denom) for x in row) for row in hnf)
    return Overlattice(over, basis, tuple(inclusion), base, order)


def is_primitive(ambient: Lattice, vectors) -> tuple[bool, list[int]]:
    """Whether the span of ``vectors`` is a primitive sublattice.

    Returns (flag, torsion invariant factors of the cokernel).  Vectors are
    coordinates in the ambient basis and must be linearly independent.
    """
    vecs = [linalg.exact_ints(v, "vector coordinates") for v in vectors]
    if not vecs:
        return True, []
    if any(len(v) != ambient.rank for v in vecs):
        raise BadInputError("vectors must have the ambient rank as length")
    factors = linalg.invariant_factors(linalg.transpose(vecs))
    if len(factors) != len(vecs):  # one nonzero invariant factor per independent vector
        raise BadInputError("vectors are not linearly independent")
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


def _u2cubed_nikulin_glue() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The six glue vectors as (2, twice the vector); an odd U(2)^3 entry makes 2 least."""
    out = []
    for kind, copy, nodes in _GLUE_PATTERN:
        doubled = [0] * 14
        doubled[2 * (copy - 1) + (0 if kind == "e" else 1)] = 1
        for i in nodes:
            for j, c in enumerate(nikulin_node_coords(i)):
                doubled[6 + j] += c
        out.append((2, tuple(doubled)))
    return tuple(out)


def u2cubed_nikulin_glue_vectors() -> list[list[Fraction]]:
    """The six half-integer glue vectors in U(2)^3 + N coordinates."""
    return [[Fraction(c, den) for c in w] for den, w in _u2cubed_nikulin_glue()]


def u2cubed_nikulin_overlattice() -> Overlattice:
    """Even unimodular overlattice of U(2)^3 + N (rank 14, signature (3,11))."""
    return glue(GlueData(u2cubed_nikulin_base(), _u2cubed_nikulin_glue()))


def nikulin_square_base() -> Lattice:
    return direct_sum([nikulin(), nikulin()], name="N + N")


def nikulin_square_glue_vectors() -> list[list[Fraction]]:
    """Diagonal glue (x, x) over generators of A_N; valid since q_N = -q_N."""
    return [list(gen) * 2 for gen in discforms.discriminant_form(nikulin()).generators]


def nikulin_square_overlattice() -> Overlattice:
    """The diagonal even unimodular overlattice of N + N (= Gamma16(-1))."""
    return glue(GlueData.of(nikulin_square_base(), nikulin_square_glue_vectors()))


# ---------------------------------------------------------------------------
# explicit embedding N + N -> Gamma16(-1)


def nikulin_square_in_gamma16() -> int:
    """The explicit embedding of N + N into Gamma16(-1) and its index 2^6.

    (N_i, 0) -> e_i + e_{i+8} and (0, N_i) -> e_i - e_{i+8}; the half-sum
    classes map to half-integer vectors.  Raises CheckFailed, naming the pair,
    the image or the cokernel, unless it is an isometric embedding into
    Gamma16 with both factors primitive; returns the index of the image.
    """
    doubled = []  # twice the images, so the pairings run on ints
    for sign in (1, -1):  # the first factor, then the second
        for i in range(7):
            v = [0] * 16
            v[i], v[i + 8] = 2, 2 * sign
            doubled.append(v)
        doubled.append([1] * 8 + [sign] * 8)  # (Nhat, 0), (0, Nhat)
    gram = nikulin_square_base().gram
    # Gamma16(-1): the bilinear form is minus the standard dot product
    bad = next(((i, j) for i in range(16) for j in range(16)
                if -linalg.dot(doubled[i], doubled[j]) != 4 * gram[i][j]), None)
    require(bad is None, f"N + N -> Gamma16(-1): the images of basis pair {bad} pair wrongly")
    outside = next((k for k, y in enumerate(doubled) if not gamma16_contains_doubled(y)), None)
    require(outside is None, f"N + N -> Gamma16(-1): image {outside} is not in Gamma16")
    coords = [gamma16_coordinates_doubled(y) for y in doubled]

    ambient = gamma16(-1)
    for which, rows in (("first", coords[:8]), ("second", coords[8:])):
        primitive, torsion = is_primitive(ambient, rows)
        require(primitive, f"N + N -> Gamma16(-1): the {which} N has cokernel torsion {torsion}")
    return sublattice_index(ambient, coords)


def verification_block(over: Overlattice) -> dict:
    lat = over.lattice
    return {
        "even": lat.is_even,
        "det": lat.determinant,
        "signature": list(lat.signature.as_pair()),
        "index": over.glue_order,
    }
