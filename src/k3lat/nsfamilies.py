"""Rank-9 Neron-Severi families and their numerical invariants.

Covers the dichotomy <2d> + E8(-2) versus its index-2 overlattice (with the
parity conditions on the glue vector), transcendental-lattice fingerprints of
stock primitive embeddings, the determinant square-class obstruction, the
eigenspace dimensions derived from the fixed-point split, invariant-monomial
counting, the moduli counts of the six worked projective families (all equal
to 11), and the rank-17 Neron-Severi/transcendental pairs <2n> + E8(-1)^2,
<-2n> + U^2 read off their model in U^3 + E8(-1)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadInputError, NotPrimitiveError, require
from . import linalg
from .discforms import Fingerprint, lattice_fingerprint
from .gluing import GlueData, Overlattice, glue, is_primitive, nikulin_square_overlattice
from .involution import k3_lattice
from .lattice import (
    Lattice,
    direct_sum,
    e8,
    enumerate_vectors_of_norm,
    hyperbolic_plane,
    orthogonal_complement,
    rank_one,
)


@dataclass(frozen=True)
class NSFamilyDescriptor:
    two_d: int
    variant: str  # "plain" | "tilde"
    lattice: Lattice
    glue_vector: tuple[int, ...] | None = None  # E8(-2) coordinates, tilde only
    overlattice: Overlattice | None = None


def _validate_two_d(two_d: int) -> None:
    if two_d <= 0 or two_d % 2 != 0:
        raise BadInputError("the polarization degree 2d must be a positive even integer")


def plain_family(two_d: int) -> NSFamilyDescriptor:
    _validate_two_d(two_d)
    lat = direct_sum([rank_one(two_d), e8(-2)], name=f"<{two_d}> + E8(-2)")
    return NSFamilyDescriptor(two_d, "plain", lat)


def glue_vector_norm_class(d: int) -> int:
    """Required v.v mod 8 for the index-2 overlattice: 4 if d=4m+2, 0 if d=4m."""
    if d % 2 != 0:
        raise BadInputError("the index-2 overlattice requires d even")
    return 4 if d % 4 == 2 else 0


def canonical_glue_vector(d: int) -> tuple[int, ...]:
    """Lexicographically first v in E8(-2) with the required norm class.

    Norm -4 vectors serve d = 4m+2 (v.v = 4 mod 8) and norm -8 vectors serve
    d = 4m (v.v = 0 mod 8).
    """
    return _first_e8m2_vector(-4 if glue_vector_norm_class(d) == 4 else -8)


@functools.cache
def _first_e8m2_vector(norm: int) -> tuple[int, ...]:
    return enumerate_vectors_of_norm(e8(-2), norm)[0]


def tilde_family(two_d: int, v=None) -> NSFamilyDescriptor:
    """The unique even index-2 overlattice of <2d> + E8(-2) keeping E8(-2) primitive."""
    base = plain_family(two_d).lattice
    d = two_d // 2
    if d % 2 != 0:
        raise BadInputError("no index-2 overlattice exists unless d is even (L^2 = 0 mod 4)")
    if v is None:
        v = canonical_glue_vector(d)
    v = tuple(int(c) for c in v)
    norm = e8(-2).norm(list(v))
    if norm % 8 != glue_vector_norm_class(d) % 8:
        raise BadInputError(
            f"glue vector norm {norm} violates the parity condition for d = {d}"
        )
    half = [Fraction(1, 2)] + [Fraction(c, 2) for c in v]
    over = glue(GlueData.of(base, [half]))
    require(over.glue_order == 2, f"{base.name} glued along v = {v}: index {over.glue_order}")
    e8_rows = [list(over.inclusion[i]) for i in range(1, 9)]
    primitive, torsion = is_primitive(over.lattice, e8_rows)
    if not primitive:
        raise NotPrimitiveError(f"E8(-2) is not primitive in the overlattice: {torsion}")
    lat = Lattice(over.lattice.gram_rows(), name=f"<{two_d}>~ + E8(-2)")
    return NSFamilyDescriptor(two_d, "tilde", lat, v, over)


def classify_ns(two_d: int) -> list[NSFamilyDescriptor]:
    """The rank-9 lattices with L^2 = 2d: one family for 2d = 2 mod 4, two for 2d = 0 mod 4."""
    _validate_two_d(two_d)
    out = [plain_family(two_d)]
    if two_d % 4 == 0:
        out.append(tilde_family(two_d))
    return out


# ---------------------------------------------------------------------------
# transcendental fingerprints


def transcendental_fingerprint(ambient: Lattice, ns_basis) -> Fingerprint:
    """Fingerprint of the orthogonal complement of a primitive sublattice."""
    if ns_basis:
        primitive, torsion = is_primitive(ambient, ns_basis)
        if not primitive:
            raise NotPrimitiveError(f"embedding is not primitive: cokernel {torsion}")
    comp, _basis = orthogonal_complement(ambient, ns_basis)
    return lattice_fingerprint(comp)


def k3_model_with_u_plus_n():
    """A unimodular rank-22 model containing U + N primitively.

    U^3 plus the diagonal overlattice of N + N; returns (ambient, ns_basis)
    with ns = the first U and the first N.
    """
    square = nikulin_square_overlattice()
    ambient = direct_sum([hyperbolic_plane()] * 3 + [square.lattice], name="K3 model")
    got = (ambient.determinant, ambient.signature.as_pair())
    require(got == (-1, (3, 19)), f"K3 model with U + N: (det, signature) = {got}")
    ns_basis = [[1] + [0] * 21, [0, 1] + [0] * 20]
    ns_basis += [[0] * 6 + list(square.inclusion[i]) for i in range(8)]
    return ambient, ns_basis


def k3_model_morrison_nikulin(n: int):
    """(ambient, ns_basis) with ns = <2n> + E8(-1)^2 inside U^3 + E8(-1)^2."""
    if n < 1:
        raise BadInputError("need n >= 1")
    ambient = k3_lattice()
    first = [0] * 22
    first[0] = 1
    first[1] = n  # e_1 + n f_1 has norm 2n
    ns_basis = [first]
    for j in range(16):
        v = [0] * 22
        v[6 + j] = 1
        ns_basis.append(v)
    return ambient, ns_basis


# ---------------------------------------------------------------------------
# determinant square-class obstruction


@dataclass(frozen=True)
class SquareClassReport:
    det_ratio_numerator: int
    det_ratio_denominator: int
    is_square: bool
    rank_t: int
    d: int


def _is_rational_square(num: int, den: int) -> bool:
    if num <= 0 or den <= 0:
        return False
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def det_square_class_obstruction(rank_t: int) -> SquareClassReport:
    """Square class of det(T_X over Q)/det(T_Y over Q) = 2^(d+2), d = 14 - rank_T.

    Not a square exactly when rank_T is odd, in which case no isometry of the
    rational transcendental forms can exist.
    """
    if not 1 <= rank_t <= 13:
        raise BadInputError("rank of the transcendental lattice must be in 1..13")
    d = 22 - 8 - rank_t
    num = 2 ** (d + 2)
    report = SquareClassReport(num, 1, _is_rational_square(num, 1), rank_t, d)
    require(report.is_square == (rank_t % 2 == 0), f"wrong square class in {report}")
    return report


# ---------------------------------------------------------------------------
# eigenspace dimensions of the polarization


#: fixed-point split (f+, f-) by variant and L^2 mod 4
_FIXED_POINT_SPLIT = {("plain", 2): (6, 2), ("plain", 0): (4, 4), ("tilde", 0): (8, 0)}


@dataclass(frozen=True)
class EigenspaceReport:
    h_plus: int
    h_minus: int
    fixed_points_plus: int
    fixed_points_minus: int


def eigenspace_dimensions(two_d: int, variant: str = "plain") -> EigenspaceReport:
    """Dimensions of the two eigenspaces of sections and the fixed-point split.

    Only the split (f+, f-) of the 8 fixed points is tabulated.  The
    dimensions follow from h+ + h- = d + 2 and, by the holomorphic Lefschetz
    formula, h+ - h- = (f+ - f-)/4.
    """
    _validate_two_d(two_d)
    split = _FIXED_POINT_SPLIT.get((variant, two_d % 4))
    if split is None:
        raise BadInputError(
            f"no {variant!r} family with L^2 = {two_d}; expected plain, or tilde with 4 | L^2"
        )
    f_plus, f_minus = split
    difference, r = divmod(f_plus - f_minus, 4)
    h_plus, odd = divmod(two_d // 2 + 2 + difference, 2)
    fits = f_plus + f_minus == 8 and not r and not odd
    require(fits, f"fixed-point split {split} does not fit 8 fixed points and L^2 = {two_d}")
    return EigenspaceReport(h_plus, h_plus - difference, f_plus, f_minus)


# ---------------------------------------------------------------------------
# invariant monomial counting and moduli dimensions


def _monomials(num_vars: int, degree: int) -> int:
    """Number of monomials of a given degree in num_vars variables."""
    return math.comb(num_vars + degree - 1, degree) if num_vars else int(degree == 0)


def count_invariant_monomials(
    num_vars: int,
    negated,
    degree: int,
    parity: str = "invariant",
) -> int:
    """Count degree-d monomials with even (or odd) total degree in the negated variables.

    A monomial splits into one of degree j in the k negated variables and one
    of degree d - j in the other n - k, so the count is the sum over j of the
    wanted parity of C(k + j - 1, j) C(n - k + d - j - 1, d - j).
    """
    if degree < 0:
        raise BadInputError("degree must be nonnegative")
    if parity not in ("invariant", "anti_invariant"):
        raise BadInputError('parity must be "invariant" or "anti_invariant"')
    negated = set(negated)
    if any(i < 0 or i >= num_vars for i in negated):
        raise BadInputError("negated indices out of range")
    k = len(negated)
    return sum(
        _monomials(k, j) * _monomials(num_vars - k, degree - j)
        for j in range(int(parity == "anti_invariant"), degree + 1, 2)
    )


_MODULI_EXAMPLES = ("M2", "M6", "M4", "M4tilde", "M8", "M8tilde")


def moduli_dimension(example: str) -> int:
    """Moduli count of the worked projective families; always 11.

    Each branch spells out the published arithmetic with named terms:
    parameter-space dimensions (monomial counts or Grassmannians) minus the
    dimension of the commuting linear symmetry group.
    """
    if example == "M2":
        sextics = count_invariant_monomials(3, {0}, 6)  # 16
        symmetries = 1 + 4  # scalings of x_0 times GL(2) on the fixed plane
        return sextics - symmetries
    if example == "M6":
        quadrics = count_invariant_monomials(5, {0, 1}, 2)  # 3 + 6 = 9
        cubics = count_invariant_monomials(5, {0, 1}, 3)  # 3*3 + 10 = 19
        quadric_multiples = count_invariant_monomials(3, set(), 1)  # 3 linear forms
        group = 4 + 9  # GL(2) x GL(3)
        return (quadrics - 1) + (cubics - 1) - quadric_multiples - (group - 1)
    if example == "M4":
        quartics = count_invariant_monomials(4, {0, 1}, 4)  # 5 + 9 + 5 = 19
        group = 4 + 4  # GL(2) x GL(2)
        return quartics - group
    if example == "M4tilde":
        conics = count_invariant_monomials(3, set(), 2)  # 6
        quartics = count_invariant_monomials(3, set(), 4)  # 15
        group = 9  # GL(3)
        return (conics - 1) + (quartics - 1) - (group - 1)
    if example == "M8":
        split_quadrics = count_invariant_monomials(6, {3, 4, 5}, 2)  # 6 + 6 = 12
        bilinear = count_invariant_monomials(6, {3, 4, 5}, 2, "anti_invariant")  # 9
        grassmannian = 2 * (split_quadrics - 2)  # planes in the 12-dim space
        group = 9 + 9  # GL(3) x GL(3)
        return grassmannian + (bilinear - 1) - (group - 1)
    if example == "M8tilde":
        quadric_space = count_invariant_monomials(6, {4, 5}, 2)  # 10 + 3 = 13
        grassmannian = 3 * (quadric_space - 3)  # 3-spaces in the 13-dim space
        group = 4 + 16  # GL(2) x GL(4)
        return grassmannian - (group - 1)
    raise BadInputError(
        f"unsupported example {example!r}; expected one of {', '.join(_MODULI_EXAMPLES)}"
    )


# ---------------------------------------------------------------------------
# rank-17 pairs


@dataclass(frozen=True)
class MorrisonNikulinReport:
    ns: Lattice
    transcendental: Lattice
    ns_fingerprint: Fingerprint
    t_fingerprint: Fingerprint


def morrison_nikulin_lattices(n: int) -> MorrisonNikulinReport:
    """NS and T = NS^perp of ``k3_model_morrison_nikulin(n)``."""
    ambient, ns_basis = k3_model_morrison_nikulin(n)
    ns = Lattice(linalg.pairing_matrix(ns_basis, ambient.gram_rows()))
    t, _basis = orthogonal_complement(ambient, ns_basis)
    return MorrisonNikulinReport(ns, t, lattice_fingerprint(ns), lattice_fingerprint(t))
