"""Rank-9 Neron-Severi families and their numerical invariants.

Covers the dichotomy <2d> + E8(-2) versus its index-2 overlattice (with the
parity conditions on the glue vector), transcendental-lattice fingerprints of
stock primitive embeddings, the determinant square-class obstruction, the
eigenspace dimensions from the fixed-point split read off the push of the
polarization, invariant-monomial counting, the moduli counts of the six worked
projective families (all 11, five of them read off the eigenspace dimensions),
and the rank-17 Neron-Severi/transcendental pairs <2n> + E8(-1)^2,
<-2n> + U^2 read off their model in U^3 + E8(-1)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BadInputError, NotPrimitiveError, require
from . import linalg
from .discforms import Fingerprint, lattice_fingerprint
from .gluing import (_GLUE_PATTERN, GlueData, Overlattice, glue, is_primitive,
                     nikulin_square_overlattice)
from .involution import QuotientCohomology, k3_lattice
from .lattice import (
    _MODULI_EXAMPLES,
    Lattice,
    _short_vectors,
    direct_sum,
    e8,
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
    return _short_vectors(e8(-2), -4 if glue_vector_norm_class(d) == 4 else -8)[0]


def tilde_family(two_d: int, v=None) -> NSFamilyDescriptor:
    """The unique even index-2 overlattice of <2d> + E8(-2) keeping E8(-2) primitive."""
    base = plain_family(two_d).lattice
    d = two_d // 2
    if d % 2 != 0:
        raise BadInputError("no index-2 overlattice exists unless d is even (L^2 = 0 mod 4)")
    if v is None:
        v = canonical_glue_vector(d)
    v = tuple(linalg.exact_ints(v, "glue vector entries"))
    norm = e8(-2).norm(list(v))
    if norm % 8 != glue_vector_norm_class(d) % 8:
        raise BadInputError(
            f"glue vector norm {norm} violates the parity condition for d = {d}"
        )
    over = glue(GlueData(base, ((2, (1, *v)),)))  # (L + v) / 2; den 2 is least
    require(over.glue_order == 2, f"{base.name} glued along v = {v}: index {over.glue_order}")
    e8_rows = [list(over.inclusion[i]) for i in range(1, 9)]
    primitive, torsion = is_primitive(over.lattice, e8_rows)
    if not primitive:
        raise NotPrimitiveError(f"E8(-2) is not primitive in the overlattice: {torsion}")
    lat = Lattice(over.lattice.gram, name=f"<{two_d}>~ + E8(-2)")
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
    return k3_lattice(), [polarization(2 * n)] + linalg.identity_matrix(22)[6:]


# ---------------------------------------------------------------------------
# determinant square-class obstruction


@dataclass(frozen=True)
class SquareClassReport:
    det_ratio_numerator: int
    det_ratio_denominator: int
    is_square: bool
    rank_t: int
    d: int


def det_square_class_obstruction(rank_t: int) -> SquareClassReport:
    """Square class of det(T_X over Q)/det(T_Y over Q) = 2^(d+2), d = 14 - rank_T.

    Not a square exactly when rank_T is odd, in which case no isometry of the
    rational transcendental forms can exist.
    """
    if not 1 <= rank_t <= 13:
        raise BadInputError("rank of the transcendental lattice must be in 1..13")
    d = 22 - 8 - rank_t
    num = 2 ** (d + 2)
    report = SquareClassReport(num, 1, math.isqrt(num) ** 2 == num, rank_t, d)
    require(report.is_square == (rank_t % 2 == 0), f"wrong square class in {report}")
    return report


# ---------------------------------------------------------------------------
# eigenspace dimensions of the polarization


def polarization(two_d: int, variant: str = "plain") -> list[int]:
    """L with L^2 = 2d in U^3 + E8(-1)^2, fixed by the swap of the two E8(-1).

    Plain: e_1 + d f_1.  Tilde: (2u', x, x), x the canonical glue vector read
    in E8(-1); its norm class makes u' integral, so (L + (x, -x))/2 is a class.
    """
    _validate_two_d(two_d)
    d = two_d // 2
    if variant == "plain":
        return [1, d] + [0] * 20
    if variant != "tilde" or d % 2:
        raise BadInputError(f"no {variant!r} family with L^2 = {two_d}; "
                            "expected plain, or tilde with 4 | L^2")
    x = list(canonical_glue_vector(d))
    return [2, (d - e8(-1).norm(x)) // 2, 0, 0, 0, 0] + x + x


@dataclass(frozen=True)
class EigenspaceReport:
    h_plus: int
    h_minus: int
    fixed_points_plus: int
    fixed_points_minus: int


def eigenspace_dimensions(two_d: int, variant: str = "plain") -> EigenspaceReport:
    """Dimensions of the two eigenspaces of sections and the fixed-point split.

    Push L~ = (L, 0^8).  The class of pi_* L~ / 2 in A_U(2)^3 glues to
    (1/2) sum_S N_i in A_N, S the symmetric difference of the glue rows' nodes
    at the odd U(2)^3 coordinates.  The cover is branched along sum N_i, so
    the two lifts of the involution to L act by -1 at S and at its complement;
    f- = min(|S|, 8 - |S|) takes the lift with h+ >= h-.  Then h+ + h- = d + 2
    and, by the holomorphic Lefschetz formula, h+ - h- = (f+ - f-)/4.
    """
    lifted = polarization(two_d, variant) + [0] * 8
    pushed = linalg.mat_vec(QuotientCohomology._build_push(), lifted)
    s = set()
    for kind, copy, nodes in _GLUE_PATTERN:
        if pushed[2 * (copy - 1) + (kind == "f")] % 2:
            s ^= set(nodes)
    f_minus = min(len(s), 8 - len(s))
    difference, r = divmod(8 - 2 * f_minus, 4)
    h_plus, odd = divmod(two_d // 2 + 2 + difference, 2)
    split = (8 - f_minus, f_minus)
    require(not r and not odd, f"fixed-point split {split} does not fit L^2 = {two_d}")
    return EigenspaceReport(h_plus, h_plus - difference, *split)


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


#: (L^2, variant) of the worked examples whose model lies in P(H^0(L))
_MODULI_FAMILIES = {"M2": (2, "plain"), "M4": (4, "plain"), "M6": (6, "plain"),
                    "M8": (8, "plain"), "M8tilde": (8, "tilde")}


def moduli_dimension(example: str) -> int:
    """Moduli count of the worked projective families; always 11.

    Each count is a parameter-space dimension (monomial counts or
    Grassmannians) less the dimension of the linear symmetries commuting with
    the involution.  For the examples of ``_MODULI_FAMILIES``, (h+, h-) from
    ``eigenspace_dimensions`` gives the n = h+ + h- coordinates, h- of them
    negated, and the group GL(h+) x GL(h-) of dimension h+^2 + h-^2.
    """
    if example == "M4tilde":
        # written out: v^2 = -4, so E = (L + v)/2 has E^2 = 0 and L.E = 2, L is hyperelliptic
        # and phi_L is 2:1 onto a quadric (Saint-Donat, Amer. J. Math. 96 (1974))
        conics = count_invariant_monomials(3, set(), 2)  # 6
        quartics = count_invariant_monomials(3, set(), 4)  # 15
        group = 9  # GL(3)
        return (conics - 1) + (quartics - 1) - (group - 1)
    if example not in _MODULI_FAMILIES:
        raise BadInputError(
            f"unsupported example {example!r}; expected one of {', '.join(_MODULI_EXAMPLES)}"
        )
    eig = eigenspace_dimensions(*_MODULI_FAMILIES[example])
    n = eig.h_plus + eig.h_minus
    group = eig.h_plus ** 2 + eig.h_minus ** 2
    forms = functools.partial(count_invariant_monomials, n, range(eig.h_plus, n))
    if example == "M2":
        return forms(6) - group  # sextics
    if example == "M4":
        return forms(4) - group  # quartics
    if example == "M6":  # a quadric and a cubic, less the linear multiples of the quadric
        return (forms(2) - 1) + (forms(3) - 1) - forms(1) - (group - 1)
    if example == "M8":  # a plane of split quadrics and a bilinear form
        return 2 * (forms(2) - 2) + (forms(2, "anti_invariant") - 1) - (group - 1)
    return 3 * (forms(2) - 3) - (group - 1)  # M8tilde: a 3-space of quadrics


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
    ns = Lattice(linalg.pairing_matrix(ns_basis, ambient.gram))
    t, _basis = orthogonal_complement(ambient, ns_basis)
    return MorrisonNikulinReport(ns, t, lattice_fingerprint(ns), lattice_fingerprint(t))
