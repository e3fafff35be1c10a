"""Integral lattices with exact arithmetic.

A lattice is a free Z-module of finite rank with a symmetric integer Gram
matrix.  All invariants (determinant, signature, parity) are computed exactly.
One fraction-free symmetric elimination of the Gram matrix
(``linalg.signature_of_symmetric``) gives both the determinant and the
signature.  Short-vector enumeration is Fincke-Pohst: the same elimination of
the positive definite -gram writes the norm as a sum of integer squares over
integer weights, which bounds each coordinate through integer square roots
and integer floor/ceil, so results are complete and deterministic.

Values are immutable after construction and every operation is pure, so
concurrent reads are safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import (
    BadInputError,
    DegenerateGramError,
    IsotropicComplementError,
    NotDefiniteError,
    UnsupportedError,
    require,
)
from . import linalg


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int

    def as_pair(self) -> tuple[int, int]:
        return (self.positive, self.negative)


class Lattice:
    """Free Z-module with a nondegenerate symmetric integer Gram matrix."""

    def __init__(self, gram, labels=None, name=None):
        try:
            gram = list(gram)
        except TypeError as exc:
            raise BadInputError("gram matrix must be a list of rows") from exc
        rows = [linalg.exact_ints(row, "gram entries") for row in gram]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise BadInputError("gram matrix must be square")
        if not linalg.is_symmetric(rows):
            raise BadInputError("gram matrix must be symmetric")
        try:
            pos, neg, pivots = linalg.signature_of_symmetric(rows)
        except DegenerateGramError as exc:
            raise DegenerateGramError("gram matrix is degenerate") from exc
        if labels is not None:
            try:
                labels = tuple(str(x) for x in labels)
            except TypeError as exc:
                raise BadInputError("labels must be a list") from exc
            if len(labels) != n:
                raise BadInputError("need one basis label per row")
        self.gram = tuple(tuple(row) for row in rows)
        self.determinant = pivots[-1][0] if pivots else 1
        self.signature = Signature(pos, neg)
        self.labels = labels
        self.name = name

    @property
    def rank(self) -> int:
        return len(self.gram)

    def gram_rows(self) -> list[list[int]]:
        return [list(row) for row in self.gram]

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_negative_definite(self) -> bool:
        return self.rank > 0 and self.signature.as_pair() == (0, self.rank)

    def inner(self, v, w):
        """Bilinear pairing of two coordinate vectors (ints or Fractions)."""
        if len(v) != self.rank or len(w) != self.rank:
            raise BadInputError("vector length must equal the lattice rank")
        return linalg.dot(v, w, self.gram_rows())

    def norm(self, v):
        return self.inner(v, v)

    def twist(self, n: int) -> "Lattice":
        """Same Z-module with the form multiplied by n (the M(n) convention)."""
        if n == 0:
            raise BadInputError("twist must be nonzero")
        name = None
        if self.name:
            name = self.name if n == 1 else f"{self.name}({n})"
        return Lattice([[n * x for x in row] for row in self.gram], self.labels, name)

    def to_json(self) -> dict:
        out = {"gram": self.gram_rows()}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        if self.name is not None:
            out["name"] = self.name
        return out

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, data) -> "Lattice":
        """The lattice of a decoded JSON document; a JSON string is not one."""
        if not isinstance(data, dict) or "gram" not in data:
            raise BadInputError('lattice JSON needs a "gram" key')
        return cls(data["gram"], data.get("labels"), data.get("name"))

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        tag = self.name or f"rank-{self.rank} lattice"
        return f"<Lattice {tag}, det {self.determinant}>"


# ---------------------------------------------------------------------------
# standard constructors


def hyperbolic_plane(twist: int = 1) -> Lattice:
    """U: Gram [[0,1],[1,0]], scaled by the twist."""
    return Lattice([[0, 1], [1, 0]], ("e", "f"), "U").twist(twist)


# E8 Cartan matrix, Bourbaki numbering: chain 1-3-4-5-6-7-8 with 2 hanging
# off node 4.  Even, unimodular, positive definite.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8(twist: int = 1) -> Lattice:
    """E8: the even unimodular rank-8 Gram (Cartan matrix); E8(-1) for twist -1."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return Lattice(g, tuple(f"a{i}" for i in range(1, 9)), "E8").twist(twist)


#: largest n for A_n.  A root lattice in a K3 lattice has rank at most 19; at
#: n = 32 every CLI request on A_n ends within ~0.5 s of CPU (the slowest is a
#: short-vector search stopped by its term bound), while A_400 took 10 s to build.
_A_N_BOUND = 32


def a_n(n: int, twist: int = 1) -> Lattice:
    """A_n root lattice (tridiagonal Cartan matrix, det n+1), 1 <= n <= _A_N_BOUND."""
    if n < 1:
        raise BadInputError("A_n needs n >= 1")
    if n > _A_N_BOUND:
        raise UnsupportedError(f"A_{n}: n is past the bound {_A_N_BOUND}")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return Lattice(g, tuple(f"a{i}" for i in range(1, n + 1)), f"A{n}").twist(twist)


def rank_one(m: int, twist: int = 1) -> Lattice:
    """Rank-1 lattice <m>."""
    if m == 0:
        raise BadInputError("rank-1 lattice needs a nonzero norm")
    return Lattice([[m]], ("L",), f"<{m}>").twist(twist)


def nikulin(twist: int = 1) -> Lattice:
    """The Nikulin lattice N in the integral basis {N_1..N_7, Nhat}.

    N_1..N_8 are pairwise orthogonal (-2)-classes and Nhat = (N_1+...+N_8)/2;
    N_8 = 2*Nhat - N_1 - ... - N_7 is derived.  det = 2^6, signature (0,8).
    """
    g = [[0] * 8 for _ in range(8)]
    for i in range(7):
        g[i][i] = -2
        g[i][7] = g[7][i] = -1
    g[7][7] = -4
    labels = tuple(f"N{i}" for i in range(1, 8)) + ("Nhat",)
    return Lattice(g, labels, "N").twist(twist)


def nikulin_n8_coords() -> list[int]:
    """Coordinates of N_8 in the integral basis {N_1..N_7, Nhat}."""
    return [-1] * 7 + [2]


def nikulin_node_coords(i: int) -> list[int]:
    """Coordinates of N_i (1 <= i <= 8) in the integral basis."""
    if not 1 <= i <= 8:
        raise BadInputError("node index must be in 1..8")
    if i <= 7:
        return [1 if j == i - 1 else 0 for j in range(8)]
    return nikulin_n8_coords()


def minus_one_sum(n: int = 8) -> Lattice:
    """<-1>^n, labelled E1..En (exceptional classes)."""
    g = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return Lattice(g, tuple(f"E{i}" for i in range(1, n + 1)), f"<-1>^{n}")


def e8_simple_reflections() -> list[list[list[int]]]:
    """The eight simple-root reflections of the E8 Weyl group.

    Integer matrices on the Cartan basis; the reflection formula only uses
    pairing ratios, so the same matrices are isometries of every twist E8(n).
    """
    cartan = e8().gram_rows()
    mats = []
    for i in range(8):
        m = linalg.identity_matrix(8)
        for j in range(8):
            m[i][j] -= cartan[i][j]
        mats.append(m)
    return mats


# Gamma16 = D16^+ : half-integer coordinate model of the even unimodular
# positive definite rank-16 lattice that is not generated by its roots.
# Integral basis: 15 of the 16 simple roots of D16 (alpha_2..alpha_16, i.e.
# e_{i}-e_{i+1} for i=2..15 and e_15+e_16) plus the half-sum (e_1+...+e_16)/2.


def _gamma16_doubled_basis() -> list[list[int]]:
    """Twice the basis of Gamma16, as integer vectors in Z^16."""
    vecs = []
    for i in range(2, 16):  # e_i - e_{i+1}, i = 2..15
        v = [0] * 16
        v[i - 1], v[i] = 2, -2
        vecs.append(v)
    v = [0] * 16
    v[14] = v[15] = 2
    vecs.append(v)  # e_15 + e_16
    vecs.append([1] * 16)  # half-sum glue vector
    return vecs


def gamma16(twist: int = 1) -> Lattice:
    """Gamma16 in its integral basis; Gamma16(-1) for twist -1."""
    vecs = _gamma16_doubled_basis()
    g = [[linalg.dot(v, w) // 4 for w in vecs] for v in vecs]  # (2v).(2w) = 4 v.w exactly
    labels = tuple(f"d{i}" for i in range(1, 16)) + ("s",)
    return Lattice(g, labels, "Gamma16").twist(twist)


def _gamma16_doubled(x) -> list[int] | None:
    """2x as integers when x lies in Gamma16, else None.

    x lies in Gamma16 when 2 x_i is integral, x_i - x_j is integral and
    sum(x_i) is in 2Z, i.e. when y = 2x is integral with all y_i of one
    parity and sum(y_i) in 4Z.
    """
    if len(x) != 16:
        raise BadInputError("Gamma16 vectors live in Q^16")
    ys = [2 * Fraction(v) for v in x]
    if any(y.denominator != 1 for y in ys):
        return None
    y = [int(c) for c in ys]
    if any((c - y[0]) % 2 for c in y) or sum(y) % 4:
        return None
    return y


def gamma16_contains(x) -> bool:
    """Membership test for Gamma16 in ambient coordinates."""
    return _gamma16_doubled(x) is not None


def gamma16_coordinates(x) -> list[int]:
    """Express an ambient vector in the Gamma16 integral basis."""
    y = _gamma16_doubled(x)
    if y is None:
        raise BadInputError("vector is not in Gamma16")
    inverse, den = _gamma16_doubled_inverse()
    coords = [divmod(linalg.dot(row, y), den) for row in inverse]
    bad = [str(Fraction(q * den + r, den)) for q, r in coords if r]
    require(not bad, f"Gamma16 coordinates {bad} of a Gamma16 vector are not integral")
    return [q for q, _ in coords]


@cache
def _gamma16_doubled_inverse() -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, den) with N / den the inverse of the matrix whose columns are the doubled basis."""
    inv = linalg.rational_inverse(linalg.transpose(_gamma16_doubled_basis()))
    den = math.lcm(*(c.denominator for row in inv for c in row))
    return tuple(tuple(int(c * den) for c in row) for row in inv), den


_STANDARD_KINDS = ("U", "E8", "An", "rank1", "NikulinN", "Gamma16")


def standard_lattice(kind: str, twist: int = 1, param: int | None = None) -> Lattice:
    """Dispatcher over the named standard lattices (CLI surface).

    ``param`` is the subscript n for An and the norm m for rank1.
    """
    if twist == 0:
        raise BadInputError("twist must be nonzero")
    if kind == "U":
        return hyperbolic_plane(twist)
    if kind == "E8":
        return e8(twist)
    if kind == "An":
        if param is None:
            raise BadInputError("An needs --param n")
        return a_n(param, twist)
    if kind == "rank1":
        if param is None:
            raise BadInputError("rank1 needs --param m")
        return rank_one(param, twist)
    if kind == "NikulinN":
        return nikulin(twist)
    if kind == "Gamma16":
        return gamma16(twist)
    raise BadInputError(
        f"unknown lattice kind {kind!r}; expected one of {', '.join(_STANDARD_KINDS)}"
    )


def direct_sum(parts, name=None) -> Lattice:
    """Block-diagonal sum; basis labels get disambiguating suffixes."""
    parts = list(parts)
    if not parts:
        raise BadInputError("direct sum of an empty list")
    total = sum(p.rank for p in parts)
    g = [[0] * total for _ in range(total)]
    off = 0
    raw_labels = []
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                g[off + i][off + j] = p.gram[i][j]
        raw_labels.append(list(p.labels) if p.labels else [f"b{off + i + 1}" for i in range(p.rank)])
        off += p.rank
    counts: dict[str, int] = {}
    for block in raw_labels:
        for lab in block:
            counts[lab] = counts.get(lab, 0) + 1
    seen: dict[str, int] = {}
    labels = []
    for block in raw_labels:
        for lab in block:
            if counts[lab] > 1:
                seen[lab] = seen.get(lab, 0) + 1
                labels.append(f"{lab}{seen[lab]}")
            else:
                labels.append(lab)
    if name is None:
        names = [p.name or "?" for p in parts]
        name = " + ".join(names)
    return Lattice(g, labels, name)


# ---------------------------------------------------------------------------
# sublattices and complements


def orthogonal_complement(lattice: Lattice, vectors):
    """Primitive orthogonal complement of a family of vectors.

    Returns (complement_lattice, basis) where basis is a list of coordinate
    vectors in ``lattice``.  The complement is saturated by construction.
    Raises IsotropicComplementError when the induced form is degenerate.
    """
    n = lattice.rank
    vecs = [linalg.exact_ints(v, "vector coordinates") for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise BadInputError("vectors must have the lattice rank as length")
    if not vecs:
        basis = [list(row) for row in linalg.identity_matrix(n)]
        return lattice, basis
    pairing = [linalg.mat_vec(lattice.gram_rows(), v) for v in vecs]
    kernel = linalg.integer_kernel(pairing)
    if not kernel:
        return Lattice([], None, None), []
    gram = linalg.pairing_matrix(kernel, lattice.gram_rows())
    try:
        comp = Lattice(gram)
    except DegenerateGramError as exc:
        raise IsotropicComplementError(
            "orthogonal complement carries a degenerate (isotropic) form"
        ) from exc
    return comp, kernel


def sublattice_index(lattice: Lattice, vectors) -> int:
    """Index of the finite-index sublattice spanned by ``vectors``."""
    vecs = [linalg.exact_ints(v, "vector coordinates") for v in vectors]
    if len(vecs) != lattice.rank or any(len(v) != lattice.rank for v in vecs):
        raise BadInputError("need a square coordinate matrix")
    det = linalg.bareiss_determinant(vecs)
    if det == 0:
        raise BadInputError("sublattice is not of finite index (singular matrix)")
    return abs(det)


# ---------------------------------------------------------------------------
# short vector enumeration


#: coordinate terms after which a short-vector search raises UnsupportedError
#: instead of running on.  A search node at coordinate i counts the n - i
#: coordinates x_i..x_{n-1} its bound depends on, so the bound is ~0.4-0.6 s of
#: search at every rank from 16 to 100, though a node's cost grows with the
#: rank.  The largest search in the tests, Gamma16(-1) at norm -4, sums
#: 2,078,462 terms; verify-paper and the benchmarks stay under 41,000.
_SHORT_VECTOR_TERM_BOUND = 3_000_000


def enumerate_vectors_of_norm(lattice: Lattice, norm: int) -> list[tuple[int, ...]]:
    """All v with v.v = norm in a negative definite lattice, lex ordered.

    norm must be a negative even integer.  The list contains v and -v
    together; completeness comes from exact Fincke-Pohst style bounds read
    off the fraction-free pivot rows of the positive form -gram, so the
    search runs on ints.  A search that would sum more than
    _SHORT_VECTOR_TERM_BOUND coordinate terms raises UnsupportedError.
    """
    if not lattice.is_negative_definite:
        raise NotDefiniteError("short vector enumeration needs a negative definite lattice")
    if norm >= 0 or norm % 2 != 0:
        raise BadInputError("norm must be a negative even integer")
    n = lattice.rank
    # -gram is positive definite, so its elimination never pivots and every
    # pivot D_{i+1} = dens[i] is positive.  With S the lcm of the D_i D_{i+1}
    # and c_i = S / (D_i D_{i+1}),
    # S (-v.v) = sum_i c_i (D_{i+1} x_i + sum_{j>i} a_ij x_j)^2.
    _, _, pivots = linalg.signature_of_symmetric([[-x for x in row] for row in lattice.gram])
    dens = [row[0] for row in pivots]
    coef = [row[1:] for row in pivots]
    products = [d * e for d, e in zip([1] + dens, dens)]
    scale = math.lcm(*products)
    cs = [scale // p for p in products]
    results: list[tuple[int, ...]] = []
    x = [0] * n
    terms = 0

    def descend(i: int, remaining: int, shift: int) -> None:
        # shift = sum_{j>i} a_ij x_j, set by the caller
        nonlocal terms
        terms += n - i
        if terms > _SHORT_VECTOR_TERM_BOUND:
            raise UnsupportedError(
                f"vectors of norm {norm} in a rank-{n} lattice: the search summed "
                f"{terms} coordinate terms, past the bound {_SHORT_VECTOR_TERM_BOUND}"
            )
        den, c = dens[i], cs[i]
        # |den x_i + shift| <= t  <=>  c (den x_i + shift)^2 <= remaining
        t = math.isqrt(remaining // c)
        if i == 0:  # the last coordinate must use up the budget exactly
            if c * t * t == remaining:
                for y in (-t, t) if t else (0,):
                    if (y - shift) % den == 0:
                        x[0] = (y - shift) // den
                        results.append(tuple(x))
                x[0] = 0
            return
        below = coef[i - 1]  # the next shift is rest + below[0] x_i
        rest = sum(a * xj for a, xj in zip(below[1:], x[i + 1:]))
        for xi in range(-((t + shift) // den), (t - shift) // den + 1):
            x[i] = xi
            y = den * xi + shift
            descend(i - 1, remaining - c * y * y, rest + below[0] * xi)
        x[i] = 0

    descend(n - 1, -norm * scale, 0)
    results = [v for v in results if any(v)]
    results.sort()
    return results


def root_span_index(lattice: Lattice, roots) -> int:
    """Index of the sublattice generated by ``roots`` (must be full rank)."""
    hnf = linalg.hermite_normal_form([list(r) for r in roots])
    if len(hnf) != lattice.rank:
        raise BadInputError("roots do not span a finite-index sublattice")
    idx = 1
    for i, row in enumerate(hnf):
        idx *= row[i]
    return abs(idx)
