"""Integral lattices with exact arithmetic.

A lattice is a free Z-module of finite rank with a symmetric integer Gram
matrix.  All invariants (determinant, signature, parity) are computed exactly.
What is derived from a Gram is kept in that Gram's one record, from the
bounded table ``_gram_facts``: (pos, neg, det) from one fraction-free
elimination (``linalg.signature_of_symmetric``), then the value of each
``per_gram`` function, such as the discriminant form.  No pivot row and no
error is kept, so a degenerate Gram raises on every call.  A Gram of rank past
``_RANK_BOUND`` raises UnsupportedError before it is eliminated, which also
bounds each key.  Short-vector enumeration is Fincke-Pohst:
the same elimination of the positive definite -gram writes the norm as a sum
of integer squares over integer weights, which bounds each coordinate through
integer square roots and integer floor/ceil, so results are complete and
deterministic.  A memo keys on validated values and hands out the immutable
value it keeps.  The search is memoized on (Gram, norm) after its checks, with
the coordinate terms it summed, so a cached search is still held to the term
bound in force when it is asked for again; ``sublattice_index`` is memoized
on the rank and the deduplicated integer rows its Hermite normal form reads.
The memos keep 8 searches and 4 indices; a verify-paper pass repeats 5 and 3.

Values are immutable after construction (assigning an attribute raises
AttributeError), equal when their Gram, labels and name are, and every
operation is pure, so callers may share one instance.  Each standard
constructor scales its Gram by the twist, by the rule ``Lattice.twist``
follows, and builds one ``Lattice``.  The standard constructors and
``direct_sum`` are memoized, so a process builds each standard lattice and
each direct sum once.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

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


#: largest rank a Gram may have.  A K3 lattice has rank 22 and its blow-up 30;
#: the largest Gram the package and its tests build is E8(-1)^8 at 64, which
#: eliminates in ~0.05 s of CPU, and each 16 ranks past it about double that
#: (0.2 s at 96, 0.6 s at 128, 4.5 s at 200).  It also caps each memo key below.
_RANK_BOUND = 64


# 84 distinct Grams per verify-paper pass, so a pass never evicts its own
@functools.lru_cache(maxsize=256)
def _gram_facts(gram: tuple[tuple[int, ...], ...]) -> dict:
    """The one record of a validated symmetric Gram's facts; ``per_gram`` adds to it.

    It starts with "invariants", (pos, neg, det) from one elimination.
    ``lru_cache`` keeps no exception, so a degenerate Gram raises on every call.
    """
    pos, neg, pivots = linalg.signature_of_symmetric(gram)
    return {"invariants": (pos, neg, pivots[-1][0] if pivots else 1)}


def per_gram(build):
    """``build(lattice)`` run once per distinct Gram, its value kept in that Gram's record.

    The record is looked up by ``lattice.gram`` on every call, so the table
    alone bounds what is kept.  An exception is never kept.
    """
    @functools.wraps(build)
    def fact(lattice):
        record = _gram_facts(lattice.gram)
        if build not in record:
            record[build] = build(lattice)
        return record[build]

    return fact


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
        if n > _RANK_BOUND:
            raise UnsupportedError(f"a rank-{n} gram matrix is past the rank bound {_RANK_BOUND}")
        gram = tuple(tuple(row) for row in rows)
        try:
            pos, neg, det = _gram_facts(gram)["invariants"]
        except DegenerateGramError as exc:
            raise DegenerateGramError("gram matrix is degenerate") from exc
        if labels is not None:
            # a string or dict would iterate as its characters or keys
            if not isinstance(labels, (list, tuple)):
                raise BadInputError("labels must be a list")
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise BadInputError("need one basis label per row")
        if name is not None and not isinstance(name, str):
            raise BadInputError("name must be a string")
        self.__dict__.update(
            gram=gram, determinant=det, signature=Signature(pos, neg), labels=labels, name=name
        )

    def __setattr__(self, attr, value):
        raise AttributeError(f"a Lattice is immutable: cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"a Lattice is immutable: cannot delete {attr!r}")

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
        v, w = linalg.exact_entries(v), linalg.exact_entries(w)
        if len(v) != self.rank or len(w) != self.rank:
            raise BadInputError("vector length must equal the lattice rank")
        return linalg.dot(v, w, self.gram)

    def norm(self, v):
        return self.inner(v, v)

    def twist(self, n: int) -> "Lattice":
        """Same Z-module with the form multiplied by n (the M(n) convention)."""
        return _twisted(self.gram, n, self.labels, self.name)

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
        return isinstance(other, Lattice) and (self.gram, self.labels, self.name) == (
            other.gram, other.labels, other.name)

    def __hash__(self):
        return hash((self.gram, self.labels, self.name))

    def __repr__(self):
        tag = self.name or f"rank-{self.rank} lattice"
        return f"<Lattice {tag}, det {self.determinant}>"


def _twisted(gram, n: int, labels, name) -> Lattice:
    """The lattice of ``gram`` scaled by n, named ``name(n)`` unless n = 1; n = 0 is refused."""
    if n == 0:
        raise BadInputError("twist must be nonzero")
    name = (name if n == 1 else f"{name}({n})") if name else None
    return Lattice([[n * x for x in row] for row in gram], labels, name)


# ---------------------------------------------------------------------------
# standard constructors


def _memoized(build):
    """``build`` behind a bounded memo, for a pure function that returns a ``Lattice``.

    The first call for an argument runs every check ``build`` runs.  The memo
    is typed, so ``e8(2.0)`` is not the cached ``e8(2)`` and ``exact_ints``
    still refuses its float entries, and ``lru_cache`` keeps no exception, so
    a refused argument raises on every call.  ``lru_cache`` raises TypeError
    on an unhashable argument before it calls ``build``; such an argument is
    then built uncached, so it is refused as it was before the memo.
    """
    # a verify-paper pass asks one constructor for at most 22 distinct
    # arguments (rank_one) and direct_sum for 33, so a pass never evicts its own
    cached = functools.lru_cache(maxsize=64, typed=True)(build)

    @functools.wraps(build)
    def memo(*args, **kwargs):
        try:
            return cached(*args, **kwargs)
        except TypeError:
            return build(*args, **kwargs)

    memo.cache_clear = cached.cache_clear
    return memo


@_memoized
def hyperbolic_plane(twist: int = 1) -> Lattice:
    """U: Gram [[0,1],[1,0]], scaled by the twist."""
    return _twisted([[0, 1], [1, 0]], twist, ("e", "f"), "U")


# E8 Cartan matrix, Bourbaki numbering: chain 1-3-4-5-6-7-8 with 2 hanging
# off node 4.  Even, unimodular, positive definite.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


@_memoized
def e8(twist: int = 1) -> Lattice:
    """E8: the even unimodular rank-8 Gram (Cartan matrix); E8(-1) for twist -1."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return _twisted(g, twist, tuple(f"a{i}" for i in range(1, 9)), "E8")


#: largest n for A_n.  A root lattice in a K3 lattice has rank at most 19; at
#: n = 32 every CLI request on A_n ends within ~0.5 s of CPU (the slowest is a
#: short-vector search stopped by its term bound), while A_400 took 10 s to build.
_A_N_BOUND = 32


@_memoized
def a_n(n: int, twist: int = 1) -> Lattice:
    """A_n root lattice (tridiagonal Cartan matrix, det n+1), 1 <= n <= _A_N_BOUND."""
    (n,) = linalg.exact_ints([n], "lattice sizes")
    if n < 1:
        raise BadInputError("A_n needs n >= 1")
    if n > _A_N_BOUND:
        raise UnsupportedError(f"A_{n}: n is past the bound {_A_N_BOUND}")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return _twisted(g, twist, tuple(f"a{i}" for i in range(1, n + 1)), f"A{n}")


@_memoized
def rank_one(m: int, twist: int = 1) -> Lattice:
    """Rank-1 lattice <m>."""
    if m == 0:
        raise BadInputError("rank-1 lattice needs a nonzero norm")
    return _twisted([[m]], twist, ("L",), f"<{m}>")


@_memoized
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
    return _twisted(g, twist, labels, "N")


def nikulin_node_coords(i: int) -> list[int]:
    """Coordinates of N_i (1 <= i <= 8) in the integral basis {N_1..N_7, Nhat}."""
    (i,) = linalg.exact_ints([i], "node indices")
    if not 1 <= i <= 8:
        raise BadInputError("node index must be in 1..8")
    if i <= 7:
        return [1 if j == i - 1 else 0 for j in range(8)]
    return [-1] * 7 + [2]  # N_8 = 2 Nhat - N_1 - ... - N_7


@_memoized
def minus_one_sum(n: int = 8) -> Lattice:
    """<-1>^n, labelled E1..En (exceptional classes), n >= 1."""
    (n,) = linalg.exact_ints([n], "lattice sizes")
    if n < 1:
        raise BadInputError("<-1>^n needs n >= 1")
    g = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return Lattice(g, tuple(f"E{i}" for i in range(1, n + 1)), f"<-1>^{n}")


def e8_simple_reflections() -> list[list[list[int]]]:
    """The eight simple-root reflections of the E8 Weyl group.

    Integer matrices on the Cartan basis; the reflection formula only uses
    pairing ratios, so the same matrices are isometries of every twist E8(n).
    """
    cartan = e8().gram
    mats = []
    for i in range(8):
        m = linalg.identity_matrix(8)
        for j in range(8):
            m[i][j] -= cartan[i][j]
        mats.append(m)
    return mats


def _gamma16_doubled_basis() -> list[list[int]]:
    """Twice the basis of Gamma16 = D16^+, as integer vectors in Z^16.

    Gamma16 is the even unimodular positive definite rank-16 lattice that is
    not generated by its roots.  Its integral basis: e_i - e_{i+1} for
    i = 2..15 and e_15 + e_16 (15 simple roots of D16), then (e_1+...+e_16)/2.
    """
    vecs = [[2 * (j == i) - 2 * (j == i + 1) for j in range(16)] for i in range(1, 15)]
    return vecs + [[0] * 14 + [2, 2], [1] * 16]


@_memoized
def gamma16(twist: int = 1) -> Lattice:
    """Gamma16 in its integral basis; Gamma16(-1) for twist -1."""
    vecs = _gamma16_doubled_basis()
    g = [[linalg.dot(v, w) // 4 for w in vecs] for v in vecs]  # (2v).(2w) = 4 v.w exactly
    labels = tuple(f"d{i}" for i in range(1, 16)) + ("s",)
    return _twisted(g, twist, labels, "Gamma16")


def gamma16_contains_doubled(y) -> bool:
    """Whether y / 2 lies in Gamma16, for an integer vector y = 2x in Z^16.

    x lies in Gamma16 when 2 x_i is integral, x_i - x_j is integral and
    sum(x_i) is in 2Z, i.e. when all y_i have one parity and sum(y_i) is in 4Z.
    """
    y = linalg.exact_ints(y, "doubled Gamma16 coordinates")
    if len(y) != 16:
        raise BadInputError("a doubled Gamma16 vector has 16 coordinates")
    return all((c - y[0]) % 2 == 0 for c in y) and sum(y) % 4 == 0


def gamma16_coordinates_doubled(y) -> list[int]:
    """Coordinates of y / 2 in the Gamma16 integral basis, for y = 2x in Z^16.

    Back-substitution: only the half-sum h has an e_1 entry, so its
    coefficient is y_1, and z = (y - y_1) / 2 = x - y_1 h lies in D16.  The
    coefficient of e_i - e_{i+1} (i = 2..14) is z_2 + ... + z_i.  The pair
    e_15 - e_16, e_15 + e_16 shares s = z_2 + ... + z_15 and differs by z_16,
    so its coefficients are (s - z_16) / 2 and (s + z_16) / 2, exact since
    s + z_16 = sum(z) is even.  One ``require`` checks that they give y back.
    """
    y = linalg.exact_ints(y, "doubled Gamma16 coordinates")
    if not gamma16_contains_doubled(y):
        raise BadInputError("vector is not in Gamma16")
    z = [(c - y[0]) // 2 for c in y]
    partial = list(itertools.accumulate(z[1:15]))
    s = partial[-1]
    coords = partial[:13] + [(s - z[15]) // 2, (s + z[15]) // 2, y[0]]
    back = linalg.mat_mul([coords], _gamma16_doubled_basis())[0]
    require(back == y, f"Gamma16 coordinates {coords} give 2x = {back}, not {y}")
    return coords


#: the named standard lattices: kind -> (constructor, name of its --param or None)
_STANDARD_CONSTRUCTORS = {
    "U": (hyperbolic_plane, None), "E8": (e8, None), "An": (a_n, "n"), "rank1": (rank_one, "m"),
    "NikulinN": (nikulin, None), "Gamma16": (gamma16, None),
}
# the worked examples of ``nsfamilies.moduli_dimension`` and the seed of the
# acceptance checks in ``verify``: their one home is here, where the CLI's
# parser reads them with ``_STANDARD_CONSTRUCTORS`` without executing those modules
_MODULI_EXAMPLES = ("M2", "M6", "M4", "M4tilde", "M8", "M8tilde")
DEFAULT_SEED = 0


def standard_lattice(kind: str, twist: int = 1, param: int | None = None) -> Lattice:
    """A kind of ``_STANDARD_CONSTRUCTORS``, twisted (CLI surface); ``param`` is its --param."""
    if twist == 0:
        raise BadInputError("twist must be nonzero")
    if kind not in _STANDARD_CONSTRUCTORS:
        raise BadInputError(
            f"unknown lattice kind {kind!r}; expected one of {', '.join(_STANDARD_CONSTRUCTORS)}"
        )
    make, param_name = _STANDARD_CONSTRUCTORS[kind]
    if param_name is None:
        return make(twist)
    if param is None:
        raise BadInputError(f"{kind} needs --param {param_name}")
    return make(param, twist)


def direct_sum(parts, name=None) -> Lattice:
    """Block-diagonal sum; basis labels get disambiguating suffixes."""
    return _direct_sum_of(tuple(parts), name)


@_memoized
def _direct_sum_of(parts: tuple[Lattice, ...], name) -> Lattice:
    if not parts:
        raise BadInputError("direct sum of an empty list")
    total = sum(p.rank for p in parts)
    g = [[0] * total for _ in range(total)]
    off = 0
    raw_labels = []
    for part in parts:
        rank = part.rank
        for i in range(rank):
            g[off + i][off:off + rank] = part.gram[i]
        raw_labels += part.labels or [f"b{off + i + 1}" for i in range(rank)]
        off += rank
    counts, seen = Counter(raw_labels), Counter()
    labels = []
    for lab in raw_labels:
        if counts[lab] > 1:
            seen[lab] += 1
            lab = f"{lab}{seen[lab]}"
        labels.append(lab)
    if name is None:
        name = " + ".join(p.name or "?" for p in parts)
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
        return lattice, linalg.identity_matrix(n)
    pairing = [linalg.mat_vec(lattice.gram, v) for v in vecs]
    kernel = linalg.integer_kernel(pairing)
    if not kernel:
        return Lattice([], None, None), []
    gram = linalg.pairing_matrix(kernel, lattice.gram)
    try:
        comp = Lattice(gram)
    except DegenerateGramError as exc:
        raise IsotropicComplementError(
            "orthogonal complement carries a degenerate (isotropic) form"
        ) from exc
    return comp, kernel


def sublattice_index(lattice: Lattice, vectors) -> int:
    """Index of the finite-index sublattice spanned by ``vectors``, redundant or not."""
    vecs = [linalg.exact_ints(v, "vector coordinates") for v in vectors]
    if any(len(v) != lattice.rank for v in vecs):
        raise BadInputError(f"vectors must have {lattice.rank} coordinates")
    # v, -v and 0 add nothing to the span, so the HNF gets one row per +-v pair
    rows = dict.fromkeys(max(tuple(v), tuple(-c for c in v)) for v in vecs if any(v))
    return _span_index(lattice.rank, tuple(rows))


# a verify-paper pass asks for 3 distinct indices, so a pass never evicts its own
@functools.lru_cache(maxsize=4)
def _span_index(rank: int, rows: tuple[tuple[int, ...], ...]) -> int:
    """Index in Z^rank of the span of validated integer ``rows``, from their HNF pivots."""
    hnf = linalg.hermite_normal_form(list(rows))
    if len(hnf) != rank:
        raise BadInputError("the vectors do not span a finite-index sublattice")
    return math.prod(row[i] for i, row in enumerate(hnf))


# ---------------------------------------------------------------------------
# short vector enumeration


#: coordinate terms after which a short-vector search raises UnsupportedError
#: instead of running on.  A search node at coordinate i counts the n - i
#: coordinates x_i..x_{n-1} its bound depends on, so the bound is ~0.4-0.6 s of
#: search at every rank from 16 to 100, though a node's cost grows with the
#: rank.  The search walks one of each +-v, so the largest search in the tests,
#: Gamma16(-1) at norm -4, sums 1,039,299 terms (2,078,462 over both signs);
#: verify-paper's largest, Gamma16(-1) at norm -2, sums 18,064 (35,992).
_SHORT_VECTOR_TERM_BOUND = 3_000_000


def enumerate_vectors_of_norm(lattice: Lattice, norm: int) -> tuple[tuple[int, ...], ...]:
    """All v with v.v = norm in a negative definite lattice, lex ordered.

    norm must be a negative even integer.  The tuple contains v and -v
    together; completeness comes from exact Fincke-Pohst style bounds read
    off the fraction-free pivot rows of the positive form -gram, so the
    search runs on ints.  It walks only the half-space whose last nonzero
    coordinate (the first one it sets) is positive and appends the negatives
    before sorting.  A search that would sum more than
    _SHORT_VECTOR_TERM_BOUND coordinate terms raises UnsupportedError.
    """
    if not lattice.is_negative_definite:
        raise NotDefiniteError("short vector enumeration needs a negative definite lattice")
    try:
        norm = linalg.exact_rational(norm)
    except BadInputError as exc:
        raise BadInputError("norm must be a negative even integer") from exc
    if type(norm) is not int or norm >= 0 or norm % 2 != 0:
        raise BadInputError("norm must be a negative even integer")
    try:
        vectors, terms = _vectors_of_norm(lattice.gram, norm)
    except _Unkept as big:
        vectors, terms = big.args
    if terms > _SHORT_VECTOR_TERM_BOUND:
        raise UnsupportedError(_past_the_term_bound(norm, lattice.rank, terms))
    return vectors


def _past_the_term_bound(norm: int, rank: int, terms: int) -> str:
    return (f"vectors of norm {norm} in a rank-{rank} lattice: the search summed "
            f"{terms} coordinate terms, past the bound {_SHORT_VECTOR_TERM_BOUND}")


#: coordinates (vectors times rank) past which a search result is not kept in
#: the memo.  verify-paper's largest search, Gamma16(-1) at norm -2, has 480 x 16
#: = 7,680; E8(-1) at norm -20 has 272,160 x 8, about 44 MB as tuples.
_MEMO_COORDINATE_BOUND = 32_768


class _Unkept(Exception):
    """Carries a search result past _MEMO_COORDINATE_BOUND out of the memo."""


# a verify-paper pass searches 5 (Gram, norm) pairs, so a pass never evicts its own
@functools.lru_cache(maxsize=8)
def _vectors_of_norm(gram, norm: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(vectors, coordinate terms summed) of the search on a negative definite Gram.

    Keyed on the Gram and the norm, all the search reads, so a hit is the
    search itself.  The search stops once it sums more than
    _SHORT_VECTOR_TERM_BOUND terms, and ``lru_cache`` keeps no exception: a
    result with more than _MEMO_COORDINATE_BOUND coordinates is raised as
    ``_Unkept`` for the caller to catch, so it is returned without being kept.
    """
    n = len(gram)
    # -gram is positive definite, so its elimination never pivots and every
    # pivot D_{i+1} = dens[i] is positive.  With S the lcm of the D_i D_{i+1}
    # and c_i = S / (D_i D_{i+1}),
    # S (-v.v) = sum_i c_i (D_{i+1} x_i + sum_{j>i} a_ij x_j)^2.
    _, _, pivots = linalg.signature_of_symmetric([[-x for x in row] for row in gram])
    dens = [row[0] for row in pivots]
    coef = [row[1:] for row in pivots]
    products = [d * e for d, e in zip([1] + dens, dens)]
    scale = math.lcm(*products)
    cs = [scale // p for p in products]
    results: list[tuple[int, ...]] = []
    x = [0] * n
    terms = 0

    def descend(i: int, remaining: int, shift: int, signed: bool) -> None:
        # shift = sum_{j>i} a_ij x_j, set by the caller; signed once some x_j
        # with j > i is nonzero, and until then x_i >= 0 (one of each +-v)
        nonlocal terms
        terms += n - i
        if terms > _SHORT_VECTOR_TERM_BOUND:
            raise UnsupportedError(_past_the_term_bound(norm, n, terms))
        den, c = dens[i], cs[i]
        # |den x_i + shift| <= t  <=>  c (den x_i + shift)^2 <= remaining
        t = math.isqrt(remaining // c)
        if i == 0:  # the last coordinate must use up the budget exactly
            if c * t * t == remaining:
                # unsigned, shift is 0 and t > 0, so only y = t gives x_0 > 0
                for y in ((-t, t) if t else (0,)) if signed else (t,):
                    if (y - shift) % den == 0:
                        x[0] = (y - shift) // den
                        results.append(tuple(x))
                x[0] = 0
            return
        below = coef[i - 1]  # the next shift is rest + below[0] x_i
        rest = sum(a * xj for a, xj in zip(below[1:], x[i + 1:]))
        for xi in range(-((t + shift) // den) if signed else 0, (t - shift) // den + 1):
            x[i] = xi
            y = den * xi + shift
            descend(i - 1, remaining - c * y * y, rest + below[0] * xi, signed or xi != 0)
        x[i] = 0

    descend(n - 1, -norm * scale, 0, False)
    results += [tuple(-c for c in v) for v in results]
    results.sort()
    if len(results) * n > _MEMO_COORDINATE_BOUND:
        raise _Unkept(tuple(results), terms)
    return tuple(results), terms
