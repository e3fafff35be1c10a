"""Discriminant groups A_M = M*/M with their finite quadratic forms.

For an even nondegenerate lattice M with Gram matrix G, the Smith normal form
U*G*V = D gives A_M as a product of cyclic groups Z/d_i, and since
G^-1 U^-1 = V D^-1 generator i lifts to the dual vector (column i of V)/d_i.
Let e be the common denominator of the lifts (the largest invariant factor).
The form keeps the integer pairing P = e^2 * b(g_i, g_j) of the integral
vectors e*g_i, so every value of q and b is an integer numerator over the one
fixed denominator e^2: ``q_numerator(x)`` = sum x_i x_j P_ij mod 2e^2 and
``b_numerator(x, y)`` = sum x_i y_j P_ij mod e^2.  Everything in this module
and the checks built on it compare those numerators; ``Fraction``s appear only
at the API edge, where ``q`` and ``b`` return one canonical Fraction, in [0, 2)
for q and in [0, 1) for b.  ``b_numerator`` and ``rows`` read the one row
x P; ``rows(x)`` gives b(x, y) and the position of x + y for every y at once.

``action_on_disc`` tabulates the map induced by an isometry from the classes
img_i of the generator images alone: it builds x -> sum_i x_i img_i one
coordinate at a time, in ``elements()`` order, so each partial sum is shared by
all the elements that extend it, then reduces every sum and checks q on it.

``discriminant_form`` and ``lattice_fingerprint`` are memoized on the Gram
matrix (``Lattice`` compares Grams only): their values are immutable, so
callers share them, and an error is raised afresh on every call.
``orbits_under_generators`` reads its generator entries as ints and is
memoized on the form (by identity: a form is never changed, and
``discriminant_form`` hands out one per Gram) and those integer matrices, so
a hit is the partition of the same group under the same matrices; each call
returns new lists.  The memo keeps 4 partitions; a verify-paper pass asks for 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import BadInputError, OddLatticeError, UnsupportedError, require
from . import linalg
from .lattice import Lattice, direct_sum, hyperbolic_plane

#: elements of A_M are canonical residue tuples against the invariant factors
DiscElement = tuple[int, ...]

_SUBGROUP_SIZE_BOUND = 2 ** 12
#: elements the closures of one subgroup search may visit, ~0.4 s: U(2)^4 at
#: order 4 visits 36,450, while U(2)^4 at order 8 visited 1,727,250 in 8.6 s
_SUBGROUP_WORK_BOUND = 2 ** 16
_HISTOGRAM_BOUND = 2 ** 16


class FiniteQuadraticForm:
    """The discriminant form (A_M, q) of an even nondegenerate lattice.

    ``coordinates`` holds one integer row per generator: the class of a dual
    vector w has residue (row . G w) mod d_i, as the nontrivial rows of U in
    the Smith form U*G*V = D give; g_i = (column i of V) / d_i has the exact
    denominator d_i, since that column is primitive.  Everything set here is a
    tuple, since the memo of ``discriminant_form`` shares one form between
    callers.
    """

    def __init__(self, parent: Lattice, factors, columns, coordinates):
        self.parent = parent
        self.invariant_factors = tuple(int(d) for d in factors)
        self.order = math.prod(self.invariant_factors)
        self._coordinates = tuple(tuple(map(int, row)) for row in coordinates)
        den = math.lcm(*self.invariant_factors)
        #: den * g_i on ints, the generator lifts without Fractions
        self._scaled = tuple(
            tuple(int(c) * (den // d) for c in col)
            for d, col in zip(self.invariant_factors, columns)
        )
        self.generators = tuple(tuple(Fraction(c, den) for c in g) for g in self._scaled)
        self._den = den
        #: q and b values are integer numerators over this denominator den^2
        self.denominator = den * den
        # P = den^2 * b(g_i, g_j); only P mod den^2 (2 den^2 on the diagonal) matters
        pair = linalg.pairing_matrix(self._scaled, parent.gram)
        den2 = self.denominator
        self._pair = tuple(
            tuple(x % (2 * den2 if i == j else den2) for j, x in enumerate(row))
            for i, row in enumerate(pair)
        )

    # -- element bookkeeping ------------------------------------------------

    def zero(self) -> DiscElement:
        return (0,) * len(self.invariant_factors)

    def reduce(self, coeffs) -> DiscElement:
        if len(coeffs) != len(self.invariant_factors):
            raise BadInputError(f"element {tuple(coeffs)} does not lie in {self}")
        return tuple(int(c) % d for c, d in zip(coeffs, self.invariant_factors))

    def add(self, x: DiscElement, y: DiscElement) -> DiscElement:
        factors = self.invariant_factors
        if not len(x) == len(y) == len(factors):
            raise BadInputError(f"elements {tuple(x)}, {tuple(y)} do not both lie in {self}")
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    def scale(self, n: int, x: DiscElement) -> DiscElement:
        return self.reduce([n * a for a in x])

    def elements(self):
        """All elements in lexicographic residue order."""
        return itertools.product(*[range(d) for d in self.invariant_factors])

    def lift(self, x: DiscElement) -> list[Fraction]:
        """A dual-vector representative in M tensor Q."""
        scaled = [0] * self.parent.rank
        for c, g in zip(x, self._scaled):
            if c:
                scaled = [s + c * gi for s, gi in zip(scaled, g)]
        return [Fraction(s, self._den) for s in scaled]

    def element_of(self, dual_vector) -> DiscElement:
        """Class of a dual vector (pairs integrally with M) in A_M."""
        den, w = linalg.clear_denominators(dual_vector)
        if len(w) != self.parent.rank:
            raise BadInputError("vector length must equal the lattice rank")
        return self._class_of_scaled(w, den)

    def _class_of_scaled(self, w: list[int], den: int) -> DiscElement:
        """Class of the dual vector w / den, for an integer vector w."""
        gw = linalg.mat_vec(self.parent.gram, w)
        if any(x % den for x in gw):
            raise BadInputError("vector does not pair integrally with the lattice")
        return self._class_of_pairing([x // den for x in gw])

    def _class_of_pairing(self, gw: list[int]) -> DiscElement:
        """Class of the dual vector w from its integer pairings gw = G w."""
        return self.reduce(linalg.mat_vec(self._coordinates, gw))

    # -- forms ---------------------------------------------------------------

    def q(self, x: DiscElement) -> Fraction:
        """Quadratic form value in Q/2Z, reduced into [0, 2)."""
        return Fraction(self.q_numerator(x), self.denominator)

    def b(self, x: DiscElement, y: DiscElement) -> Fraction:
        """Bilinear form value in Q/Z, reduced into [0, 1)."""
        return Fraction(self.b_numerator(x, y), self.denominator)

    def q_numerator(self, x: DiscElement) -> int:
        """q(x) * denominator, reduced into [0, 2 * denominator)."""
        pair = self._pair
        k = len(x)
        if k != len(pair):
            raise BadInputError(f"element {tuple(x)} does not lie in {self}")
        total = 0
        for i in range(k):
            xi = x[i]
            if xi:
                row = pair[i]
                cross = 0
                for j in range(i + 1, k):
                    if x[j]:
                        cross += x[j] * row[j]
                total += xi * (xi * row[i] + 2 * cross)
        return total % (2 * self.denominator)

    def b_numerator(self, x: DiscElement, y: DiscElement) -> int:
        """b(x, y) * denominator, reduced into [0, denominator)."""
        if not len(x) == len(y) == len(self._pair):
            raise BadInputError(f"elements {tuple(x)}, {tuple(y)} do not both lie in {self}")
        return sum(map(operator.mul, y, self._pairing_row(x))) % self.denominator

    def _pairing_row(self, x: DiscElement) -> list[int]:
        """The row x P of unreduced numerators b(x, g_j): the one source of b."""
        if len(x) != len(self._pair):
            raise BadInputError(f"element {tuple(x)} does not lie in {self}")
        row = [0] * len(x)
        for c, pair_row in zip(x, self._pair):
            if c:
                row = [a + c * p for a, p in zip(row, pair_row)]
        return row

    def rows(self, x: DiscElement) -> tuple[list[int], list[int]]:
        """(b_numerator(x, y), position of x + y in ``elements()``) for every y, in that order.

        Built one coordinate at a time, as ``action_on_disc`` builds its table:
        the last coordinate varies fastest, so each pass extends every entry by
        one coordinate's d multiples of the row x P and one coordinate's d
        residues of x_j + y_j, at that coordinate's stride.
        """
        bs, positions, stride = [0], [0], self.order
        for c, p, d in zip(x, self._pairing_row(x), self.invariant_factors):
            stride //= d
            multiples = [k * p for k in range(d)]
            shifted = [((c + k) % d) * stride for k in range(d)]
            bs = [b + m for b in bs for m in multiples]
            positions = [a + s for a in positions for s in shifted]
        den2 = self.denominator
        return [b % den2 for b in bs], positions

    @functools.cached_property
    def q_numerators(self) -> MappingProxyType:
        """Read-only map from every element, in ``elements()`` order, to its q_numerator.

        It is built on first use and the form keeps it, so use it only on
        groups small enough to list twice.
        """
        return MappingProxyType({x: self.q_numerator(x) for x in self.elements()})

    def q_histogram(self) -> dict[Fraction, int]:
        if self.order > _HISTOGRAM_BOUND:
            raise UnsupportedError(
                f"discriminant group of order {self.order} is too large to histogram"
            )
        counts = Counter(self.q_numerator(x) for x in self.elements())
        return {Fraction(k, self.denominator): v for k, v in counts.items()}

    def __repr__(self):
        shape = " x ".join(f"Z/{d}" for d in self.invariant_factors) or "trivial"
        return f"<FiniteQuadraticForm {shape}>"


# about 33 distinct Grams per verify-paper pass, so a pass never evicts its own
@functools.lru_cache(maxsize=64)
def discriminant_form(lattice: Lattice) -> FiniteQuadraticForm:
    """Discriminant form of an even nondegenerate lattice via Smith normal form.

    The Gram is eliminated outside the Smith memo: this memo keeps the form.
    """
    if not lattice.is_even:
        raise OddLatticeError("discriminant quadratic form needs an even lattice")
    n = lattice.rank
    d, u, v = linalg.smith_normal_form(lattice.gram, keep=False)
    keep = [i for i in range(n) if d[i][i] > 1]
    columns = [[v[r][i] for r in range(n)] for i in keep]
    return FiniteQuadraticForm(lattice, [d[i][i] for i in keep], columns, [u[i] for i in keep])


# ---------------------------------------------------------------------------
# verification of q on A_{U(2)^3}


def qK_on_U2_cubed() -> dict:
    """Check that A_{U(2)^3} is (Z/2)^6 carrying q(x) = x1x2 + x3x4 + x5x6.

    The classes of the natural dual vectors e_i/2, f_i/2 come from the
    Smith-form machinery; all 64 of their sums are evaluated against the
    hyperbolic polynomial, and must be 64 distinct elements.
    """
    base = direct_sum([hyperbolic_plane(2)] * 3, name="U(2)^3")
    form = discriminant_form(base)
    require(form.invariant_factors == (2,) * 6, f"A_U(2)^3 is {form}, not (Z/2)^6")
    halves = [form._class_of_scaled([int(i == j) for j in range(6)], 2) for i in range(6)]
    sums = {(): form.zero()}  # bits in the order e1,f1,e2,f2,e3,f3 -> class of the sum
    for half in halves:
        sums = {bits + (bit,): form.add(x, half) if bit else x
                for bits, x in sums.items() for bit in (0, 1)}
    classes = set(sums.values())
    require(len(classes) == 64, f"the halves e_i/2, f_i/2 give {len(classes)} classes, not 64")
    q_values = {bits: form.q(x) for bits, x in sums.items()}
    bad = [b for b, got in q_values.items() if got != (b[0] * b[1] + b[2] * b[3] + b[4] * b[5]) % 2]
    require(not bad, f"q disagrees with x1x2 + x3x4 + x5x6 at {bad[:1]}")
    counts = Counter(q_values.values())
    return {
        "elements_checked": len(classes),
        "q_zero": counts[Fraction(0)],
        "q_one": counts[Fraction(1)],
    }


# ---------------------------------------------------------------------------
# isotropic subgroups


@dataclass(frozen=True)
class IsotropicSubgroup:
    generators: tuple[DiscElement, ...]
    elements: tuple[DiscElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(form: FiniteQuadraticForm, gens) -> frozenset:
    elems = {form.zero()}
    gens = [form.reduce(g) for g in gens]
    changed = True
    while changed:
        changed = False
        for g in gens:
            for e in list(elems):
                s = form.add(e, g)
                if s not in elems:
                    elems.add(s)
                    changed = True
    return frozenset(elems)


def enumerate_isotropic_subgroups(form: FiniteQuadraticForm, order: int) -> list[IsotropicSubgroup]:
    """All subgroups of the given order on which q vanishes identically.

    Deterministic output (sorted by element tuples).  The group must have order
    <= 2^12, and a search whose closures visit more than _SUBGROUP_WORK_BOUND
    elements raises UnsupportedError.
    """
    if form.order > _SUBGROUP_SIZE_BOUND:
        raise UnsupportedError(
            f"group order {form.order} exceeds the enumeration bound {_SUBGROUP_SIZE_BOUND}"
        )
    if order < 1 or form.order % order != 0:
        return []
    zero = form.zero()
    if order == 1:
        return [IsotropicSubgroup((), (zero,))]
    isotropic = sorted(x for x in form.elements() if not form.q_numerator(x))
    found: dict[frozenset, list] = {}
    visited = 0

    def extend(current: frozenset, gens: tuple, start: int) -> None:
        nonlocal visited
        if len(current) == order:
            key = current
            if key not in found:
                found[key] = list(gens)
            return
        for idx in range(start, len(isotropic)):
            x = isotropic[idx]
            if x in current:
                continue
            bigger = _closure(form, list(gens) + [x])
            visited += len(bigger)
            if visited > _SUBGROUP_WORK_BOUND:
                raise UnsupportedError(
                    f"isotropic subgroups of order {order} in a group of order {form.order}: "
                    f"the closures visited {visited} elements, past the bound {_SUBGROUP_WORK_BOUND}"
                )
            if len(bigger) > order or order % len(bigger) != 0:
                continue
            if any(form.q_numerator(e) for e in bigger):
                continue
            extend(bigger, gens + (x,), idx + 1)

    extend(frozenset([zero]), (), 0)
    out = [
        IsotropicSubgroup(tuple(gens), tuple(sorted(elems)))
        for elems, gens in found.items()
    ]
    out.sort(key=lambda s: s.elements)
    return out


# ---------------------------------------------------------------------------
# orbits under isometry generators


def action_on_disc(form: FiniteQuadraticForm, matrix) -> dict[DiscElement, DiscElement]:
    """Map induced on A_M by an isometry of the parent lattice.

    The matrix acts on column coordinate vectors; it must satisfy
    g^T G g = G.  Validates that q is preserved on all of A_M, against q
    tabulated once per element of the (shared, immutable) form.
    """
    if form.order > _SUBGROUP_SIZE_BOUND:
        raise UnsupportedError("discriminant group too large for an induced-action table")
    gram = form.parent.gram
    gtg = linalg.mat_mul(linalg.transpose(matrix), linalg.mat_mul(gram, matrix))
    if not linalg.mat_eq(gtg, gram):
        raise BadInputError("generator is not an isometry of the parent lattice")
    images = [form._class_of_scaled(linalg.mat_vec(matrix, g), form._den) for g in form._scaled]
    # sums[k] is sum_i x_i img_i for the k-th x in elements() order: the last
    # coordinate varies fastest, so each pass appends one coordinate's multiples
    sums = [form.zero()]
    for img, d in zip(images, form.invariant_factors):
        multiples = [[c * b for b in img] for c in range(d)]
        sums = [list(map(operator.add, s, m)) for s in sums for m in multiples]
    factors = form.invariant_factors
    table = {x: tuple(map(operator.mod, s, factors)) for x, s in zip(form.elements(), sums)}
    q = form.q_numerators
    for x, y in table.items():
        if q[x] != q[y]:
            raise BadInputError("generator fails to preserve q on the discriminant group")
    return table


def orbits_under_generators(form: FiniteQuadraticForm, generators) -> list[list[DiscElement]]:
    """Orbit partition of A_M under supplied isometry generators.

    Generators are parent-lattice matrices of integers.  Orbits are sorted
    lists, ordered by (size, first element); the group is never materialized,
    only the orbit closure.  The partition is memoized (see ``_orbits``);
    each call returns new lists.
    """
    if form.order > _SUBGROUP_SIZE_BOUND:
        raise UnsupportedError("discriminant group too large for orbit closure")
    key = tuple(
        tuple(tuple(linalg.exact_ints(row, "generator entries")) for row in matrix)
        for matrix in generators
    )
    return [list(orbit) for orbit in _orbits(form, key)]


# a verify-paper pass asks for 1 partition (W(E8) on A_E8(-2)), so a pass never evicts its own
@functools.lru_cache(maxsize=4)
def _orbits(form: FiniteQuadraticForm, generators) -> tuple[tuple[DiscElement, ...], ...]:
    """The orbit partition; on a miss ``action_on_disc`` checks every generator.

    ``lru_cache`` keeps no exception, so a refused generator raises on every call.
    """
    maps = [action_on_disc(form, g) for g in generators]
    seen = set()
    orbits = []
    for x in sorted(form.elements()):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for table in maps:
                z = table[y]
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# lattice fingerprints (shared by several modules)


@dataclass(frozen=True)
class Fingerprint:
    """Isometry invariants used everywhere a named lattice must be recognized."""

    rank: int
    signature: tuple[int, int]
    determinant: int
    even: bool
    invariant_factors: tuple[int, ...]
    q_histogram: tuple[tuple[str, int], ...]


# about 12 distinct Grams per verify-paper pass
@functools.lru_cache(maxsize=32)
def lattice_fingerprint(lattice: Lattice) -> Fingerprint:
    """(rank, signature, det, parity, disc invariant factors, q histogram)."""
    if lattice.rank == 0:
        return Fingerprint(0, (0, 0), 1, True, (), ())
    hist: tuple[tuple[str, int], ...] = ()
    factors: tuple[int, ...] = ()
    if lattice.is_even:
        form = discriminant_form(lattice)
        factors = form.invariant_factors
        if form.order <= _HISTOGRAM_BOUND:
            hist = tuple(
                sorted((str(k), v) for k, v in form.q_histogram().items())
            )
    return Fingerprint(
        lattice.rank,
        lattice.signature.as_pair(),
        lattice.determinant,
        lattice.is_even,
        factors,
        hist,
    )
