"""Weierstrass fibrations y^2 = x(x^2 + a(t)x + b(t)) with exact coefficients.

Polynomials are ``RatPoly``s over Q.  A coefficient is an ``int`` when it is
integral and a ``Fraction`` only when it is not; a float is refused.  Integer
input (every family ``verify`` draws) therefore runs a^2 - 4b, the gcd
screens, division, ``monic`` and printing on ints, while rational input keeps
exact Fractions where it needs them.  Output does not depend on the type: an
int and an integral Fraction compare, hash and print alike.

The model has a visible 2-torsion section at (0, 0); deg a <= 4 and deg b <= 8
keep the family K3-sized and minimal at infinity in the fixed chart u = s^4 x,
v = s^6 y.  Discriminants are kept unit-free (constants are dropped since only
vanishing orders enter the multiplicative fiber types I_n).  The discriminant
comes factored, Delta = b^2 c with c = a^2 - 4b.  A fibration stores c once
and never multiplies Delta out: fiber types are read off the factorizations
of b and c (degree <= 8 each), and deg Delta = 2 deg b + deg c.  The quotient
by translation by the 2-torsion section is the standard 2-isogeny model
(a, b) -> (-2a, c), which swaps the b-locus and the c-locus.  ``polyfactor``
is the one integer-polynomial kernel: sums, products, derivatives, gcds and
factorizations (Zassenhaus), memoized on the integer-primitive coefficients
since the quotient's b is f's c and its c is 16 f.b.

Only multiplicative fibers are classified.  Additive places (where the
irreducible factor divides both a and b, equivalently both b and a^2 - 4b)
are detected and flagged "additive/unsupported", never typed.

The 2-torsion section classes in U + N and the I_16 window swap are claims:
the functions that compute them raise CheckFailed when one fails and return
only data.
"""

from __future__ import annotations

import functools
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from . import discforms, lattice, linalg, polyfactor
from .errors import BadInputError, UnsupportedError, decimal, require


class RatPoly:
    """Univariate polynomial over Q, coefficients low degree first, canonical.

    ``coeffs`` is a tuple without trailing zeros.  Each entry is an ``int``
    when integral and a ``Fraction`` with denominator > 1 otherwise: the
    constructor reads a list or tuple through ``linalg.exact_entries``, and
    division goes through ``_quotient``, which returns an int when it is
    exact.  Sums, products, the derivative and the gcd are ``polyfactor``'s;
    division over Q, ``monic``, parsing and printing are the class's own.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = linalg.exact_entries(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_string(cls, text: str) -> "RatPoly":
        """Parse comma-separated exact rationals like "1,0,-3/2"; "" is zero.

        Every entry must be present: "1,,2" and ",1" are refused.
        """
        if not text.strip():
            return cls()
        try:
            return cls(text.split(","))
        except BadInputError as exc:
            raise BadInputError(f"bad polynomial coefficient list {text!r}") from exc

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int | Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int | Fraction:
        if self.is_zero:
            raise BadInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return RatPoly(polyfactor._add(self.coeffs, _coerce(other).coeffs))

    def __sub__(self, other):
        return RatPoly(polyfactor._sub(self.coeffs, _coerce(other).coeffs))

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        return RatPoly(polyfactor._mul(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__
    __radd__ = __add__

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                f = _quotient(rem[i], lead)
                q[i - d] = f
                for j, c in enumerate(other.coeffs):
                    rem[i - d + j] -= f * c
        return RatPoly(q), RatPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def divides(self, other: "RatPoly") -> bool:
        """Whether self divides other (self nonzero)."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def derivative(self) -> "RatPoly":
        return RatPoly(polyfactor._derivative(self.coeffs))

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        lead = self.leading()
        return RatPoly([_quotient(c, lead) for c in self.coeffs])

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q (zero when both are zero).

        ``polyfactor._gcd_z`` on the cleared-denominator coefficients: 1 as
        soon as they are coprime mod a small prime not dividing the leading
        coefficient, otherwise the primitive pseudo-remainder sequence.
        """
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return (self + other).monic()
        a, b = (linalg.clear_denominators(p.coeffs)[1] for p in (self, other))
        return RatPoly(polyfactor._gcd_z(a, b)).monic()

    def coeff_strings(self) -> list[str]:
        return [decimal(c) for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = decimal(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{decimal(mag)}*{var}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"RatPoly({self})"


def _quotient(x, y) -> int | Fraction:
    """x / y, an int when the division is exact."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return linalg.exact_rational(x / y)


def _coerce(x) -> RatPoly:
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly([x])
    raise BadInputError(f"cannot treat {x!r} as a polynomial")


def irreducible_factors(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Irreducible factorization over Q, factors integer-primitive, sorted.

    ``polyfactor.factor`` factors the integer-primitive form of p and caches
    the result.  The multiplied-out factorization is checked against the
    input on every call, cache hits included, so the factorizer is never
    trusted blindly: p lc(prod) = prod lc(p), on the integer coefficients of
    p.  The product is ``polyfactor``'s integer product; what guards against
    a wrong factorization is this comparison, not the multiplication.
    """
    if p.is_zero:
        raise BadInputError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    _, ints = linalg.clear_denominators(p.coeffs)
    factors = polyfactor.factor(tuple(polyfactor._primitive(ints)))
    product = [1]
    for f, e in factors:
        for _ in range(e):
            product = polyfactor._mul(product, f)
    back = bool(product) and [c * product[-1] for c in ints] == [c * ints[-1] for c in product]
    require(back, f"the factors of a degree-{p.degree} polynomial do not multiply back to it")
    return [(RatPoly(f), e) for f, e in factors]


# ---------------------------------------------------------------------------
# fibrations


#: deg a <= 4 and deg b <= 8 keep the model K3-sized.  The generic family has
#: 5 + 9 coefficients, less 1 for the (x, y) scaling and 3 for PGL(2); criterion
#: 9 of ``verify`` compares that count with 20 - rho.
A_DEGREE, B_DEGREE = 4, 8
MODULI_COUNT = (A_DEGREE + 1) + (B_DEGREE + 1) - 1 - 3


class WeierstrassFibration:
    """y^2 = x(x^2 + a(t)x + b(t)) with deg a <= 4, deg b <= 8 and Delta != 0."""

    def __init__(self, a, b):
        a = a if isinstance(a, RatPoly) else RatPoly(a)
        b = b if isinstance(b, RatPoly) else RatPoly(b)
        if a.degree > A_DEGREE:
            raise BadInputError(f"deg a must be at most {A_DEGREE}")
        if b.degree > B_DEGREE:
            raise BadInputError(f"deg b must be at most {B_DEGREE}")
        c = a * a - 4 * b
        if b.is_zero or c.is_zero:
            raise BadInputError("degenerate family: discriminant b^2(a^2-4b) vanishes")
        self.a = a
        self.b = b
        self.c = c

    @property
    def discriminant(self) -> RatPoly:
        """b^2 c, constant units dropped by convention."""
        return self.b * self.b * self.c

    def __repr__(self):
        return f"WeierstrassFibration(a={self.a}, b={self.b})"


def two_isogeny_quotient(f: WeierstrassFibration) -> WeierstrassFibration:
    """Quotient by translation by the 2-torsion section: (a, b) -> (-2a, c)."""
    return WeierstrassFibration(-2 * f.a, f.c)


ADDITIVE = "additive/unsupported"


class FiberPlace(NamedTuple):
    factor: RatPoly | None  # the irreducible polynomial of the place, None at infinity
    order: int
    kodaira: str

    @property
    def location(self) -> str:
        """The factor as text, or "infinity"; rendered on request only."""
        return "infinity" if self.factor is None else str(self.factor)

    @property
    def degree(self) -> int:
        return 1 if self.factor is None else self.factor.degree

    @property
    def is_multiplicative(self) -> bool:
        return self.kodaira != ADDITIVE


class FiberReport(NamedTuple):
    places: list[FiberPlace]

    def weight(self, kodaira: str) -> int:
        """Total degree of the places carrying the given fiber type."""
        return sum(p.degree for p in self.places if p.kodaira == kodaira)

    def order_sum(self) -> int:
        """Sum of degree * vanishing order over all places (24 for K3 input)."""
        return sum(p.degree * p.order for p in self.places)

    @property
    def all_multiplicative(self) -> bool:
        return all(p.is_multiplicative for p in self.places)

    def to_json(self) -> dict:
        return {
            "places": [
                {
                    "location": p.location,
                    "coefficients": p.factor.coeff_strings() if p.factor else None,
                    "degree": p.degree,
                    "order": p.order,
                    "kodaira": p.kodaira,
                }
                for p in self.places
            ],
            "order_sum": self.order_sum(),
            "all_multiplicative": self.all_multiplicative,
        }


def fiber_configuration(f: WeierstrassFibration) -> FiberReport:
    """Kodaira I_n data of the singular fibers, including the place at infinity.

    Delta = b^2 c comes factored, so Delta itself is never formed: an
    irreducible factor of b of multiplicity m adds 2m to the order of its
    place, one of c = a^2 - 4b adds m.  An irreducible p divides both b and c
    exactly when it divides a and b, so a place is additive iff its factor
    occurs in both lists; otherwise it has type I_order.  The place at
    infinity has order 24 - 2 deg b - deg c and is additive iff deg a < 4 and
    deg b < 8, i.e. a^(0) = b^(0) = 0 in the chart a^(s) = s^4 a(1/s),
    b^(s) = s^8 b(1/s).
    """
    on_b = dict(irreducible_factors(f.b))
    on_c = dict(irreducible_factors(f.c))
    places = []
    for factor in sorted(on_b.keys() | on_c.keys(), key=lambda p: (p.degree, p.coeffs)):
        order = 2 * on_b.get(factor, 0) + on_c.get(factor, 0)
        kodaira = ADDITIVE if factor in on_b and factor in on_c else f"I{order}"
        places.append(FiberPlace(factor, order, kodaira))
    m_inf = 24 - 2 * f.b.degree - f.c.degree
    if m_inf > 0:
        additive = f.a.degree < A_DEGREE and f.b.degree < B_DEGREE
        kodaira = ADDITIVE if additive else f"I{m_inf}"
        places.append(FiberPlace(None, m_inf, kodaira))
    report = FiberReport(places)
    total = report.order_sum()
    require(total == 24, f"fiber orders of the {len(places)} places sum to {total}, not 24")
    return report


# ---------------------------------------------------------------------------
# Shioda-Tate bookkeeping


def parse_fiber_list(text: str) -> list[tuple[int, int]]:
    """Parse "I2:8,I16:1" into [(2, 8), (16, 1)]."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, count = token.partition(":")
        if not name.startswith("I") or not name[1:].isdigit():
            raise BadInputError(f"only multiplicative fibers I_n are supported, got {name!r}")
        try:
            out.append((int(name[1:]), int(count) if count else 1))
        except ValueError as exc:
            if name[1:].isdecimal() and (not count or count.isdecimal()):
                # int() refuses a string of decimal digits only past the digit limit
                limit = sys.get_int_max_str_digits()
                message = f"a fiber index or count has more than {limit} digits"
                raise UnsupportedError(message) from exc
            raise BadInputError(f"malformed fiber {token!r}; expected I_n or I_n:count") from exc
    if not out:
        raise BadInputError("empty fiber list")
    return out


def shioda_tate(fibers, torsion_order: int) -> tuple[int, Fraction]:
    """Picard rank and |NS discriminant| from multiplicative fiber data.

    fibers is a list of (n, count) pairs for I_n fibers.  The fibration is
    assumed to have Mordell-Weil rank 0, so |disc NS| = (prod n_v) / torsion^2.
    A discriminant with more digits than Python prints raises UnsupportedError
    before the product is formed.
    """
    try:
        torsion_order = operator.index(torsion_order)
        fibers = [(operator.index(n), operator.index(count)) for n, count in fibers]
    except (TypeError, ValueError) as exc:  # ValueError: an entry that is no pair
        raise BadInputError("fiber entries and the torsion order must be integers") from exc
    if torsion_order < 1:
        raise BadInputError("torsion order must be at least 1")
    rank = 2
    prod = 1
    # prod / torsion^2 > 2^bits; refuse before the power once that cannot print,
    # i.e. once 2^bits > 10^limit, which holds when bits * 0.3010 > limit
    bits = -2 * torsion_order.bit_length()
    limit = sys.get_int_max_str_digits()
    for n, count in fibers:
        if n < 1 or count < 1:
            raise BadInputError("fiber entries must be positive I_n with positive count")
        rank += count * (n - 1)
        bits += count * (n.bit_length() - 1)
        if limit and bits * 3010 > limit * 10000:
            raise UnsupportedError(f"the NS discriminant has more than {limit} digits to print")
        prod *= n ** count
    return rank, Fraction(prod, torsion_order ** 2)


# ---------------------------------------------------------------------------
# 2-torsion section bookkeeping in U + N


class TorsionSectionReport(NamedTuple):
    fibers: FiberReport
    ns_lattice: lattice.Lattice
    tau: tuple[int, ...]


def torsion_section_translation_data(f: WeierstrassFibration) -> TorsionSectionReport:
    """NS bookkeeping for the generic shape: 8 I_2 on the b-locus, 8 I_1 elsewhere.

    Basis {sigma, f, N_1..N_7, Nhat}: sigma the zero section (-2), f the fiber,
    N_i the I_2 components missing the zero section.  The 2-torsion section is
    tau = sigma + 2f - Nhat.  Raises UnsupportedError unless the fiber report
    (returned as ``fibers``) has that shape.
    """
    report = fiber_configuration(f)
    if not report.all_multiplicative:
        raise UnsupportedError("configuration has additive places")
    if any(p.factor is None for p in report.places):
        raise UnsupportedError("expected a good fiber at infinity for the generic shape")
    if report.weight("I2") != 8 or report.weight("I1") != 8:
        raise UnsupportedError("expected the generic 8 x I_2 + 8 x I_1 shape")
    for place in report.places:
        if place.kodaira == "I2" and not place.factor.divides(f.b):
            raise UnsupportedError("an I_2 place does not sit on the b-locus")
    return TorsionSectionReport(fibers=report, **_u_plus_n_section_data())


@functools.cache
def _u_plus_n_section_data() -> dict:
    """The TorsionSectionReport fields that do not depend on the fibration.

    Raises CheckFailed, naming the pairing, unless tau^2 = -2, tau.sigma = 0,
    tau.f = 1 and tau.N_i = 1 for all eight nodes, and unless the section
    basis spans a lattice with the fingerprint of U + N.
    """
    sigma_f = lattice.Lattice([[-2, 1], [1, 0]], ("sigma", "f"))  # sigma^2 = -2, sigma.f = 1
    ns = lattice.direct_sum([sigma_f, lattice.nikulin()], name="U + N (section basis)")
    tau = (1, 2, 0, 0, 0, 0, 0, 0, 0, -1)  # sigma + 2f - Nhat
    tau_list = list(tau)
    pairings = [("tau", tau_list, -2), ("sigma", [1] + [0] * 9, 0), ("f", [0, 1] + [0] * 8, 1)]
    pairings += [(f"N_{i}", [0, 0] + lattice.nikulin_node_coords(i), 1) for i in range(1, 9)]
    for name, v, want in pairings:
        got = ns.inner(tau_list, v)
        require(got == want, f"2-torsion section: tau.{name} = {got}, not {want}")
    fingerprint = discforms.lattice_fingerprint
    fp_un = fingerprint(lattice.direct_sum([lattice.hyperbolic_plane(), lattice.nikulin()]))
    require(fingerprint(ns) == fp_un, "2-torsion section: NS in the section basis is not U + N")
    return dict(ns_lattice=ns, tau=tau)


# ---------------------------------------------------------------------------
# the 16-gon fiber


def _cycle_gram(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
        g[i][(i + 1) % n] = g[(i + 1) % n][i] = 1
    return g


def i16_component_permutation() -> tuple[int, ...]:
    """Translation action on the 16 components of the I_16 fiber.

    Components C_0..C_15 form a cycle of (-2)-curves; translation by the
    2-torsion section sends C_n to C_{n+8}.  The windows {-2..4} and {6..12}
    are A_7(-1) chains which, completed by the respective section (meeting C_0
    and C_8), carry the two orthogonal E8(-1) blocks; the permutation swaps
    the windows.  Raises CheckFailed, naming the component or the window,
    unless all of this holds; returns the permutation.
    """
    perm = tuple((i + 8) % 16 for i in range(16))
    unpaired = [i for i in range(16) if perm[perm[i]] != i]
    require(not unpaired, f"the I_16 shift is not an involution on components {unpaired}")
    window_a = tuple(i % 16 for i in range(-2, 5))
    window_b = tuple(range(6, 13))
    image = tuple(perm[i] for i in window_a)
    require(set(image) == set(window_b), f"the I_16 shift sends window {window_a} to {image}")

    cycle = _cycle_gram(16)
    a7 = lattice.a_n(7, -1).gram_rows()
    fp_e8 = discforms.lattice_fingerprint(lattice.e8(-1))
    for window, meets in ((window_a, 0), (window_b, 8)):
        chain = [[cycle[i][j] for j in window] for i in window]
        require(chain == a7, f"I_16 window {window} is not an A_7(-1) chain")
        k = window.index(meets)
        g = [row + [int(r == k)] for r, row in enumerate(chain)]
        g.append([int(c == k) for c in range(7)] + [-2])  # the section is a (-2)-curve
        fp = discforms.lattice_fingerprint(lattice.Lattice(g))
        require(fp == fp_e8, f"I_16 window {window} with the section at C_{meets} is not E8(-1)")
    return perm
