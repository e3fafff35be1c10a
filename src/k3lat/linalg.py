"""Exact linear algebra over Z and Q.

Everything here works on plain lists of Python ints or ``Fraction``s, so all
results are exact for arbitrary magnitudes.  Matrices are row-major lists of
rows; a "vector" is a flat list of coordinates.  No floating point is used
anywhere in the package.  The kernels run on ints: one fraction-free
symmetric (Bareiss) elimination gives a Gram matrix's signature, its
determinant (the last pivot) and the pivot rows that bound the short-vector
search; Hermite and Smith normal forms use integer row and column
operations.  Every Bareiss division is exact.  ``exact_rational`` is the
one rule for a number from outside: an int, a Fraction or text like "-3/2",
never a float or "1e3"; ``exact_entries`` reads the lists of ``exact_ints``
(a list of plain ints needs no reading), ``clear_denominators`` and
``RatPoly`` through it, and ``clear_denominators`` is the one place a
rational vector becomes integers.  Two routines have no
caller in the package: ``rational_inverse``, the one that works over Q, and
the general ``bareiss_determinant``; the tests call both as oracles, and
perfbench's tracer counts their calls.

The products (``mat_mul``, ``mat_vec``, ``dot`` with a Gram and
``pairing_matrix``) skip zero entries, since the push/pull matrices, the
permutations and the reflections they see are mostly zeros.  Their entries
equal the dense product's, but a sum all of whose ``Fraction`` terms were
zeros comes back as an int: compare results with ``==`` and divide them with
``//`` or ``Fraction``, never ``/``.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import BadInputError, DegenerateGramError, require

IntMatrix = list[list[int]]

_RATIONAL_TEXT = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*")
_INT_TYPE = frozenset({int})


def exact_rational(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction: the one rule for outside numbers.

    Accepted: an int (a bool counts as one), a Fraction, or the text
    ``[-+]digits`` or ``[-+]digits/digits`` with whitespace around it.  A
    float, decimal or exponent text ("1.5", "1e3") and anything else raise
    BadInputError, so no text is expanded before it is refused.
    """
    if isinstance(x, int):
        return int(x)
    value = x
    if isinstance(x, str) and (match := _RATIONAL_TEXT.fullmatch(x)):
        try:
            value = Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # ValueError: past the digit limit
            pass
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(x, float):
        raise BadInputError(f"entry {x!r} is a float, not an exact rational")
    raise BadInputError(f"entry {x!r} is not an exact rational")


def exact_entries(values) -> list[int | Fraction]:
    """exact_rational of each entry of a list or tuple; ints pass as they are."""
    if not isinstance(values, (list, tuple)):
        raise BadInputError(f"expected a list of exact rationals, got {type(values).__name__}")
    return [x if type(x) is int else exact_rational(x) for x in values]


def exact_ints(values, what: str) -> list[int]:
    """The entries of ``values`` as ints; BadInputError unless each is an integer exact rational."""
    if isinstance(values, (list, tuple)) and set(map(type, values)) <= _INT_TYPE:
        return list(values)  # all plain ints, the common case, checked in one C-level pass
    try:
        ints = exact_entries(values)
    except BadInputError as exc:
        raise BadInputError(f"{what} must be integers") from exc
    if any(type(x) is not int for x in ints):
        raise BadInputError(f"{what} must be integers")
    return ints


def clear_denominators(values) -> tuple[int, list[int]]:
    """(den, den * values) on ints, with den the least denominator that clears them.

    Entries are read by ``exact_rational``; ints and Fractions build no new Fraction.
    """
    values = exact_entries(values)
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions.

    Each row of the product accumulates x * b[k] over the nonzero entries x =
    row[k] only.
    """
    if not a or not b:
        return []
    width = len(b[0])
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def _nonzero(v) -> list[tuple[int, object]]:
    """(index, coordinate) for the nonzero coordinates of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def mat_vec(a, v):
    """a v, summed over the nonzero coordinates of v only."""
    nz = _nonzero(v)
    return [sum(row[j] * x for j, x in nz) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def is_symmetric(mat) -> bool:
    n = len(mat)
    return all(len(row) == n for row in mat) and all(
        mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n)
    )


def dot(v, w, gram=None):
    """Pairing of two coordinate vectors, optionally against a Gram matrix."""
    if gram is None:
        return sum(x * y for x, y in zip(v, w))
    nz = _nonzero(w)
    return sum(x * sum(gram[i][j] * y for j, y in nz) for i, x in _nonzero(v))


def pairing_matrix(vectors, gram):
    """Gram matrix of a family of coordinate vectors under ``gram``."""
    gv = [mat_vec(gram, v) for v in vectors]
    return [[sum(gw[j] * x for j, x in nz) for gw in gv] for nz in map(_nonzero, vectors)]


def bareiss_determinant(mat) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rational_inverse(mat):
    """Inverse of a square matrix as Fractions (Gauss-Jordan)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise BadInputError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def hermite_normal_form(rows) -> IntMatrix:
    """Row-style Hermite normal form of an integer row span.

    Returns the nonzero rows: echelon shape, positive pivots, entries above
    each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    pr = 0
    for col in range(n):
        while True:
            nz = [r for r in range(pr, m) if mat[r][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(mat[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = mat[r][col] // mat[r0][col]
                if q:
                    mat[r] = [a - q * b for a, b in zip(mat[r], mat[r0])]
        nz = [r for r in range(pr, m) if mat[r][col] != 0]
        if not nz:
            continue
        mat[pr], mat[nz[0]] = mat[nz[0]], mat[pr]
        if mat[pr][col] < 0:
            mat[pr] = [-a for a in mat[pr]]
        for r in range(pr):
            q = mat[r][col] // mat[pr][col]
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[pr])]
        pr += 1
        if pr == m:
            break
    return mat[:pr]


def smith_normal_form(mat, keep=True):
    """Smith normal form with transforms: returns (d, u, v) with u*mat*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries forming a
    divisibility chain d_1 | d_2 | ...  The elimination is memoized on the
    integer rows of mat (``_smith``), so a matrix is eliminated once; a caller
    with a memo of its own (``discriminant_form``) passes keep=False, which
    eliminates without filling this one.  Each call returns new lists, which
    the caller may change.
    """
    smith = _smith if keep else _smith.__wrapped__
    return tuple([list(row) for row in part] for part in smith(tuple(map(tuple, mat))))


# a verify-paper pass asks for 10 distinct matrices, cold or warm, so a pass
# never evicts its own
@functools.lru_cache(maxsize=64)
def _smith(mat: tuple[tuple[int, ...], ...]):
    """``smith_normal_form`` as tuples of rows, the form its memo keeps."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [list(row) for row in mat]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, c):
        for r in d:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    t = 0
    bound = min(m, n)
    while t < bound:
        # the first entry of least nonzero size in row-major order; nothing
        # comes before a unit, so the search stops at the first one
        best = None
        for entry in ((abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j]):
            if best is None or entry[0] < best[0]:
                best = entry
                if entry[0] == 1:
                    break
        if best is None:
            break
        _, i, j = best
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        p = d[t][t]
        for i in range(t + 1, m):
            q = d[i][t] // p
            if q:
                add_row(i, t, -q)
        for j in range(t + 1, n):
            q = d[t][j] // p
            if q:
                add_col(j, t, -q)
        if p not in (1, -1):  # a unit leaves no remainders and divides everything
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                continue  # remainders are strictly smaller pivots; redo this corner
            viol = next((i for i in range(t + 1, m)
                         if any(d[i][j] % p for j in range(t + 1, n))), None)
            if viol is not None:
                add_row(t, viol, 1)
                continue
        if p < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        t += 1
    return tuple(tuple(map(tuple, part)) for part in (d, u, v))


def invariant_factors(mat) -> list[int]:
    """Diagonal of the Smith normal form (positive entries, chain order)."""
    d, _, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(abs(d[i][i]))
    return out


def integer_kernel(mat) -> list[list[int]]:
    """Basis of {x in Z^n : mat @ x = 0}; always primitive (saturated)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [list(row) for row in identity_matrix(n)]
    d, _, v = smith_normal_form(mat)
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return [[v[row][col] for row in range(n)] for col in range(rank, n)]


def signature_of_symmetric(gram) -> tuple[int, int, IntMatrix]:
    """Signature and fraction-free pivot rows of a symmetric integer matrix.

    Returns (pos, neg, rows).  Fraction-free symmetric Bareiss elimination
    (Bareiss, Math. Comp. 22, 1968): after step i every entry (r, c) of the
    trailing block is the minor of the rows 0..i, r and the columns 0..i, c,
    so each division by the previous pivot is exact, and it is checked to be.
    rows[i] is entries i..n-1 of step i's row: rows[i][0] is the pivot
    D_{i+1}, a leading principal minor, and rows[i][c - i] = a_ic.  The row
    and column swaps and the pair trick below are unimodular congruences, so
    the last pivot rows[-1][0] is det(gram).  The LDL^T pivot D_{i+1}/D_i has
    the sign sign(D_{i+1}) sign(D_i), and Sylvester's law of inertia counts
    those signs.  When no pivoting happens (a definite form, for one), the
    rows give x.gram.x = sum_i (D_{i+1} x_i + sum_{c>i} a_ic x_c)^2 / (D_i D_{i+1})
    with D_0 = 1.  When the trailing diagonal is all zero, a row and column
    with a nonzero off-diagonal entry a_kl is added to row and column k, a
    congruence that makes the new a_kk = 2 a_kl nonzero.  Raises
    DegenerateGramError on a degenerate form.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for i in range(n):
        piv = i if a[i][i] else next((k for k in range(i, n) if a[k][k] != 0), None)
        if piv is None:
            pair = next(
                ((k, l) for k in range(i, n) for l in range(k + 1, n) if a[k][l] != 0),
                None,
            )
            if pair is None:
                raise DegenerateGramError(
                    "symmetric form is degenerate (zero block of size %d)" % (n - i)
                )
            k, l = pair
            for c in range(i, n):
                a[k][c] += a[l][c]
            for r in range(i, n):
                a[r][k] += a[r][l]
            piv = k
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            for r in range(i, n):
                a[r][i], a[r][piv] = a[r][piv], a[r][i]
        p = a[i][i]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[i]
        inexact = []
        for r in range(i + 1, n):  # the upper triangle, mirrored into the lower one
            row = a[r]
            f = row[i]
            for c in range(r, n):
                row[c], rem = divmod(row[c] * p - f * top[c], prev)
                if rem:
                    inexact.append((r, c))
                a[c][r] = row[c]
        if inexact:  # the message is formatted only on failure: this runs at every pivot
            require(False, f"Bareiss division by {prev} is inexact at {inexact[:3]}")
        prev = p
    return pos, neg, [a[i][i:] for i in range(n)]
