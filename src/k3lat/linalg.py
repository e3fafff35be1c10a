"""Exact linear algebra over Z and Q.

Everything here works on plain lists of Python ints or ``Fraction``s, so all
results are exact for arbitrary magnitudes.  Matrices are row-major lists of
rows; a "vector" is a flat list of coordinates.  No floating point is used
anywhere in the package.  The kernels run on ints: one fraction-free
symmetric (Bareiss) elimination gives a Gram matrix's signature, its
determinant (the last pivot) and the pivot rows that bound the short-vector
search; the general Bareiss determinant serves non-symmetric coordinate
matrices; Hermite and Smith normal forms use integer row and column
operations.  Every Bareiss division is exact.  Only ``rational_inverse``
works over Q.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadInputError, DegenerateGramError, require

IntMatrix = list[list[int]]


def exact_ints(values, what: str) -> list[int]:
    """``values`` as a list of ints; BadInputError unless each one is an integer."""
    try:
        values = list(values)
        ints = [int(x) for x in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInputError(f"{what} must be integers") from exc
    if ints != values:
        raise BadInputError(f"{what} must be integers")
    return ints


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(a, b):
    """Matrix product; entries may be ints or Fractions."""
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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
    return sum(v[i] * sum(gram[i][j] * w[j] for j in range(len(w))) for i in range(len(v)))


def pairing_matrix(vectors, gram):
    """Gram matrix of a family of coordinate vectors under ``gram``."""
    gv = [mat_vec(gram, v) for v in vectors]
    return [[sum(x * y for x, y in zip(v, gw)) for gw in gv] for v in vectors]


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


def rank_mod2(mat) -> int:
    """Rank of an integer matrix over F_2 (bitmask elimination)."""
    rows = []
    for row in mat:
        bits = 0
        for j, x in enumerate(row):
            if x % 2:
                bits |= 1 << j
        if bits:
            rows.append(bits)
    rank = 0
    while rows:
        piv = min(rows, key=lambda b: b & -b)
        low = piv & -piv
        rows = [b ^ piv if b & low else b for b in rows if (b ^ piv if b & low else b)]
        if piv in rows:
            rows.remove(piv)
        rank += 1
    return rank


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


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (d, u, v) with u*mat*v = d.

    u and v are unimodular; d is diagonal with nonnegative entries forming a
    divisibility chain d_1 | d_2 | ...
    """
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
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(best[0], t)
        if best[1] != t:
            swap_cols(best[1], t)
        for i in range(t + 1, m):
            q = d[i][t] // d[t][t]
            if q:
                add_row(i, t, -q)
        for j in range(t + 1, n):
            q = d[t][j] // d[t][t]
            if q:
                add_col(j, t, -q)
        if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
            continue  # remainders are strictly smaller pivots; redo this corner
        viol = None
        for i in range(t + 1, m):
            if any(d[i][j] % d[t][t] for j in range(t + 1, n)):
                viol = i
                break
        if viol is not None:
            add_row(t, viol, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        t += 1
    return d, u, v


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
