"""Constructions that only the tests use, shared by several test modules."""

import functools
from fractions import Fraction

from k3lat import linalg
from k3lat.polyfactor import _add, _divmod, _monic, _mul, _sub
from k3lat.lattice import nikulin_node_coords


def nikulin_permutation_matrix(perm) -> list[list[int]]:
    """Isometry of N induced by a permutation of the eight nodal classes.

    ``perm`` maps old index to new: N_i -> N_{perm[i-1]} (1-based values).
    Nhat = (N_1 + ... + N_8)/2 is fixed, since perm only reorders the sum.
    The matrix acts on column coordinate vectors in the integral basis
    {N_1..N_7, Nhat}.
    """
    images = [nikulin_node_coords(perm[i - 1]) for i in range(1, 8)]
    images.append([0] * 7 + [1])
    return linalg.transpose(images)


def gamma16_basis_vectors() -> list[list[Fraction]]:
    """The integral basis of Gamma16 = D16^+ as rational vectors in Q^16.

    e_i - e_{i+1} for i = 2..15, e_15 + e_16, and the half-sum (e_1+...+e_16)/2.
    """
    basis = []
    for i in range(1, 15):
        v = [Fraction(0)] * 16
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        basis.append(v)
    v = [Fraction(0)] * 16
    v[14] = v[15] = Fraction(1)
    basis.append(v)
    basis.append([Fraction(1, 2)] * 16)
    return basis


def squarefree_part(p):
    """p / gcd(p, p'), monic."""
    return (p // p.gcd(p.derivative())).monic()


# Dense products: every entry summed over every term, zeros included.  The
# sparse products of ``linalg`` must give equal entries.


def dense_mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dense_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dense_dot(v, w, gram):
    return sum(v[i] * sum(gram[i][j] * w[j] for j in range(len(w))) for i in range(len(v)))


def dense_pairing_matrix(vectors, gram):
    gv = [dense_mat_vec(gram, v) for v in vectors]
    return [[sum(x * y for x, y in zip(v, gw)) for gw in gv] for v in vectors]


def per_element_action_table(form, matrix):
    """The induced action on A_M, one element at a time: x -> reduce(sum_i x_i img_i).

    img_i is the class of the image of generator i, each x is summed on its
    own, and the sums use the dense product.
    """
    images = [form.element_of(dense_mat_vec(matrix, list(g))) for g in form.generators]
    table = {}
    for x in form.elements():
        image = [0] * len(x)
        for c, img in zip(x, images):
            image = [a + c * b for a, b in zip(image, img)]
        table[x] = form.reduce(image)
    return table


# Polynomials over Q as lists of Fractions, low degree first, no trailing
# zeros: every coefficient a Fraction, whatever its value.  ``RatPoly`` keeps
# integral coefficients as ints and must agree with these by value.


def fraction_poly(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fraction_poly_add(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    return fraction_poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                          for i in range(n)])


def fraction_poly_neg(a) -> list[Fraction]:
    return [-c for c in a]


def fraction_poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fraction_poly(out)


def fraction_poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Long division by a nonzero b."""
    rem, quo = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        f, shift = rem[-1] / b[-1], len(rem) - len(b)
        quo[shift] = f
        rem = fraction_poly(rem[:shift] + [r - f * c for r, c in zip(rem[shift:], b)])
    return fraction_poly(quo), rem


def fraction_poly_monic(a) -> list[Fraction]:
    return [c / a[-1] for c in a] if a else []


def fraction_poly_gcd(a, b) -> list[Fraction]:
    """Monic gcd by Euclid (zero when both are zero)."""
    while b:
        a, b = b, fraction_poly_divmod(a, b)[1]
    return fraction_poly_monic(a)


def fraction_poly_derivative(a) -> list[Fraction]:
    return fraction_poly([i * c for i, c in enumerate(a)][1:])


# The multifactor Hensel tree (von zur Gathen-Gerhard, *Modern Computer
# Algebra*, Algorithm 15.17): each node splits its factors in two halves g, h
# and lifts f = g h together with s g + t h = 1.  By Hensel's uniqueness the
# per-factor lifts of ``polyfactor._lift`` must equal its leaves.


def _tree_bezout(g, h, p):
    """s, t with s g + t h = 1 mod p, for g and h coprime mod p."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _tree_hensel_step(f, g, h, s, t, m):
    """From f = g h, s g + t h = 1 mod m (h monic) to both mod m^2."""
    mm = m * m
    e = _sub(f, _mul(g, h), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    g, h = _add(g, _add(_mul(t, e), _mul(q, g)), mm), _add(h, r, mm)
    b = _sub(_add(_mul(s, g), _mul(t, h)), [1], mm)
    c, d = _divmod(_mul(s, b), h, mm)
    return g, h, _sub(s, d, mm), _sub(t, _add(_mul(t, b), _mul(c, g)), mm)


def tree_hensel_lift(f, factors, p, steps):
    """Monic lifts mod p^(2^steps) of the monic factors mod p of f = lc(f) prod factors."""
    if len(factors) == 1:
        return [_monic(f, p ** 2 ** steps)]
    half = len(factors) // 2
    g = functools.reduce(lambda x, y: _mul(x, y, p), factors[:half], [f[-1] % p])
    h = functools.reduce(lambda x, y: _mul(x, y, p), factors[half:])
    s, t = _tree_bezout(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _tree_hensel_step(f, g, h, s, t, m)
        m *= m
    return (tree_hensel_lift(g, factors[:half], p, steps)
            + tree_hensel_lift(h, factors[half:], p, steps))
