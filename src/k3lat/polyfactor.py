"""Irreducible factorization of integer polynomials over Q, on Python ints only.

Polynomials are lists (or tuples) of ints, low degree first.  ``_add``,
``_sub`` and ``_mul`` with m = 0, and ``_derivative``, only add and multiply,
so they are exact on int and ``Fraction`` coefficients alike: they and
``_gcd_z`` are also the arithmetic of ``elliptic.RatPoly``.  ``factor`` takes an
integer-primitive polynomial with positive leading coefficient and follows
Zassenhaus (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 14-15):

1. If a p in ``CERTIFYING_PRIMES`` keeps deg f and gcd(f, f') = 1 mod p, f is
   squarefree over Q; the least such p serves step 2.  Otherwise Yun's
   algorithm (1976) splits f into pairwise coprime squarefree parts, each
   factored on its own; its gcds (``_gcd_z``) run the primitive PRS only
   when no such prime proves them 1.
2. A squarefree part is reduced mod the least odd prime that keeps it
   squarefree of the same degree.  Primes are searched upward with no limit.
3. Distinct-degree factorization mod p, then Cantor-Zassenhaus equal-degree
   splitting with a fixed-seed ``random.Random``.
4. Quadratic Hensel lifting, one modular factor at a time and only those of
   degree at most n/2, to p^k > 2 |lc| C(k', k'/2) ||f||_2, with k' the
   largest sum of modular-factor degrees that is at most n/2.  By Mignotte's
   bound (Math. Comp. 28, 1974) this is more than twice every coefficient of
   lc times a factor of degree at most k'.  Each lift is checked to divide f.
5. Recombination: products of subsets of the lifted factors, smallest subsets
   first, but only those whose degree sum is at most half the degree left
   (a reducible f has a factor that small, whose modular factors are all
   lifted; the cofactor covers the rest), kept when they divide exactly over
   Z.  More than 16 modular factors raise UnsupportedError instead of trying
   2^16 or more subsets.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from itertools import combinations

from .errors import UnsupportedError, require

MAX_MODULAR_FACTORS = 16
CERTIFYING_PRIMES = (3, 5, 7)


def _trim(a, m=0):
    """a with coefficients reduced mod m (if m) and trailing zeros dropped."""
    if m:
        a = [c % m for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b, m=0):
    if len(a) < len(b):
        a, b = b, a
    return _trim([*map(operator.add, a, b), *a[len(b):]], m)


def _sub(a, b, m=0):
    return _trim([*map(operator.sub, a, b), *a[len(b):], *(-c for c in b[len(a):])], m)


def _mul(a, b, m=0):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim(out, m)


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _primitive(a):
    """a divided by its content, with positive leading coefficient."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def _symmetric(a, m):
    """Coefficients of a mod m in (-m/2, m/2]."""
    return [c - m if 2 * c > m else c for c in a]


# -- arithmetic mod m, where the divisor's leading coefficient is a unit -------


def _divmod(a, b, m):
    rem, inv, d = list(a), pow(b[-1], -1, m), len(b) - 1
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = quo[i - d] = rem[i] * inv % m
        if q:
            for j, c in enumerate(b, i - d):
                rem[j] -= q * c
    return _trim(quo), _trim(rem[:d], m)


def _rem(a, b, m):
    """The remainder of ``_divmod`` alone, for the callers that drop the quotient."""
    rem, inv, d = list(a), pow(b[-1], -1, m), len(b) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i] * inv % m
        if q:
            for j, c in enumerate(b, i - d):
                rem[j] -= q * c
    return _trim(rem[:d], m)


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p):
    """Monic gcd mod the prime p; a is nonzero."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p)


def _inverse(a, g, p):
    """a^-1 mod (g, p), for a coprime to g mod the prime p (extended Euclid)."""
    r0, r1, s0, s1 = g, _rem(a, g, p), [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1), p)
    require(len(r0) == 1, f"a degree-{len(g) - 1} factor shares a root with its cofactor mod {p}")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0]


def _powmod(a, e, f, p):
    """a^e mod (f, p) for e >= 1, by the bits of e below the leading one."""
    out = a = _rem(a, f, p)
    for bit in bin(e)[3:]:
        out = _rem(_mul(out, out), f, p)
        if bit == "1":
            out = _rem(_mul(out, a), f, p)
    return out


# -- over Z --------------------------------------------------------------------


def _exact_quotient(a, b):
    """a / b when b divides a over Z, else None."""
    if not a:
        return []
    rem, d, lead = list(a), len(b) - 1, b[-1]
    if len(rem) <= d or (rem[0] % b[0] if b[0] else rem[0]):
        return None
    quo = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q, r = divmod(rem[i], lead)
        if r:
            return None
        if q:
            quo[i - d] = q
            for j, c in enumerate(b):
                rem[i - d + j] -= q * c
    return None if any(rem[:d]) else quo


def _divide(a, b):
    q = _exact_quotient(a, b)
    require(q is not None, f"Yun: a degree-{len(b) - 1} gcd does not divide degree {len(a) - 1}")
    return q


def _gcd_z(a, b):
    """Primitive gcd over Z with positive leading coefficient; a is nonzero.

    [1] if a, b are coprime mod a p in ``CERTIFYING_PRIMES`` not dividing lc(a),
    since a common factor keeps its degree mod p (its lc divides lc(a)) and
    divides both reductions: Brown's early exit.  Else the primitive PRS.
    gcd(a, 0) is the primitive part of a, with no prime tried.
    """
    if not b:
        return _primitive(a)
    for p in CERTIFYING_PRIMES:
        if a[-1] % p and len(_gcd(_trim(a, p), _trim(b, p), p)) == 1:
            return [1]
    return _prs(a, b)


def _prs(a, b):
    a, b = _primitive(a), _primitive(b) if b else []
    while b:
        r, lead, d = a, b[-1], len(b) - 1
        while len(r) > d:  # r = lead^k a mod b
            q, s = r[-1], len(r) - 1 - d
            r = [lead * c for c in r]
            for j, c in enumerate(b):
                r[s + j] -= q * c
            r = _trim(r)
        a, b = b, _primitive(r) if r else []
    return a


def squarefree_decomposition(f):
    """Yun: pairs (a, i), f = lc * prod a^i, each a primitive, squarefree, of degree >= 1.

    The a are pairwise coprime; f is any nonzero integer polynomial.
    """
    if len(f) < 2:
        return []
    out, df = [], _derivative(f)
    g = _gcd_z(f, df)
    b, c, i = _divide(f, g), _divide(df, g), 1
    while len(b) > 1:
        # round i splits off the multiplicity-i part, and none exceeds deg f
        require(i < len(f), f"Yun: degree {len(f) - 1}, yet a part of multiplicity {i} is left")
        d = _sub(c, _derivative(b))
        a = _gcd_z(b, d)
        b, c = _divide(b, a), _divide(d, a)
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


# -- mod p factorization -------------------------------------------------------


def _odd_primes(p=3):
    """The primes from the odd p upward."""
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _separable_mod(f, p):
    """Whether f, of degree >= 1, keeps its degree and stays squarefree mod p."""
    return f[-1] % p != 0 and len(_gcd(_trim(f, p), _trim(_derivative(f), p), p)) == 1


def _distinct_degree(f, p):
    """Pairs (g, d), g the product of the degree-d irreducible factors of f mod p.

    f is monic and squarefree mod p.
    """
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors of g mod p, all of degree d (p odd)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gcd(g, a, p)
        if len(b) == 1:
            b = _gcd(g, _sub(_powmod(a, (p ** d - 1) // 2, g, p), [1], p), p)
        if 1 < len(b) < len(g):
            rest = _divmod(g, b, p)[0]
            return _equal_degree(b, d, p, rng) + _equal_degree(rest, d, p, rng)


# -- Hensel lifting and recombination ------------------------------------------


def _newton_inverse(t, q, g, m):
    """From t = q^-1 mod (g, sqrt m) to q^-1 mod (g, m): one Newton step t (2 - q t)."""
    return _rem(_mul(t, _sub([2], _rem(_mul(q, t), g, m), m)), g, m)


def _lift(f, u, p, steps):
    """The monic lift mod p^(2^steps) of a monic factor u mod p of f, f squarefree mod p.

    Each step goes from g | f mod m to g | f mod m^2: with f = q g + e mod m^2
    (so e = 0 mod m) and t = q^-1 mod (g, m), g + (t e rem g) divides f mod m^2.
    t comes from ``_inverse`` mod p, later from a Newton step.  By Hensel's
    uniqueness the lift is the one monic factor of f mod p^(2^steps) that is u.
    """
    g, m = u, p
    for step in range(steps):
        mm = m * m
        q, e = _divmod(f, g, mm)
        t = _newton_inverse(t, q, g, m) if step else _inverse(q, g, p)
        g = _add(g, _rem(_mul(t, e), g, mm), mm)
        m = mm
    require(not _rem(f, g, m), f"a degree-{len(g) - 1} lift does not divide f mod {p}^{2 ** steps}")
    return g


def _recombine(f, lifted, m):
    """Irreducible factors of f over Z from the monic lifts mod m of its factors mod p."""
    out, s = [], 1
    # stop past the largest subset, or once the s lowest-degree factors make over half of f
    while s <= len(lifted) and 2 * sum(sorted(len(u) - 1 for u in lifted)[:s]) <= len(f) - 1:
        for subset in combinations(range(len(lifted)), s):
            if 2 * sum(len(lifted[i]) - 1 for i in subset) > len(f) - 1:
                continue
            g = functools.reduce(lambda x, i: _mul(x, lifted[i], m), subset, [f[-1]])
            g = _primitive(_symmetric(g, m))
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


def _factor_squarefree(f, p=None, start=3):
    """Irreducible factors over Z of a primitive squarefree f with positive lc.

    p, when given, is the least odd prime that keeps f separable; otherwise
    it is searched for here from the odd ``start`` up, no prime below which does.
    """
    if len(f) == 2:
        return [f]
    if p is None:
        p = next(p for p in _odd_primes(start) if _separable_mod(f, p))
    rng = random.Random(0)
    monic = _monic(_trim(f, p), p)
    modular = [u for g, d in _distinct_degree(monic, p) for u in _equal_degree(g, d, p, rng)]
    r = len(modular)
    if r == 1:
        return [f]
    if r > MAX_MODULAR_FACTORS:
        raise UnsupportedError(
            f"a degree-{len(f) - 1} polynomial has {r} factors mod {p}; "
            f"recombination is supported up to {MAX_MODULAR_FACTORS}"
        )
    sums = {0}  # the degrees of the factors _recombine tries
    for u in modular:
        sums |= {d + len(u) - 1 for d in sums}
    k = max(d for d in sums if 2 * d <= len(f) - 1)
    bound = 2 * f[-1] * math.comb(k, k // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    steps = 0
    while p ** 2 ** steps <= bound:
        steps += 1
    # a factor of more than half the degree is in no subset _recombine tries
    lifted = [_lift(f, u, p, steps) for u in modular if 2 * (len(u) - 1) <= len(f) - 1]
    return _recombine(f, lifted, p ** 2 ** steps)


@functools.lru_cache(maxsize=512)
def factor(f: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Irreducible factors over Z of an integer-primitive f with positive lc.

    Returns (factor, multiplicity) pairs, each factor primitive with positive
    leading coefficient, sorted by degree and then coefficients.  Constants
    have no factors.
    """
    if len(f) < 2:
        return ()
    # the first of CERTIFYING_PRIMES that keeps f separable is the least odd
    # prime that does, so _factor_squarefree need not search again
    p = next((p for p in CERTIFYING_PRIMES if _separable_mod(f, p)), None)
    if p:
        out = [(tuple(g), 1) for g in _factor_squarefree(list(f), p)]
    else:  # CERTIFYING_PRIMES all failed f, so a part that is f searches past them
        past = CERTIFYING_PRIMES[-1] + 2
        out = [(tuple(g), e) for a, e in squarefree_decomposition(list(f))
               for g in _factor_squarefree(a, start=past if a == list(f) else 3)]
    return tuple(sorted(out, key=lambda ge: (len(ge[0]), ge[0])))
