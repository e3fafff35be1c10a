"""Irreducible factorization of integer polynomials over Q, on Python ints only.

Polynomials are lists (or tuples) of ints, low degree first.  ``factor`` takes
an integer-primitive polynomial with positive leading coefficient and follows
Zassenhaus (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 14-15):

1. If an odd prime p not dividing the leading coefficient keeps gcd(f, f') = 1
   mod p, f is squarefree over Q.  Otherwise Yun's algorithm (1976) splits f
   into pairwise coprime squarefree parts, each factored on its own.
2. A squarefree part is reduced mod the least odd prime that keeps it
   squarefree of the same degree.  Primes are searched upward with no limit.
3. Distinct-degree factorization mod p, then Cantor-Zassenhaus equal-degree
   splitting with a fixed-seed ``random.Random``.
4. Quadratic multifactor Hensel lifting to p^k > 2 |lc| 2^n ||f||_2, which
   bounds twice every coefficient of lc times a factor of f.
5. Recombination: products of subsets of the lifted factors, smallest subsets
   first, kept when they divide exactly over Z.  More than 16 modular factors
   raise UnsupportedError instead of trying 2^16 or more subsets.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import combinations

from .errors import UnsupportedError, require

MAX_MODULAR_FACTORS = 16


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
    return _trim([c + b[i] if i < len(b) else c for i, c in enumerate(a)], m)


def _sub(a, b, m=0):
    return _add(a, [-c for c in b], m)


def _mul(a, b, m=0):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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
    inv = pow(b[-1], -1, m)
    rem, d = list(a), len(b) - 1
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i] * inv % m
        if q:
            quo[i - d] = q
            for j, c in enumerate(b):
                rem[i - d + j] -= q * c
    return _trim(quo), _trim(rem[:d], m)


def _monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p):
    """Monic gcd mod the prime p; a is nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _bezout(g, h, p):
    """s, t with s g + t h = 1 mod p, for g and h coprime mod p."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    require(len(r0) == 1, f"factors of degrees {len(g) - 1} and {len(h) - 1} share a root mod {p}")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, p):
    """a^e mod (f, p)."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a), f, p)[1]
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
    """Primitive gcd over Z with positive leading coefficient (primitive PRS)."""
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
        d = _sub(c, _derivative(b))
        a = _gcd_z(b, d)
        b, c = _divide(b, a), _divide(d, a)
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


# -- mod p factorization -------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _separable_mod(f, p):
    """Whether f keeps its degree and stays squarefree mod p."""
    if f[-1] % p == 0:
        return False
    df = _trim(_derivative(f), p)
    return bool(df) and len(_gcd(_trim(f, p), df, p)) == 1


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
            h = _divmod(h, f, p)[1]
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


def _hensel_factors(f, g, h, s, t, m):
    """From f = g h, s g + t h = 1 mod m (h monic) to f = g h mod m^2."""
    mm = m * m
    e = _sub(f, _mul(g, h), mm)
    q, r = _divmod(_mul(s, e), h, mm)
    return _add(g, _add(_mul(t, e), _mul(q, g)), mm), _add(h, r, mm)


def _hensel_bezout(g, h, s, t, m):
    """From s g + t h = 1 mod m to the same mod m^2, for the lifted g and h."""
    mm = m * m
    b = _sub(_add(_mul(s, g), _mul(t, h)), [1], mm)
    c, d = _divmod(_mul(s, b), h, mm)
    return _sub(s, d, mm), _sub(t, _add(_mul(t, b), _mul(c, g)), mm)


def _lift(f, factors, p, steps):
    """Monic lifts mod p^(2^steps) of the monic factors mod p of f = lc(f) prod factors."""
    if len(factors) == 1:
        return [_monic(f, p ** 2 ** steps)]
    half = len(factors) // 2
    g = functools.reduce(lambda x, y: _mul(x, y, p), factors[:half], [f[-1] % p])
    h = functools.reduce(lambda x, y: _mul(x, y, p), factors[half:])
    s, t = _bezout(g, h, p)
    m = p
    for step in range(steps):
        g, h = _hensel_factors(f, g, h, s, t, m)
        if step < steps - 1:  # the last s and t would go unused
            s, t = _hensel_bezout(g, h, s, t, m)
        m *= m
    return _lift(g, factors[:half], p, steps) + _lift(h, factors[half:], p, steps)


def _recombine(f, lifted, m):
    """Irreducible factors of f over Z from the monic lifts mod m of its factors mod p."""
    out, s = [], 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
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


def _factor_squarefree(f, p=None):
    """Irreducible factors over Z of a primitive squarefree f with positive lc.

    p, when given, is the least odd prime that keeps f separable; otherwise
    it is searched for here.
    """
    if len(f) == 2:
        return [f]
    if p is None:
        p = next(p for p in _odd_primes() if _separable_mod(f, p))
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
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    steps = 0
    while p ** 2 ** steps <= bound:
        steps += 1
    return _recombine(f, _lift(f, modular, p, steps), p ** 2 ** steps)


@functools.lru_cache(maxsize=512)
def factor(f: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Irreducible factors over Z of an integer-primitive f with positive lc.

    Returns (factor, multiplicity) pairs, each factor primitive with positive
    leading coefficient, sorted by degree and then coefficients.  Constants
    have no factors.
    """
    if len(f) < 2:
        return ()
    # the primes below p divide lc(f), so if p keeps f separable it is the
    # least such prime and _factor_squarefree need not search again
    p = next(p for p in _odd_primes() if f[-1] % p)
    if _separable_mod(f, p):
        out = [(tuple(g), 1) for g in _factor_squarefree(list(f), p)]
    else:
        parts = squarefree_decomposition(list(f))
        out = [(tuple(g), e) for a, e in parts for g in _factor_squarefree(a)]
    return tuple(sorted(out, key=lambda ge: (len(ge[0]), ge[0])))
