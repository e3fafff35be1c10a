"""End-to-end verification checks behind ``k3lat verify-paper``.

Each criterion is a function that raises CheckFailed (``errors.require``, kept
under ``python -O``, with a message naming what broke) or a domain error on
failure and returns a small detail dict on success.  A library function that
computes a claim enforces it the same way and returns only data, so a
criterion never unpacks flags.  The test suite runs the same functions one by
one; the CLI runs them all and prints a pass/fail line per criterion.
Everything is exact integer/rational arithmetic; the only randomness is the
seeded draw of Weierstrass coefficients, reproducible via the seed argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .discforms import (
    discriminant_form,
    lattice_fingerprint,
    orbits_under_generators,
    qK_on_U2_cubed,
)
from .elliptic import (
    MODULI_COUNT,
    RatPoly,
    WeierstrassFibration,
    fiber_configuration,
    i16_component_permutation,
    shioda_tate,
    torsion_section_translation_data,
    two_isogeny_quotient,
)
from .errors import K3LatError, require
from .gluing import (
    nikulin_square_in_gamma16,
    nikulin_square_overlattice,
    u2cubed_nikulin_overlattice,
)
from .involution import (
    QuotientCohomology,
    invariant_and_antiinvariant,
    str_invariants,
    swap_involution,
)
from .lattice import (
    DEFAULT_SEED,
    _MODULI_EXAMPLES,
    a_n,
    direct_sum,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    gamma16,
    hyperbolic_plane,
    nikulin,
    rank_one,
    sublattice_index,
)
from .nsfamilies import (
    classify_ns,
    count_invariant_monomials,
    det_square_class_obstruction,
    eigenspace_dimensions,
    k3_model_with_u_plus_n,
    moduli_dimension,
    morrison_nikulin_lattices,
    tilde_family,
    transcendental_fingerprint,
)


def check_unimodular_glue() -> dict:
    """Glue of U(2)^3 + N along the six half-vectors: even, det -1, (3,11), index 2^6."""
    over = u2cubed_nikulin_overlattice()
    lat = over.lattice
    require(lat.is_even, "U(2)^3 + N glue: the glued lattice is not even")
    require(lat.determinant == -1, f"U(2)^3 + N glue: det {lat.determinant} != -1")
    require(lat.signature.as_pair() == (3, 11), f"U(2)^3 + N glue: signature {lat.signature}")
    # unimodular, so the glue group is the graph of an anti-isometry from
    # A_U(2)^3, the hyperbolic (Z/2)^6 that qK_on_U2_cubed checks
    order = qK_on_U2_cubed()["elements_checked"]
    require(
        over.glue_order == order,
        f"U(2)^3 + N glue: index {over.glue_order} != |A_U(2)^3| = {order}",
    )
    return {"det": lat.determinant, "signature": [3, 11], "index": over.glue_order}


def check_gamma16_glue() -> dict:
    """Diagonal glue of N + N: even unimodular negative definite rank 16, 480 roots of index-2 span."""
    over = nikulin_square_overlattice()
    lat = over.lattice
    require(lat.rank == 16 and lat.is_even, f"N + N glue: rank {lat.rank}, even {lat.is_even}")
    require(lat.determinant == 1, f"N + N glue: det {lat.determinant} != 1")
    require(lat.signature.as_pair() == (0, 16), f"N + N glue: signature {lat.signature}")
    require(over.glue_order == 64, f"N + N glue: index {over.glue_order} != 2^6")
    roots = enumerate_vectors_of_norm(lat, -2)
    require(len(roots) == 480, f"N + N glue: root count {len(roots)} != 480")
    idx = sublattice_index(lat, roots)
    require(idx == 2, f"N + N glue: root span index {idx} != 2 (it would be root-generated)")
    gamma = lattice_fingerprint(gamma16(-1))
    require(lattice_fingerprint(lat) == gamma, "N + N glue: the fingerprint is not Gamma16(-1)'s")
    index = nikulin_square_in_gamma16()
    require(index == 64, f"N + N -> Gamma16(-1): index {index} != 2^6")
    return {"roots": len(roots), "root_span_index": idx, "embedding_index": index}


def check_root_counts() -> dict:
    """240 roots in E8(-1); none of norm -2 in E8(-2)."""
    roots = enumerate_vectors_of_norm(e8(-1), -2)
    require(len(roots) == 240, f"E8(-1) root count {len(roots)} != 240")
    empty = enumerate_vectors_of_norm(e8(-2), -2)
    require(not empty, f"E8(-2) contains norm -2 vectors, e.g. {empty[:1]}")
    return {"e8_roots": len(roots), "e8_twisted_norm2": len(empty)}


def check_transfer_maps() -> dict:
    """Push/pull identities: adjunction, doubling, push o pull = 2, nodal classes."""
    model = QuotientCohomology()
    report = model.adjunction_report()
    fp = report["y_full_fingerprint"]
    require((fp.rank, fp.signature, fp.determinant) == (22, (3, 19), -1), f"glued Y lattice {fp}")
    glue_image = model.pull(
        [Fraction(1, 2), 0, 0, 0, 0, 0]
        + [0, 0, 0, Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), 1]
        + [0] * 8
    )
    expected = [0] * 30
    expected[0] = 1
    for i in (22, 23, 24, 29):
        expected[i] = 1
    require(glue_image == expected, f"pull of the glue vector gave {glue_image}")
    nhat = [0] * 22
    nhat[13] = 1
    require(model.pull(nhat) == [0] * 22 + [1] * 8, "pull of N-hat != E_1 + ... + E_8")
    return {"checks": report["checks"], "str": report["str"]}


def check_involution_invariants() -> dict:
    """(s,t,r) = (6,0,8) and the fixed/anti-fixed fingerprints."""
    module = swap_involution()
    inv = str_invariants(module)
    require((inv.s, inv.t, inv.r) == (6, 0, 8), f"(s,t,r) = {(inv.s, inv.t, inv.r)}")
    pair = invariant_and_antiinvariant(module)
    fp_inv = lattice_fingerprint(pair.invariant)
    fp_anti = lattice_fingerprint(pair.anti_invariant)
    expect_inv = lattice_fingerprint(
        direct_sum([hyperbolic_plane()] * 3 + [e8(-2)])
    )
    expect_anti = lattice_fingerprint(e8(-2))
    require(fp_inv == expect_inv, "invariant sublattice fingerprint is not that of U^3 + E8(-2)")
    require(fp_anti == expect_anti, "anti-invariant sublattice fingerprint is not that of E8(-2)")
    gram = module.lattice.gram
    clash = [(u, v) for u in pair.invariant_basis for v in pair.anti_invariant_basis
             if linalg.dot(u, v, gram) != 0]
    require(not clash, f"invariant and anti-invariant vectors {clash[:1]} are not orthogonal")
    return {"str": (inv.s, inv.t, inv.r), "invariant_rank": pair.invariant.rank}


def check_ns_classification() -> dict:
    """Family counts for 2d <= 40, glue parity conditions, O(q_E) orbits."""
    counts = {}
    for two_d in range(2, 42, 2):
        families = classify_ns(two_d)
        expected = 1 if two_d % 4 == 2 else 2
        require(len(families) == expected, f"2d={two_d}: {len(families)} families")
        counts[two_d] = len(families)
        if expected == 2:
            tilde = families[1]
            require(tilde.lattice.is_even, f"2d={two_d}: the tilde family is not even")
            det, plain = tilde.lattice.determinant, families[0].lattice.determinant
            require(det * 4 == plain, f"2d={two_d}: tilde det {det} != plain det {plain} / 4")
    form = discriminant_form(e8(-2))
    orbits = orbits_under_generators(form, e8_simple_reflections())
    require(len(orbits) == 3, f"{len(orbits)} W(E8) orbits on A_E8(-2)")
    level_sets = {}
    for x, qx in form.q_numerators.items():
        level_sets.setdefault(qx if any(x) else "zero", set()).add(x)
    orbit_sets = {frozenset(o) for o in orbits}
    levels = {frozenset(s) for s in level_sets.values()}
    require(orbit_sets == levels, "W(E8) orbits on A_E8(-2) are not the q level sets")
    sizes = sorted(len(o) for o in orbits)
    require(sizes == [1, 120, 135], f"W(E8) orbit sizes {sizes} on A_E8(-2)")
    return {"family_counts": counts, "orbit_sizes": sizes}


def check_square_class() -> dict:
    """Obstruction ratio 2^(d+2), d = 14 - rank_T, square iff rank_T even."""
    out = {}
    for rank_t in range(1, 14):
        rep = det_square_class_obstruction(rank_t)
        require(rep.det_ratio_numerator == 2 ** (rep.d + 2), f"ratio != 2^(d+2) in {rep}")
        require(rep.d == 14 - rank_t, f"d != 14 - rank_T in {rep}")
        require(rep.is_square == (rank_t % 2 == 0), f"wrong square class in {rep}")
        out[rank_t] = rep.is_square
    return {"is_square_by_rank": out}


def check_eigenspaces_and_moduli() -> dict:
    """Eigenspace dimension tables and the six moduli counts (all 11)."""
    cases = [
        (6, "plain", (3, 2, 6, 2)),
        (2, "plain", (2, 1, 6, 2)),
        (8, "plain", (3, 3, 4, 4)),
        (8, "tilde", (4, 2, 8, 0)),
        (4, "tilde", (3, 1, 8, 0)),
        (12, "plain", (4, 4, 4, 4)),
    ]
    for two_d, variant, expected in cases:
        rep = eigenspace_dimensions(two_d, variant)
        got = (rep.h_plus, rep.h_minus, rep.fixed_points_plus, rep.fixed_points_minus)
        require(got == expected, f"eigenspaces({two_d},{variant}) = {got} != {expected}")
    for args, count in (((3, {0}, 6), 16), ((4, {0, 1}, 4), 19), ((6, {3, 4, 5}, 2), 12)):
        got = count_invariant_monomials(*args)
        require(got == count, f"count_invariant_monomials{args} = {got} != {count}")
    dims = {}
    for example in _MODULI_EXAMPLES:
        dims[example] = moduli_dimension(example)
        require(dims[example] == 11, f"{example} moduli {dims[example]} != 11")
    return {"moduli": dims}


def _random_weierstrass(rng: random.Random) -> WeierstrassFibration:
    # General member of the family: deg(a^2 - 4b) = 8 (good fiber at infinity),
    # b and a^2 - 4b squarefree and coprime.  Screened with gcds only, never
    # with ``factor``, the factorization under test; a gcd is certified 1 mod
    # a small prime, and only an uncertified pair runs the PRS over Z.
    nonzero = [-3, -2, -1, 1, 2, 3]
    while True:
        lead_a = rng.choice(nonzero)
        lead_b = rng.choice(nonzero)
        if lead_a * lead_a == 4 * lead_b:
            continue
        a = RatPoly([rng.randint(-5, 5) for _ in range(4)] + [lead_a])
        b = RatPoly([rng.randint(-5, 5) for _ in range(8)] + [lead_b])
        fib = WeierstrassFibration(a, b)
        if b.gcd(b.derivative()).degree > 0:
            continue
        if fib.c.gcd(fib.c.derivative()).degree > 0:
            continue
        if b.gcd(fib.c).degree > 0:
            continue
        return fib


def check_generic_family(seed: int = DEFAULT_SEED) -> dict:
    """20 seeded degree-(4,8) pairs: 8 I_1 + 8 I_2, quotient swaps, NS and T data."""
    rng = random.Random(seed)
    a2m4b_weight = b_weight = 0
    for draw in range(20):
        fib = _random_weierstrass(rng)
        tors = torsion_section_translation_data(fib)  # raises unless 8 I_1 + 8 I_2 on their loci
        for place in tors.fibers.places:
            if place.kodaira == "I2":
                b_weight += place.degree
            elif place.kodaira == "I1":
                a2m4b_weight += place.degree
        quot = two_isogeny_quotient(fib)
        qrep = fiber_configuration(quot)
        weights = (qrep.weight("I2"), qrep.weight("I1"))
        require(weights == (8, 8), f"draw {draw}: quotient I_2, I_1 weights {weights}")
        i2 = [p for p in qrep.places if p.kodaira == "I2"]
        off = [p.location for p in i2 if not p.factor.divides(fib.c)]
        require(not off, f"draw {draw}: quotient I_2 at {off}, off the (a^2-4b)-locus")
    rank, disc = shioda_tate([(2, 8), (1, 8)], torsion_order=2)
    require((rank, disc) == (10, Fraction(64)), f"shioda-tate {(rank, disc)}")
    require(20 - rank == MODULI_COUNT, f"moduli of the family 20 - {rank} != {MODULI_COUNT}")
    ambient, ns_basis = k3_model_with_u_plus_n()
    fp_t = transcendental_fingerprint(ambient, ns_basis)
    expect = lattice_fingerprint(direct_sum([hyperbolic_plane()] * 2 + [nikulin()]))
    require(fp_t == expect, "transcendental fingerprint is not that of U^2 + N")
    require(fp_t.signature == (2, 10), f"transcendental signature {fp_t.signature}")
    return {
        "trials": 20,
        "i1_weight_on_a2m4b": a2m4b_weight // 20,
        "i2_weight_on_b": b_weight // 20,
        "shioda_tate": [rank, str(disc)],
        "transcendental_signature": list(fp_t.signature),
    }


def check_sixteen_gon_family(seed: int = DEFAULT_SEED) -> dict:
    """The t^4-family: 8 I_1 + I_16 at infinity, quotient 8 I_2 + I_8, rank-17 pair."""
    rng = random.Random(seed + 1)
    for draw in range(5):
        while True:
            a = RatPoly([rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), 0, 1])
            fib = WeierstrassFibration(a, RatPoly([1]))
            if fib.c.gcd(fib.c.derivative()).degree == 0:  # general member: 8 simple zeroes
                break
        rep = fiber_configuration(fib)
        require(rep.weight("I1") == 8, f"draw {draw}: I1 weight {rep.weight('I1')}")
        inf = [p.kodaira for p in rep.places if p.factor is None]
        require(inf == ["I16"], f"draw {draw}: {inf} at infinity, not I16")
        quot = two_isogeny_quotient(fib)
        qrep = fiber_configuration(quot)
        require(qrep.weight("I2") == 8, f"draw {draw}: quotient I2 weight {qrep.weight('I2')}")
        qinf = [p.kodaira for p in qrep.places if p.factor is None]
        require(qinf == ["I8"], f"draw {draw}: quotient has {qinf} at infinity, not I8")
        double = two_isogeny_quotient(quot)
        require(double.a == 4 * fib.a and double.b == 16 * fib.b, f"draw {draw}: not (4a, 16b)")
        dd = fiber_configuration(double)
        require(dd.places == rep.places, f"draw {draw}: the double quotient has other fibers")
    rank, disc = shioda_tate([(16, 1), (1, 8)], torsion_order=2)
    require((rank, disc) == (17, Fraction(4)), f"shioda-tate {(rank, disc)}")
    mn = morrison_nikulin_lattices(2)
    fp_ns, fp_t = mn.ns_fingerprint, mn.t_fingerprint
    fp_minus = lattice_fingerprint(mn.ns.twist(-1))  # the form of NS(-1) is -q_NS
    opposite = (fp_t.invariant_factors, fp_t.q_histogram) == (
        fp_minus.invariant_factors, fp_minus.q_histogram
    )
    require(opposite, f"rank-17 pair: q_T != -q_NS for {fp_ns} and {fp_t}")
    expect_ns = lattice_fingerprint(direct_sum([rank_one(4), e8(-1), e8(-1)]))
    require(fp_ns == expect_ns, "rank-17 NS fingerprint is not that of <4> + E8(-1)^2")
    expect_t = lattice_fingerprint(direct_sum([rank_one(-4)] + [hyperbolic_plane()] * 2))
    require(fp_t == expect_t, "rank-17 T fingerprint is not that of <-4> + U^2")
    shift = i16_component_permutation()  # raises unless it swaps the two E8(-1) windows
    return {"shioda_tate": [rank, str(disc)], "component_shift": list(shift)}


def check_property_suites() -> dict:
    """|A_M| = |det M|, polarization, monomial-count sums, glue determinant law."""
    stock = [
        hyperbolic_plane(),
        hyperbolic_plane(2),
        hyperbolic_plane(-1),
        e8(-1),
        e8(-2),
        nikulin(),
        a_n(2),
        a_n(3, -1),
        rank_one(4),
        rank_one(-6),
        direct_sum([hyperbolic_plane(2), rank_one(2)]),
        gamma16(-1),
    ]
    for lat in stock:
        form = discriminant_form(lat)
        require(form.order == abs(lat.determinant), f"|A_M| = {form.order} for {lat}")
    pairs_checked = 0
    for lat in stock:
        form = discriminant_form(lat)
        if form.order > 64:
            continue
        q = form.q_numerators  # numerators over form.denominator, in elements() order
        qs = list(q.values())
        mod = 2 * form.denominator
        bad = []
        for x, qx in q.items():
            b_row, positions = form.rows(x)  # b(x, y) and the place of x + y, for every y
            bad += [(x, y) for y, qy, b, at in zip(q, qs, b_row, positions)
                    if (qs[at] - qx - qy - 2 * b) % mod]
        require(not bad, f"polarization fails on {bad[:1]} in {lat}")
        pairs_checked += len(q) ** 2
        bad = [x for x in q if (q[form.scale(3, x)] - 9 * q[x]) % mod]
        require(not bad, f"q(3x) != 9 q(x) for x in {bad[:1]} in {lat}")
    bad = [(n, negated, d) for n in range(1, 5) for d in range(0, 6)
           for negated in ({0}, set(range(n)), set())
           if count_invariant_monomials(n, negated, d)
           + count_invariant_monomials(n, negated, d, "anti_invariant") != comb(n + d - 1, d)]
    require(not bad, f"monomial counts (n, negated, d) = {bad[:1]} do not sum to all monomials")
    glue_cases = [u2cubed_nikulin_overlattice(), nikulin_square_overlattice()]
    glue_cases += [tilde_family(two_d).overlattice for two_d in (4, 8, 16, 24)]
    for over in glue_cases:
        law = over.lattice.determinant * over.glue_order ** 2 == over.base.determinant
        require(law, f"determinant law det/|H|^2 fails for the glue of {over.base}")
    return {"polarization_pairs": pairs_checked, "glue_cases": len(glue_cases)}


@dataclass(frozen=True)
class CheckResult:
    number: int
    title: str
    passed: bool
    detail: object


CRITERIA = (
    (1, "even unimodular glue of U(2)^3 + N", check_unimodular_glue),
    (2, "diagonal N + N glue is Gamma16(-1), 480 roots of index 2", check_gamma16_glue),
    (3, "root counts: 240 in E8(-1), none in E8(-2)", check_root_counts),
    (4, "push/pull matrix identities", check_transfer_maps),
    (5, "involution invariants (6,0,8) and fixed lattices", check_involution_invariants),
    (6, "rank-9 classification and O(q_E) orbits", check_ns_classification),
    (7, "determinant square-class obstruction", check_square_class),
    (8, "eigenspace tables and moduli counts", check_eigenspaces_and_moduli),
    (9, "generic 2-torsion family (seeded)", check_generic_family),
    (10, "I_16 family and the rank-17 pair (seeded)", check_sixteen_gon_family),
    (11, "property suites", check_property_suites),
)


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every criterion; a failed check or a domain error fails only its own."""
    results = []
    for number, title, func in CRITERIA:
        kwargs = {"seed": seed} if func in (check_generic_family, check_sixteen_gon_family) else {}
        try:
            detail = func(**kwargs)
            results.append(CheckResult(number, title, True, detail))
        except K3LatError as exc:
            results.append(CheckResult(number, title, False, f"{exc.code}: {exc}"))
    return results
