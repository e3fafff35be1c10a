"""Workload ``lattice_stream``: seeded jobs on distinct even lattices.

Every lattice is a direct sum of stock blocks with random twists, rank <= 22.
Five job kinds take turns, one item each:

* ``fingerprint``: lattice fingerprint with its q histogram, |A_M| cycling
  through the octaves 1 .. 2^12;
* ``glue``: order-2 isotropic subgroups of A_M, glue along one of them, then
  test the base for primitivity in the overlattice;
* ``vectors``: vectors of norm -2, -4 or -6 in a negative definite sum;
* ``tilde``: ``tilde_family(2d, v)`` for 2d > 40 and an admissible v;
* ``orbits``: orbits on A_M under simple reflections of a root block.

No input repeats within a stream, so a memo has nothing to reuse, while a
faster kernel still shows.  Each kind cycles through size classes (octaves
of |A_M|, fixed anchor lattices, a work band), so the cost mix of a run does
not depend on the seed.  Sizes are capped so that one item stays well
under a second: a 2^16 histogram (~14 s) or an order-4 subgroup search on
2^10 elements (~40 s) would leave a run with a handful of samples.
"""

from __future__ import annotations

import itertools
import math
import random

from k3lat.discforms import (
    discriminant_form,
    enumerate_isotropic_subgroups,
    lattice_fingerprint,
    orbits_under_generators,
)
from k3lat.gluing import GlueData, glue, is_primitive
from k3lat.lattice import (
    a_n,
    direct_sum,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    gamma16,
    hyperbolic_plane,
    nikulin,
    rank_one,
)
from k3lat.nsfamilies import glue_vector_norm_class, tilde_family

KINDS = ("fingerprint", "glue", "vectors", "tilde", "orbits")

MAX_RANK = 22
FINGERPRINT_OCTAVES = 13  # |A_M| in [2^o, 2^(o+1)) for o = 0..12, capped at 2^12
#: band for |A_M| * reflections * rank^2 is [cap/8, cap]; E8(2) under one
#: reflection is at the cap (~0.3 s)
ORBIT_MAX_WORK = 2 ** 8 * 8 ** 2
#: glue bases cycle through these anchors (|A_M| 256..1024, cost 0.05-0.3 s);
#: a draw flips block signs and may add a unimodular U, so no base repeats
GLUE_ANCHORS = (
    (("U", None, 2), ("N", None, 1)),
    (("U", None, 2), ("U", None, 2), ("U", None, 2), ("r1", 4, 1)),
    (("U", None, 4), ("A", 3, 2)),
    (("U", None, 2), ("A", 1, 2), ("A", 1, 2), ("r1", 8, 1)),
    (("U", None, 6), ("r1", 12, 1)),
    (("U", None, 2), ("A", 2, 3), ("r1", 6, 1)),
)
#: short-vector jobs cycle through these (definite block, norm) anchors, each
#: 2-120 ms; a draw adds up to two blocks <-2m> with 2m > |norm|, which keep
#: the cost and make the lattice new
VECTOR_ANCHORS = (
    (("E8", None, -1), -2),
    (("N", None, 1), -4),
    (("A", 6, -1), -6),
    (("E8", None, -2), -4),
    (("N", None, 1), -6),
    (("A", 7, -1), -4),
    (("E8", None, -1), -4),
    (("A", 5, -2), -6),
)


# -- blocks -----------------------------------------------------------------
# A block is (kind, param, twist); rank, |det| and definiteness follow from
# closed formulas, so inputs can be screened without building a lattice.


def block_rank(block) -> int:
    kind, param, _ = block
    return {"U": 2, "E8": 8, "A": param, "r1": 1, "N": 8, "G16": 16}[kind]


def block_order(block) -> int:
    """|det| of the block, which is |A| of its discriminant group."""
    kind, param, t = block
    t = abs(t)
    if kind == "U":
        return t * t
    if kind == "E8":
        return t ** 8
    if kind == "A":
        return (param + 1) * t ** param
    if kind == "r1":
        return abs(param * t)
    if kind == "N":
        return 64 * t ** 8
    return t ** 16


def block_lattice(block):
    kind, param, t = block
    if kind == "U":
        return hyperbolic_plane(t)
    if kind == "E8":
        return e8(t)
    if kind == "A":
        return a_n(param, t)
    if kind == "r1":
        return rank_one(param, t)
    if kind == "N":
        return nikulin(t)
    return gamma16(t)


def _random_block(rng: random.Random):
    kind = rng.choice(("U", "U", "E8", "A", "A", "r1", "r1", "N", "G16"))
    sign = rng.choice((-1, 1))
    if kind == "U":
        return ("U", None, rng.randint(1, 6) * sign)
    if kind == "E8":
        return ("E8", None, rng.choice((1, 1, 2)) * sign)
    if kind == "A":
        return ("A", rng.randint(1, 7), rng.choice((1, 1, 2, 3)) * sign)
    if kind == "r1":
        return ("r1", 2 * rng.randint(1, 60) * sign, 1)
    if kind == "N":
        return ("N", None, sign)
    return ("G16", None, sign)


def _sum_of(blocks):
    return direct_sum([block_lattice(b) for b in blocks])


def _order(blocks) -> int:
    return math.prod(block_order(b) for b in blocks)


def _rank(blocks) -> int:
    return sum(block_rank(b) for b in blocks)


def _simple_reflections(block):
    """Simple reflections of a root block (A_n or E8) on its Cartan basis.

    They only use pairing ratios, so they are isometries of every twist.
    """
    if block[0] == "E8":
        return e8_simple_reflections()
    n = block[1]
    cartan = a_n(n).gram_rows()
    mats = []
    for i in range(n):
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        for j in range(n):
            m[i][j] -= cartan[i][j]
        mats.append(m)
    return mats


def _pad(matrix, total: int):
    """Extend a matrix on the first summand by the identity on the others."""
    out = [[int(r == c) for c in range(total)] for r in range(total)]
    for i, row in enumerate(matrix):
        out[i][: len(row)] = row
    return out


# -- the stream ---------------------------------------------------------------


class LatticeStream:
    name = "lattice_stream"

    def __init__(self, seed: int):
        self.rng = random.Random(f"lattice_stream:{seed}")
        self.seen = set()

    def _fresh(self, draw, tries: int = 500):
        """A spec from ``draw`` not produced before; None once the space runs dry."""
        for _ in range(tries):
            spec = draw()
            if spec is not None and spec not in self.seen:
                self.seen.add(spec)
                return spec
        return None

    # _draw_<kind>(k) returns the spec of the k-th job of that kind, or None to
    # reject the draw; the cycling kinds use k to pick their size class.

    def _draw_blocks(self, low, high):
        """1-4 random blocks, rank <= 22, with low <= |A_M| <= high."""
        blocks = tuple(sorted((_random_block(self.rng) for _ in range(self.rng.randint(1, 4))), key=repr))
        if _rank(blocks) > MAX_RANK or not low <= _order(blocks) <= high:
            return None
        return blocks

    def _draw_fingerprint(self, k):
        low = 2 ** (k % FINGERPRINT_OCTAVES)
        blocks = self._draw_blocks(low, min(2 * low - 1, 2 ** 12))
        return None if blocks is None else ("fingerprint", blocks)

    def _draw_glue(self, k):
        anchor = GLUE_ANCHORS[k % len(GLUE_ANCHORS)]
        blocks = [(kind, param, t * self.rng.choice((-1, 1))) for kind, param, t in anchor]
        if self.rng.random() < 0.5:
            blocks.append(("U", None, 1))
        return ("glue", tuple(sorted(blocks, key=repr)), self.rng.randrange(1 << 30))

    def _draw_vectors(self, k):
        anchor, norm = VECTOR_ANCHORS[k % len(VECTOR_ANCHORS)]
        extra = [("r1", -2 * self.rng.randint(-norm // 2 + 1, 200), 1)
                 for _ in range(self.rng.randint(1, 2))]
        return ("vectors", tuple(sorted([anchor] + extra, key=repr)), norm)

    def _draw_tilde(self, k):
        two_d = 4 * self.rng.randint(11, 100)
        v = tuple(self.rng.randint(-2, 2) for _ in range(8))
        norm = e8(-2).norm(list(v))
        if norm % 8 != glue_vector_norm_class(two_d // 2) % 8 or all(c % 2 == 0 for c in v):
            return None
        return ("tilde", two_d, v)

    def _draw_orbits(self, k):
        if self.rng.random() < 0.25:
            root = ("E8", None, 2 * self.rng.choice((-1, 1)))
        else:
            root = ("A", self.rng.randint(2, 6), self.rng.choice((-3, -2, 2, 3)))
        extra = ()
        if self.rng.random() < 0.5:
            extra = (("r1", 2 * self.rng.randint(1, 8) * self.rng.choice((-1, 1)), 1),)
        blocks = (root,) + extra
        n_refl = len(_simple_reflections(root))
        picks = tuple(sorted(self.rng.sample(range(n_refl), self.rng.randint(1, min(3, n_refl)))))
        # each reflection lifts every element through rank x rank matrices
        if not ORBIT_MAX_WORK // 8 <= _order(blocks) * len(picks) * _rank(blocks) ** 2 <= ORBIT_MAX_WORK:
            return None
        return ("orbits", blocks, picks)

    def specs(self):
        """The seeded job specs, one kind after another; never repeats a spec."""
        for n in itertools.count():
            kind, k = KINDS[n % len(KINDS)], n // len(KINDS)
            spec = self._fresh(lambda: getattr(self, f"_draw_{kind}")(k))
            if spec is not None:
                yield spec

    def inputs(self):
        for spec in self.specs():
            yield build(spec)

    def warm_up(self) -> None:
        # one item of each kind, from a stream of its own seed
        warm = LatticeStream(-1)
        for job, _ in zip(warm.inputs(), KINDS):
            self.run(job)

    def run(self, job):
        return RUNNERS[job["kind"]](job)

    def check(self, job, out) -> list[str]:
        return [f"{job['spec']}: {problem}" for problem in CHECKS[job["kind"]](job, out)]


# -- materialized jobs ------------------------------------------------------


def build(spec) -> dict:
    kind = spec[0]
    job = {"kind": kind, "spec": spec}
    if kind == "tilde":
        job["two_d"], job["v"] = spec[1], spec[2]
        return job
    blocks = spec[1]
    job["blocks"] = blocks
    job["lattice"] = _sum_of(blocks)
    if kind == "glue":
        job["pick"] = spec[2]
    elif kind == "vectors":
        job["norm"] = spec[2]
    elif kind == "orbits":
        n = job["lattice"].rank
        job["generators"] = [
            _pad(_simple_reflections(blocks[0])[i], n) for i in spec[2]
        ]
    return job


def _run_fingerprint(job):
    return lattice_fingerprint(job["lattice"])


def _run_glue(job):
    base = job["lattice"]
    form = discriminant_form(base)
    subgroups = enumerate_isotropic_subgroups(form, 2)
    chosen = subgroups[job["pick"] % len(subgroups)]
    vectors = [form.lift(g) for g in chosen.generators]
    over = glue(GlueData.of(base, vectors))
    primitive = is_primitive(over.lattice, over.inclusion)
    return len(subgroups), over, primitive


def _run_vectors(job):
    return enumerate_vectors_of_norm(job["lattice"], job["norm"])


def _run_tilde(job):
    return tilde_family(job["two_d"], job["v"])


def _run_orbits(job):
    form = discriminant_form(job["lattice"])
    return form, orbits_under_generators(form, job["generators"])


RUNNERS = {
    "fingerprint": _run_fingerprint,
    "glue": _run_glue,
    "vectors": _run_vectors,
    "tilde": _run_tilde,
    "orbits": _run_orbits,
}


# -- checks: identities the code does not store -------------------------------


def _check_fingerprint(job, fp) -> list[str]:
    order = _order(job["blocks"])
    problems = []
    if fp.rank != _rank(job["blocks"]):
        problems.append(f"rank {fp.rank} != {_rank(job['blocks'])}")
    if abs(fp.determinant) != order:
        problems.append(f"|det| {abs(fp.determinant)} != product of block dets {order}")
    if math.prod(fp.invariant_factors) != order:
        problems.append(f"|A_M| {math.prod(fp.invariant_factors)} != |det| {order}")
    if sum(count for _, count in fp.q_histogram) != order:
        problems.append(f"q histogram sums to {sum(c for _, c in fp.q_histogram)}, not {order}")
    return problems


def _check_glue(job, out) -> list[str]:
    n_subgroups, over, (primitive, torsion) = out
    problems = []
    if n_subgroups < 1:
        problems.append("no isotropic subgroup of order 2")
    if over.glue_order != 2:
        problems.append(f"glue order {over.glue_order} != 2")
    if over.lattice.determinant * over.glue_order ** 2 != job["lattice"].determinant:
        problems.append("det * |H|^2 != det(base)")
    if primitive or math.prod(torsion) != over.glue_order:
        problems.append(f"base in overlattice has cokernel {torsion}, expected order {over.glue_order}")
    if not over.lattice.is_even:
        problems.append("overlattice is not even")
    return problems


def _check_vectors(job, vectors) -> list[str]:
    lattice, norm = job["lattice"], job["norm"]
    found = set(vectors)
    problems = []
    if len(found) != len(vectors):
        problems.append("repeated vectors")
    bad = [v for v in vectors if lattice.norm(list(v)) != norm or not any(v)]
    if bad:
        problems.append(f"{len(bad)} vectors not of norm {norm}, e.g. {bad[0]}")
    unpaired = [v for v in vectors if tuple(-c for c in v) not in found]
    if unpaired:
        problems.append(f"{len(unpaired)} vectors without their negative, e.g. {unpaired[0]}")
    return problems


def _check_tilde(job, family) -> list[str]:
    plain_det = job["two_d"] * 2 ** 8  # det(<2d> + E8(-2))
    problems = []
    if 4 * family.lattice.determinant != plain_det:
        problems.append(f"4 det(tilde) = {4 * family.lattice.determinant} != det(plain) {plain_det}")
    if not family.lattice.is_even:
        problems.append("tilde lattice is not even")
    return problems


def _check_orbits(job, out) -> list[str]:
    form, orbits = out
    problems = []
    members = [x for orbit in orbits for x in orbit]
    if len(members) != form.order or len(set(members)) != form.order:
        problems.append(f"orbits cover {len(set(members))} of {form.order} elements")
    for orbit in orbits:
        values = {form.q(x) for x in orbit}
        if len(values) != 1:
            problems.append(f"q not constant on the orbit of {orbit[0]}: {sorted(values)}")
    return problems


CHECKS = {
    "fingerprint": _check_fingerprint,
    "glue": _check_glue,
    "vectors": _check_vectors,
    "tilde": _check_tilde,
    "orbits": _check_orbits,
}
