"""Workload ``paper``: repeated full acceptance passes of the source paper.

One item is ``k3lat.verify.run_all(seed)``, the eleven criteria behind
``k3lat verify-paper``, with the seed stepped per pass.  The check compares
each criterion's detail dict with the values its docstring states instead of
trusting ``passed``, because the criteria are ``assert``s that vanish under
``python -O``.
"""

from __future__ import annotations

from k3lat import verify

#: criterion 6: one rank-9 family for 2d = 2 mod 4, two for 2d = 0 mod 4
_FAMILY_COUNTS = {two_d: 1 if two_d % 4 == 2 else 2 for two_d in range(2, 42, 2)}

#: polarization pairs of criterion 11: sum of |A_M|^2 over the property stock
#: lattices with |A_M| <= 64, i.e. U, U(2), U(-1), E8(-1), N, A2, A3(-1), <4>,
#: <-6>, U(2)+<2>, Gamma16(-1) with |A_M| = 1, 4, 1, 1, 64, 3, 4, 4, 6, 8, 1
_POLARIZATION_PAIRS = sum(n * n for n in (1, 4, 1, 1, 64, 3, 4, 4, 6, 8, 1))

EXPECTED = {
    1: {"det": -1, "signature": [3, 11], "index": 64},
    2: {"roots": 480, "root_span_index": 2, "embedding_index": 64},
    3: {"e8_roots": 240, "e8_twisted_norm2": 0},
    4: {
        "checks": {
            "push_after_involution": True,
            "adjunction": True,
            "pull_doubles_form": True,
            "push_pull_is_two": True,
            "nodal_pullbacks_double": True,
        },
        "str": (6, 0, 8),
    },
    5: {"str": (6, 0, 8), "invariant_rank": 14},
    6: {"family_counts": _FAMILY_COUNTS, "orbit_sizes": [1, 120, 135]},
    7: {"is_square_by_rank": {r: r % 2 == 0 for r in range(1, 14)}},
    8: {"moduli": {name: 11 for name in ("M2", "M6", "M4", "M4tilde", "M8", "M8tilde")}},
    9: {
        "trials": 20,
        "i1_weight_on_a2m4b": 8,
        "i2_weight_on_b": 8,
        "shioda_tate": [10, "64"],
        "transcendental_signature": [2, 10],
    },
    10: {"shioda_tate": [17, "4"], "component_shift": [(i + 8) % 16 for i in range(16)]},
    11: {"polarization_pairs": _POLARIZATION_PAIRS, "glue_cases": 6},
}

#: the warm-up runs the three cheapest criteria that between them reach every
#: layer: glue and discriminant forms (1), Fincke-Pohst (3), factorization (10)
_WARM_UP = (verify.check_unimodular_glue, verify.check_root_counts)


class Paper:
    name = "paper"

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        """Pass seeds: the run seed scaled, then stepped by one per pass."""
        n = 0
        while True:
            yield self.seed * 1000 + n
            n += 1

    def warm_up(self) -> None:
        for check in _WARM_UP:
            check()
        verify.check_sixteen_gon_family(seed=self.seed * 1000 - 1)

    def run(self, pass_seed):
        return verify.run_all(pass_seed)

    def check(self, pass_seed, results) -> list[str]:
        problems = []
        numbers = [r.number for r in results]
        if numbers != sorted(EXPECTED):
            return [f"criteria {numbers} != 1..11"]
        for res in results:
            expected = EXPECTED[res.number]
            if not res.passed:
                problems.append(f"criterion {res.number} failed: {res.detail}")
            elif res.detail != expected:
                problems.append(
                    f"criterion {res.number}: detail {res.detail!r} != {expected!r}"
                )
        return problems
