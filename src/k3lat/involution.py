"""Symplectic involutions on the K3 lattice and the quotient-map bookkeeping.

The model: H2(X) = U^3 + E8(-1)^2 with the involution swapping the two E8
summands; H2 of the blown-up surface adds <-1>^8 (classes E_1..E_8); on the
quotient side the finite-index sublattice U(2)^3 + N + E8(-1) sits inside the
full rank-22 unimodular lattice realized as (glued U(2)^3 + N) + E8(-1).
The transfer maps are

    push:  (u, x, y, z) -> (u, z, x + y)     (z_i E_i read as z_i N_i)
    pull:  (u, n, x)    -> (2u, x, x, 2n~)   (n = sum n_i N_i, n~ = sum n_i E_i)

with the one pull defined on the whole unimodular Y-side lattice by
w -> pull(2w)/2, so it takes any integral or rational vector of that lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadInputError, require
from . import linalg
from .discforms import lattice_fingerprint
from .gluing import is_primitive, u2cubed_nikulin_overlattice
from .lattice import (
    Lattice,
    direct_sum,
    e8,
    hyperbolic_plane,
    minus_one_sum,
    nikulin,
    nikulin_node_coords,
    sublattice_index,
)


@dataclass(frozen=True)
class STRInvariants:
    """Multiplicities of the three indecomposable Z[Z/2]-modules."""

    s: int
    t: int
    r: int


class InvolutionModule:
    """A lattice together with an isometric involution (integer matrix)."""

    def __init__(self, lattice: Lattice, action):
        g = [linalg.exact_ints(row, "action entries") for row in action]
        n = lattice.rank
        if len(g) != n or any(len(row) != n for row in g):
            raise BadInputError("action matrix must be square of the lattice rank")
        if not linalg.mat_eq(linalg.mat_mul(g, g), linalg.identity_matrix(n)):
            raise BadInputError("action is not an involution (g^2 != 1)")
        gram = lattice.gram
        if not linalg.mat_eq(
            linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(gram, g)), gram
        ):
            raise BadInputError("action is not an isometry of the gram matrix")
        self.lattice = lattice
        self.action = tuple(tuple(row) for row in g)

    def action_rows(self) -> list[list[int]]:
        return [list(row) for row in self.action]


def _eigen_kernels(module: InvolutionModule) -> tuple[list[list[int]], list[list[int]]]:
    """Saturated bases of ker(g - 1) and ker(g + 1)."""
    g = module.action_rows()
    ident = linalg.identity_matrix(module.lattice.rank)
    plus = linalg.integer_kernel(linalg.mat_sub(g, ident))
    minus = linalg.integer_kernel([[x + y for x, y in zip(rg, ri)] for rg, ri in zip(g, ident)])
    return plus, minus


def str_invariants(module: InvolutionModule) -> STRInvariants:
    """(s, t, r) with (M, g) = M_1^s + M_{-1}^t + M_swap^r.

    The kernels of g - 1 and g + 1 have ranks s + r and t + r, and together
    they span a sublattice of index 2^r (Nikulin 1979): a scalar block is its
    own eigenvector, and on a swap block {e, ge} the eigenvectors e + ge and
    e - ge span index 2.
    """
    n = module.lattice.rank
    plus, minus = _eigen_kernels(module)
    index = sublattice_index(module.lattice, plus + minus)
    r = index.bit_length() - 1
    s, t = len(plus) - r, len(minus) - r
    ok = index == 1 << r and s >= 0 and t >= 0 and s + t + 2 * r == n
    require(ok, f"(s,t,r) = {(s, t, r)} in rank {n}, eigen-kernel index {index}")
    return STRInvariants(s, t, r)


@dataclass(frozen=True)
class FixedSublattices:
    invariant: Lattice
    invariant_basis: list[list[int]]
    anti_invariant: Lattice
    anti_invariant_basis: list[list[int]]


def invariant_and_antiinvariant(module: InvolutionModule) -> FixedSublattices:
    """Saturated ker(g - 1) and ker(g + 1), computed apart, both required primitive."""
    inv_basis, anti_basis = _eigen_kernels(module)
    for which, basis in (("invariant", inv_basis), ("anti-invariant", anti_basis)):
        ok, torsion = is_primitive(module.lattice, basis)
        require(ok, f"{which} sublattice is not primitive: cokernel {torsion}")
    gram = module.lattice.gram
    inv_lat = Lattice(linalg.pairing_matrix(inv_basis, gram))
    anti_lat = Lattice(linalg.pairing_matrix(anti_basis, gram))
    return FixedSublattices(inv_lat, inv_basis, anti_lat, anti_basis)


# ---------------------------------------------------------------------------
# the concrete K3 model


def k3_lattice() -> Lattice:
    """U^3 + E8(-1)^2, the second cohomology of a K3 surface."""
    return direct_sum(
        [hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1)],
        name="U^3 + E8(-1)^2",
    )


def swap_involution_matrix() -> list[list[int]]:
    """Involution of U^3 + E8(-1)^2 fixing U^3 and swapping the E8 blocks."""
    ident = linalg.identity_matrix(22)
    return ident[:6] + ident[14:] + ident[6:14]


def swap_involution() -> InvolutionModule:
    return InvolutionModule(k3_lattice(), swap_involution_matrix())


class QuotientCohomology:
    """All lattices and transfer matrices of the blow-up/quotient picture.

    Pure container; ``adjunction_report`` checks the identities tying the
    matrices together, which construction does not.  All methods are
    read-only, so instances may be shared between threads.
    """

    def __init__(self):
        self.k3 = k3_lattice()
        self.iota = swap_involution_matrix()
        self.blowup = direct_sum(
            [self.k3, minus_one_sum(8)], name="U^3 + E8(-1)^2 + <-1>^8"
        )
        self.iota_tilde = [row + [0] * 8 for row in self.iota] + linalg.identity_matrix(30)[22:]
        self.y_sub = direct_sum(
            [hyperbolic_plane(2)] * 3 + [nikulin(), e8(-1)],
            name="U(2)^3 + N + E8(-1)",
        )
        self.overlattice = u2cubed_nikulin_overlattice()
        self.y_full = direct_sum(
            [self.overlattice.lattice, e8(-1)], name="H2(Y)"
        )
        self.push_matrix = self._build_push()
        self.pull_matrix = self._build_pull()

    @staticmethod
    def _build_push() -> list[list[int]]:
        p = [[0] * 30 for _ in range(22)]
        for i in range(6):  # u block
            p[i][i] = 1
        for j in range(7):  # z_i E_i -> z_i N_i in the basis {N_1..N_7, Nhat}
            p[6 + j][22 + j] = 1
            p[6 + j][29] = -1
        p[13][29] = 2
        for j in range(8):  # x + y
            p[14 + j][6 + j] = 1
            p[14 + j][14 + j] = 1
        return p

    @staticmethod
    def _build_pull() -> list[list[int]]:
        q = [[0] * 22 for _ in range(30)]
        for i in range(6):  # u -> 2u
            q[i][i] = 2
        for j in range(8):  # x -> (x, x)
            q[6 + j][14 + j] = 1
            q[14 + j][14 + j] = 1
        for j in range(7):  # n -> 2n~: z_i = 2m_i + mhat, z_8 = mhat
            q[22 + j][6 + j] = 2
            q[22 + j][13] = 1
        q[29][13] = 1
        return q

    # -- transfer maps -------------------------------------------------------

    def push(self, v) -> list[int]:
        """push-forward of a vector of the blown-up lattice (30 coords)."""
        v = linalg.exact_ints(v, "push coordinates")
        if len(v) != 30:
            raise BadInputError("push expects 30 coordinates")
        return linalg.mat_vec(self.push_matrix, v)

    def contains_in_overlattice(self, w) -> bool:
        """Membership of a rational vector (22 coords) in the full Y lattice."""
        return self._scaled_in_overlattice(w) is not None

    def _scaled_in_overlattice(self, w) -> tuple[int, list[int]] | None:
        """(den, den * w) on ints when w lies in the full Y lattice, else None."""
        den, ints = linalg.clear_denominators(w)
        if len(ints) != 22:
            raise BadInputError("expected 22 coordinates")
        if den == 1:  # the glued lattice contains the sublattice of integral vectors
            return den, ints
        if any(x % den for x in ints[14:]):
            return None
        # row i of the inclusion is e_i in the overlattice basis, so these are
        # den times the overlattice coordinates of w
        inc = self.overlattice.inclusion
        coords = [sum(ints[i] * inc[i][j] for i in range(14)) for j in range(14)]
        return None if any(c % den for c in coords) else (den, ints)

    def pull(self, w) -> list[int]:
        """pull-back of a vector of the glued Y lattice (22 int or rational coords).

        It is w -> pull(2w)/2, computed as pull(den w)/den with den the least
        denominator of w.  The glue group is 2-elementary, so den divides 2 and
        pull(2w) is even; both are required, and the arithmetic stays on ints.
        """
        scaled = self._scaled_in_overlattice(w)
        if scaled is None:
            raise BadInputError("vector is not in the glued Y-side lattice")
        den, ints = scaled
        pulled = linalg.mat_vec(self.pull_matrix, ints)
        require(2 % den == 0 and all(x % den == 0 for x in pulled),
                "pull(2w) of a vector w of the glued Y lattice is not even")
        return [x // den for x in pulled]

    # -- verification ---------------------------------------------------------

    def adjunction_report(self) -> dict:
        """Matrix identities tying push, pull, the involution, and the forms.

        Requires each identity, naming the one that fails; returns the names
        with their (holding) values, the (s, t, r) of the swap and the
        fingerprint of the glued Y lattice.
        """
        g_y = self.y_sub.gram
        g_xt = self.blowup.gram
        p, q = self.push_matrix, self.pull_matrix
        checks = {
            "push_after_involution": linalg.mat_eq(linalg.mat_mul(p, self.iota_tilde), p),
            "adjunction": linalg.mat_eq(
                linalg.mat_mul(linalg.transpose(p), g_y), linalg.mat_mul(g_xt, q)
            ),
            "pull_doubles_form": linalg.mat_eq(
                linalg.mat_mul(linalg.transpose(q), linalg.mat_mul(g_xt, q)),
                [[2 * x for x in row] for row in g_y],
            ),
            "push_pull_is_two": linalg.mat_eq(
                linalg.mat_mul(p, q),
                [[2 * int(i == j) for j in range(22)] for i in range(22)],
            ),
        }
        for name, holds in checks.items():
            require(holds, f"transfer maps: the identity {name} fails")
        for i in range(1, 9):
            w = [0] * 22
            for j, c in enumerate(nikulin_node_coords(i)):
                w[6 + j] = c
            expected = [0] * 30
            expected[22 + i - 1] = 2
            require(self.pull(w) == expected, f"transfer maps: pull(N_{i}) != 2 E_{i}")
        checks["nodal_pullbacks_double"] = True
        inv = str_invariants(swap_involution())
        return {
            "checks": checks,
            "all_hold": True,
            "str": (inv.s, inv.t, inv.r),
            "y_full_fingerprint": lattice_fingerprint(self.y_full),
        }
