"""Constructions that only the tests use, shared by several test modules."""

from fractions import Fraction

from k3lat import linalg
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
