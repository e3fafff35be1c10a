"""Exact-arithmetic toolkit for even lattices and K3 quotient geometry.

Core objects: integral lattices with exact invariants, discriminant forms,
overlattice gluing, the symplectic-involution transfer maps on K3 cohomology,
the rank-9 Neron-Severi families, and Weierstrass fibrations with a 2-torsion
section together with their 2-isogeny quotients.

``import k3lat`` executes no layer module: each name below is looked up in
its defining module on first use (PEP 562), through an ordinary import.
"""

import importlib

#: defining module -> the public names it exports here
_EXPORTS = {
    "errors": (
        "BadInputError",
        "CheckFailed",
        "DegenerateGramError",
        "IsotropicComplementError",
        "JsonInputError",
        "K3LatError",
        "NonIsotropicGlueError",
        "NotDefiniteError",
        "NotDualVectorError",
        "NotPrimitiveError",
        "OddLatticeError",
        "UnsupportedError",
    ),
    "lattice": (
        "Lattice",
        "Signature",
        "a_n",
        "direct_sum",
        "e8",
        "e8_simple_reflections",
        "enumerate_vectors_of_norm",
        "gamma16",
        "gamma16_contains_doubled",
        "gamma16_coordinates_doubled",
        "hyperbolic_plane",
        "minus_one_sum",
        "nikulin",
        "nikulin_node_coords",
        "orthogonal_complement",
        "rank_one",
        "standard_lattice",
        "sublattice_index",
    ),
    "discforms": (
        "DiscElement",
        "Fingerprint",
        "FiniteQuadraticForm",
        "discriminant_form",
        "enumerate_isotropic_subgroups",
        "lattice_fingerprint",
        "orbits_under_generators",
        "qK_on_U2_cubed",
    ),
    "gluing": (
        "GlueData",
        "Overlattice",
        "glue",
        "is_primitive",
        "nikulin_square_in_gamma16",
        "nikulin_square_overlattice",
        "u2cubed_nikulin_overlattice",
    ),
    "involution": (
        "InvolutionModule",
        "QuotientCohomology",
        "STRInvariants",
        "invariant_and_antiinvariant",
        "k3_lattice",
        "str_invariants",
        "swap_involution",
    ),
    "nsfamilies": (
        "NSFamilyDescriptor",
        "SquareClassReport",
        "classify_ns",
        "count_invariant_monomials",
        "det_square_class_obstruction",
        "eigenspace_dimensions",
        "moduli_dimension",
        "morrison_nikulin_lattices",
        "transcendental_fingerprint",
    ),
    "elliptic": (
        "FiberReport",
        "RatPoly",
        "WeierstrassFibration",
        "fiber_configuration",
        "i16_component_permutation",
        "shioda_tate",
        "torsion_section_translation_data",
        "two_isogeny_quotient",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
