"""Exact-arithmetic toolkit for even lattices and K3 quotient geometry.

Core objects: integral lattices with exact invariants, discriminant forms,
overlattice gluing, the symplectic-involution transfer maps on K3 cohomology,
the rank-9 Neron-Severi families, and Weierstrass fibrations with a 2-torsion
section together with their 2-isogeny quotients.
"""

from .errors import (
    BadInputError,
    CheckFailed,
    DegenerateGramError,
    IsotropicComplementError,
    JsonInputError,
    K3LatError,
    NonIsotropicGlueError,
    NotDefiniteError,
    NotDualVectorError,
    NotPrimitiveError,
    OddLatticeError,
    UnsupportedError,
)
from .lattice import (
    Lattice,
    Signature,
    a_n,
    direct_sum,
    e8,
    e8_simple_reflections,
    enumerate_vectors_of_norm,
    gamma16,
    gamma16_contains,
    gamma16_coordinates,
    hyperbolic_plane,
    minus_one_sum,
    nikulin,
    nikulin_node_coords,
    orthogonal_complement,
    rank_one,
    root_span_index,
    standard_lattice,
    sublattice_index,
)
from .discforms import (
    DiscElement,
    Fingerprint,
    FiniteQuadraticForm,
    discriminant_form,
    enumerate_isotropic_subgroups,
    lattice_fingerprint,
    orbits_under_generators,
    qK_on_U2_cubed,
)
from .gluing import (
    GlueData,
    Overlattice,
    glue,
    is_primitive,
    nikulin_square_in_gamma16,
    nikulin_square_overlattice,
    u2cubed_nikulin_overlattice,
)
from .involution import (
    InvolutionModule,
    QuotientCohomology,
    STRInvariants,
    invariant_and_antiinvariant,
    k3_lattice,
    str_invariants,
    swap_involution,
)
from .nsfamilies import (
    NSFamilyDescriptor,
    SquareClassReport,
    classify_ns,
    count_invariant_monomials,
    det_square_class_obstruction,
    eigenspace_dimensions,
    moduli_dimension,
    morrison_nikulin_lattices,
    transcendental_fingerprint,
)
from .elliptic import (
    FiberReport,
    RatPoly,
    WeierstrassFibration,
    fiber_configuration,
    i16_component_permutation,
    shioda_tate,
    torsion_section_translation_data,
    two_isogeny_quotient,
)

__version__ = "0.1.0"
