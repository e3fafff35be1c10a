"""Exception hierarchy shared by all modules, ``require``, the one way a check
fails, and ``decimal``, the one way a number becomes text.

Every error carries a short machine-readable ``code`` so the CLI can emit it
verbatim; messages are for humans.
"""


class K3LatError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class DegenerateGramError(K3LatError):
    """Gram matrix is singular where a nondegenerate lattice is required."""

    code = "degenerate_gram"


class IsotropicComplementError(K3LatError):
    """An orthogonal complement turned out degenerate (isotropic)."""

    code = "isotropic_complement"


class NotDefiniteError(K3LatError):
    """Operation requires a (negative) definite lattice."""

    code = "not_definite"


class OddLatticeError(K3LatError):
    """Discriminant quadratic form is only defined for even lattices."""

    code = "odd_lattice"


class NonIsotropicGlueError(K3LatError):
    """Glue subgroup is not isotropic, so the overlattice would be odd."""

    code = "non_isotropic_glue"


class NotDualVectorError(K3LatError):
    """A supposed glue/dual vector does not pair integrally with the lattice."""

    code = "not_dual_vector"


class NotPrimitiveError(K3LatError):
    """A sublattice that must be primitive is not."""

    code = "not_primitive"


class BadInputError(K3LatError):
    """Malformed argument (unknown kind, zero twist, wrong shape, ...)."""

    code = "bad_input"


class UnsupportedError(K3LatError):
    """Input is valid but outside the supported scope of the toolkit."""

    code = "unsupported"


class JsonInputError(K3LatError):
    """Malformed JSON supplied on the command line."""

    code = "malformed_json"


class CheckFailed(K3LatError):
    """A claim or an internal invariant does not hold."""

    code = "check_failed"


def require(cond, message: str) -> None:
    """Raise CheckFailed(message) unless cond; unlike assert, it runs under python -O."""
    if not cond:
        raise CheckFailed(message)


def decimal(x) -> str:
    """str(x) for an int or Fraction; UnsupportedError past Python's digit limit."""
    try:
        return str(x)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise UnsupportedError(f"result too long to print: {exc}") from exc
