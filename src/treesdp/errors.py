"""Exception types shared across the package.

Every structured failure mode raised by the library derives from
:class:`TreeSdpError`, so callers (and the CLI) can distinguish structured
errors (exit code 1) from usage errors (exit code 2) and unexpected crashes.
"""


class TreeSdpError(Exception):
    """Base class for all structured errors raised by this package."""


# ---------------------------------------------------------------- linalg
class NonTriangularLength(TreeSdpError):
    """Vector length is not a triangular number t = o(o+1)/2."""


class DimensionMismatch(TreeSdpError):
    """Operands have incompatible shapes/orders."""


class NotFinite(TreeSdpError):
    """Input contains NaN or infinite entries."""


# ---------------------------------------------------------------- splitter
class UncoverableEntry(TreeSdpError):
    """A matrix entry lies outside every bag of the tree decomposition."""


# ---------------------------------------------------------------- converter
class InvalidSplit(TreeSdpError):
    """A proposed data split fails to reconstruct the original matrix."""


class DisconnectedSupport(TreeSdpError):
    """Constraint support induces a disconnected subtree (internal error)."""


# ---------------------------------------------------------------- ipm
class NotInterior(TreeSdpError):
    """A point that must lie in the cone interior does not."""


class SingularNormalMatrix(TreeSdpError):
    """The reduced 2x2 system (or a normal factorization) is numerically
    singular."""


class MaxIterations(TreeSdpError):
    """Iteration limit reached before the target precision."""


class NumericalStall(TreeSdpError):
    """The complementarity measure stopped decreasing."""


class InfeasibleOrUnbounded(TreeSdpError):
    """The homogeneous embedding converged to tau = 0 with kappa > 0."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


# ---------------------------------------------------------------- normal solver
class StructureViolation(TreeSdpError):
    """Assembled normal matrix has a block outside the tree pattern."""


class IndefinitePivot(TreeSdpError):
    """A diagonal block failed its Cholesky factorization."""


class DenominatorUnderflow(TreeSdpError):
    """The rank-one update denominator fell below the safe threshold."""


# ---------------------------------------------------------------- recovery
class BlockNotPsd(TreeSdpError):
    """A bag block violates positive semidefiniteness beyond tolerance."""


class OverlapMismatch(TreeSdpError):
    """Two bags disagree on a shared entry beyond tolerance."""


# ---------------------------------------------------------------- frontends
class ParseError(TreeSdpError):
    """Malformed input file; message carries the 1-based line number."""


class UnsupportedBlockStructure(TreeSdpError):
    """Input uses file features outside the supported subset."""
