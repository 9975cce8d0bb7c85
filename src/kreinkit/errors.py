"""Exception hierarchy.

All package errors derive from :class:`KreinkitError` so callers can catch
one base class.  The split mirrors the three failure flavours: invalid
input, a mathematical criterion that genuinely fails for the given data,
and internal consistency checks that a theorem mandates.
"""


class KreinkitError(Exception):
    """Base class for all package errors."""


class InvalidInput(KreinkitError):
    """Malformed input: wrong shape, non-finite entries, bad parameters."""


class DimensionMismatch(InvalidInput):
    """Operands have incompatible dimensions."""


class EigenSolverError(KreinkitError):
    """The symmetric eigensolver failed to converge (pathological input)."""


class NotCompletable(KreinkitError):
    """The range-inclusion criterion for a block completion fails.

    Carries the least-squares residual of the best factor in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class HypothesisViolated(KreinkitError):
    """A theorem hypothesis fails, so the operation does not apply."""


class NotJContractive(KreinkitError):
    """An operator or parameter required to be a J-contraction is not."""


class NegativeTargetIndex(HypothesisViolated):
    """A minimal extended index ``kappa1 - nu_-(J2')`` or ``kappa2 - nu_-(J1')`` of a
    lifting or extension would be negative: the exit symmetry has more negative
    directions than the defect form it must fit into."""


class RangeInclusionFailed(KreinkitError):
    """A required range inclusion does not hold within tolerance."""


class ParameterInvariantViolated(KreinkitError):
    """A lifting parameter violates its invariant."""


class NotALifting(KreinkitError):
    """The candidate does not compress to the original operator."""


class IndexMismatch(KreinkitError):
    """Negative indices of the candidate differ from the minimal targets."""


class NotSolvable(KreinkitError):
    """The solvability criterion for the extension problem fails.

    For a symmetric column, ``nu_minus_head`` and ``nu_minus_column`` carry
    the two negative indices ``nu_-(I - T11^2)`` and ``nu_-(I - T1^T T1)``
    the criterion compares; both are ``None`` otherwise.
    """

    def __init__(self, message, nu_minus_head=None, nu_minus_column=None):
        super().__init__(message)
        self.nu_minus_head = nu_minus_head
        self.nu_minus_column = nu_minus_column


class NotAnExtension(KreinkitError):
    """The candidate does not extend the given operator or relation."""


class NotSymmetric(KreinkitError):
    """The relation or matrix is not symmetric."""


class NotSelfadjoint(KreinkitError):
    """The relation is not selfadjoint."""


class ShiftNotAdmissible(KreinkitError):
    """The resolvent shift does not dominate the lower bound."""


class PreconditionViolated(KreinkitError):
    """An order or regularity hypothesis of the requested check fails."""


class ConsistencyError(KreinkitError):
    """An identity the underlying theory mandates failed numerically."""
