"""Exception hierarchy for the certification library."""


class AnnulusCertError(Exception):
    """Base class for all library errors."""


class DomainError(AnnulusCertError):
    """Input outside the mathematical domain of an operation."""


class ContractViolationError(AnnulusCertError):
    """Structural precondition violated (dimension, commutation, hermiticity)."""


class SingularityError(AnnulusCertError):
    """Matrix numerically singular where invertibility is required."""


class TruncationError(AnnulusCertError):
    """A series diverges, needs more terms than the cap, or rounds beyond the slack."""


class DiagnosticError(AnnulusCertError):
    """A consistency check inside a higher-level search failed."""
