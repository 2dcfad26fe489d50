"""Exception types shared across the library."""


class VCarlitzError(Exception):
    """Base class for all library errors."""


class DivisionByZero(VCarlitzError):
    pass


class PrecisionLoss(VCarlitzError):
    """An operation would produce an empty precision window."""


class DomainError(VCarlitzError):
    """Argument outside the convergence / defining domain of a series."""


class SingularStep(VCarlitzError):
    """A linear solve that must be uniquely solvable was singular."""


class ConvergenceNotCertified(VCarlitzError):
    """The logarithm could not certify convergence to the asked precision."""


class AnnihilationFailure(VCarlitzError):
    """A coordinate that must be divisible by the uniformizer is a unit."""


class CertificationFailed(VCarlitzError):
    """A decomposition failed its infinite-place certification."""

    def __init__(self, message, residual_ord=None):
        super().__init__(message)
        self.residual_ord = residual_ord


class UncertifiedDecomposition(VCarlitzError):
    pass


class MissingTModuleSpec(VCarlitzError):
    pass


class NoSolutionInBudget(VCarlitzError):
    """Kernel search did not meet the norm bound within the degree budget."""


class RootCheckFailed(VCarlitzError):
    """Claimed root/multiplicity could not be verified by exact division."""


class TooLarge(VCarlitzError):
    """Requested enumeration exceeds the configured budget."""


class AssertionFailure(VCarlitzError):
    """An identity that must hold by theorem failed; indicates a bug."""


class ParseError(VCarlitzError):
    pass
