"""Exception hierarchy shared by all modules."""


class HandSpdError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(HandSpdError):
    """Preconditions on an operation's input were violated."""


class SpectralDomainError(HandSpdError):
    """A spectral scalar function was applied outside its domain.

    Carries the offending eigenvalue and, when raised from inside the
    network, a context string identifying the failing layer and branch.
    """

    def __init__(self, message, eigenvalue=None, context=None):
        if context:
            message = f"{message} [{context}]"
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.context = context


class EigenDecompositionError(HandSpdError):
    """LAPACK's eigensolver failed (e.g. on an overflowed matrix); the message names the layer."""


class RankError(HandSpdError):
    """A matrix expected to have full row rank is rank-deficient or not finite."""


class QRDecompositionError(HandSpdError):
    """LAPACK's QR factorization failed; the message names the matrix."""


class ParseError(HandSpdError):
    """A data file could not be parsed; names file and line number."""

    def __init__(self, message, path=None, line=None):
        if path is not None:
            loc = str(path) if line is None else f"{path}:{line}"
            message = f"{message} ({loc})"
        super().__init__(message)
        self.path = path
        self.line = line


class ConfigError(HandSpdError):
    """A run configuration is inconsistent or references missing files."""
