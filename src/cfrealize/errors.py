"""Exception types shared across the toolkit."""


class CFError(Exception):
    """Base class for all toolkit errors."""


class AlphabetError(CFError):
    """Operands disagree on the ambient alphabet, or a letter is out of range."""


class ModeMismatchError(CFError):
    """Exact-rational and floating-point data were mixed in one operation."""


class DegreeError(CFError):
    """A coefficient beyond the stored validity degree was requested."""


class LevelSizeError(CFError):
    """A rational series level would need more than ``fps.MAX_LEVEL_BITS``
    bits of numerators over one denominator.  ``index`` is the position, in
    the level of degree ``degree``, of the value that passed the bound."""

    def __init__(self, message, degree, index):
        super().__init__(message)
        self.degree, self.index = degree, index


class ParseError(CFError):
    """A model or series file failed to parse.

    Carries the offending token and its position so command-line diagnostics
    can point at the exact spot.
    """

    def __init__(self, message, line=None, column=None, token=None):
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        tok = f" near {token!r}" if token is not None else ""
        super().__init__(f"{message}{tok}{loc}")


class MonomialBudgetError(CFError):
    """Iterated Lie differentiation exceeded the live-monomial budget."""


class DivergenceError(CFError):
    """A simulated state is not finite or exceeded the divergence guard."""


class StabilizationError(CFError):
    """The truncated Hankel rank did not stabilize within the degree budget."""


class ShiftInconsistencyError(CFError):
    """The shift system has no exact solution: the series is not rational
    at this truncation."""


class RankExceededError(CFError):
    """The data requires a state dimension above the allowed maximum."""


class PositivityError(CFError):
    """A quantity that must stay positive (e.g. an unnormalized filter mass)
    failed to do so, which signals a discretization failure."""
