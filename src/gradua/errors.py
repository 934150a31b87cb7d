"""Exception types shared across the engine.

Everything raised on purpose derives from GraduaError so callers (and the
CLI) can catch engine failures without masking genuine bugs.
"""

from __future__ import annotations


class GraduaError(Exception):
    """Base class for all engine errors.

    `detail` is the structured data behind the message, where there is some:
    the action.LawReport of a broken law, or the commutation witnesses of a
    pair of families that does not commute.
    """

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


class DomainError(GraduaError):
    """An argument is outside the operation's domain."""


class UnknownVariableError(DomainError):
    """A variable name does not belong to the chart in use."""


class ChartMismatchError(DomainError):
    """Two values that must share a chart do not."""


class SingularMatrixError(GraduaError):
    """An exact linear solve hit a singular matrix."""


class NotInvertibleError(GraduaError):
    """A map has no polynomial inverse within the supported class."""


class UnsupportedChartError(GraduaError):
    """The chart is outside the scope of this operation."""


class EngineDefectError(GraduaError):
    """Two independent computation routes disagreed; this is a bug."""


class InconsistentActionError(GraduaError):
    """An action family violates a law the operation relies on."""


class NotGradedActionError(GraduaError):
    """The family is a monoid action but resists homogeneous coordinates."""


class DegenerateActionError(GraduaError):
    """Some direction is annihilated by every Taylor projection."""


class NotDoubleStructureError(GraduaError):
    """A pair of actions fails the requirements of a double structure."""


class ParseError(GraduaError):
    """A source program is syntactically or semantically malformed."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}, column {col}"
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{loc}: {message}")


class ResourceLimitError(ParseError):
    """A program asks for more than a fixed budget allows (see dsl's budgets)."""
