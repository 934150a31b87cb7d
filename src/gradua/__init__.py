"""gradua: exact arithmetic for weighted charts and polynomial scaling actions.

The engine works entirely over the rationals. Charts assign natural-number
weights to named coordinates; polynomials, maps between charts, and
one-parameter scaling families are analyzed symbolically, with every claimed
identity checked exactly.
"""

from .charts import GradedChart
from .errors import (
    ChartMismatchError,
    DegenerateActionError,
    DomainError,
    EngineDefectError,
    GraduaError,
    InconsistentActionError,
    NotDoubleStructureError,
    NotGradedActionError,
    NotInvertibleError,
    ParseError,
    ResourceLimitError,
    SingularMatrixError,
    UnknownVariableError,
    UnsupportedChartError,
)
from .graded import ActionFamily, PolyMap, compose, standard_action
from .wpoly import Rational, WPolynomial, monomial_basis, weighted_degree

__all__ = [
    "ActionFamily",
    "ChartMismatchError",
    "DegenerateActionError",
    "DomainError",
    "EngineDefectError",
    "GradedChart",
    "GraduaError",
    "InconsistentActionError",
    "NotDoubleStructureError",
    "NotGradedActionError",
    "NotInvertibleError",
    "ParseError",
    "PolyMap",
    "Rational",
    "ResourceLimitError",
    "SingularMatrixError",
    "UnknownVariableError",
    "UnsupportedChartError",
    "WPolynomial",
    "compose",
    "monomial_basis",
    "standard_action",
    "weighted_degree",
]

__version__ = "0.1.0"
