"""Coordinate charts with natural-number weights.

A chart is an ordered list of named variables, each carrying a weight >= 0.
Weight-0 variables play the role of base coordinates; positive weights tag
fiber coordinates. The degree of a chart is its largest weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, UnknownVariableError

VarSpec = tuple[str, int]


class _lookup:
    """A chart lookup built on first read and kept in the chart's __dict__,
    outside the fields (functools.cached_property without its lock)."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__

    def __get__(self, chart, owner=None):
        if chart is None:
            return self
        value = chart.__dict__[self.name] = self.build(chart)
        return value


@dataclass(frozen=True)
class GradedChart:
    """An ordered, weighted variable context."""

    name: str
    variables: tuple[VarSpec, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for var, weight in self.variables:
            if not var:
                raise DomainError("empty variable name")
            if var in seen:
                raise DomainError(f"duplicate variable {var!r} in chart {self.name!r}")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 0:
                raise DomainError(f"variable {var!r} has invalid weight {weight!r}")
            seen.add(var)

    @_lookup
    def _index(self) -> dict[str, int]:
        return {var: i for i, (var, _) in enumerate(self.variables)}

    @_lookup
    def names(self) -> tuple[str, ...]:
        return tuple(var for var, _ in self.variables)

    @_lookup
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.variables)

    @property
    def degree(self) -> int:
        """Largest weight present; 0 for an empty chart."""
        return max(self.weights, default=0)

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, var: str) -> bool:
        return var in self._index

    def index_of(self, var: str) -> int:
        try:
            return self._index[var]
        except KeyError:
            raise UnknownVariableError(f"variable {var!r} is not in chart {self.name!r}") from None

    def weight_of(self, var: str) -> int:
        return self.variables[self.index_of(var)][1]

    def extend(self, extra: Iterable[VarSpec]) -> GradedChart:
        """Chart with extra variables appended; existing positions are kept."""
        return GradedChart(self.name, self.variables + tuple(extra))

    def restrict(self, keep: Sequence[str], name: str | None = None) -> GradedChart:
        """Sub-chart with the named variables, in declaration order."""
        keep_set = set(keep)
        for var in keep_set:
            self.index_of(var)
        vars_kept = tuple(spec for spec in self.variables if spec[0] in keep_set)
        return GradedChart(name or self.name, vars_kept)


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A name not in `taken`, derived from `base` deterministically."""
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"
