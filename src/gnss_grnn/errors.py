"""Exception hierarchy shared across the toolkit.

Two families matter for callers: :class:`DataError` (the input violates a
contract) and :class:`NumericError` (the computation itself became
undefined). The CLI maps them to distinct exit codes.
"""

from __future__ import annotations


class DataError(ValueError):
    """Input data violates a documented precondition."""


class ParseError(DataError):
    """A station file could not be parsed.

    Carries the source name and 1-based physical line number when known.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 line: int | None = None) -> None:
        self.source = source
        self.line = line
        where = ""
        if source is not None:
            where = f"{source}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class NumericError(ArithmeticError):
    """A numeric procedure has no defined result for the given inputs."""


class BandwidthTooSmallError(NumericError):
    """Every kernel value underflowed to zero; the bandwidth must grow."""


class UndefinedMetricError(NumericError):
    """An accuracy criterion is undefined for the given prediction pairs.

    ``index`` is the position of the pair that left it undefined, when one
    pair did; the harness names that pair by its epoch instead.
    """

    def __init__(self, message: str, *, index: int | None = None) -> None:
        self.index = index
        super().__init__(message)
