"""Exception types shared across the package."""


class PermprivError(Exception):
    """Base class for every package-specific error."""


class EmptyInputError(PermprivError):
    """An operation received an empty column or table."""


class InvalidValueError(PermprivError):
    """A cell is NaN, infinite, or otherwise unusable."""


class ShapeMismatchError(PermprivError):
    """Two inputs disagree on record count, attribute count, or attribute order."""


class RankOutOfRangeError(PermprivError):
    """A requested rank or window parameter lies outside the valid range."""


class InsufficientDataError(PermprivError):
    """Too few records for the requested statistic."""


class CapExceededError(PermprivError):
    """Exhaustive enumeration would exceed the configured record cap."""


class InvalidTruthMappingError(PermprivError):
    """A linkage truth mapping is not a bijection onto the target records."""


class InvalidSpecError(PermprivError):
    """A generation, masking, or baseline spec fails validation."""


class ParseError(PermprivError):
    """A CSV cell could not be parsed as a finite number.

    Carries the 1-based data row and 1-based column of the offending cell.
    """

    def __init__(self, row: int, col: int, cell: str):
        super().__init__(f"cannot parse cell at row {row}, column {col}: {cell!r}")
        self.row = int(row)
        self.col = int(col)
        self.cell = cell


class RaggedRowError(PermprivError):
    """A CSV data row has the wrong number of fields. Carries the 1-based row."""

    def __init__(self, row: int, expected: int, got: int):
        super().__init__(f"row {row} has {got} fields, expected {expected}")
        self.row = int(row)
        self.expected = int(expected)
        self.got = int(got)


class EncodingError(PermprivError):
    """An input file is not UTF-8 text."""


class EmptyReportError(PermprivError):
    """Refusing to serialize a report with no analysis content."""
