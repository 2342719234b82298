"""Constructors that only the tests use."""

from stratdual.rational import RationalMatrix


def from_columns(columns, rows: int) -> RationalMatrix:
    """The rows x len(columns) matrix whose columns are the given vectors."""
    if any(len(col) != rows for col in columns):
        raise ValueError("column length mismatch")
    return RationalMatrix.from_rows(columns).transpose() if columns else RationalMatrix(rows, 0)


def pairing(report, degree: int):
    """The pairing of a ``DualityReport`` in the given degree."""
    for p in report.pairings:
        if p.degree == degree:
            return p
    raise KeyError(degree)
