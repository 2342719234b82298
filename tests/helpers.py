"""Constructors that only the tests use."""

from stratdual.rational import RationalMatrix


def from_columns(columns, rows: int) -> RationalMatrix:
    """The rows x len(columns) matrix whose columns are the given vectors."""
    if any(len(col) != rows for col in columns):
        raise ValueError("column length mismatch")
    return RationalMatrix.from_rows(columns).transpose() if columns else RationalMatrix(rows, 0)
