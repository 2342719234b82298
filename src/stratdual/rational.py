"""Exact sparse linear algebra over the rationals.

Matrices hold ``fractions.Fraction`` entries (arbitrary precision, always
reduced) in a sparse dict.  Every rank, echelon form, kernel, image and solve
goes through one elimination kernel on sparse integer rows ``{col: int}``:
each row is scaled to integers by the lcm of its denominators, the forward
pass clears one lowest column at a time by integer row combinations divided
by the gcd of their entries, and only the final back-substitution's
normalization divides by the pivots to produce Fractions.  The reduced row
echelon form is unique, so every derived basis is reproducible bit for bit
whatever order the kernel eliminates in.  Subspaces are kept in reduced
column echelon form, which makes subspace equality a syntactic comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


class RationalMatrix:
    """Immutable sparse rational matrix.

    Entries are stored in a dict keyed by (row, col); zeros are never stored
    and iteration is row-major with ascending columns.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                f = v if type(v) is Fraction else Fraction(v)
                if f:
                    clean[(i, j)] = f
        self.entries = dict(sorted(clean.items()))

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, rows_of_values: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(rows_of_values)
        cols = len(rows_of_values[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows_of_values):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                f = v if type(v) is Fraction else Fraction(v)
                if f:
                    entries[(i, j)] = f
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "RationalMatrix":
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                f = v if type(v) is Fraction else Fraction(v)
                if f:
                    entries[(i, j)] = f
        return cls(rows, len(columns), entries)

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: dict) -> "RationalMatrix":
        """Wrap ``entries`` as they are: nonzero Fractions in bounds, row-major."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    # -- access -------------------------------------------------------
    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), ZERO)

    def row(self, i: int) -> Vector:
        return tuple(self.entries.get((i, j), ZERO) for j in range(self.cols))

    def column(self, j: int) -> Vector:
        return tuple(self.entries.get((i, j), ZERO) for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def dense(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        other_rows = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, []).append((j, w))
        entries = {}
        for i, terms in by_row.items():
            acc = {}
            for k, v in terms:
                for j, w in other_rows.get(k, ()):
                    acc[j] = acc.get(j, ZERO) + v * w
            for j, s in acc.items():
                if s != 0:
                    entries[(i, j)] = s
        return RationalMatrix(self.rows, other.cols, entries)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (i, j), a in self.entries.items():
            x = v[j]
            if x != 0:
                out[i] += a * x
        return tuple(out)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              {(j, i): v for (i, j), v in self.entries.items()})

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if c == 0:
            return RationalMatrix(self.rows, self.cols)
        return RationalMatrix(self.rows, self.cols,
                              {k: c * v for k, v in self.entries.items()})

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            s = entries.get(k, ZERO) + v
            if s == 0:
                entries.pop(k, None)
            else:
                entries[k] = s
        return RationalMatrix(self.rows, self.cols, entries)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scaled(-1)

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def rank(self) -> int:
        return len(_forward(_integer_rows(self, False), self.cols)[0])


def _integer_rows(m: RationalMatrix, transform: bool) -> list:
    """The rows of ``m`` as sparse ``{col: int}`` dicts.

    Each row is scaled by the lcm of its denominators, which never changes
    the RREF.  With ``transform`` the identity rides along at columns
    ``m.cols + i``, scaled with its row.
    """
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    out = []
    for i, row in enumerate(rows):
        den = 1
        for v in row.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        ints = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        if transform:
            ints[m.cols + i] = den
        out.append(ints)
    return out


def _divide_content(row: dict) -> None:
    """Divide a nonempty integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def _eliminate(row: dict, piv: dict, c: int) -> None:
    """row <- p*row - a*piv with a/p = row[c]/piv[c] in lowest terms.

    Clears column ``c`` of ``row`` in integers; when the row had to be
    scaled, it is divided by the gcd of its entries to keep them small.
    """
    a = row[c]
    p = piv[c]
    g = gcd(a, p)
    if g != 1:
        a //= g
        p //= g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, v in piv.items():
        w = row.get(k, 0) - a * v
        if w:
            row[k] = w
        else:
            del row[k]
    if p != 1 and p != -1 and row:
        _divide_content(row)


def _forward(rows: list, cols: int):
    """Integer forward elimination of sparse rows (consumes ``rows``).

    Rows enter one at a time.  A row is reduced at its lowest column by the
    pivot row of that column until it either has no entry below ``cols``
    left or leads at a column without a pivot, where it becomes the pivot.
    Returns ``(pivots, rest)``: ``pivots`` maps each pivot column to its row,
    ``rest`` holds the rows left with entries only at columns >= ``cols``
    (the transform part of a zero row).
    """
    pivots = {}
    rest = []
    for row in rows:
        while row:
            c = min(row)
            if c >= cols:
                rest.append(row)
                break
            piv = pivots.get(c)
            if piv is None:
                _divide_content(row)
                pivots[c] = row
                break
            _eliminate(row, piv, c)
    return pivots, rest


def rref(m: RationalMatrix, transform: bool = False):
    """Unique reduced row echelon form of ``m``.

    Returns (pivot_columns, reduced) or, with ``transform=True``,
    (pivot_columns, reduced, T) where T is invertible and T @ m == reduced.
    """
    cols = m.cols
    pivots, rest = _forward(_integer_rows(m, transform), cols)
    order = sorted(pivots)
    # Back-substitution, last pivot first: every later pivot row is already
    # zero at all pivot columns but its own, so clearing one entry never
    # refills another.
    for c in reversed(order):
        row = pivots[c]
        for k in [k for k in row if k in pivots and k != c]:
            _eliminate(row, pivots[k], k)
    reduced = {}
    t = {}
    for r, c in enumerate(order):
        row = pivots[c]
        lead = row[c]
        for k in sorted(row):
            v = Fraction(row[k], lead)
            if k < cols:
                reduced[(r, k)] = v
            else:
                t[(r, k - cols)] = v
    pivot_cols = tuple(order)
    reduced = RationalMatrix._trusted(m.rows, cols, reduced)
    if not transform:
        return pivot_cols, reduced
    for r, row in enumerate(rest, len(order)):
        _divide_content(row)
        for k in sorted(row):
            t[(r, k - cols)] = Fraction(row[k])
    return pivot_cols, reduced, RationalMatrix._trusted(m.rows, m.rows, t)


class SubspaceBasis:
    """Canonical basis of a subspace of Q^ambient_dim.

    Vectors are the columns of the reduced column echelon form with pivot
    rows strictly increasing, so two SubspaceBasis objects describe the same
    subspace iff they compare equal.
    """

    __slots__ = ("ambient_dim", "vectors", "pivot_rows")

    def __init__(self, ambient_dim: int, vectors, pivot_rows):
        self.ambient_dim = ambient_dim
        self.vectors = tuple(tuple(v) for v in vectors)
        self.pivot_rows = tuple(pivot_rows)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Vector],
                     require_independent: bool = True) -> "SubspaceBasis":
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector does not live in the ambient space")
        if not vectors:
            return cls(ambient_dim, (), ())
        return cls.row_space(RationalMatrix.from_rows(vectors), require_independent)

    @classmethod
    def row_space(cls, m: RationalMatrix,
                  require_independent: bool = True) -> "SubspaceBasis":
        """Canonical basis of the span of the rows of ``m``."""
        if not m.rows:
            return cls(m.cols, (), ())
        pivots, reduced = rref(m)
        if require_independent and len(pivots) != m.rows:
            raise ValueError("vectors are linearly dependent")
        canon = [[ZERO] * m.cols for _ in pivots]
        for (i, j), v in reduced.entries.items():
            canon[i][j] = v
        return cls(m.cols, canon, pivots)

    @property
    def count(self) -> int:
        return len(self.vectors)

    def matrix(self) -> RationalMatrix:
        return RationalMatrix.from_columns(self.vectors, self.ambient_dim)

    def reduce(self, v: Vector) -> Vector:
        """Canonical coset representative of v modulo this subspace."""
        out = list(v)
        for w, p in zip(self.vectors, self.pivot_rows):
            c = out[p]
            if c != 0:
                for i, wi in enumerate(w):
                    if wi != 0:
                        out[i] -= c * wi
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.reduce(v))

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim
                and self.vectors == other.vectors)

    def __hash__(self):
        return hash((self.ambient_dim, self.vectors))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.count} in Q^{self.ambient_dim})"


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the kernel (null space) of m."""
    pivots, reduced = rref(m)
    pivot_set = set(pivots)
    # Free column f gives the vector e_f - sum_r reduced[r, f] e_{pivots[r]}.
    free = {f: i for i, f in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    entries = {(i, f): ONE for f, i in free.items()}
    for (r, f), v in reduced.entries.items():
        i = free.get(f)
        if i is not None:
            entries[(i, pivots[r])] = -v
    return SubspaceBasis.row_space(RationalMatrix(len(free), m.cols, entries))


def image_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the column space of m."""
    return SubspaceBasis.row_space(m.transpose(), require_independent=False)


def complement_basis(sub: SubspaceBasis, strategy: str = "lex") -> SubspaceBasis:
    """Standard-basis complement of ``sub``: sub ⊕ complement = ambient.

    ``lex`` takes standard basis vectors at the non-pivot rows of the
    canonical echelon form (smallest indices first); ``reverse-lex`` does the
    analogous scan with pivots chosen from the largest row index downward.
    """
    n = sub.ambient_dim
    if strategy == "lex":
        pivot_rows = set(sub.pivot_rows)
    elif strategy == "reverse-lex":
        flipped = [tuple(reversed(v)) for v in sub.vectors]
        flipped_basis = SubspaceBasis.from_vectors(n, flipped)
        pivot_rows = {n - 1 - p for p in flipped_basis.pivot_rows}
    else:
        raise ValueError(f"unknown complement strategy {strategy!r}")
    vectors = []
    for i in range(n):
        if i not in pivot_rows:
            v = [ZERO] * n
            v[i] = ONE
            vectors.append(tuple(v))
    return SubspaceBasis.from_vectors(n, vectors)


class Solver:
    """Reusable linear solver for a fixed coefficient matrix.

    Factors once via rref-with-transform; each ``solve`` is then a cheap
    substitution.  Returns a particular solution with free variables set to
    zero, or None when the system is inconsistent.
    """

    __slots__ = ("matrix", "pivots", "reduced", "transform", "rank")

    def __init__(self, m: RationalMatrix):
        self.matrix = m
        self.pivots, self.reduced, self.transform = rref(m, transform=True)
        self.rank = len(self.pivots)

    def solve(self, rhs: Vector) -> Optional[Vector]:
        if len(rhs) != self.matrix.rows:
            raise ValueError("rhs length mismatch")
        y = self.transform.apply(rhs)
        for i in range(self.rank, self.matrix.rows):
            if y[i] != 0:
                return None
        x = [ZERO] * self.matrix.cols
        for r, p in enumerate(self.pivots):
            x[p] = y[r]
        return tuple(x)

    def solve_matrix(self, b: RationalMatrix) -> Optional[RationalMatrix]:
        if b.rows != self.matrix.rows:
            raise ValueError("shape mismatch")
        cols = []
        for j in range(b.cols):
            x = self.solve(b.column(j))
            if x is None:
                return None
            cols.append(x)
        return RationalMatrix.from_columns(cols, self.matrix.cols)


def solve(m: RationalMatrix, rhs: Vector) -> Optional[Vector]:
    """Some x with m @ x = rhs, or None when no solution exists."""
    return Solver(m).solve(rhs)
