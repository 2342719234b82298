"""Exact sparse linear algebra over the rationals.

A matrix is a tuple of sparse rows ``{col: int}`` of nonzero integer
numerators over one positive denominator, which is the layout the elimination
kernel works on: an elimination copies each row once, a product walks the
right factor's rows directly, and products, sums and ``apply`` run in ints
with one gcd normalization per result.  Matrices share rows (a restriction to
rows, a unit factor, a solve), so no row is ever mutated once a matrix holds
it; the kernel works on copies.  ``fractions.Fraction`` appears only in the
public constructors and the entry, row, column and ``apply`` outputs.  Every
rank, echelon form, kernel, image and solve goes through one elimination
kernel: the forward pass clears one lead column at a time, the lowest or
the highest, by integer row combinations divided by the gcd of their
entries, and reduced rows come out over the lcm of their leads.  The
reduced row echelon form is unique, so every derived basis is reproducible
bit for bit.  Subspaces are one sparse matrix in reduced column echelon
form, which makes subspace equality a syntactic comparison.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

Vector = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


class RationalMatrix:
    """Immutable sparse rational matrix: entry (i, j) is ``data[i][j] / den``.

    ``data`` holds one dict ``{col: int}`` of nonzero int numerators per
    row; ``den`` is positive and shares no factor with all of them, so equal
    matrices are equal field by field (dict equality ignores column order,
    and the hash reads each row sorted).  A row dict may be shared with
    other matrices, and empty rows with each other, because no row is ever
    mutated once a matrix holds it.
    """

    __slots__ = ("rows", "cols", "den", "data")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if type(v) is not int and type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    clean[(i, j)] = v
        # Numerators over the lcm of reduced denominators share no factor with it.
        self.den = den = lcm(*(v.denominator for v in clean.values()))
        self.rows = rows
        self.cols = cols
        data = [{} for _ in range(rows)]
        for (i, j), v in clean.items():
            data[i][j] = v.numerator * (den // v.denominator)
        self.data = tuple(data)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rows(cls, rows_of_values: Sequence[Sequence]) -> "RationalMatrix":
        cols = len(rows_of_values[0]) if rows_of_values else 0
        if any(len(row) != cols for row in rows_of_values):
            raise ValueError("ragged rows")
        return cls(len(rows_of_values), cols, {
            (i, j): v for i, row in enumerate(rows_of_values) for j, v in enumerate(row)})

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "RationalMatrix":
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch")
        return cls.from_rows(columns).transpose() if columns else cls(rows, 0)

    @classmethod
    def _wrap(cls, cols: int, data, den: int = 1) -> "RationalMatrix":
        """Wrap rows of nonzero int numerators (columns below ``cols``) over
        ``den`` > 0, in lowest terms.  The rows are the matrix's from then on."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(row.values() for row in data))
            if g != 1:
                den //= g
                data = [{k: v // g for k, v in row.items()} for row in data]
        m = cls.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m.den = den
        m.data = tuple(data)
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._wrap(n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        # One empty dict for every row: rows are never mutated.
        return cls._wrap(cols, [{}] * rows)

    # -- access -------------------------------------------------------
    @property
    def entries(self):
        """The numerators as a read-only row-major ``{(i, j): int}``, columns ascending."""
        return MappingProxyType({(i, j): row[j] for i, row in enumerate(self.data)
                                 for j in sorted(row)})

    def entry(self, i: int, j: int) -> Fraction:
        v = self.data[i].get(j)
        return ZERO if v is None else Fraction(v, self.den)

    def row(self, i: int) -> Vector:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def column(self, j: int) -> Vector:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def rows_at(self, indices) -> "RationalMatrix":
        """The rows at ``indices``, in that order, sharing this matrix's rows."""
        data = self.data
        return RationalMatrix._wrap(self.cols, [data[i] for i in indices], self.den)

    def columns_at(self, indices) -> "RationalMatrix":
        """The columns at ``indices`` (distinct), in that order."""
        position = {j: c for c, j in enumerate(indices)}
        return RationalMatrix._wrap(len(position), [
            {position[j]: v for j, v in row.items() if j in position} for row in self.data],
            self.den)

    def dense(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.data)

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other.data
        if not any(right) or not any(self.data):
            return RationalMatrix.zeros(self.rows, other.cols)
        data = []
        for row in self.data:
            if not row:
                data.append(row)
                continue
            if len(row) == 1:
                # One term: the right factor's row, scaled (shared when the factor is 1).
                (k, v), = row.items()
                data.append(right[k] if v == 1 else {j: v * w for j, w in right[k].items()})
                continue
            acc = {}
            for k, v in row.items():
                for j, w in right[k].items():
                    if j in acc:
                        acc[j] += v * w
                    else:
                        acc[j] = v * w
            if 0 in acc.values():
                acc = {j: x for j, x in acc.items() if x}
            data.append(acc)
        return RationalMatrix._wrap(other.cols, data, self.den * other.den)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        v = vec(v)
        vden = lcm(*(x.denominator for x in v))
        nums = [x.numerator * (vden // x.denominator) for x in v]
        den = self.den * vden
        out = []
        for row in self.data:
            x = sum(a * nums[j] for j, a in row.items())
            out.append(Fraction(x, den) if x else ZERO)
        return tuple(out)

    def reversed_columns(self) -> "RationalMatrix":
        """The same matrix with its columns in reverse order."""
        last = self.cols - 1
        return RationalMatrix._wrap(self.cols, [
            {last - j: v for j, v in row.items()} for row in self.data], self.den)

    def transpose(self) -> "RationalMatrix":
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                data[j][i] = v
        # Empty rows share one dict, which the products of the result keep.
        empty = {}
        return RationalMatrix._wrap(self.rows, [row or empty for row in data], self.den)

    def _common(self, other: "RationalMatrix"):
        """Both matrices' numerator rows over the lcm of their denominators."""
        den = lcm(self.den, other.den)
        return den, _times(self.data, den // self.den), _times(other.data, den // other.den)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den, left, right = self._common(other)
        shift = self.cols
        return RationalMatrix._wrap(self.cols + other.cols, [
            {**a, **{j + shift: v for j, v in b.items()}} if b else a
            for a, b in zip(left, right)], den)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        """``self`` above ``other``, sharing their rows over one denominator."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        den, top, bottom = self._common(other)
        return RationalMatrix._wrap(self.cols, [*top, *bottom], den)

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if c == 0:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix._wrap(self.cols, _times(self.data, c.numerator),
                                    self.den * c.denominator)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        den, left, right = self._common(other)
        data = []
        for a, b in zip(left, right):
            if not a or not b:
                data.append(a or b)
                continue
            a = dict(a)
            for k, v in b.items():
                s = a.get(k, 0) + v
                if s:
                    a[k] = s
                else:
                    del a[k]
            data.append(a)
        return RationalMatrix._wrap(self.cols, data, den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.cols == other.cols and self.den == other.den
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den,
                     tuple(tuple(sorted(row.items())) for row in self.data)))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {sum(map(len, self.data))} entries)"

    def rank(self) -> int:
        return len(_forward(_integer_rows(self, False), self.cols)[0])


def _times(data, c: int):
    """The rows ``data`` scaled by the int ``c`` (the same rows when c is 1)."""
    return data if c == 1 else [{k: c * v for k, v in row.items()} for row in data]


def _integer_rows(m: RationalMatrix, transform: bool) -> list:
    """Copies of the numerator rows of ``m``, i.e. ``m`` scaled by ``den``,
    for the kernel to consume.

    With ``transform`` the identity rides along at columns ``m.cols + i``,
    scaled by ``den`` like its row.
    """
    rows = [dict(row) for row in m.data]
    if transform:
        for i, row in enumerate(rows):
            row[m.cols + i] = m.den
    return rows


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


def _forward(rows: list, cols: int, lead=min):
    """Integer forward elimination of sparse rows (consumes ``rows``).

    Rows enter one at a time.  A row is reduced at its lead column, the
    lowest with ``lead=min`` and the highest with ``lead=max``, by the pivot
    row of that column until it either has no entry below ``cols`` left or
    leads at a column without a pivot, where it becomes the pivot.  Returns
    ``(pivots, rest)``: ``pivots`` maps each pivot column to its row,
    ``rest`` holds the rows left with entries only at columns >= ``cols``
    (the transform part of a zero row, which only ``lead=min`` reaches).
    """
    pivots = {}
    rest = []
    for row in rows:
        while row:
            c = lead(row)
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


def _scaled_rows(rows: int, cols: int, scaled: list, offset: int = 0) -> RationalMatrix:
    """The ``rows``-row matrix whose row r is ``row / scale`` for the r-th
    ``(scale, row)`` in ``scaled``, read at columns ``offset`` to
    ``offset + cols - 1``, and zero past ``len(scaled)``.

    The numerators are over the lcm of the scales, one normalization for all.
    """
    den = lcm(*(scale for scale, _ in scaled))
    end = offset + cols
    data = []
    for scale, row in scaled:
        f = den // scale
        data.append({k - offset: f * v for k, v in row.items() if offset <= k < end})
    data += [{}] * (rows - len(scaled))
    return RationalMatrix._wrap(cols, data, den)


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
    # Each pivot row divided by its lead; the rows of T ride along past cols.
    led = [(pivots[c][c], pivots[c]) for c in order]
    reduced = _scaled_rows(m.rows, cols, led)
    if not transform:
        return tuple(order), reduced
    for row in rest:
        _divide_content(row)
    t = _scaled_rows(m.rows, m.rows, led + [(1, row) for row in rest], cols)
    return tuple(order), reduced, t


class Echelon:
    """Row echelon form of a matrix from the forward pass alone.

    One integer pivot row per pivot column, with no back-substitution.  With
    ``lead=min`` (the default) each pivot row is led by its lowest column and
    ``pivots`` are the pivot columns of ``rref``; with ``lead=max`` each is
    led by its highest column, ``pivots`` are the columns outside the span
    of the columns above them, and the other columns are the lead positions
    of the kernel's reduced echelon basis.  ``pivot_rows`` are the rows
    independent of the rows entered before them, which for rows entered in
    order are the pivot columns of the transpose's ``rref``, whatever the
    lead.

    ``order`` lists the rows to enter, in that order (all, first to last, by
    default); ``cleared`` columns are dropped from the one copy of the rows
    the pass consumes.  Both are for clearing.  A row left out that lies in
    the span of the rows entered before it, and a dropped column that lies
    in the span of the columns past it in the lead's order, change neither
    the pivots, nor the rank, nor the pivot rows.  ``kernel`` and
    ``normal_form`` are those of the matrix made of the entered rows without
    the cleared columns.
    """

    __slots__ = ("cols", "lead", "cleared", "pivots", "pivot_rows", "_rows")

    def __init__(self, m: RationalMatrix, lead=min, order=None, cleared=frozenset()):
        data = m.data if order is None else [m.data[i] for i in order]
        if cleared:
            rows = [{j: v for j, v in row.items() if j not in cleared} for row in data]
        else:
            rows = [dict(row) for row in data]
        self._rows, _ = _forward(rows, m.cols, lead)
        self.cols = m.cols
        self.lead = lead
        self.cleared = cleared
        self.pivots = tuple(sorted(self._rows))
        # A row that depends on the rows before it is reduced to empty.
        if order is None:
            self.pivot_rows = tuple(i for i, row in enumerate(rows) if row)
        else:
            self.pivot_rows = tuple(sorted(i for i, row in zip(order, rows) if row))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _lead_first(self, c: int) -> int:
        """Heap key that pops the column nearest the lead end first."""
        return c if self.lead is min else -c

    def normal_form(self, m: RationalMatrix) -> RationalMatrix:
        """The rows of m reduced modulo the row space.

        Each row's pivot entries are cleared lead end first (lowest column
        first for ``lead=min``); a pivot row reaches only columns past its
        own, so a cleared entry never refills.  The result vanishes at every
        pivot column, which makes it the unique such representative of the
        row's coset.
        """
        if m.cols != self.cols:
            raise ValueError("normal form of rows of the wrong length")
        cols = self.cols
        pivots = self._rows
        key = self._lead_first
        reduced = []
        for i, row in enumerate(_integer_rows(m, True)):
            # The transform entry at cols + i carries the row's integer scale.
            todo = [key(k) for k in row if k in pivots]
            heapify(todo)
            while todo:
                c = key(heappop(todo))
                if c in row:
                    piv = pivots[c]
                    _eliminate(row, piv, c)
                    for k in piv:
                        if k != c and k in pivots:
                            heappush(todo, key(k))
            reduced.append((row.pop(cols + i), row))
        return _scaled_rows(m.rows, cols, reduced)

    def kernel(self) -> RationalMatrix:
        """A basis of the kernel, zero at the cleared columns, as columns.

        One column per free column f (neither pivot nor cleared), in order:
        1 at f, 0 at the other free columns, and at each pivot column c the
        value that solves c's pivot row.  Back-substitution on copies of the
        pivot rows, lowest lead first for ``lead=max`` (highest for min):
        each row reaches only pivots already reduced to their lead and free
        columns, so clearing one entry never refills another.
        """
        pivots = self._rows
        free = [j for j in range(self.cols) if j not in pivots and j not in self.cleared]
        position = {f: i for i, f in enumerate(free)}
        reduced = {}
        for c in sorted(pivots, key=self._lead_first, reverse=True):
            row = dict(pivots[c])
            for k in [k for k in row if k != c and k in pivots]:
                _eliminate(row, reduced[k], k)
            reduced[c] = row
        den = lcm(*(row[c] for c, row in reduced.items()))
        data = []
        for j in range(self.cols):
            if j in position:
                data.append({position[j]: den})
            elif j in reduced:
                row = reduced[j]
                f = den // row[j]
                data.append({position[k]: -f * v for k, v in row.items() if k != j})
            else:
                data.append({})
        return RationalMatrix._wrap(len(free), data, den)


class SubspaceBasis:
    """Canonical basis of a subspace of Q^ambient_dim.

    The basis is the reduced column echelon form, one ``RationalMatrix``
    with pivot rows strictly increasing, so two SubspaceBasis objects
    describe the same subspace iff they compare equal.
    """

    __slots__ = ("_matrix", "pivot_rows")

    def __init__(self, matrix: RationalMatrix, pivot_rows):
        self._matrix = matrix
        self.pivot_rows = tuple(pivot_rows)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Vector],
                     require_independent: bool = True) -> "SubspaceBasis":
        vectors = [vec(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector does not live in the ambient space")
        if not vectors:
            return cls(RationalMatrix.zeros(ambient_dim, 0), ())
        return cls.row_space(RationalMatrix.from_rows(vectors), require_independent)

    @classmethod
    def row_space(cls, m: RationalMatrix,
                  require_independent: bool = True) -> "SubspaceBasis":
        """Canonical basis of the span of the rows of ``m``."""
        pivots, reduced = rref(m)
        if require_independent and len(pivots) != m.rows:
            raise ValueError("vectors are linearly dependent")
        return cls(reduced.rows_at(range(len(pivots))).transpose(), pivots)

    @property
    def ambient_dim(self) -> int:
        return self._matrix.rows

    @property
    def count(self) -> int:
        return self._matrix.cols

    def matrix(self) -> RationalMatrix:
        return self._matrix

    def reduce(self, m: RationalMatrix) -> RationalMatrix:
        """Canonical coset representatives of the columns of m modulo this subspace.

        The basis is the identity at its pivot rows, so ``m - B @ m[pivots]``
        clears every pivot row and changes m only by elements of the span.
        """
        return m - self._matrix @ m.rows_at(self.pivot_rows)

    def coordinates(self, m: RationalMatrix) -> Optional[RationalMatrix]:
        """X with basis @ X == m, or None when a column of m is outside the span.

        The basis is the identity at its pivot rows, so X is m at those rows;
        the product checks it.
        """
        x = m.rows_at(self.pivot_rows)
        return x if self._matrix @ x == m else None

    def __eq__(self, other):
        return isinstance(other, SubspaceBasis) and self._matrix == other._matrix

    def __hash__(self):
        return hash(self._matrix)

    def __repr__(self):
        return f"SubspaceBasis(dim {self.count} in Q^{self.ambient_dim})"


def kernel_basis(m: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of the kernel (null space) of m, from one forward pass
    led by the highest column.

    The kernel vector of free column f is 1 at f, 0 at the other free
    columns, and nonzero elsewhere only at pivot columns above f, whose rows
    lead there: that is already the reduced column echelon form, with the
    free columns as its pivot rows.
    """
    echelon = Echelon(m, max)
    pivots = set(echelon.pivots)
    return SubspaceBasis(echelon.kernel(), [j for j in range(m.cols) if j not in pivots])


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
        pivot_rows = set(Echelon(sub.matrix().transpose(), max).pivots)
    else:
        raise ValueError(f"unknown complement strategy {strategy!r}")
    free = [i for i in range(n) if i not in pivot_rows]
    position = {i: c for c, i in enumerate(free)}
    units = RationalMatrix._wrap(len(free), [
        {position[i]: 1} if i in position else {} for i in range(n)])
    return SubspaceBasis(units, free)


class Solver:
    """Reusable linear solver for a fixed coefficient matrix.

    Factors once via rref-with-transform; each ``solve`` is then a cheap
    substitution.  Returns a particular solution with free variables set to
    zero, or None when the system is inconsistent.
    """

    __slots__ = ("matrix", "pivots", "transform", "rank")

    def __init__(self, m: RationalMatrix):
        self.matrix = m
        self.pivots, _, self.transform = rref(m, transform=True)
        self.rank = len(self.pivots)

    def solve(self, rhs: Vector) -> Optional[Vector]:
        if len(rhs) != self.matrix.rows:
            raise ValueError("rhs length mismatch")
        x = self.solve_matrix(RationalMatrix.from_columns([rhs], len(rhs)))
        return None if x is None else x.column(0)

    def solve_matrix(self, b: RationalMatrix) -> Optional[RationalMatrix]:
        """X with matrix @ X == b, free variables zero; None if any column is inconsistent.

        ``transform @ b`` is the right-hand side carried through the
        elimination: its rows from ``rank`` on must vanish, and its row r
        is the value of the pivot variable ``pivots[r]``.
        """
        if b.rows != self.matrix.rows:
            raise ValueError("shape mismatch")
        y = self.transform @ b
        if any(y.data[self.rank:]):
            return None
        x = [{}] * self.matrix.cols
        for p, row in zip(self.pivots, y.data):
            x[p] = row
        return RationalMatrix._wrap(b.cols, x, y.den)


class QuotientBasis:
    """Canonical representatives of ker d / im e in one degree of a complex.

    ``matrix`` holds them as columns; ``representatives`` lists them as
    dense vectors.  A vector of ker d is read at the kernel's lead positions
    ``lead``, where kernel vectors are determined by their values.  There,
    ``boundaries`` is the echelon form of im e led by the highest position,
    and a vector's normal form modulo it is supported on the ``chosen``
    positions (indices into ``lead``): its values there are the vector's
    class coordinates.
    """

    __slots__ = ("matrix", "lead", "boundaries", "chosen")

    def __init__(self, matrix: RationalMatrix, lead=(), boundaries=None, chosen=()):
        self.matrix = matrix
        self.lead = lead
        self.boundaries = boundaries
        self.chosen = chosen

    @property
    def dimension(self) -> int:
        return self.matrix.cols

    @property
    def representatives(self):
        return tuple(self.matrix.columns())

    def coordinates(self, z: RationalMatrix) -> RationalMatrix:
        """Class coordinates of the columns of z (not checked to lie in ker d)."""
        if not self.chosen:
            return RationalMatrix.zeros(0, z.cols)
        normal = self.boundaries.normal_form(z.rows_at(self.lead).transpose())
        return normal.transpose().rows_at(self.chosen)

    def __repr__(self):
        return f"QuotientBasis(dim {self.dimension} in Q^{self.matrix.rows})"


def quotient_basis(w: RationalMatrix, e: RationalMatrix, lead,
                   spanning) -> Optional[QuotientBasis]:
    """Representatives of ker d / im e from forward-pass pivots.

    ``lead`` are the lead positions of ker d's reduced echelon basis, and
    the columns of ``w`` are a basis of W = ker d ∩ {x_P = 0}, with P the
    pivot rows of im e; W complements im e in ker d.  The columns of e at
    ``spanning`` span im e, so the echelon of im e enters only those.  With
    Q the class coordinates of W's columns, the representatives are
    W Q^{-1}: the elements of W whose coordinates are unit vectors,
    whichever basis of W ``w`` holds.  None when W and the chosen positions
    differ in count or Q is singular, which d∘e = 0 and correct pivots rule
    out.
    """
    boundaries = Echelon(e.rows_at(lead).transpose(), max, order=spanning)
    trailing = set(boundaries.pivots)
    chosen = [i for i in range(len(lead)) if i not in trailing]
    basis = QuotientBasis(None, lead, boundaries, chosen)
    if len(chosen) != w.cols:
        return None
    inverse = Solver(basis.coordinates(w)).solve_matrix(RationalMatrix.identity(w.cols))
    if inverse is None:
        return None
    basis.matrix = w @ inverse
    return basis


def solve(m: RationalMatrix, rhs: Vector) -> Optional[Vector]:
    """Some x with m @ x = rhs, or None when no solution exists."""
    return Solver(m).solve(rhs)
