"""Exact sparse linear algebra over the rationals.

A matrix holds sparse integer numerators over one positive denominator, so
products, sums and ``apply`` run in ints with one gcd normalization per
result; ``fractions.Fraction`` appears only in the public constructors and
the entry, row, column and ``apply`` outputs.  Every rank, echelon form,
kernel, image and solve goes through one elimination kernel on the
numerators as sparse integer rows ``{col: int}``: the forward pass clears one
lowest column at a time by integer row combinations divided by the gcd of
their entries, and reduced rows come out over the lcm of their leads.  The
reduced row echelon form is unique, so every derived basis is reproducible
bit for bit.  Subspaces are one sparse matrix in reduced column echelon form,
which makes subspace equality a syntactic comparison.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)


class RationalMatrix:
    """Immutable sparse rational matrix: entry (i, j) is ``entries[(i, j)] / den``.

    ``entries`` holds nonzero int numerators, row-major with ascending
    columns; ``den`` is positive and shares no factor with all of them, so
    equal matrices are equal field by field.
    """

    __slots__ = ("rows", "cols", "den", "entries")

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
        self.entries = {k: v.numerator * (den // v.denominator) for k, v in sorted(clean.items())}

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
    def _wrap(cls, rows: int, cols: int, entries: dict, den: int = 1) -> "RationalMatrix":
        """Wrap nonzero int numerators (in bounds, row-major) over ``den`` > 0, in lowest terms."""
        if den != 1:
            g = gcd(den, *entries.values())
            if g != 1:
                den //= g
                entries = {k: v // g for k, v in entries.items()}
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.den = den
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    # -- access -------------------------------------------------------
    def entry(self, i: int, j: int) -> Fraction:
        v = self.entries.get((i, j))
        return ZERO if v is None else Fraction(v, self.den)

    def row(self, i: int) -> Vector:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def column(self, j: int) -> Vector:
        return tuple(self.entry(i, j) for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def rows_at(self, indices) -> "RationalMatrix":
        """The rows at ``indices`` (strictly increasing), in that order."""
        position = {i: r for r, i in enumerate(indices)}
        return RationalMatrix._wrap(len(position), self.cols, {
            (position[i], j): v for (i, j), v in self.entries.items() if i in position},
            self.den)

    def columns_at(self, indices) -> "RationalMatrix":
        """The columns at ``indices`` (strictly increasing), in that order."""
        position = {j: c for c, j in enumerate(indices)}
        return RationalMatrix._wrap(self.rows, len(position), {
            (i, position[j]): v for (i, j), v in self.entries.items() if j in position},
            self.den)

    def dense(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.entries

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        other_rows = {}
        for (k, j), w in other.entries.items():
            other_rows.setdefault(k, []).append((j, w))
        get = other_rows.get
        # self's entries are row-major: one row's products are summed in acc,
        # then flushed with sorted columns when the next row (or the
        # sentinel row None, which has no terms) starts.
        entries = {}
        acc = {}
        row = None
        for (i, k), v in chain(self.entries.items(), (((None, None), 0),)):
            if i != row:
                for j in sorted(acc):
                    if acc[j]:
                        entries[(row, j)] = acc[j]
                acc = {}
                row = i
            for j, w in get(k, ()):
                if j in acc:
                    acc[j] += v * w
                else:
                    acc[j] = v * w
        return RationalMatrix._wrap(self.rows, other.cols, entries, self.den * other.den)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        v = vec(v)
        vden = lcm(*(x.denominator for x in v))
        nums = [x.numerator * (vden // x.denominator) for x in v]
        out = [0] * self.rows
        for (i, j), a in self.entries.items():
            x = nums[j]
            if x:
                out[i] += a * x
        den = self.den * vden
        return tuple(Fraction(x, den) if x else ZERO for x in out)

    def reversed_columns(self) -> "RationalMatrix":
        """The same matrix with its columns in reverse order."""
        last = self.cols - 1
        return RationalMatrix._wrap(self.rows, self.cols, dict(sorted(
            ((i, last - j), v) for (i, j), v in self.entries.items())), self.den)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._wrap(self.cols, self.rows, dict(sorted(
            ((j, i), v) for (i, j), v in self.entries.items())), self.den)

    def _common(self, other: "RationalMatrix"):
        """Both matrices' numerators over the lcm of their denominators."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return (den, {k: a * v for k, v in self.entries.items()},
                {k: b * v for k, v in other.entries.items()})

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den, entries, right = self._common(other)
        for (i, j), v in right.items():
            entries[(i, j + self.cols)] = v
        return RationalMatrix._wrap(self.rows, self.cols + other.cols,
                                    dict(sorted(entries.items())), den)

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if c == 0:
            return RationalMatrix(self.rows, self.cols)
        n = c.numerator
        return RationalMatrix._wrap(self.rows, self.cols, {
            k: n * v for k, v in self.entries.items()}, self.den * c.denominator)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        den, entries, right = self._common(other)
        for k, v in right.items():
            s = entries.get(k, 0) + v
            if s:
                entries[k] = s
            else:
                del entries[k]
        return RationalMatrix._wrap(self.rows, self.cols, dict(sorted(entries.items())), den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(self.entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def rank(self) -> int:
        return len(_forward(_integer_rows(self, False), self.cols)[0])


def _integer_rows(m: RationalMatrix, transform: bool) -> list:
    """The numerators of ``m``, i.e. ``m`` scaled by ``den``, as ``{col: int}`` rows.

    With ``transform`` the identity rides along at columns ``m.cols + i``,
    scaled by ``den`` like its row.
    """
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
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


def _scaled_rows(rows: int, cols: int, scaled: list, offset: int = 0) -> RationalMatrix:
    """The matrix whose row r is ``row / scale`` for the r-th ``(scale, row)``
    in ``scaled``, read at columns ``offset`` to ``offset + cols - 1``.

    The numerators are over the lcm of the scales, one normalization for all.
    """
    den = lcm(*(scale for scale, _ in scaled))
    return RationalMatrix._wrap(rows, cols, {
        (r, k - offset): row[k] * (den // scale) for r, (scale, row) in enumerate(scaled)
        for k in sorted(row) if offset <= k < offset + cols}, den)


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

    One integer pivot row per pivot column, each led by its lowest column,
    with no back-substitution.  ``pivots`` are the pivot columns of ``rref``.
    ``pivot_rows`` are the rows of the matrix independent of the rows before
    them, which are the pivot columns of the transpose's ``rref``.
    """

    __slots__ = ("cols", "pivots", "pivot_rows", "_rows")

    def __init__(self, m: RationalMatrix):
        rows = _integer_rows(m, False)
        self._rows, _ = _forward(rows, m.cols)
        self.cols = m.cols
        self.pivots = tuple(sorted(self._rows))
        # A row that depends on the rows before it is reduced to empty.
        self.pivot_rows = tuple(i for i, row in enumerate(rows) if row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def normal_form(self, m: RationalMatrix) -> RationalMatrix:
        """The rows of m reduced modulo the row space.

        Each row's pivot entries are cleared lowest column first; a pivot row
        reaches only columns above its own, so a cleared entry never refills.
        The result vanishes at every pivot column, which makes it the unique
        such representative of the row's coset.
        """
        if m.cols != self.cols:
            raise ValueError("normal form of rows of the wrong length")
        cols = self.cols
        pivots = self._rows
        reduced = []
        for i, row in enumerate(_integer_rows(m, True)):
            # The transform entry at cols + i carries the row's integer scale.
            todo = [k for k in row if k in pivots]
            heapify(todo)
            while todo:
                c = heappop(todo)
                if c in row:
                    piv = pivots[c]
                    _eliminate(row, piv, c)
                    for k in piv:
                        if k != c and k in pivots:
                            heappush(todo, k)
            reduced.append((row.pop(cols + i), row))
        return _scaled_rows(m.rows, cols, reduced)


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
    """Canonical basis of the kernel (null space) of m."""
    pivots, reduced = rref(m)
    pivot_set = set(pivots)
    # Free column f gives the vector e_f - sum_r reduced[r, f] e_{pivots[r]}.
    free = {f: i for i, f in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    entries = {(i, f): reduced.den for f, i in free.items()}
    for (r, f), v in reduced.entries.items():
        i = free.get(f)
        if i is not None:
            entries[(i, pivots[r])] = -v
    return SubspaceBasis.row_space(RationalMatrix._wrap(
        len(free), m.cols, dict(sorted(entries.items())), reduced.den))


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
        pivots, _ = rref(sub.matrix().transpose().reversed_columns())
        pivot_rows = {n - 1 - p for p in pivots}
    else:
        raise ValueError(f"unknown complement strategy {strategy!r}")
    free = [i for i in range(n) if i not in pivot_rows]
    units = RationalMatrix._wrap(n, len(free), {(i, c): 1 for c, i in enumerate(free)})
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
        x = {}
        for (r, j), v in y.entries.items():
            if r >= self.rank:
                return None
            x[(self.pivots[r], j)] = v
        return RationalMatrix._wrap(self.matrix.cols, b.cols, x, y.den)


class QuotientBasis:
    """Canonical representatives of ker d / im e in one degree of a complex.

    ``matrix`` holds them as columns; ``representatives`` lists them as
    dense vectors.  A vector of ker d is read at the kernel's lead positions
    ``lead``, where kernel vectors are determined by their values.  There,
    ``boundaries`` is the echelon form of im e with trailing pivots, and a
    vector's normal form modulo it is supported on the ``chosen`` positions
    (indices into ``lead``): its values there are the vector's class
    coordinates.
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
        rows = z.rows_at(self.lead).transpose().reversed_columns()
        normal = self.boundaries.normal_form(rows).reversed_columns()
        return normal.columns_at(self.chosen).transpose()

    def __repr__(self):
        return f"QuotientBasis(dim {self.dimension} in Q^{self.matrix.rows})"


def quotient_basis(d: RationalMatrix, e: RationalMatrix, lead,
                   image_rows) -> Optional[QuotientBasis]:
    """Representatives of ker d / im e from forward-pass pivots.

    ``lead`` are the lead positions of ker d's reduced echelon basis and
    ``image_rows`` the pivot rows P of im e.  W = ker d ∩ {x_P = 0}
    complements im e in ker d.  With Q the class coordinates of W's columns,
    the representatives are W Q^{-1}: the elements of W whose coordinates
    are unit vectors.  None when W and the chosen positions differ in count
    or Q is singular, which d∘e = 0 and correct pivots rule out.
    """
    dim = d.cols
    outside = [j for j in range(dim) if j not in image_rows]
    # Any basis of W will do; the column-reversed kernel is the cheap one to eliminate.
    w = kernel_basis(d.columns_at(outside).reversed_columns()).matrix()
    flip = len(outside) - 1
    W = RationalMatrix._wrap(dim, w.cols, dict(sorted(
        ((outside[flip - i], j), v) for (i, j), v in w.entries.items())), w.den)
    boundaries = Echelon(e.rows_at(lead).transpose().reversed_columns())
    trailing = set(boundaries.pivots)
    chosen = [i for i in range(len(lead)) if len(lead) - 1 - i not in trailing]
    basis = QuotientBasis(None, lead, boundaries, chosen)
    if len(chosen) != W.cols:
        return None
    inverse = Solver(basis.coordinates(W)).solve_matrix(RationalMatrix.identity(W.cols))
    if inverse is None:
        return None
    basis.matrix = W @ inverse
    return basis


def solve(m: RationalMatrix, rhs: Vector) -> Optional[Vector]:
    """Some x with m @ x = rhs, or None when no solution exists."""
    return Solver(m).solve(rhs)
