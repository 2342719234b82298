"""Exact sparse linear algebra over the rationals.

A matrix is a tuple of sparse rows ``{col: int}`` of nonzero integer
numerators over one positive denominator, which is the layout the
elimination kernel works on: an elimination copies each row once, a product
walks the right factor's rows directly, and products and ``apply`` run in
ints with one gcd normalization per result; a product or a transpose with a
zero dimension is ``RationalMatrix.zeros`` at once.  Matrices share rows (a
restriction to rows, a unit factor, a solve), so no row is ever mutated once
a matrix holds it; the kernel works on copies.  ``fractions.Fraction``
appears only in the public constructors and the entry, row, column,
``apply`` and ``transpose_apply`` outputs; ``from_integer_rows`` takes the
layout itself, unchecked, from code that writes it directly.  Every rank,
echelon form, kernel, image and solve goes through one elimination kernel:
the forward pass clears one lead column at a time, the lowest or the
highest, by integer row combinations divided by the gcd of their entries,
and reduced rows come out over the lcm of their leads.  The reduced row
echelon form is unique, so every derived basis is reproducible bit for bit.
Subspaces are one sparse matrix in reduced column echelon form, which makes
subspace equality a comparison of matrices.
"""

from __future__ import annotations

from collections import ChainMap
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Optional

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
    matrices are equal field by field (dict equality ignores column order).
    Matrices compare by value and are not hashable, so none can key a
    store by accident.  A row dict may be shared with other matrices, and
    empty rows with each other, because no row is ever mutated once a
    matrix holds it.
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
    def from_integer_rows(cls, cols: int, data, den: int = 1) -> "RationalMatrix":
        """Wrap rows of nonzero int numerators (columns below ``cols``) over
        ``den`` > 0, in lowest terms.  The rows are the matrix's from then on.

        Nothing is checked or copied: this is how the kernel builds its
        results, and how the simplicial layer writes its incidence matrices
        straight into the kernel's layout."""
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
        return cls.from_integer_rows(n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        # One empty dict for every row: rows are never mutated.
        return cls.from_integer_rows(cols, [{}] * rows)

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
        return RationalMatrix.from_integer_rows(self.cols, [data[i] for i in indices], self.den)

    def columns_at(self, indices) -> "RationalMatrix":
        """The columns at ``indices`` (distinct), in that order."""
        position = {j: c for c, j in enumerate(indices)}
        return RationalMatrix.from_integer_rows(len(position), [
            {position[j]: v for j, v in row.items() if j in position} for row in self.data],
            self.den)

    def is_zero(self) -> bool:
        return not any(self.data)

    # -- arithmetic ---------------------------------------------------
    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not (self.rows and self.cols and other.cols):
            return RationalMatrix.zeros(self.rows, other.cols)
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
        return RationalMatrix.from_integer_rows(other.cols, data, self.den * other.den)

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

    def transpose_apply(self, v: Vector) -> Vector:
        """The transpose applied to ``v``, read off the rows: no transpose is built."""
        if len(v) != self.rows:
            raise ValueError("vector length mismatch")
        v = vec(v)
        vden = lcm(*(x.denominator for x in v))
        out = [0] * self.cols
        for x, row in zip(v, self.data):
            if x and row:
                c = x.numerator * (vden // x.denominator)
                for j, a in row.items():
                    out[j] += c * a
        den = self.den * vden
        return tuple(Fraction(x, den) if x else ZERO for x in out)

    def transpose(self) -> "RationalMatrix":
        if not (self.rows and self.cols):
            return RationalMatrix.zeros(self.cols, self.rows)
        data = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                data[j][i] = v
        # Empty rows share one dict, which the products of the result keep.
        empty = {}
        return RationalMatrix.from_integer_rows(self.rows, [row or empty for row in data],
                                                self.den)

    def _common(self, other: "RationalMatrix"):
        """Both matrices' numerator rows over the lcm of their denominators."""
        den = lcm(self.den, other.den)
        return den, _times(self.data, den // self.den), _times(other.data, den // other.den)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        den, left, right = self._common(other)
        shift = self.cols
        return RationalMatrix.from_integer_rows(self.cols + other.cols, [
            {**a, **{j + shift: v for j, v in b.items()}} if b else a
            for a, b in zip(left, right)], den)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        """``self`` above ``other``, sharing their rows over one denominator."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        den, top, bottom = self._common(other)
        return RationalMatrix.from_integer_rows(self.cols, [*top, *bottom], den)

    def scaled(self, c) -> "RationalMatrix":
        c = Fraction(c)
        if c == 0:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix.from_integer_rows(self.cols, _times(self.data, c.numerator),
                                                self.den * c.denominator)

    def __neg__(self) -> "RationalMatrix":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.cols == other.cols and self.den == other.den
                and self.data == other.data)

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


def _forward(rows: list, cols: int, lead=min, pivots=None):
    """Integer forward elimination of sparse rows (consumes ``rows``).

    Rows enter one at a time.  A row is reduced at its lead column, the
    lowest with ``lead=min`` and the highest with ``lead=max``, by the pivot
    row of that column until it either has no entry below ``cols`` left or
    leads at a column without a pivot, where it becomes the pivot.  Returns
    ``(pivots, rest)``: ``pivots`` maps each pivot column to its row,
    ``rest`` holds the rows left with entries only at columns >= ``cols``
    (the transform part of a zero row, which only ``lead=min`` reaches).
    ``pivots``, when given, holds the pivot rows of rows entered before;
    they are read, never changed, and new pivots are added to it.
    """
    if pivots is None:
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
    return RationalMatrix.from_integer_rows(cols, data, den)


def _back_substitute(pivots: dict, lead) -> dict:
    """Clear each pivot row of a pass led by ``lead`` at every other pivot
    column, in place, and return ``pivots``.

    Lowest lead first for ``lead=max`` (highest for min): each row reaches
    only pivots already reduced to their lead and free columns, so clearing
    one entry never refills another.
    """
    for c in sorted(pivots, reverse=lead is min):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _eliminate(row, pivots[k], k)
    return pivots


def rref(m: RationalMatrix, transform: bool = False):
    """Unique reduced row echelon form of ``m``.

    Returns (pivot_columns, reduced) or, with ``transform=True``,
    (pivot_columns, reduced, T) where T is invertible and T @ m == reduced.
    """
    cols = m.cols
    pivots, rest = _forward(_integer_rows(m, transform), cols)
    _back_substitute(pivots, min)
    order = sorted(pivots)
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
    the cleared columns.  A matrix with no rows or no columns has no pivot
    and no pivot row, so its pass copies and enters nothing.
    """

    __slots__ = ("cols", "lead", "cleared", "pivots", "pivot_rows", "_rows")

    def __init__(self, m: RationalMatrix, lead=min, order=None, cleared=frozenset()):
        self.cols = m.cols
        self.lead = lead
        self.cleared = cleared
        if not (m.rows and m.cols):
            self._rows = {}
            self.pivots = self.pivot_rows = ()
            return
        data = m.data if order is None else [m.data[i] for i in order]
        if cleared:
            rows = [{j: v for j, v in row.items() if j not in cleared} for row in data]
        else:
            rows = [dict(row) for row in data]
        self._rows, _ = _forward(rows, m.cols, lead)
        self.pivots = tuple(sorted(self._rows))
        # A row that depends on the rows before it is reduced to empty.
        if order is None:
            self.pivot_rows = tuple(i for i, row in enumerate(rows) if row)
        else:
            self.pivot_rows = tuple(sorted(i for i, row in zip(order, rows) if row))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, rows: list) -> dict:
        """Enter ``rows`` after this pass's own rows: the pivot rows they add,
        by lead column.

        This pass's pivot rows are read in place through an overlay, neither
        copied nor changed, so the result is that of one pass on this pass's
        rows followed by ``rows``.  ``rows`` are integer rows ``{col: int}``,
        consumed: each is left empty unless it became a pivot row.  Their
        columns are this pass's, none of them cleared, or below 0, which the
        lead orders as integers: before all of this pass's columns for
        ``lead=min``.
        """
        added = {}
        _forward(rows, self.cols, self.lead, ChainMap(added, self._rows))
        return added

    def with_pivot_rows(self, pivot_rows) -> "Echelon":
        """This pass, sharing its pivot rows' entries, with ``pivot_rows``
        as the row indices: the pass on the same rows placed among zero rows,
        which enter nothing and are never pivot rows."""
        other = Echelon.__new__(Echelon)
        for slot in Echelon.__slots__:
            setattr(other, slot, getattr(self, slot))
        other.pivot_rows = tuple(pivot_rows)
        return other

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

    def _back_substituted(self) -> dict:
        """Copies of the pivot rows, by lead column, each cleared at every
        other pivot column."""
        return _back_substitute({c: dict(row) for c, row in self._rows.items()}, self.lead)

    def kernel(self) -> RationalMatrix:
        """A basis of the kernel, zero at the cleared columns, as columns.

        One column per free column f (neither pivot nor cleared), in order:
        1 at f, 0 at the other free columns, and at each pivot column c the
        value that solves c's back-substituted pivot row.
        """
        free = [j for j in range(self.cols) if j not in self._rows and j not in self.cleared]
        position = {f: i for i, f in enumerate(free)}
        reduced = self._back_substituted()
        den = lcm(*(row[c] for c, row in reduced.items()))
        # Rows of at most one entry are shared by content, as a product
        # shares its right factor's rows: no row is mutated once it is held.
        shared = {}
        data = []
        for j in range(self.cols):
            if j in position:
                row = {position[j]: den}
            elif j in reduced:
                row = reduced[j]
                f = den // row[j]
                row = {position[k]: -f * v for k, v in row.items() if k != j}
            else:
                row = {}
            data.append(shared.setdefault(tuple(row.items()), row) if len(row) < 2 else row)
        return RationalMatrix.from_integer_rows(len(free), data, den)

    def projection(self, at) -> RationalMatrix:
        """The projection of Q^cols onto the row space along the unit vectors
        at the non-pivot columns, for a pass with nothing cleared, read at
        the positions ``at``: column c is the row space's part of the unit
        vector at c, at those positions.

        A unit vector at a non-pivot column lies in the complement, so its
        part is 0.  At a pivot column c, the back-substituted pivot row R_c
        lies in the row space and vanishes at every other pivot column, so
        R_c / R_c[c] minus the unit vector lies at non-pivot columns only:
        R_c / R_c[c] is the part.
        """
        position = {i: j for j, i in enumerate(at)}
        reduced = self._back_substituted()
        den = lcm(*(row[c] for c, row in reduced.items()))
        data = [{} for _ in position]
        for c, row in reduced.items():
            f = den // row[c]
            for i, v in row.items():
                j = position.get(i)
                if j is not None:
                    data[j][c] = f * v
        return RationalMatrix.from_integer_rows(self.cols, data, den)


class SubspaceBasis:
    """Canonical basis of a subspace of Q^ambient_dim.

    The basis is the reduced column echelon form, one ``RationalMatrix``
    with pivot rows strictly increasing, so two bases describe the same
    subspace iff their matrices compare equal.  ``pivot_rows`` is
    kept as given when it is a ``range``, as for a whole space, and as a
    tuple otherwise.
    """

    __slots__ = ("_matrix", "pivot_rows")

    def __init__(self, matrix: RationalMatrix, pivot_rows):
        self._matrix = matrix
        self.pivot_rows = pivot_rows if type(pivot_rows) is range else tuple(pivot_rows)

    @classmethod
    def row_space(cls, m: RationalMatrix) -> "SubspaceBasis":
        """Canonical basis of the span of the rows of ``m``."""
        pivots, reduced = rref(m)
        return cls(reduced.rows_at(range(len(pivots))).transpose(), pivots)

    @property
    def ambient_dim(self) -> int:
        return self._matrix.rows

    @property
    def count(self) -> int:
        return self._matrix.cols

    def matrix(self) -> RationalMatrix:
        return self._matrix

    def coordinates(self, m: RationalMatrix) -> Optional[RationalMatrix]:
        """X with basis @ X == m, or None when a column of m is outside the span.

        The basis is the identity at its pivot rows, so X is m at those rows;
        the product checks it.
        """
        x = m.rows_at(self.pivot_rows)
        return x if self._matrix @ x == m else None

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
    return SubspaceBasis.row_space(m.transpose())


# Each strategy's lead in the pass over a subspace's basis that picks its complement.
COMPLEMENT_LEAD = {"lex": min, "reverse-lex": max}


class Complement(SubspaceBasis):
    """A complement as ``complement_basis`` picks it, with the forward pass
    over the subspace's basis vectors that picked it, held until its reader
    takes it (``take_pass``): None for ``lex``, which runs no pass, and once
    taken."""

    __slots__ = ("_pass",)

    def __init__(self, matrix: RationalMatrix, pivot_rows, picked_by: Optional[Echelon]):
        super().__init__(matrix, pivot_rows)
        self._pass = picked_by

    def take_pass(self) -> Optional[Echelon]:
        """The pass that picked this complement, released here: a second
        call returns None."""
        picked, self._pass = self._pass, None
        return picked


def complement_basis(sub: SubspaceBasis, strategy: str = "lex") -> Complement:
    """Standard-basis complement of ``sub``: sub ⊕ complement = ambient.

    The unit vectors at the rows outside the pivots of the forward pass
    over sub's basis vectors, led as ``COMPLEMENT_LEAD`` says: ``lex`` by
    the lowest row and ``reverse-lex`` by the highest.  The basis is in
    reduced column echelon form, so each basis vector leads at its own
    pivot row, and those differ: the pass led by the lowest row eliminates
    nothing, and its pivots are sub's pivot rows.  So ``lex`` runs no pass
    and reads them; ``reverse-lex`` runs its pass, and the complement holds
    it for ``cotruncation.cotruncate``.
    """
    n = sub.ambient_dim
    if strategy not in COMPLEMENT_LEAD:
        raise ValueError(f"unknown complement strategy {strategy!r}")
    lead = COMPLEMENT_LEAD[strategy]
    picked = None if lead is min else Echelon(sub.matrix().transpose(), lead)
    pivot_rows = set(sub.pivot_rows if picked is None else picked.pivots)
    free = [i for i in range(n) if i not in pivot_rows]
    position = {i: c for c, i in enumerate(free)}
    units = RationalMatrix.from_integer_rows(len(free), [
        {position[i]: 1} if i in position else {} for i in range(n)])
    return Complement(units, free, picked)


class Solver:
    """Reusable linear solver for a fixed coefficient matrix.

    Factors once via rref-with-transform; each ``solve_matrix`` is then a
    cheap substitution.  Returns a particular solution with free variables
    set to zero, or None when the system is inconsistent.
    """

    __slots__ = ("matrix", "pivots", "transform", "rank")

    def __init__(self, m: RationalMatrix):
        self.matrix = m
        self.pivots, _, self.transform = rref(m, transform=True)
        self.rank = len(self.pivots)

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
        return RationalMatrix.from_integer_rows(b.cols, x, y.den)


class QuotientBasis:
    """Canonical representatives of ker d / im e in one degree of a complex.

    ``matrix`` holds them as columns; ``representatives`` lists them as
    dense vectors.  A vector of ker d is read at the kernel's lead positions
    ``lead``, where kernel vectors are determined by their values.  There,
    ``boundaries`` is the echelon form of im e led by the highest position,
    and a vector's normal form modulo it is supported on the ``chosen``
    positions (indices into ``lead``): its values there are the vector's
    class coordinates.  Where im e is zero ``boundaries`` is None, every
    position is chosen, and the coordinates are the values at ``lead``.
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
        at_lead = z.rows_at(self.lead)
        if self.boundaries is None:
            return at_lead
        normal = self.boundaries.normal_form(at_lead.transpose())
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

    With no spanning columns im e is zero, so P is empty and W is ker d.
    There is no boundary to reduce by: every position of ``lead`` is chosen,
    and a vector's coordinates are its values at ``lead``.  Then ``w`` must
    be ker d's reduced echelon basis, which ``Echelon.kernel`` gives for the
    pass on d cleared of P: with nothing cleared, ``lead`` is that pass's
    free columns, where the kernel is the identity.  So Q = I, and the
    representatives are ``w`` itself, with no pass, normal form, solve or
    product.  The count still decides: a pass cleared of columns that are
    not pivot rows of im e leaves them in ``lead`` but not in W.
    """
    if not spanning:
        if len(lead) != w.cols:
            return None
        return QuotientBasis(w, lead, None, list(range(len(lead))))
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
