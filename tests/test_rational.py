import random
from fractions import Fraction
from math import gcd

import pytest

from stratdual.rational import (
    Echelon,
    RationalMatrix,
    Solver,
    SubspaceBasis,
    complement_basis,
    image_basis,
    kernel_basis,
    rref,
    solve,
    vec,
    vec_is_zero,
)


def M(rows):
    return RationalMatrix.from_rows(rows)


def test_rref_identity_already_reduced():
    pivots, reduced = rref(RationalMatrix.identity(2))
    assert pivots == (0, 1)
    assert reduced == RationalMatrix.identity(2)


def test_rref_zero_matrix():
    pivots, reduced = rref(RationalMatrix.zeros(2, 2))
    assert pivots == ()
    assert reduced == RationalMatrix.zeros(2, 2)


def test_rref_proportional_rows():
    pivots, reduced = rref(M([[1, 2], [2, 4]]))
    assert pivots == (0,)
    assert reduced == M([[1, 2], [0, 0]])


def test_rref_idempotent():
    m = M([[2, 4, 1], [3, 5, 0], [5, 9, 1]])
    pivots, reduced = rref(m)
    pivots2, reduced2 = rref(reduced)
    assert pivots == pivots2
    assert reduced == reduced2


def test_rref_transform_reproduces_input_exactly():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = RationalMatrix(rows, cols, {
            (i, j): rng.randint(-3, 3)
            for i in range(rows) for j in range(cols) if rng.random() < 0.6
        })
        pivots, reduced, t = rref(m, transform=True)
        assert t @ m == reduced
        # T is invertible: undo it and recover m exactly.
        t_pivots, t_red, t_inv = rref(t, transform=True)
        assert t_red == RationalMatrix.identity(rows)
        assert t_inv @ reduced == m


def test_kernel_identity_empty():
    assert kernel_basis(RationalMatrix.identity(3)).count == 0


def test_kernel_zero_full():
    k = kernel_basis(RationalMatrix.zeros(3, 3))
    assert k.count == 3
    assert k.matrix() == RationalMatrix.identity(3)


def test_kernel_one_equation():
    k = kernel_basis(M([[1, 1]]))
    assert k.matrix() == M([[1], [-1]])


def test_kernel_zero_rows_and_zero_columns():
    # No rows: every column is free and the basis is the identity.
    k = kernel_basis(RationalMatrix.zeros(0, 3))
    assert k.matrix() == RationalMatrix.identity(3) and k.pivot_rows == (0, 1, 2)
    # No columns: the zero space of Q^0.
    k = kernel_basis(RationalMatrix.zeros(3, 0))
    assert (k.ambient_dim, k.count, k.pivot_rows) == (0, 0, ())
    # Zero rows change nothing, and a zero column is a free column of its own.
    k = kernel_basis(M([[0, 0, 0], [1, 0, 2], [0, 0, 0]]))
    assert k.matrix() == M([[1, 0], [0, 1], [Fraction(-1, 2), 0]]) and k.pivot_rows == (0, 1)
    k = kernel_basis(M([[0, 2, 1], [0, 0, 3]]))
    assert k.matrix() == M([[1], [0], [0]]) and k.pivot_rows == (0,)


def test_image_identity_and_zero():
    assert image_basis(RationalMatrix.identity(2)).matrix() == RationalMatrix.identity(2)
    assert image_basis(RationalMatrix.zeros(3, 2)).count == 0


def test_image_rank_one():
    b = image_basis(M([[1, 2], [2, 4]]))
    assert b.matrix() == M([[1], [2]])


def test_rank_nullity_exact():
    rng = random.Random(3)
    for _ in range(100):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = RationalMatrix(rows, cols, {
            (i, j): rng.randint(-3, 3)
            for i in range(rows) for j in range(cols) if rng.random() < 0.5
        })
        assert m.rank() + kernel_basis(m).count == cols


def test_complement_lex_simple():
    sub = SubspaceBasis.from_vectors(2, [vec([1, 0])])
    assert complement_basis(sub, "lex").matrix() == M([[0], [1]])


def test_complement_empty_sub():
    sub = SubspaceBasis.from_vectors(3, [])
    assert complement_basis(sub, "lex").matrix() == RationalMatrix.identity(3)


def test_complement_strategies_differ():
    sub = SubspaceBasis.from_vectors(2, [vec([1, 1])])
    lex = complement_basis(sub, "lex")
    rev = complement_basis(sub, "reverse-lex")
    assert lex.matrix() == M([[0], [1]])
    assert rev.matrix() == M([[1], [0]])
    for comp in (lex, rev):
        assembled = sub.matrix().hstack(comp.matrix())
        assert assembled.rank() == 2


def test_complement_direct_sum_random():
    # 200 random sparse matrices with entries in {-3..3}: sub ∪ complement is
    # always a full-rank square assembly, for both strategies.
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        cols = rng.randint(0, n)
        m = RationalMatrix(n, cols, {
            (i, j): rng.randint(-3, 3)
            for i in range(n) for j in range(cols) if rng.random() < 0.5
        })
        sub = image_basis(m)
        for strategy in ("lex", "reverse-lex"):
            comp = complement_basis(sub, strategy)
            assert sub.count + comp.count == n
            assembled = sub.matrix().hstack(comp.matrix())
            assert assembled.rank() == n


def test_solve_identity():
    assert solve(RationalMatrix.identity(2), vec([3, 5])) == vec([3, 5])


def test_solve_no_solution():
    assert solve(RationalMatrix.zeros(1, 1), vec([1])) is None


def test_solve_underdetermined_verifies():
    m = M([[1, 2], [2, 4]])
    x = solve(m, vec([1, 2]))
    assert x is not None
    assert m.apply(x) == vec([1, 2])


def test_solver_reuse_and_matrix_rhs():
    m = M([[1, 1], [0, 1], [1, 0]])
    s = Solver(m)
    b = RationalMatrix.from_columns([vec([2, 1, 1]), vec([0, 0, 0])], 3)
    x = s.solve_matrix(b)
    assert x is not None
    assert m @ x == b
    assert s.solve(vec([1, 0, 0])) is None


def test_zero_dimension_edges():
    empty = RationalMatrix.zeros(0, 3)
    assert rref(empty)[0] == ()
    assert kernel_basis(empty).count == 3
    tall = RationalMatrix.zeros(3, 0)
    assert kernel_basis(tall).count == 0
    assert solve(tall, vec([0, 0, 0])) == ()
    assert solve(tall, vec([1, 0, 0])) is None


def test_subspace_reduce_is_canonical_coset_rep():
    sub = SubspaceBasis.from_vectors(3, [vec([1, 0, 2]), vec([0, 1, 1])])
    v = M([[3], [5], [Fraction(1, 2)]])
    r = sub.reduce(v)
    assert r.entry(0, 0) == 0 and r.entry(1, 0) == 0
    assert sub.reduce(v - r).is_zero()


def test_subspace_dependence_rejected():
    with pytest.raises(ValueError):
        SubspaceBasis.from_vectors(2, [vec([1, 1]), vec([2, 2])])


# -- the kernel against a dense Gauss-Jordan oracle -------------------------

def _oracle_rref(rows, ncols):
    """Textbook dense Gauss-Jordan on Fraction lists; pivots among the first
    ``ncols`` columns only, so augmented columns just ride along."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots), a


def _oracle_row_space(vectors, dim):
    """Canonical (RREF) basis of the span of ``vectors`` in Q^dim."""
    pivots, a = _oracle_rref(vectors, dim)
    return tuple(tuple(row) for row in a[:len(pivots)])


def _random_entry(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Fraction(rng.randint(-3, 3))


def _random_dense(rng):
    """A random matrix with the awkward cases mixed in: non-integer entries,
    zero rows and columns, empty shapes, duplicate and dependent rows."""
    rows = rng.choice([0, rng.randint(1, 4), rng.randint(1, 9)])
    cols = rng.choice([0, rng.randint(1, 4), rng.randint(1, 9)])
    density = rng.random()
    a = [[_random_entry(rng) if rng.random() < density else Fraction(0)
          for _ in range(cols)] for _ in range(rows)]
    if rows >= 2:
        kind = rng.randrange(5)
        i, j = rng.sample(range(rows), 2)
        if kind == 0:                       # duplicate row
            a[j] = list(a[i])
        elif kind == 1:                     # rational multiple of another row
            c = _random_entry(rng)
            a[j] = [c * x for x in a[i]]
        elif kind == 2:                     # combination of two rows
            k = rng.randrange(rows)
            a[j] = [x + _random_entry(rng) * y for x, y in zip(a[i], a[k])]
        elif kind == 3:                     # zero row
            a[j] = [Fraction(0)] * cols
    if cols and rng.random() < 0.3:         # zero column
        c = rng.randrange(cols)
        for row in a:
            row[c] = Fraction(0)
    return a


def _as_matrix(a, cols):
    return RationalMatrix(len(a), cols, {
        (i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if v})


def _matvec(a, x):
    return tuple(sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in a)


def _oracle_coset(basis_rows, v):
    """v reduced against RREF rows: zero at every pivot, equal to v modulo the span."""
    out = list(v)
    for w in basis_rows:
        p = next(j for j, x in enumerate(w) if x != 0)
        c = out[p]
        out = [x - c * y for x, y in zip(out, w)]
    return tuple(out)


def _columns(vectors, dim):
    return RationalMatrix.from_columns(list(vectors), dim)


def _fraction_entry(rng):
    """Zero, or a fraction that is mostly not an integer."""
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _assert_matches(got, want, cols):
    """``got`` holds the dense Fraction rows ``want`` and is stored canonically:
    equal, hash included, to the matrix built through ``__init__``, over a
    positive denominator in lowest terms, with row-major numerators."""
    assert got.dense() == [list(row) for row in want]
    built = _as_matrix(want, cols)
    assert got == built and hash(got) == hash(built)
    assert (got.rows, got.cols) == (len(want), cols)
    assert got.den > 0 and gcd(got.den, *got.entries.values()) == 1
    assert all(type(v) is int and v for v in got.entries.values())
    assert list(got.entries) == sorted(got.entries)


def _check_arithmetic(rng, a, m, rows, cols):
    """Products, sums, scaling, stacking, restriction, column reversal and
    ``apply`` of ``m`` (dense rows ``a``) against the dense Fraction oracle,
    round trips back to ``m``, and inputs left unchanged by the kernel."""
    b = [[_fraction_entry(rng) for _ in range(cols)] for _ in range(rows)]
    other = _as_matrix(b, cols)
    _assert_matches(m + other, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
    _assert_matches(m - other, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
    _assert_matches(m - m, [[Fraction(0)] * cols for _ in range(rows)], cols)
    _assert_matches(-other, [[-y for y in s] for s in b], cols)
    c = _fraction_entry(rng)
    _assert_matches(m.scaled(c), [[c * x for x in r] for r in a], cols)
    assert m.is_zero() or m.scaled(Fraction(1, 2)) != m   # == reads den too
    width = rng.randint(0, 5)
    p = [[_fraction_entry(rng) for _ in range(width)] for _ in range(cols)]
    _assert_matches(m @ _as_matrix(p, width),
                    [[sum((a[i][t] * p[t][j] for t in range(cols)), Fraction(0))
                      for j in range(width)] for i in range(rows)], width)
    q = [[_fraction_entry(rng) for _ in range(width)] for _ in range(rows)]
    _assert_matches(m.hstack(_as_matrix(q, width)), [r + s for r, s in zip(a, q)], cols + width)
    _assert_matches(m.vstack(other), a + b, cols)
    _assert_matches(m.transpose(), [[a[i][j] for i in range(rows)] for j in range(cols)], rows)
    _assert_matches(m.reversed_columns(), [r[::-1] for r in a], cols)
    kept_rows = sorted(rng.sample(range(rows), rng.randint(0, rows)))
    kept_cols = sorted(rng.sample(range(cols), rng.randint(0, cols)))
    _assert_matches(m.rows_at(kept_rows), [a[i] for i in kept_rows], cols)
    _assert_matches(m.columns_at(kept_cols), [[r[j] for j in kept_cols] for r in a],
                    len(kept_cols))
    x = tuple(_fraction_entry(rng) for _ in range(cols))
    got = m.apply(x)
    assert got == _matvec(a, x) and all(type(v) is Fraction for v in got)
    # Round trips give m back, hash included.
    half = rng.randint(0, cols)
    middle = len(kept_rows)
    for trip in (m.transpose().transpose(), m.reversed_columns().reversed_columns(),
                 m.columns_at(range(half)).hstack(m.columns_at(range(half, cols))),
                 m.rows_at(range(middle)).vstack(m.rows_at(range(middle, rows)))):
        assert trip == m and hash(trip) == hash(m)
    # Matrices share rows (a row restriction, a unit factor's product), so
    # eliminating, reducing or solving must leave its inputs' rows as they were.
    kept = m.rows_at(kept_rows)
    for n in (m, kept, RationalMatrix.identity(rows) @ m):
        n.rank()
        rref(n)
        rref(n, transform=True)
        Echelon(n).normal_form(n)
        Solver(n).solve_matrix(n)
        kernel_basis(n)
    assert m == _as_matrix(a, cols)
    assert kept == _as_matrix([a[i] for i in kept_rows], cols)


def test_kernel_matches_dense_oracle():
    rng = random.Random(2024)
    # The matrix right-hand sides and reduce inputs draw from their own
    # stream, so the 400 matrices stay the same as without them.
    extra = random.Random(2025)
    # Products, forward-pass echelons and normal forms draw from a third.
    third = random.Random(2026)
    # Arithmetic on numerators over one denominator draws from a fourth.
    fourth = random.Random(2027)
    shapes = set()
    for _ in range(400):
        a = _random_dense(rng)
        rows = len(a)
        cols = len(a[0]) if rows else rng.randint(0, 5)
        shapes.add((rows == 0, cols == 0))
        m = _as_matrix(a, cols)
        want_pivots, want = _oracle_rref(a, cols)
        rank = len(want_pivots)

        pivots, reduced = rref(m)
        assert pivots == want_pivots
        assert reduced == _as_matrix(want, cols)
        assert m.rank() == rank

        t_pivots, t_reduced, t = rref(m, transform=True)
        assert (t_pivots, t_reduced) == (pivots, reduced)
        assert (t.rows, t.cols) == (rows, rows)
        assert t @ m == reduced
        assert len(_oracle_rref(t.dense(), rows)[0]) == rows

        solver = Solver(m)
        x = tuple(_random_entry(rng) for _ in range(cols))
        rhs = _matvec(a, x)
        for b in (rhs, tuple(_random_entry(rng) for _ in range(rows))):
            aug_pivots, aug = _oracle_rref([row + [v] for row, v in zip(a, b)], cols + 1)
            got = solver.solve(b)
            if cols in aug_pivots:          # b is outside the column space
                assert got is None
                continue
            expected = [Fraction(0)] * cols
            for r, p in enumerate(aug_pivots):
                expected[p] = aug[r][cols]
            assert got == tuple(expected)
        assert solver.solve(rhs) is not None

        # A multi-column right-hand side solves column by column, and one
        # inconsistent column (a unit vector off the column space's pivot
        # rows) makes the whole solve None.
        columns = [[a[i][j] for i in range(rows)] for j in range(cols)]
        column_pivots, _ = _oracle_rref(columns, rows)
        consistent = [rhs] + [_matvec(a, [_random_entry(extra) for _ in range(cols)])
                              for _ in range(extra.randint(0, 3))]
        b = _columns(consistent, rows)
        got = solver.solve_matrix(b)
        assert got == _columns([solver.solve(v) for v in consistent], cols)
        assert m @ got == b
        outside = [i for i in range(rows) if i not in column_pivots]
        assert bool(outside) == (rank < rows)
        if outside:
            bad = tuple(Fraction(int(i == outside[0])) for i in range(rows))
            assert solver.solve(bad) is None
            mixed = list(consistent)
            mixed.insert(extra.randint(0, len(mixed)), bad)
            assert solver.solve_matrix(_columns(mixed, rows)) is None

        kernel = kernel_basis(m)
        assert kernel.count == cols - rank
        free = [j for j in range(cols) if j not in want_pivots]
        oracle_kernel = []
        for f in free:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for r, p in enumerate(want_pivots):
                v[p] = -want[r][f]
            oracle_kernel.append(v)
        kernel_rows = _oracle_row_space(oracle_kernel, cols)
        assert kernel.matrix() == _as_matrix(kernel_rows, cols).transpose()
        # Its pivot rows are the null space's RREF pivots: the free columns
        # of m when its columns are read from the last one back.
        kernel_pivots, _ = _oracle_rref(oracle_kernel, cols)
        reversed_pivots, _ = _oracle_rref([row[::-1] for row in a], cols)
        assert kernel.pivot_rows == kernel_pivots == tuple(
            j for j in range(cols) if cols - 1 - j not in reversed_pivots)
        assert (m @ kernel.matrix()).is_zero()

        image = image_basis(m)
        assert image.count == rank
        image_rows = _oracle_row_space(columns, rows)
        assert image.matrix() == _as_matrix(image_rows, rows).transpose()

        # reduce on a matrix of columns: the oracle's coset representatives,
        # and zero on members of the subspace.
        for sub, basis_rows, dim in ((kernel, kernel_rows, cols), (image, image_rows, rows)):
            vectors = [tuple(_random_entry(extra) for _ in range(dim))
                       for _ in range(extra.randint(0, 3))]
            if basis_rows:
                coeffs = [_random_entry(extra) for _ in basis_rows]
                vectors.append(tuple(sum((c * w[i] for c, w in zip(coeffs, basis_rows)),
                                         Fraction(0)) for i in range(dim)))
            want_reps = [_oracle_coset(basis_rows, v) for v in vectors]
            assert sub.reduce(_columns(vectors, dim)) == _columns(want_reps, dim)
            if basis_rows:
                assert vec_is_zero(want_reps[-1])

        # A product equals the dense one, entry order and hash included.
        width = third.randint(0, 5)
        b = [[_random_entry(third) if third.random() < 0.5 else Fraction(0)
              for _ in range(width)] for _ in range(cols)]
        product = m @ _as_matrix(b, width)
        want_product = _as_matrix([[sum((a[i][t] * b[t][j] for t in range(cols)), Fraction(0))
                                    for j in range(width)] for i in range(rows)], width)
        assert product == want_product
        assert list(product.entries) == list(want_product.entries)
        assert hash(product) == hash(want_product)

        # The forward pass alone: rref's pivots, the rows independent of the
        # rows before them, and normal forms modulo the row space.
        echelon = Echelon(m)
        assert (echelon.pivots, echelon.rank) == (want_pivots, rank)
        assert echelon.pivot_rows == column_pivots
        row_basis = want[:rank]
        vectors = [tuple(_random_entry(third) for _ in range(cols))
                   for _ in range(third.randint(0, 3))]
        if rank:
            vectors.append(tuple(sum((c * w[i] for c, w in zip(
                [_random_entry(third) for _ in row_basis], row_basis)), Fraction(0))
                for i in range(cols)))
        want_normal = [_oracle_coset(row_basis, v) for v in vectors]
        assert echelon.normal_form(_as_matrix(vectors, cols)) == _as_matrix(want_normal, cols)

        _check_arithmetic(fourth, a, m, rows, cols)
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def test_highest_lead_matches_dense_oracle():
    """``Echelon(m, max)`` is the lowest-lead pass of the column-reversed
    matrix read back in order: the oracle's pivots, pivot rows, normal forms
    and kernel, flipped.  Rows entered in another order, some left out, give
    the rows independent of those entered before them."""
    rng = random.Random(2028)
    for _ in range(400):
        a = _random_dense(rng)
        rows = len(a)
        cols = len(a[0]) if rows else rng.randint(0, 5)
        m = _as_matrix(a, cols)
        last = cols - 1
        flipped_pivots, flipped = _oracle_rref([row[::-1] for row in a], cols)
        rank = len(flipped_pivots)
        want_pivots = tuple(sorted(last - p for p in flipped_pivots))
        columns = [[a[i][j] for i in range(rows)] for j in range(cols)]
        column_pivots, _ = _oracle_rref(columns, rows)

        echelon = Echelon(m, max)
        assert (echelon.pivots, echelon.rank) == (want_pivots, rank)
        assert echelon.pivot_rows == column_pivots

        row_basis = flipped[:rank]
        vectors = [tuple(_random_entry(rng) for _ in range(cols))
                   for _ in range(rng.randint(0, 3))]
        if rank:
            coeffs = [_random_entry(rng) for _ in row_basis]
            vectors.append(tuple(sum((c * w[last - i] for c, w in zip(coeffs, row_basis)),
                                     Fraction(0)) for i in range(cols)))
        want_normal = [_oracle_coset(row_basis, v[::-1])[::-1] for v in vectors]
        normal = echelon.normal_form(_as_matrix(vectors, cols))
        assert normal == _as_matrix(want_normal, cols)
        if rank:
            assert normal.data[-1] == {}

        # Free column f gives e_f minus the flipped reduced rows' entries at f.
        want_kernel = []
        for f in (j for j in range(cols) if j not in want_pivots):
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for r, p in enumerate(flipped_pivots):
                v[last - p] = -flipped[r][last - f]
            want_kernel.append(v)
        assert echelon.kernel() == _columns(want_kernel, cols)

        order = rng.sample(range(rows), rng.randint(0, rows))
        entered = Echelon(m, max, order=order)
        independent = []
        for position, i in enumerate(order):
            before = len(_oracle_rref([a[j] for j in order[:position]], cols)[0])
            if len(_oracle_rref([a[j] for j in order[:position + 1]], cols)[0]) > before:
                independent.append(i)
        assert entered.pivot_rows == tuple(sorted(independent))
        kept = [a[i][::-1] for i in order]
        assert entered.pivots == tuple(sorted(last - p for p in _oracle_rref(kept, cols)[0]))
        assert m == _as_matrix(a, cols)
