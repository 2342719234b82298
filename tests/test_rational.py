import random
from fractions import Fraction

import pytest

from stratdual.rational import (
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
    assert k.vectors == (vec([1, -1]),)


def test_image_identity_and_zero():
    assert image_basis(RationalMatrix.identity(2)).matrix() == RationalMatrix.identity(2)
    assert image_basis(RationalMatrix.zeros(3, 2)).count == 0


def test_image_rank_one():
    b = image_basis(M([[1, 2], [2, 4]]))
    assert b.vectors == (vec([1, 2]),)


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
    assert complement_basis(sub, "lex").vectors == (vec([0, 1]),)


def test_complement_empty_sub():
    sub = SubspaceBasis.from_vectors(3, [])
    assert complement_basis(sub, "lex").matrix() == RationalMatrix.identity(3)


def test_complement_strategies_differ():
    sub = SubspaceBasis.from_vectors(2, [vec([1, 1])])
    lex = complement_basis(sub, "lex")
    rev = complement_basis(sub, "reverse-lex")
    assert lex.vectors == (vec([0, 1]),)
    assert rev.vectors == (vec([1, 0]),)
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
    v = vec([3, 5, Fraction(1, 2)])
    r = sub.reduce(v)
    assert r[0] == 0 and r[1] == 0
    assert sub.contains(tuple(a - b for a, b in zip(v, r)))


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


def test_kernel_matches_dense_oracle():
    rng = random.Random(2024)
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
        assert kernel.vectors == _oracle_row_space(oracle_kernel, cols)
        for v in kernel.vectors:
            assert vec_is_zero(m.apply(v))

        image = image_basis(m)
        columns = [[a[i][j] for i in range(rows)] for j in range(cols)]
        assert image.count == rank
        assert image.vectors == _oracle_row_space(columns, rows)
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}
