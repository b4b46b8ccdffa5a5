import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dupcat.linalg import (
    RMatrix,
    cokernel_basis,
    coordinates_in_span,
    nullspace_basis,
    rank,
    rref,
    solve_matrix,
)


def M(rows):
    return RMatrix(rows)


def test_rank_basics():
    assert rank(RMatrix.identity(2)) == 2
    assert rank(RMatrix.zeros(3, 4)) == 0
    # [[1,2],[2,4]]: second row is twice the first, rank 1 by hand reduction
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(RMatrix.zeros(0, 5)) == 0
    assert rank(M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])) == 2


def test_nullspace_basics():
    assert nullspace_basis(RMatrix.identity(2)) == []
    assert len(nullspace_basis(RMatrix.zeros(2, 3))) == 3
    (v,) = nullspace_basis(M([[1, 2], [2, 4]]))
    # proportional to (2, -1)
    assert v[0] * (-1) == v[1] * 2
    assert any(x != 0 for x in v)


def test_cokernel_basics():
    q, free = cokernel_basis(RMatrix.identity(2))
    assert free == [] and q.rows == 0 and q.cols == 2
    q, free = cokernel_basis(RMatrix.zeros(2, 1))
    assert free == [0, 1]
    assert rank(q) == 2 and q.rows == 2 and q.cols == 2
    m = M([[1], [1]])
    q, free = cokernel_basis(m)
    assert free == [1]
    assert (q @ m).is_zero()


def _selection(free, rows):
    """The 0/1 matrix whose column k is the standard vector at free[k]."""
    return RMatrix.from_columns([RMatrix.identity(rows).data[j] for j in free], rows)


def _random_matrix(rng, rows, cols):
    return RMatrix(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        rows,
        cols,
    )


def test_rank_nullity_and_two_route_rank():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _random_matrix(rng, rows, cols)
        r = rank(m)
        assert r + len(nullspace_basis(m)) == cols
        # Bareiss agrees with Gauss-Jordan pivot count
        assert r == len(rref(m)[1])
        for v in nullspace_basis(m):
            assert (m @ RMatrix.column(v)).is_zero()
        q, free = cokernel_basis(m)
        assert (q @ m).is_zero()
        assert rank(q) == rows - r == len(free)


def test_solve_matrix_basics():
    rng = random.Random(21)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, rows, cols)
        x = _random_matrix(rng, cols, 2)
        b = a @ x
        sol = solve_matrix(a, b)
        assert sol is not None
        assert a @ sol == b
    assert solve_matrix(M([[1, 0], [0, 0]]), RMatrix.column([0, 1])) is None


def test_solve_without_equations_or_right_hand_columns():
    """No equations or no right-hand columns: the shared zero solution; the
    identity as the matrix: the right-hand side itself."""
    b = M([[1, Fraction(1, 2)], [0, 3]])
    assert solve_matrix(RMatrix.zeros(0, 3), RMatrix.zeros(0, 2)) is RMatrix.zeros(3, 2)
    assert solve_matrix(M([[1, 2], [2, 4]]), RMatrix.zeros(2, 0)) is RMatrix.zeros(2, 0)
    assert solve_matrix(RMatrix.identity(2), b) is b
    assert solve_matrix(M([[1, 0], [0, 1]]), b) == b
    assert solve_matrix(RMatrix.zeros(2, 0), b) is None
    assert solve_matrix(RMatrix.zeros(2, 0), RMatrix.zeros(2, 2)) == RMatrix.zeros(0, 2)
    with pytest.raises(ValueError):
        solve_matrix(RMatrix.zeros(0, 3), RMatrix.zeros(1, 2))


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError):
        RMatrix.from_columns([(), (1,)], 0)
    with pytest.raises(ValueError):
        RMatrix.from_columns([(1, 2), (3,)], 2)
    with pytest.raises(ValueError):
        RMatrix.from_columns([(1, 2, 3)], 2)
    assert RMatrix.from_columns([(), ()], 0) is RMatrix.zeros(0, 2)


def test_coordinates_in_span():
    coords = coordinates_in_span([(1, 0, 1), (0, 1, 1)], (2, 3, 5))
    assert coords == (2, 3)
    assert _canonical([coords])
    assert coordinates_in_span([(2, 0), (0, 3)], (1, 1)) == (Fraction(1, 2), Fraction(1, 3))
    assert coordinates_in_span([(1, 0, 0)], (0, 1, 0)) is None


# -- property tests against a Fraction Gauss-Jordan oracle ------------------


def _oracle_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _oracle_nullspace(rows, ncols):
    a, pivots = _oracle_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(tuple(v))
    return basis


def _oracle_solve(a_rows, b_rows, acols, bcols):
    a, pivots = _oracle_rref([ra + rb for ra, rb in zip(a_rows, b_rows)], acols + bcols)
    if any(p >= acols for p in pivots):
        return None
    x = [[Fraction(0)] * bcols for _ in range(acols)]
    for r, p in enumerate(pivots):
        x[p] = a[r][acols:]
    return x


def _canonical(rows):
    """Every entry is an int when integral, else a Fraction with
    denominator > 1: the one form the kernel hands out."""
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator > 1)
        for row in rows
        for x in row
    )


_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)


@st.composite
def _matrices(draw, max_rows=6, max_cols=6):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["zero", "copy", "fresh", "fresh"]))
        if kind == "zero" or (kind == "copy" and not data):
            data.append([Fraction(0)] * cols)
        elif kind == "copy":
            # a rational multiple of an earlier row: forces dependent rows
            src = draw(st.sampled_from(data))
            c = draw(_ENTRY)
            data.append([c * x for x in src])
        else:
            data.append([draw(_ENTRY) for _ in range(cols)])
    return RMatrix(data, rows, cols)


_PROPS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@_PROPS
@given(_matrices())
def test_rref_rank_nullspace_match_oracle(m):
    rows = [list(r) for r in m.data]
    want, want_pivots = _oracle_rref(rows, m.cols)
    got, pivots = rref(m)
    assert (got, pivots) == (want, want_pivots)
    assert _canonical(got)
    assert rank(m) == len(want_pivots)
    basis = nullspace_basis(m)
    if m.cols and m.rows:
        assert basis == _oracle_nullspace(rows, m.cols)
    assert _canonical(basis)
    assert len(basis) == m.cols - rank(m)


@_PROPS
@given(_matrices())
def test_cokernel_matches_oracle(m):
    q, free = cokernel_basis(m)
    if m.rows and m.cols:
        want = _oracle_nullspace([list(c) for c in zip(*m.data)], m.rows)
        assert [tuple(r) for r in q.data] == want
    assert (q.rows, q.cols) == (len(free), m.rows)
    assert _canonical(q.data)
    assert (q @ m).is_zero()
    assert q @ _selection(free, m.rows) == RMatrix.identity(len(free))


@_PROPS
@given(_matrices(max_cols=5), st.data())
def test_solve_matches_oracle(a, data):
    bcols = data.draw(st.integers(0, 3))
    b = RMatrix([[data.draw(_ENTRY) for _ in range(bcols)] for _ in range(a.rows)], a.rows, bcols)
    got = solve_matrix(a, b)
    if a.cols == 0:
        assert (got is None) == (not b.is_zero())
        return
    want = _oracle_solve([list(r) for r in a.data], [list(r) for r in b.data], a.cols, bcols)
    if want is None:
        assert got is None
    else:
        assert [list(r) for r in got.data] == want
        assert (got.rows, got.cols) == (a.cols, bcols)
        assert _canonical(got.data)
        assert a @ got == b


@_PROPS
@given(_matrices(), _matrices(), _ENTRY)
def test_matrix_algebra_matches_entrywise_definition(m, n, c):
    """Sums, products, transposes and stacks equal their entrywise definitions."""
    def check(mat, rows, nrows, ncols):
        assert mat == RMatrix(rows, nrows, ncols)
        assert (mat.rows, mat.cols) == (nrows, ncols) and len(mat.data) == nrows
        assert all(type(r) is tuple and len(r) == ncols for r in mat.data)
        assert _canonical(mat.data)

    d = m.data
    t = [[d[i][j] for i in range(m.rows)] for j in range(m.cols)]
    assert _canonical(d)
    check(RMatrix.from_columns(t, m.rows), [list(r) for r in d], m.rows, m.cols)
    check(RMatrix.column(m.flatten()), [[x] for r in d for x in r], m.rows * m.cols, 1)
    check(m.transpose(), t, m.cols, m.rows)
    check(m.scale(c), [[c * x for x in r] for r in d], m.rows, m.cols)
    check(m + m.scale(c), [[x + c * x for x in r] for r in d], m.rows, m.cols)
    check(m - m, [[0] * m.cols for _ in d], m.rows, m.cols)
    check(RMatrix.zeros(m.rows, m.cols), [[0] * m.cols for _ in d], m.rows, m.cols)
    check(RMatrix.identity(m.cols), [[int(i == j) for j in range(m.cols)] for i in range(m.cols)], m.cols, m.cols)
    check(m @ m.transpose(), [[sum((x * y for x, y in zip(r, s)), Fraction(0)) for s in d] for r in d], m.rows, m.rows)
    check(m.transpose() @ m, [[sum((x * y for x, y in zip(r, s)), Fraction(0)) for s in t] for r in t], m.cols, m.cols)
    check(RMatrix.hstack([m, m.scale(c)]), [list(r) + [c * x for x in r] for r in d], m.rows, 2 * m.cols)
    check(RMatrix.vstack([m, m.scale(c)]), [list(r) for r in d] + [[c * x for x in r] for r in d], 2 * m.rows, m.cols)
    z = [Fraction(0)]
    check(
        RMatrix.block_diag([m, n]),
        [list(r) + z * n.cols for r in d] + [z * m.cols + list(r) for r in n.data],
        m.rows + n.rows,
        m.cols + n.cols,
    )
    # The shortcuts: an identity factor (shared, or only equal to it), a
    # one-block stack and an empty side give the entrywise definition too.
    rows = [list(r) for r in d]
    check(m @ RMatrix.identity(m.cols), rows, m.rows, m.cols)
    check(RMatrix.identity(m.rows) @ m, rows, m.rows, m.cols)
    check(m @ RMatrix([[int(i == j) for j in range(m.cols)] for i in range(m.cols)], m.cols, m.cols), rows, m.rows, m.cols)
    check(RMatrix.hstack([m]), rows, m.rows, m.cols)
    check(RMatrix.vstack([m]), rows, m.rows, m.cols)
    check(RMatrix.block_diag([m]), rows, m.rows, m.cols)
    check(m @ RMatrix([[]] * m.cols, m.cols, 0), [[] for _ in d], m.rows, 0)
    check(RMatrix([], 0, m.rows) @ m, [], 0, m.cols)
    check(RMatrix([[]] * n.rows, n.rows, 0) @ RMatrix([], 0, m.cols), [z * m.cols for _ in range(n.rows)], n.rows, m.cols)
    check(RMatrix.hstack([m, RMatrix.zeros(m.rows, 0)]), rows, m.rows, m.cols)
    check(RMatrix.hstack([RMatrix([], 0, m.cols), RMatrix([], 0, n.cols)]), [], 0, m.cols + n.cols)
    check(RMatrix.vstack([RMatrix.zeros(0, m.cols), m]), rows, m.rows, m.cols)
    check(RMatrix.vstack([RMatrix([[]] * m.rows, m.rows, 0), RMatrix([[]] * n.rows, n.rows, 0)]), [[] for _ in range(m.rows + n.rows)], m.rows + n.rows, 0)
    check(RMatrix.from_columns([], m.rows), [[] for _ in d], m.rows, 0)
    check(RMatrix.from_columns([()] * m.cols, 0), [], 0, m.cols)


def test_fractions_that_meet_integers_come_out_as_ints():
    half = M([[Fraction(1, 2), Fraction(-3, 2)]])
    cases = {
        "1/2 + 1/2": (half + half, [[1, -3]]),
        "2 * 1/2": (half.scale(2), [[1, -3]]),
        "1/2 * 2": (half.scale(Fraction(2)), [[1, -3]]),
        "product": (half @ M([[2], [Fraction(2, 3)]]), [[0]]),
        "difference": (half - half, [[0, 0]]),
        "mixed": (half + M([[Fraction(1, 2), 1]]), [[1, Fraction(-1, 2)]]),
        "constructor": (M([[Fraction(4, 2), "3/1", 2.0, True]]), [[2, 3, 2, 1]]),
    }
    for name, (got, want) in cases.items():
        assert got == M(want), name
        assert _canonical(got.data), name
    (v,) = nullspace_basis(M([[Fraction(1, 2), Fraction(1, 2)]]))
    assert v == (-1, 1) and _canonical([v])
    sol = solve_matrix(M([[Fraction(1, 3)]]), M([[Fraction(2, 3)]]))
    assert sol == M([[2]]) and _canonical(sol.data)
    rows, _ = rref(M([[2, 4, 3]]))
    assert rows == [[1, 2, Fraction(3, 2)]] and _canonical(rows)


def test_zeros_and_identity_are_shared_per_shape():
    assert RMatrix.zeros(2, 3) is RMatrix.zeros(2, 3)
    assert RMatrix.identity(4) is RMatrix.identity(4)
    assert RMatrix.zeros(2, 3) is not RMatrix.zeros(3, 2)
    assert _canonical(RMatrix.zeros(2, 3).data) and _canonical(RMatrix.identity(4).data)
    # Integral entries hash and compare as their Fractions did.
    f = RMatrix._raw(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), 2, 2)
    assert f == RMatrix.identity(2) and hash(f) == hash(RMatrix.identity(2))


def test_ragged_input_is_rejected():
    with pytest.raises(ValueError):
        RMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RMatrix([[1, 2]], 1, 3)
    with pytest.raises(ValueError):
        RMatrix([[1], [2]], 1, 1)
    with pytest.raises(ValueError):
        RMatrix([], 2, 0)
    assert RMatrix([[1, Fraction(1, 2)]]).data == ((Fraction(1), Fraction(1, 2)),)
    assert _canonical(RMatrix([[Fraction(1), Fraction(1, 2)]]).data)
