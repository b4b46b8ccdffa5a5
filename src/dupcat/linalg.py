"""Exact linear algebra over the rationals.

Everything downstream (Hom spaces, Ext groups, AR translates) reduces to
kernels, cokernels and ranks of matrices with rational entries.  No floating
point is used anywhere.

Every entry is canonical: a Python ``int`` when it is integral, a
``Fraction`` with denominator > 1 only otherwise.  Constructors, sums,
scalings, products and every elimination result keep that form.  An int and
the Fraction of the same value are equal and hash alike, so the form changes
no value, no equality and no content key; it only keeps the integral case,
which is almost every entry met in practice, on native integers.

Most blocks met in practice are empty or an identity, so no arithmetic is
done for them: a product, stack or solve with an empty side returns the
shared zero matrix of its shape, a one-block stack returns its block, and a
product with an identity factor (or a solve against the identity) returns
the other matrix, which is immutable and canonical already.

Elimination runs on Python integers, in one routine (``_int_rref``).  A row
holding a Fraction is first scaled by the lcm of its denominators; all-int
rows are taken as they are.  Gauss-Jordan then runs with integer row
operations, each updated row divided by its content (the gcd of its
entries); a pivot row is divided by its pivot only where a caller reads
it, by exact division where it is whole.  The reduced row echelon form is
unique, so rank (its pivot count), nullspace, solve and cokernel return the
same values as Gauss-Jordan over Fraction would.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


def _canon(x):
    """x as a canonical entry: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _canon_row(row) -> tuple:
    """A list of int and Fraction entries as a tuple of canonical ones; a
    row of ints, the common case, passes through in one type scan."""
    if Fraction in map(type, row):
        return tuple(
            [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in row]
        )
    return tuple(row)


def _divided(row: list, d: int) -> list:
    """The canonical entries of the int list ``row`` divided by d != 0:
    exact division where it is whole."""
    if d == 1:
        return row
    return [Fraction(x, d) if x % d else x // d for x in row]


class RMatrix:
    """Immutable dense matrix of rationals.  Zero-sized shapes are legal."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple([_canon(x) for x in row]) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @staticmethod
    def _raw(data, rows: int, cols: int) -> "RMatrix":
        """Internal constructor: ``data`` is already a ``rows``-tuple of
        ``cols``-tuples of canonical entries, so it is neither re-wrapped
        nor checked."""
        m = _new(RMatrix)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_data(m, data)
        return m

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RMatrix is immutable")

    # -- constructors -------------------------------------------------

    # RMatrix is immutable, so one zero and one identity matrix per shape
    # serve every caller.

    @staticmethod
    @cache
    def zeros(rows: int, cols: int) -> "RMatrix":
        return RMatrix._raw(((0,) * cols,) * rows, rows, cols)

    @staticmethod
    @cache
    def identity(n: int) -> "RMatrix":
        return RMatrix._raw(
            tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)),
            n,
            n,
        )

    @staticmethod
    def from_columns(columns, rows: int) -> "RMatrix":
        """The matrix with the given columns, each a ``rows``-sequence of
        canonical entries (an RMatrix's entries or a nullspace vector), so
        they are taken as they are, with no ``_canon`` pass."""
        cols = len(columns)
        if any(len(c) != rows for c in columns):
            raise ValueError("ragged columns")
        if rows == 0 or cols == 0:
            return RMatrix.zeros(rows, cols)
        return RMatrix._raw(tuple(zip(*columns)), rows, cols)

    @staticmethod
    def column(entries) -> "RMatrix":
        return RMatrix([[x] for x in entries], len(entries), 1)

    # -- basic algebra -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"RMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RMatrix[{body}]"

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return RMatrix._raw(
            tuple(
                _canon_row([a + b for a, b in zip(r1, r2)])
                for r1, r2 in zip(self.data, other.data)
            ),
            self.rows,
            self.cols,
        )

    def scale(self, c) -> "RMatrix":
        c = _canon(c)
        return RMatrix._raw(
            tuple(_canon_row([c * x for x in row]) for row in self.data),
            self.rows,
            self.cols,
        )

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if not (self.rows and self.cols and other.cols):
            return RMatrix.zeros(self.rows, other.cols)
        if _is_identity(other):
            return self
        if _is_identity(self):
            return other
        # Row i of the product combines the rows of ``other`` with the
        # weights in row i of ``self``; zero weights and zero entries are
        # skipped, unit weights copy the row.
        out = []
        for row in self.data:
            acc = None
            for a, orow in zip(row, other.data):
                if not a:
                    continue
                term = orow if a == 1 else [a * x if x else 0 for x in orow]
                acc = term if acc is None else [x + y if y else x for x, y in zip(acc, term)]
            out.append((0,) * other.cols if acc is None else _canon_row(acc))
        return RMatrix._raw(tuple(out), self.rows, other.cols)

    def transpose(self) -> "RMatrix":
        if self.rows == 0:
            return RMatrix.zeros(self.cols, 0)
        return RMatrix._raw(tuple(zip(*self.data)), self.cols, self.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def column_at(self, j: int):
        return tuple(self.data[i][j] for i in range(self.rows))

    def flatten(self):
        """Row-major entry tuple; the vectorization used for span tests."""
        return tuple(x for row in self.data for x in row)

    # -- stacking ------------------------------------------------------

    @staticmethod
    def hstack(mats) -> "RMatrix":
        mats = list(mats)
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("row mismatch in hstack")
        if len(mats) == 1:
            return mats[0]
        cols = sum(m.cols for m in mats)
        if rows == 0 or cols == 0:
            return RMatrix.zeros(rows, cols)
        data = tuple(sum((m.data[i] for m in mats), ()) for i in range(rows))
        return RMatrix._raw(data, rows, cols)

    @staticmethod
    def vstack(mats) -> "RMatrix":
        mats = list(mats)
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column mismatch in vstack")
        if len(mats) == 1:
            return mats[0]
        rows = sum(m.rows for m in mats)
        if rows == 0 or cols == 0:
            return RMatrix.zeros(rows, cols)
        data = tuple(row for m in mats for row in m.data)
        return RMatrix._raw(data, rows, cols)

    @staticmethod
    def block_diag(mats) -> "RMatrix":
        mats = list(mats)
        if len(mats) == 1:
            return mats[0]
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = []
        c0 = 0
        for m in mats:
            left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
            out.extend(left + row + right for row in m.data)
            c0 += m.cols
        return RMatrix._raw(tuple(out), rows, cols)


def _is_identity(m: RMatrix) -> bool:
    """m is the shared identity of its size, or equal to it."""
    if m.rows != m.cols:
        return False
    ident = RMatrix.identity(m.rows)
    return m is ident or m.data == ident.data


# Slot setters for RMatrix._raw: the immutability guard in __setattr__ is
# bypassed at construction only.
_new = object.__new__
_set_rows = RMatrix.rows.__set__
_set_cols = RMatrix.cols.__set__
_set_data = RMatrix.data.__set__


# -- elimination -------------------------------------------------------


def _int_rows(m: RMatrix):
    """Each row of ``m`` times the lcm of its denominators, as int lists;
    a row of ints is copied as it is."""
    out = []
    for row in m.data:
        if Fraction in map(type, row):
            den = lcm(*[x.denominator for x in row])
            out.append([x.numerator * (den // x.denominator) for x in row])
        else:
            out.append(list(row))
    return out


def _int_rref(m: RMatrix):
    """Integer Gauss-Jordan: (rows, pivot columns).

    Row k < len(pivots) divided by its entry at ``pivots[k]`` is row k of
    the reduced row echelon form of ``m``; the remaining rows are zero.
    Every row is kept primitive (content 1), so entries stay small.
    """
    a = []
    for row in _int_rows(m):
        g = gcd(*row)
        a.append([x // g for x in row] if g > 1 else row)
    nrows = m.rows
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                pp, ff = p // g, f // g
                if pp == 1:
                    new = [x - ff * y for x, y in zip(row, prow)]
                else:
                    new = [pp * x - ff * y for x, y in zip(row, prow)]
                g = gcd(*new)
                a[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def pivot_columns(m: RMatrix) -> list:
    """The pivot columns of the reduced row echelon form of ``m``: the
    columns, left to right, that are independent of the columns before."""
    return _int_rref(m)[1]


def rank(m: RMatrix) -> int:
    """Rank over Q: the number of pivot columns."""
    return len(_int_rref(m)[1])


def nullspace_basis(m: RMatrix):
    """Basis of the right kernel, as a list of coordinate tuples."""
    return _kernel(m)[0]


def _kernel(m: RMatrix):
    """(basis of the right kernel, free columns) from one elimination:
    basis vector k is 1 at ``free[k]``, 0 at the other free columns, and
    otherwise nonzero only at pivot columns."""
    if m.cols == 0:
        return [], []
    if m.rows == 0:
        return list(RMatrix.identity(m.cols).data), list(range(m.cols))
    a, pivots = _int_rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r, p in enumerate(pivots):
            x, d = -a[r][f], a[r][p]
            if x:
                v[p] = Fraction(x, d) if x % d else x // d
        basis.append(tuple(v))
    return basis, free


def cokernel_basis(m: RMatrix):
    """(q, free): a surjection q with q @ m = 0 and rank q = rows - rank m,
    and the columns ``free`` of q.

    The rows of q form a basis of the left kernel of ``m``; q presents the
    quotient of the target space by the column space of ``m``.  Row k of q
    is 1 at ``free[k]`` and 0 at the other free columns, so selecting the
    free columns is a right inverse of q.
    """
    left, free = _kernel(m.transpose())
    return RMatrix._raw(tuple(left), len(left), m.rows), free


def solve_matrix(a: RMatrix, b: RMatrix):
    """A particular solution X of a @ X = b, or None if inconsistent.

    Free coordinates are set to zero, which makes the output deterministic.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    if a.cols == 0:
        return None if not b.is_zero() else RMatrix.zeros(0, b.cols)
    if a.rows == 0 or b.cols == 0:
        return RMatrix.zeros(a.cols, b.cols)
    if _is_identity(a):
        return b
    red, pivots = _int_rref(RMatrix.hstack([a, b]))
    if pivots and pivots[-1] >= a.cols:
        return None
    x = [(0,) * b.cols] * a.cols
    for r, p in enumerate(pivots):
        x[p] = tuple(_divided(red[r][a.cols:], red[r][p]))
    return RMatrix._raw(tuple(x), a.cols, b.cols)


def coordinates_in_span(basis_vectors, target):
    """Coefficients expressing ``target`` in the given vector list, or None."""
    n = len(target)
    mat = RMatrix.from_columns([tuple(v) for v in basis_vectors], n)
    sol = solve_matrix(mat, RMatrix.column(target))
    if sol is None:
        return None
    return tuple(sol.data[i][0] for i in range(sol.rows))
