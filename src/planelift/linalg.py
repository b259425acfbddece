"""Exact rational matrices and fraction-free elimination.

Everything in this package reduces to exact linear algebra over the
rationals: ranks and kernels of collinearity matrices, determinants of
coordinate triples, and enumeration of minors.  Entries are ints or
Fractions, as their inputs and arithmetic left them; every elimination
runs on one fraction-free kernel, bareiss(), over denominator-cleared
integer rows, so intermediate values stay integral and bounded.

Row and column index sets passed to minor() / all_minors() are 1-based,
matching the point labels used throughout the package.  Raw entry access
on QMatrix is 0-based.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def parse_rat(text):
    """Parse a rational written as 'p' or 'p/q' into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("not a rational number: %r" % (text,)) from exc


def format_rat(q):
    """Render a Fraction (or int) as 'p' or 'p/q' with positive
    denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _exact(values):
    """values as a tuple, after checking that each is an int or a
    Fraction: a float has no exact value to keep, so it is rejected."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError("not an int or Fraction: %r" % (v,))
    return values


class QMatrix:
    """Dense matrix of ints and Fractions, immutable by convention.

    The constructor copies its input rows and checks that every entry
    is exact, so instances can be shared freely.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_entries, cols=None):
        data = [_exact(row) for row in rows_of_entries]
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self._data = data

    @classmethod
    def empty(cls, cols):
        """A matrix with no rows but a definite column count."""
        return cls([], cols=cols)

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        """0-based entry access."""
        return self._data[i][j]

    def row(self, i):
        return list(self._data[i])

    def column(self, j):
        return [self._data[i][j] for i in range(self.rows)]

    def to_lists(self):
        return [list(row) for row in self._data]

    def transpose(self):
        return QMatrix([[self._data[i][j] for i in range(self.rows)]
                        for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, QMatrix)
                and self._data == other._data)

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.rows, self.cols)


def _int_rows(rows):
    """Scale each row of ints and Fractions to integers.

    Returns (int rows, denominator): row i of the result is rows[i]
    times the lcm of its denominators, and denominator is the product
    of those scales, so a determinant of the integer rows divided by it
    is the determinant of the input.
    """
    out = []
    denom = 1
    for row in rows:
        m = 1
        for e in row:
            m = m * e.denominator // gcd(m, e.denominator)
        out.append([int(e * m) for e in row])
        denom *= m
    return out, denom


def bareiss(a, reduce=False):
    """Fraction-free Gaussian elimination of the rows a, in place.

    Works over any integral domain whose elements support + - * and an
    exact //, such as int or Poly.  Returns (pivots, sign): the pivot
    columns in order, and the sign of the row permutation applied.
    Afterwards the first len(pivots) rows are in echelon form and the
    rest are zero.  Each update divides by the previous pivot, and the
    division is exact by Sylvester's determinant identity: every
    intermediate entry is itself a minor of the input (Bareiss 1968),
    so entries grow linearly instead of exponentially.

    With reduce=True the rows above each pivot are cleared as well, and
    the result is d times the reduced row echelon form, where d is the
    last pivot.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if a[i][c]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        rowr = a[r]
        pivot = rowr[c]
        zero = pivot - pivot
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            rowi = a[i]
            aic = rowi[c]
            # Rows above the pivot may carry entries left of column c.
            for j in range(c + 1 if i > r else 0, ncols):
                rowi[j] = (pivot * rowi[j] - aic * rowr[j]) // prev
            rowi[c] = zero
        prev = pivot
        pivots.append(c)
    return pivots, sign


def _det(a, denom):
    """Determinant of the square integer rows a, divided by denom.

    Mutates a.
    """
    pivots, sign = bareiss(a)
    if len(pivots) < len(a):
        return Fraction(0)
    return Fraction(sign * a[-1][-1] if a else 1, denom)


def det(m):
    """Exact determinant of a square QMatrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det(*_int_rows(m.to_lists()))


def rank(m):
    """Exact rank over the rationals.

    Row scaling does not change the rank, so the matrix is first cleared
    to integers row by row.
    """
    a, _ = _int_rows(m.to_lists())
    return len(bareiss(a)[0])


def nullspace(m):
    """Canonical exact basis of the right kernel {z : m z = 0}.

    Reading the kernel off the reduced echelon form of m gives one
    vector per free column, with a 1 there and zeros at the other free
    columns; but its first nonzero entry may sit in an earlier pivot
    column, so that basis is not yet row-reduced.  A second reduction
    of the basis yields the reduced echelon form of the kernel, which
    is unique: every vector has its first nonzero entry equal to 1 and
    the result does not depend on elimination order.  Basis size is
    cols - rank(m).  Both passes run on integers.
    """
    a, _ = _int_rows(m.to_lists())
    pivots, _ = bareiss(a, reduce=True)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [0] * m.cols
        v[f] = d
        for prow, pcol in enumerate(pivots):
            v[pcol] = -a[prow][f]
        # Dividing out the content keeps the second pass on small
        # integers; it does not change the row space.
        g = gcd(*v)
        basis.append([x // g for x in v])
    if not basis:
        return []
    pivots, _ = bareiss(basis, reduce=True)
    d = basis[-1][pivots[-1]]
    return [[Fraction(x, d) for x in v] for v in basis]


def _check_index_set(idx, bound, what):
    prev = 0
    for i in idx:
        if not prev < i:
            raise ValueError("%s indices must be strictly increasing" % what)
        prev = i
    if idx and (idx[0] < 1 or idx[-1] > bound):
        raise IndexError("%s index out of range 1..%d" % (what, bound))


def minor(m, row_idx, col_idx):
    """Determinant of the submatrix on 1-based index sets.

    row_idx and col_idx are strictly increasing sequences of equal
    length; the empty minor is 1.
    """
    row_idx = tuple(row_idx)
    col_idx = tuple(col_idx)
    if len(row_idx) != len(col_idx):
        raise ValueError("minor needs equally many rows and columns")
    _check_index_set(row_idx, m.rows, "row")
    _check_index_set(col_idx, m.cols, "column")
    if not row_idx:
        return Fraction(1)
    sub = [[m.entry(i - 1, j - 1) for j in col_idx] for i in row_idx]
    return _det(*_int_rows(sub))


def all_minors(m, k):
    """Yield every k x k minor of m exactly once.

    Emission order is lexicographic in (row index set, column index
    set), with 1-based index tuples, so output is reproducible no
    matter how the work is scheduled.

    Each row set is cleared to integer rows once, and one integer
    elimination decides whether it has rank k.  If not, every minor of
    the row set is zero and is emitted as such without further
    arithmetic; otherwise each column selection costs one k x k
    fraction-free determinant of the integer rows.
    """
    if k < 0 or k > min(m.rows, m.cols):
        raise ValueError("minor size %d out of range for %d x %d"
                         % (k, m.rows, m.cols))
    col_sets = list(combinations(range(1, m.cols + 1), k))
    for rows_sel in combinations(range(1, m.rows + 1), k):
        ints, denom = _int_rows([m.row(i - 1) for i in rows_sel])
        if len(bareiss([row[:] for row in ints])[0]) < k:
            zero = Fraction(0)
            for cols_sel in col_sets:
                yield rows_sel, cols_sel, zero
            continue
        for cols_sel in col_sets:
            sub = [[row[c - 1] for c in cols_sel] for row in ints]
            yield rows_sel, cols_sel, _det(sub, denom)


def matvec(a, v):
    """Matrix times column vector, as a plain list."""
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    return [sum(x * y for x, y in zip(a.row(i), v)) for i in range(a.rows)]


def cross(u, v):
    """Cross product of two 3-vectors, in the ring of their entries;
    also the line through two points of the projective plane (and
    dually the intersection of two lines)."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def det3(p, q, r):
    """Determinant of three column 3-vectors."""
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))
