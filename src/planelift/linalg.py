"""Exact rational matrices and fraction-free elimination.

Everything in this package reduces to exact linear algebra over the
rationals: ranks and kernels of collinearity matrices, determinants of
coordinate triples, and enumeration of minors.  Entries are ints or
Fractions, as their inputs and arithmetic left them; every elimination
runs on one fraction-free update, _eliminate(), over denominator-cleared
integer rows, so intermediate values stay integral and bounded.

Row and column index sets passed to minor() / all_minors() are 1-based,
matching the point labels used throughout the package.  Raw entry access
on QMatrix is 0-based.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, prod


# The largest size of a decimal exponent that parse_rat reads: Python
# reads no int of more decimal digits than this from text either, while
# twelve characters such as '1e1000000000' would write one of 415 MB.
MAX_DECIMAL_EXPONENT = 4300

# The text parse_rat reads, the same on every Python: an integer, p/q,
# or a decimal with an optional exponent, with ASCII whitespace allowed
# only around the number.  Fraction's own grammar grew '_' separators in
# 3.11 and spaces around '/' in 3.12.
_RATIONAL = re.compile(
    r"\s*(?P<sign>[-+]?)(?:(?P<num>\d+)/(?P<den>\d+)|(?=\.?\d)(?P<int>\d*)"
    r"(?:\.(?P<frac>\d*))?(?:[eE](?P<esign>[-+]?)(?P<exp>\d+))?)\s*",
    re.ASCII)


def parse_rat(text):
    """Parse a rational written as 'p', 'p/q' or a decimal such as '0.5'
    or '-1e3' into a Fraction; a decimal is read exactly.  Anything else
    raises ValueError, and a decimal exponent above MAX_DECIMAL_EXPONENT
    in size OverflowError, before any digit of the value is built."""
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        sign, num, den, whole, frac, esign, exp = match.groups()
        exp = (exp or "").lstrip("0")
        # Any ten digits are over the bound; fewer int() reads at once.
        if len(exp) > 9 or int(exp or 0) > MAX_DECIMAL_EXPONENT:
            raise OverflowError("decimal exponent of %r is out of range "
                                "(at most %d in size)"
                                % (text, MAX_DECIMAL_EXPONENT))
        try:
            if den is None:
                # The value is the digits times 10 ** shift.
                frac = frac or ""
                num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
                shift = (int(esign + exp) if exp else 0) - len(frac)
                num *= 10 ** max(shift, 0)
                den = 10 ** max(-shift, 0)
            else:
                num, den = int(num), int(den)
        except ValueError:
            # More digits in one part than int() reads, as in Fraction.
            pass
        else:
            if den:
                return Fraction(-num if sign == "-" else num, den)
    raise ValueError("not a rational number: %r" % (text,))


# str prints an int or a Fraction as 'p' or 'p/q', with a positive
# denominator; the name stays for callers that import it.
format_rat = str


def _exact(values):
    """values as a tuple, after checking that each is an int or a
    Fraction: a float has no exact value to keep, so it is rejected,
    and so is a bool, which is an int but no number."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            raise TypeError("not an int or Fraction: %r" % (v,))
    return values


def _int_row(row):
    """(row times the lcm m of its denominators, as ints; m)."""
    m = 1
    for e in row:
        m = m * e.denominator // gcd(m, e.denominator)
    return [e.numerator * (m // e.denominator) for e in row], m


class QMatrix:
    """Dense matrix of ints and Fractions, immutable by convention.

    The constructor copies its input rows and checks that every entry
    is exact, so instances can be shared freely.  It also keeps each
    row cleared to integers, times its scale (the lcm of the row's
    denominators), which every routine below reads: row scaling changes
    neither rank nor kernel, and a minor of the integer rows divided by
    the product of their scales is the minor of the matrix.
    """

    __slots__ = ("rows", "cols", "_data", "_ints", "_scales")

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
        cleared = [_int_row(row) for row in data]
        self._ints = [ints for ints, _ in cleared]
        self._scales = [m for _, m in cleared]

    @classmethod
    def of_ints(cls, rows, cols):
        """A matrix that takes over rows, lists of cols ints each,
        without copying or checking them; every row has scale 1."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data, m._ints = len(rows), cols, rows, rows
        m._scales = [1] * len(rows)
        return m

    def entry(self, i, j):
        """0-based entry access."""
        return self._data[i][j]

    def row(self, i):
        return list(self._data[i])

    def to_lists(self):
        return [list(row) for row in self._data]

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.rows, self.cols)


def _eliminate(rows, pivot_row, c, prev, lo):
    """The fraction-free update of each row of rows by pivot_row, whose
    pivot sits in column c: from column lo on, a row becomes

        (pivot * row - row[c] * pivot_row) // prev

    where prev is the pivot of the step before (1 at the first), and
    its entry in column c becomes zero.  The division is exact (see
    bareiss)."""
    pivot = pivot_row[c]
    zero = pivot - pivot
    for row in rows:
        a = row[c]
        for j in range(lo, len(row)):
            row[j] = (pivot * row[j] - a * pivot_row[j]) // prev
        row[c] = zero


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
        if reduce:
            # Rows above the pivot may carry entries left of column c.
            _eliminate(a[:r], rowr, c, prev, 0)
        _eliminate(a[r + 1:], rowr, c, prev, c + 1)
        prev = rowr[c]
        pivots.append(c)
    return pivots, sign


def _det(a):
    """Determinant of the square integer rows a, as an int.

    Mutates a.
    """
    pivots, sign = bareiss(a)
    if len(pivots) < len(a):
        return 0
    return sign * a[-1][-1] if a else 1


def det(m):
    """Exact determinant of a square QMatrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return Fraction(_det([row[:] for row in m._ints]), prod(m._scales))


def rank(m):
    """Exact rank over the rationals.

    Row scaling does not change the rank, so it is taken from the
    integer rows.
    """
    return len(bareiss([row[:] for row in m._ints])[0])


_ZERO = Fraction(0)
_ONE = Fraction(1)


def nullspace(m, col_scales=None):
    """Canonical exact basis of the right kernel {z : m z = 0}: the
    reduced echelon form of the kernel, which is unique.  Every vector
    has its first nonzero entry equal to 1, at a column where the other
    vectors are zero, and the result does not depend on elimination
    order.  Basis size is cols - rank(m).

    With col_scales, one nonzero int b_p per column, it is the kernel
    of m diag(b) instead, {z : m w = 0 where w_p = b_p z_p}.  Column
    scaling keeps the zero pattern of the kernel vectors, so each is
    m's vector divided entrywise by b and renormalised, and each entry
    is written once as a Fraction.

    One reduced elimination of the integer rows, with the columns taken
    in reverse order, gives it.  Its pivots are the greedy column basis
    of m read from the right, so its free columns are the complement of
    that basis; by matroid duality they are the pivot columns of the
    kernel's reduced echelon form, read from the left.  Reversed, the
    elimination is d times the reduced echelon form R of m, and the
    kernel vector of free column f has a 1 at f, zeros at the other free
    columns and -R[row][f] at each pivot.  Pivots sit right of f in the
    original order or are zero there, so f is the vector's first nonzero
    entry, and these vectors are exactly the rows of the kernel's
    reduced echelon form.
    """
    n = m.cols
    a = [row[::-1] for row in m._ints]
    pivots, _ = bareiss(a, reduce=True)
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    # The scales in the reversed column order of a.
    b = [1] * n if col_scales is None else col_scales[::-1]
    pivot_set = set(pivots)
    basis = []
    for f in range(n - 1, -1, -1):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[n - 1 - f] = _ONE
        bf = b[f]
        for prow, pcol in enumerate(pivots):
            e = a[prow][f]
            if e:
                v[n - 1 - pcol] = Fraction(-e * bf, d * b[pcol])
        basis.append(v)
    return basis


def _check_index_set(idx, bound, what):
    if not all(1 <= i <= bound for i in idx):
        raise IndexError("%s index out of range 1..%d" % (what, bound))
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("%s indices must be strictly increasing" % what)


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
    a = [[m._ints[i - 1][j - 1] for j in col_idx] for i in row_idx]
    return Fraction(_det(a), prod(m._scales[i - 1] for i in row_idx))


def _full_rank_minors(ints, denom, col_sets):
    """Yield (C, the minor of the integer rows ints on C, divided by
    denom) for each 1-based column set C of col_sets; the rows must
    have full rank.

    One bareiss(reduce=True) pass turns the rows, permuted with sign s,
    into d*R, where R is their reduced echelon form and d the last pivot,
    which is s times the minor on the pivot columns P.  So the minor on
    a column set C is s*d*det(R[:, C]).  The columns of C in P are unit
    columns of R; a Laplace expansion along them, with sign e, leaves
    the t x t block of d*R on the rows whose pivot is not in C and the
    columns of C not in P, so the minor is s*e*det(block)/d^(t-1).  It
    is an integer, so the division is exact.
    """
    a = [row[:] for row in ints]
    pivots, sign = bareiss(a, reduce=True)
    d = a[-1][pivots[-1]] if pivots else 1
    row_of = {c: i for i, c in enumerate(pivots)}
    for cols_sel in col_sets:
        parity = 0
        unit_rows = set()
        free = []
        for q, c in enumerate(cols_sel):
            i = row_of.get(c - 1)
            if i is None:
                free.append(c - 1)
            else:
                parity += q + i
                unit_rows.add(i)
        block = [[row[c] for c in free]
                 for i, row in enumerate(a) if i not in unit_rows]
        num = sign * _det(block) * d // d ** len(free)
        yield cols_sel, Fraction(-num if parity % 2 else num, denom)


def all_minors(m, k):
    """Yield every k x k minor of m exactly once, as a Fraction.

    Emission order is lexicographic in (row index set, column index
    set), with 1-based index tuples, so output is reproducible no
    matter how the work is scheduled.

    The row sets of m's integer rows are walked in order as a
    depth-first search over their prefixes: a prefix keeps the
    fraction-free echelon form of its rows, and each next row is
    reduced against it by bareiss()'s update, _eliminate().  A row that
    reduces to zero makes the prefix with it dependent, so every row
    set that contains that prefix is emitted as zeros, each certified
    by a dependent subset of its own rows.  A row set of full rank k has
    all its column minors read off one reduced elimination of its rows
    (_full_rank_minors).
    """
    if k < 0 or k > min(m.rows, m.cols):
        raise ValueError("minor size %d out of range for %d x %d"
                         % (k, m.rows, m.cols))
    ints, scales = m._ints, m._scales
    col_sets = list(combinations(range(1, m.cols + 1), k))
    zero = Fraction(0)
    n = m.rows
    sel = []      # the prefix, as 0-based increasing row indices
    echelon = []  # (pivot column, reduced row) of each prefix row
    i = 0         # the next row to try after the prefix
    while True:
        depth = len(sel)
        if depth == k or i > n - k + depth:
            if depth == k:
                head = tuple(r + 1 for r in sel)
                for cols_sel, value in _full_rank_minors(
                        [ints[r] for r in sel],
                        prod(scales[r] for r in sel), col_sets):
                    yield head, cols_sel, value
            if not sel:
                return
            i = sel.pop() + 1
            echelon.pop()
            continue
        x = ints[i][:]
        prev = 1
        for c, p in echelon:
            _eliminate((x,), p, c, prev, 0)
            prev = p[c]
        c = next((j for j, v in enumerate(x) if v), None)
        if c is None:
            head = tuple(r + 1 for r in sel) + (i + 1,)
            for rest in combinations(range(i + 2, n + 1), k - depth - 1):
                rows_sel = head + rest
                for cols_sel in col_sets:
                    yield rows_sel, cols_sel, zero
        else:
            sel.append(i)
            echelon.append((c, x))
        i += 1


def cross(u, v):
    """Cross product of two 3-vectors, in the ring of their entries;
    also the line through two points of the projective plane (and
    dually the intersection of two lines)."""
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def dot(u, v):
    """Dot product of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


class CrossTable(dict):
    """The cross products of pairs of a point set's columns, each
    computed when first read: table[a, b] is cols[a - 1] x cols[b - 1]
    for 1-based a and b.  Every bracket of the points is read off it:
    [a b c] is dot(table[a, b], cols[c - 1]), and [a b R_f] against the
    f-th standard frame point is table[a, b][f - 1].  A table belongs to
    one point set and is dropped with it."""

    __slots__ = ("cols",)

    def __init__(self, cols):
        super().__init__()
        self.cols = cols

    def __missing__(self, pair):
        a, b = pair
        self[pair] = w = cross(self.cols[a - 1], self.cols[b - 1])
        return w


def det3(p, q, r):
    """Determinant of three column 3-vectors: the bracket
    dot(cross(p, q), r) that CrossTable reads off."""
    return dot(cross(p, q), r)
