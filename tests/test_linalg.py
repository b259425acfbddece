import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (BIG, frac_kernel_rref, gauss_rank, leibniz_det, matvec,
                     rand_matrix, rand_product, transpose)
from planelift.linalg import (MAX_DECIMAL_EXPONENT, QMatrix, all_minors,
                              cross, det, det3, format_rat, minor, nullspace,
                              parse_rat, rank)

# The quadrilateral-set collinearity matrix evaluated at abscissas
# (0, 1, 2, 3, 4, 5), written out by hand from the construction rule:
# row (i1 < i2 < i3) carries x_{i2}-x_{i3}, x_{i3}-x_{i1}, x_{i1}-x_{i2}
# in columns i1, i2, i3.  Lines: 123, 156, 246, 345.
QS_AT_012345 = [
    [-1, 2, -1, 0, 0, 0],
    [-1, 0, 0, 0, 5, -4],
    [0, -2, 0, 4, 0, -2],
    [0, 0, -1, 2, -1, 0],
]


def test_parse_rat():
    assert parse_rat("3") == 3
    assert parse_rat("-7/2") == Fraction(-7, 2)
    assert parse_rat(" 5/10 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rat("x")
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_parse_rat_bounds_decimal_exponents():
    # Decimals still parse exactly; an exponent over the bound is refused
    # before Fraction builds its integer (1e1000000000 would take 415 MB).
    assert parse_rat("0.5") == Fraction(1, 2)
    assert parse_rat("-1e3") == -1000
    assert parse_rat("1E-5") == Fraction(1, 100000)
    assert parse_rat("-.5") == Fraction(-1, 2)
    assert parse_rat("0.10000000000000001") == Fraction(
        10000000000000001, 10 ** 17)
    assert parse_rat("1e%d" % MAX_DECIMAL_EXPONENT) \
        == 10 ** MAX_DECIMAL_EXPONENT
    assert parse_rat("2E-%d" % MAX_DECIMAL_EXPONENT) \
        == Fraction(2, 10 ** MAX_DECIMAL_EXPONENT)
    for text in ("1e1000000000", "1e-1000000000", "-2.5E+4301",
                 "1e%d" % (MAX_DECIMAL_EXPONENT + 1),
                 "1e" + "9" * 5000, "1e00004301"):
        with pytest.raises(OverflowError, match="out of range"):
            parse_rat(text)
    # Not a decimal exponent at all: still a plain ValueError.
    # Nor is a huge number after an 'e' that follows no decimal mantissa,
    # nor one written with '_' separators.
    for text in ("1e", "1e5/3", "e5", "1ee5", "one", "1/2e9999",
                 "abc e99999", "e99999", ".e99999", "1e9999/3",
                 " 1e4_301 "):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rat(text)


@pytest.mark.parametrize("text,value", [
    ("-0.5", Fraction(-1, 2)), (".5", Fraction(1, 2)), ("5.", 5),
    ("1E3", 1000), ("+1/2", Fraction(1, 2)), (" 3 ", 3),
    ("1/02", Fraction(1, 2)), ("1e1000000000", OverflowError),
    # Fraction reads each of these on some Python: '_' separators from
    # 3.11, spaces around '/' from 3.12, and non-ASCII digits on every
    # version.
    ("1_000", ValueError), ("1_0/3", ValueError), ("1e1_0", ValueError),
    ("1 /2", ValueError), ("\u0661\u0662", ValueError)])
def test_parse_rat_reads_one_grammar(text, value):
    if isinstance(value, type):
        with pytest.raises(value):
            parse_rat(text)
    else:
        assert parse_rat(text) == value


def test_format_rat_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rat(format_rat(q)) == q
    assert format_rat(Fraction(4, 2)) == "2"
    assert format_rat(Fraction(1, -2)) == "-1/2"


def test_qmatrix_shapes():
    m = QMatrix([[1, 2], [3, 4], [5, 6]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.entry(2, 1) == 6
    assert m.row(0) == [1, 2]
    assert m.to_lists() == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]])


def test_empty_matrix_keeps_columns():
    m = QMatrix([], cols=4)
    assert (m.rows, m.cols) == (0, 4)
    assert rank(m) == 0
    basis = nullspace(m)
    assert len(basis) == 4
    for i, v in enumerate(basis):
        assert list(v) == [1 if j == i else 0 for j in range(4)]


def test_det_golden():
    assert det(QMatrix([[2]])) == 2
    assert det(QMatrix([[1, 2], [3, 4]])) == -2
    assert det(QMatrix([[int(i == j) for j in range(5)]
                        for i in range(5)])) == 1
    assert det(QMatrix([[0] * 3] * 3)) == 0
    assert det(QMatrix([])) == 1


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = rand_matrix(rng, n, n, bound=9)
        assert det(QMatrix(rows)) == leibniz_det(rows)
    # 300-bit entries, and singular products n x r times r x n
    for _ in range(40):
        n = rng.randint(1, 5)
        for rows in (rand_matrix(rng, n, n, bound=BIG),
                     rand_product(rng, n, n, rng.randint(0, n - 1),
                                  bound=9)):
            assert det(QMatrix(rows)) == leibniz_det(rows)
    # Rows whose denominators sit outside some minors' columns: a minor
    # divides by the scales of its whole rows, not of its entries.
    rows = [[Fraction(1, 3), 2, -1, Fraction(5, 7)],
            [4, Fraction(-2, 9), 3, 1],
            [Fraction(7, 2), 1, Fraction(1, 5), -6],
            [0, 5, Fraction(3, 11), 2]]
    m = QMatrix(rows)
    assert det(m) == leibniz_det(rows)
    for k in range(1, 5):
        for rs in combinations(range(1, 5), k):
            for cs in combinations(range(1, 5), k):
                assert minor(m, rs, cs) == leibniz_det(
                    [[rows[i - 1][j - 1] for j in cs] for i in rs])


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(QMatrix([[1, 2, 3], [4, 5, 6]]))


def test_rank_matches_gauss():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(0, 5)
        c = rng.randint(1, 5)
        rows = rand_matrix(rng, r, c, bound=6)
        assert rank(QMatrix(rows, cols=c)) == gauss_rank(rows or [[]])
    # 300-bit entries, and rank-deficient products r x k times k x c
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        for rows in (rand_matrix(rng, r, c, bound=BIG),
                     rand_product(rng, r, c, rng.randint(0, min(r, c)),
                                  bound=BIG)):
            assert rank(QMatrix(rows)) == gauss_rank(rows)


def test_rank_of_low_rank_products():
    rng = random.Random(13)
    for _ in range(50):
        k = rng.randint(1, 3)
        left = rand_matrix(rng, 5, k, bound=5)
        right = rand_matrix(rng, k, 6, bound=5)
        prod = [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(6)] for i in range(5)]
        assert rank(QMatrix(prod)) <= k


def test_rank_nullity():
    rng = random.Random(17)
    for _ in range(200):
        r = rng.randint(0, 6)
        c = rng.randint(1, 6)
        m = QMatrix(rand_matrix(rng, r, c, bound=5), cols=c)
        assert rank(m) + len(nullspace(m)) == c


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(19)
    for _ in range(200):
        m = QMatrix(rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6)))
        for v in nullspace(m):
            assert all(x == 0 for x in matvec(m.to_lists(), v))


def _nullspace_inputs(rng):
    for _ in range(100):
        yield rand_matrix(rng, 3, 6, bound=4)
    for _ in range(30):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        yield rand_matrix(rng, r, c, bound=BIG)
        yield rand_product(rng, r, c, rng.randint(0, min(r, c)), bound=BIG)


def test_nullspace_is_canonical():
    rng = random.Random(23)
    for rows in _nullspace_inputs(rng):
        m = QMatrix(rows)
        basis = nullspace(m)
        assert len(basis) == m.cols - gauss_rank(rows)
        for v in basis:
            assert all(x == 0 for x in matvec(m.to_lists(), v))
        leads = []
        for v in basis:
            nz = [i for i, x in enumerate(v) if x != 0]
            assert nz, "zero vector in basis"
            assert v[nz[0]] == 1
            leads.append(nz[0])
        assert leads == sorted(set(leads))
        for li, lead in enumerate(leads):
            for vj, v in enumerate(basis):
                if vj != li:
                    assert v[lead] == 0
        # scaling the matrix must not change the canonical kernel
        scaled = QMatrix([[3 * e for e in row] for row in m.to_lists()])
        assert nullspace(scaled) == basis
        # with column scales b it is the canonical kernel of m diag(b)
        b = [rng.randint(1, 40) for _ in range(m.cols)]
        assert nullspace(m, b) == frac_kernel_rref(
            [[e * s for e, s in zip(row, b)] for row in rows], m.cols)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(29)
    for _ in range(100):
        rows = rand_matrix(rng, 4, 5, bound=5)
        r = rank(QMatrix(rows))
        rng.shuffle(rows)
        scaled = [[e * Fraction(rng.randint(1, 9)) for e in row]
                  for row in rows]
        assert rank(QMatrix(scaled)) == r


def test_qs_matrix_rank_and_minor_golden():
    m = QMatrix(QS_AT_012345)
    assert rank(m) == 4
    assert minor(m, (2, 3, 4), (4, 5, 6)) == -4
    sub = [[QS_AT_012345[i - 1][j - 1] for j in (4, 5, 6)] for i in (2, 3, 4)]
    assert leibniz_det([[Fraction(e) for e in row] for row in sub]) == -4
    ones = [Fraction(1)] * 6
    xs = [Fraction(v) for v in range(6)]
    assert all(x == 0 for x in matvec(QS_AT_012345, ones))
    assert all(x == 0 for x in matvec(QS_AT_012345, xs))


def test_minor_validates_indices():
    m = QMatrix(QS_AT_012345)
    # Index 0 is out of range, not out of order: the range is checked
    # first.
    for rows, cols in (((0, 1), (1, 2)), ((0,), (1,)), ((1,), (0,)),
                       ((1, 5), (1, 2))):
        with pytest.raises(IndexError, match="out of range"):
            minor(m, rows, cols)
    with pytest.raises(ValueError):
        minor(m, (1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        minor(m, (2, 1), (1, 2))


def test_all_minors_against_direct_minor():
    rng = random.Random(31)
    m = QMatrix(rand_matrix(rng, 4, 5, bound=6))
    for k in (0, 1, 2, 3, 4):
        count = 0
        for rows, cols, value in all_minors(m, k):
            assert value == minor(m, rows, cols)
            assert rows == tuple(sorted(rows))
            assert cols == tuple(sorted(cols))
            count += 1
        from math import comb
        assert count == comb(4, k) * comb(5, k)
    # against the permutation expansion, on a full-rank and on a rank-2
    # 5 x 6 matrix (the latter takes the all-zero short cut throughout)
    for entries in (rand_matrix(rng, 5, 6, bound=6),
                    rand_product(rng, 5, 6, 2, bound=6)):
        m = QMatrix(entries)
        for rows, cols, value in all_minors(m, 3):
            sub = [[entries[i - 1][j - 1] for j in cols] for i in rows]
            assert value == leibniz_det(sub)


def test_all_minors_rejects_sizes_out_of_range():
    m = QMatrix([[1, 2, 3], [4, 5, 6]])
    for k in (-1, 3):
        with pytest.raises(ValueError, match="minor size %d out of range "
                                             "for 2 x 3" % k):
            list(all_minors(m, k))


def _check_all_minors(rows, k):
    """all_minors(rows, k) against the permutation expansion, with its
    order and count."""
    nrows, ncols = len(rows), len(rows[0])
    got = list(all_minors(QMatrix(rows), k))
    assert len(got) == comb(nrows, k) * comb(ncols, k)
    assert [(rs, cs) for rs, cs, _ in got] == [
        (rs, cs) for rs in combinations(range(1, nrows + 1), k)
        for cs in combinations(range(1, ncols + 1), k)]
    for rs, cs, value in got:
        assert type(value) is Fraction
        assert value == leibniz_det([[rows[i - 1][j - 1] for j in cs]
                                     for i in rs])


def test_all_minors_matches_leibniz_at_every_rank():
    """all_minors against the permutation expansion on random Fraction
    matrices of every rank from 0 to min(rows, cols), at every k.  A
    row set of a rank-r matrix has a dependent prefix at depth r + 1 or
    earlier, and a repeated row makes one at depth 2, so zeros are
    emitted from every depth.  Sparse small entries make eliminations
    that swap rows or take their pivot columns out of order."""
    rng = random.Random(2026)
    for nrows, ncols in ((4, 4), (5, 3), (3, 5), (5, 6)):
        for r in range(min(nrows, ncols) + 1):
            entries = rand_product(rng, nrows, ncols, r, bound=9)
            repeated = entries[:-1] + [[Fraction(-3, 2) * e
                                        for e in entries[0]]]
            assert rank(QMatrix(entries)) == r
            assert rank(QMatrix(repeated)) == min(r, nrows - 1)
            for k in range(min(nrows, ncols) + 1):
                _check_all_minors(entries, k)
                _check_all_minors(repeated, k)
    for _ in range(150):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        sparse = [[rng.choice((0, 0, 0, 1, -2, 3, Fraction(1, 3)))
                   for _ in range(ncols)] for _ in range(nrows)]
        for k in range(1, min(nrows, ncols) + 1):
            _check_all_minors(sparse, k)


def test_all_minors_deterministic_order():
    rng = random.Random(37)
    m = QMatrix(rand_matrix(rng, 3, 4, bound=5))
    first = [(r, c) for r, c, _ in all_minors(m, 2)]
    second = [(r, c) for r, c, _ in all_minors(m, 2)]
    assert first == second
    assert first == sorted(first)


def test_all_minors_low_rank_fast_path():
    rng = random.Random(41)
    left = rand_matrix(rng, 5, 2, bound=4)
    right = rand_matrix(rng, 2, 5, bound=4)
    prod = [[sum(left[i][t] * right[t][j] for t in range(2))
             for j in range(5)] for i in range(5)]
    m = QMatrix(prod)
    values = [v for _, _, v in all_minors(m, 3)]
    from math import comb
    assert len(values) == comb(5, 3) ** 2
    assert all(v == 0 for v in values)


def test_matmul_matvec():
    # The plain-list helpers the kernel checks rest on.
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    # the columns of the product a * b
    assert [matvec(a, col) for col in transpose(b)] == [[2, 4], [1, 3]]
    assert matvec(a, (1, 1)) == [3, 7]
    assert transpose([[1, 2], [3, 4], [5, 6]]) == [[1, 3, 5], [2, 4, 6]]


def test_cross_and_det3():
    a = (Fraction(1), Fraction(2), Fraction(3))
    b = (Fraction(4), Fraction(5), Fraction(6))
    w = cross(a, b)
    assert sum(x * y for x, y in zip(w, a)) == 0
    assert sum(x * y for x, y in zip(w, b)) == 0
    c = (Fraction(1), Fraction(0), Fraction(1))
    assert det3(a, b, c) == leibniz_det([list(a), list(b), list(c)])
    assert det3(a, b, a) == 0


# Small entries, or entries of about 300 bits.
_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


def _matrices(rows, cols):
    return st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _products(draw):
    """(rows, k): a random integer matrix of rank at most k, the product
    of an n x k and a k x m factor."""
    n, m, k = (draw(st.integers(1, 5)), draw(st.integers(1, 5)),
               draw(st.integers(0, 5)))
    left = draw(_matrices(n, k))
    right = draw(_matrices(k, m))
    return [[sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(m)] for i in range(n)], k


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrices(n, n)))
def test_det_transpose_property(rows):
    m = QMatrix(rows)
    assert det(m) == det(QMatrix(transpose(rows))) == leibniz_det(rows)


@settings(max_examples=60, deadline=None)
@given(_products())
def test_rank_transpose_property(case):
    rows, k = case
    m = QMatrix(rows)
    assert rank(m) == rank(QMatrix(transpose(rows))) == gauss_rank(rows)
    assert rank(m) <= k


@st.composite
def _kernel_cases(draw):
    """A product of rank at most k, as _products draws it, with up to
    two zero rows and two zero columns inserted at drawn places."""
    rows, _ = draw(_products())
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(j, 0)
    return rows


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
@example([[0, 0, 0], [0, 0, 0]])             # rank 0
@example([[2, 0, 0], [0, -3, 0], [0, 0, 5]])  # full rank, square
@example([[1, 2, 3, 4], [0, 0, 0, 0], [5, 6, 7, 8]])
@example([[0, 1, 2], [0, 3, 4]])             # a zero column first
@example([[1], [2]])                         # full column rank
def test_nullspace_matches_the_gauss_jordan_kernel(rows):
    # One reduced elimination over reversed columns gives the reduced
    # echelon form of the kernel that a Fraction Gauss-Jordan
    # elimination of a first kernel basis gives.
    m = QMatrix(rows)
    assert nullspace(m) == frac_kernel_rref(rows, m.cols)
    assert rank(m) == gauss_rank(rows)
