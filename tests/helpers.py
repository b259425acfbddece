"""Shared oracles for the test suite.

These deliberately use different algorithms from the package (textbook
Gaussian elimination, permutation-sum determinants) so that agreement
between the two is meaningful.
"""

from fractions import Fraction
from itertools import permutations

from planelift.poly import Poly, var_id


def leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def gauss_rank(rows):
    """Rank by plain fraction elimination (no Bareiss)."""
    a = [[Fraction(e) for e in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [e / pv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [e - f * p for e, p in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def rand_fraction(rng, bound=20):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def rand_matrix(rng, rows, cols, bound=20):
    return [[rand_fraction(rng, bound) for _ in range(cols)]
            for _ in range(rows)]


def rand_product(rng, rows, cols, inner, bound=20):
    """A rows x cols matrix of rank at most inner: the product of random
    rows x inner and inner x cols matrices."""
    left = rand_matrix(rng, rows, inner, bound)
    right = rand_matrix(rng, inner, cols, bound)
    return [[sum((left[i][t] * right[t][j] for t in range(inner)),
                 Fraction(0))
             for j in range(cols)] for i in range(rows)]


# Bound for random entries of about 300 bits, to exercise big integers.
BIG = 2 ** 300


def rand_poly(rng, npoints=3, nterms=4, maxdeg=2):
    """A random sparse polynomial in the package's representation."""
    p = Poly.zero()
    for _ in range(nterms):
        coeff = rand_fraction(rng)
        nvars = rng.randint(0, 3)
        ids = rng.sample(range(3 * npoints), nvars)
        mono = [(v, rng.randint(1, maxdeg)) for v in ids]
        p = p + Poly.monomial(coeff, tuple(mono))
    return p


def golden_poly(terms):
    """Build a Poly from [(coeff, ((letter, point), ...)), ...] where
    every named variable appears to the first power."""
    p = Poly.zero()
    for coeff, vs in terms:
        mono = tuple((var_id(letter, point), 1) for letter, point in vs)
        p = p + Poly.monomial(Fraction(coeff), mono)
    return p
