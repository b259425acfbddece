"""Sparse multivariate polynomials over the rationals.

Variables are the homogeneous coordinates of labelled points: point i
contributes x_i, y_i, z_i.  Internally a variable is the integer
3*(i-1) + offset with offset 0, 1, 2 for x, y, z, so the natural
variable order x_1 < y_1 < z_1 < x_2 < ... is just integer order.

A monomial is a tuple of (variable, exponent) pairs sorted by variable,
with distinct variables and positive exponents; every constructor and
product keeps that invariant (_merge), which the ordering below relies
on.  A Poly maps monomials to nonzero exact coefficients: int, or
Fraction where rational data enters.  The canonical term order used
for printing and for the sign normalisation of generators is graded
reverse lexicographic over that variable order.  It has one sort key,
_order_key, which is smallest for the leading monomial: terms_sorted
sorts by it, the leading term of exact_div is its minimum, and the
least monomial that canonical normalises is its maximum.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter


LETTERS = "xyz"


def var_id(letter, point):
    """Variable id of e.g. ('y', 3)."""
    return 3 * (point - 1) + LETTERS.index(letter)


def var_name(v):
    return "%s_%d" % (LETTERS[v % 3], v // 3 + 1)


def var_point(v):
    return v // 3 + 1


def _merge(pairs):
    """The monomial of a product of (variable, exponent) pairs: the pairs
    sorted, with the exponents of a repeated variable added."""
    m = sorted(pairs)
    if len(m) == len(dict(m)):
        return tuple(m)
    exps = {}
    for v, e in m:
        exps[v] = exps.get(v, 0) + e
    return tuple(exps.items())


_EXP = itemgetter(1)


def _mono_deg(m):
    return sum(map(_EXP, m))


def _order_key(m):
    """Grevlex sort key of monomial m, smallest for the leading monomial.
    Higher degree comes first.  At equal degree the grevlex-larger
    monomial, the one with the smaller exponent at the highest variable
    where the two differ, has the lexicographically smaller reversed
    pairs, because a variable absent from m has exponent 0 and every
    exponent in m is positive."""
    return -sum(map(_EXP, m)), m[::-1]


def expand_products(products):
    """The Poly sum over products = [(coeff, factors), ...] of coeff
    times the product of the factors: factors is a sequence, and each
    factor an iterable of (monomial, coeff) terms.  Every choice of one
    term per factor is merged once into a single term dict; no partial
    product is built as a Poly."""
    out = {}
    for coeff, factors in products:
        if len(factors) == 1:
            # The terms of one factor need no merge.
            for m, c in factors[0]:
                out[m] = out.get(m, 0) + coeff * c
            continue
        leaves = [((), coeff)]
        for factor in factors:
            leaves = [(m + fm, c * fc) for m, c in leaves
                      for fm, fc in factor]
        for m, c in leaves:
            m = _merge(m)
            out[m] = out.get(m, 0) + c
    return Poly(out)


class Poly:
    """Immutable sparse polynomial with exact coefficients: the int or
    Fraction values the arithmetic produced.  Equal int and Fraction
    values compare and hash alike, so equality does not depend on the
    coefficient type."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def variable(cls, v):
        return cls({((v, 1),): 1})

    @classmethod
    def monomial(cls, coeff, pairs):
        """coeff times the product of the (variable, exponent) pairs; a
        zero exponent is dropped and a negative one raises ValueError."""
        pairs = [(v, e) for v, e in pairs if e]
        if any(e < 0 for _, e in pairs):
            raise ValueError("negative exponent in %r" % (pairs,))
        return cls({_merge(pairs): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: c * other for m, c in self.terms.items()})
        return expand_products(
            ((1, (self.terms.items(), other.terms.items())),))

    __rmul__ = __mul__

    def total_degree(self):
        if not self.terms:
            return 0
        return max(map(_mono_deg, self.terms))

    def support_vars(self):
        """Set of variable ids that occur with nonzero exponent."""
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def terms_sorted(self):
        """Terms as (monomial, coeff) pairs, leading term first."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=_order_key)]

    def least_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=_order_key)

    def canonical(self):
        """Sign-normalised copy: the grevlex-least monomial gets a
        positive coefficient.  Generators are only defined up to sign,
        so this fixes one representative."""
        m = self.least_monomial()
        if m is None or self.terms[m] > 0:
            return self
        return -self

    def evaluate(self, assignment):
        """Exact value at a {variable id: int or Fraction} assignment.

        The value stays in the ring of the coefficients and the values:
        an integer polynomial at integers gives an int.  Every variable
        in the support must be assigned.
        """
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                if v not in assignment:
                    raise ValueError("no value for variable %s"
                                     % var_name(v))
                val *= assignment[v] ** e
            total += val
        return total

    def exact_div(self, divisor):
        """Exact polynomial quotient self / divisor.

        Used by fraction-free elimination over the polynomial ring,
        where divisibility is guaranteed; raises ArithmeticError if the
        division leaves a remainder, or if a step fails to cancel the
        leading term.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero()
        div_lead = min(divisor.terms, key=_order_key)
        div_lead_c = divisor.terms[div_lead]
        rem = self
        quot_terms = {}
        while not rem.is_zero():
            lead = min(rem.terms, key=_order_key)
            exps = dict(lead)
            for v, e in div_lead:
                exps[v] = exps.get(v, 0) - e
                if exps[v] < 0:
                    raise ArithmeticError("inexact polynomial division")
            qmono = tuple((v, e) for v, e in sorted(exps.items()) if e)
            qc = Fraction(rem.terms[lead]) / div_lead_c
            quot_terms[qmono] = quot_terms.get(qmono, 0) + qc
            rem = rem - Poly({qmono: qc}) * divisor
            if lead in rem.terms:
                # Only a malformed monomial, such as a repeated variable,
                # survives its own reduction step; it would never cancel.
                raise ArithmeticError("leading monomial %r does not cancel"
                                      % (lead,))
        return Poly(quot_terms)

    def __floordiv__(self, other):
        """Exact quotient, so that fraction-free elimination runs over
        polynomials as it does over integers."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return self.exact_div(other)

    def __repr__(self):
        return "Poly(%s)" % (poly_to_plain(self),)


def bracket(i, j, k):
    """The 3x3 determinant of the coordinate columns of points i, j, k,
    expanded along the column of k by point_bracket."""
    return point_bracket(i, j, [Poly.variable(3 * (k - 1) + off)
                                for off in range(3)])


# [i j R_f] is the cofactor u_i w_j - u_j w_i of the unit column R_f,
# where (u, w) are the coordinate offsets FRAME_COFACTORS[f].
FRAME_COFACTORS = {1: (1, 2), 2: (2, 0), 3: (0, 1)}


def frame_bracket(i, j, f):
    """[i j R_f]: bracket of points i, j and the f-th standard frame point.

    f = 1 gives y_i z_j - y_j z_i, f = 2 gives x_j z_i - x_i z_j and
    f = 3 gives x_i y_j - x_j y_i.
    """
    if f not in FRAME_COFACTORS:
        raise ValueError("frame index must be 1, 2 or 3")
    return Poly(dict(frame_terms(i, j, f)))


def frame_terms(i, j, f):
    """The terms ((monomial, coeff), ...) of frame_bracket(i, j, f);
    none when i == j."""
    if i == j:
        return ()
    u, w = FRAME_COFACTORS[f]
    a, b = 3 * (i - 1), 3 * (j - 1)
    return ((_pair_mono(a + u, b + w), 1), (_pair_mono(b + u, a + w), -1))


def _pair_mono(v, w):
    return ((v, 1), (w, 1)) if v < w else ((w, 1), (v, 1))


def point_bracket(i, j, vec):
    """Bracket of points i, j and a column vector, whose entries may be
    numbers or polynomials.

    By multilinearity this is the frame-bracket combination
    vec_1*[i j R_1] + vec_2*[i j R_2] + vec_3*[i j R_3].
    """
    out = Poly.zero()
    for f in (1, 2, 3):
        if vec[f - 1]:
            out = out + frame_bracket(i, j, f) * vec[f - 1]
    return out


# The letter and point multidegrees of a multihomogeneous polynomial,
# as tuples.
MultiDeg = namedtuple("MultiDeg", "letter point")


@lru_cache(maxsize=32)
def _packed_weights(npoints, nbytes):
    """Summed over a term's pairs, exponent times these weights gives the
    term's packed multidegree: its three letter degrees and npoints point
    degrees in fields of nbytes bytes, lowest first, and its total
    degree above them."""
    width = 8 * nbytes
    top = 1 << width * (3 + npoints)
    return tuple(top | 1 << width * (v % 3) | 1 << width * (3 + v // 3)
                 for v in range(3 * npoints))


def multidegree(p, npoints=None):
    """MultiDeg shared by all terms, or None if p is not multihomogeneous.

    The point multidegree has npoints entries, by default as many as
    the largest point index among p's variables; a term with a point
    above npoints raises ValueError.  The zero polynomial is
    multihomogeneous of degree zero.
    """
    n = npoints
    if n is None:
        n = max(map(var_point, p.support_vars()), default=0)
    if not p.terms:
        return MultiDeg((0, 0, 0), (0,) * n)
    first = next(iter(p.terms))
    # Fields of nbytes bytes hold every degree of a term of first's
    # degree d without overflow.  The top field of a term of lower degree
    # holds that degree, and a term of higher degree carries at least its
    # degree there, so a term of another degree never packs like first.
    nbytes = (_mono_deg(first).bit_length() + 7) // 8 or 1
    weights = _packed_weights(n, nbytes)
    found = None
    try:
        for m in p.terms:
            packed = 0
            for v, e in m:
                packed += weights[v] * e
            if found is None:
                found = packed
            elif packed != found:
                return None
    except IndexError:
        raise ValueError(
            "polynomial has point %d, above npoints = %d"
            % (max(map(var_point, p.support_vars())), n)) from None
    fields = found.to_bytes((4 + n) * nbytes, "little")
    if nbytes > 1:
        fields = [int.from_bytes(fields[i:i + nbytes], "little")
                  for i in range(0, len(fields), nbytes)]
    return MultiDeg(tuple(fields[:3]), tuple(fields[3:3 + n]))


def var_names(npoints):
    """The names of the variables of points 1..npoints, by variable id."""
    return [var_name(v) for v in range(3 * npoints)]


def poly_to_plain(p, names=None):
    """Render with terms in canonical order, e.g. 'x_1*y_2 - 2*z_3^2',
    naming variable v names[v] (by default var_name(v))."""
    if p.is_zero():
        return "0"
    if names is None:
        names = var_names(max(map(var_point, p.support_vars()), default=0))
    out = []
    for mono, coeff in p.terms_sorted():
        if coeff < 0:
            out.append(" - ")
            coeff = -coeff
        else:
            out.append(" + ")
        if not mono:
            out.append(str(coeff))
            continue
        if coeff != 1:
            out.append(str(coeff) + "*")
        out.append("*".join([names[v] if e == 1 else "%s^%d" % (names[v], e)
                             for v, e in mono]))
    # The first term takes its sign without spaces, and no "+".
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)
