"""Sparse multivariate polynomials over the rationals.

Variables are the homogeneous coordinates of labelled points: point i
contributes x_i, y_i, z_i.  Internally a variable is the integer
3*(i-1) + offset with offset 0, 1, 2 for x, y, z, so the natural
variable order x_1 < y_1 < z_1 < x_2 < ... is just integer order.

A monomial is one int of 32-bit fields: bits 0-31 hold its total
degree, and field v + 1, bits 32*(v+1) to 32*(v+1) + 31, holds the
exponent of variable v.  The constant monomial is 0, and the product of
two monomials is the sum of their ints.  _pack and its inverse
monomial_pairs are the only converters from and to (variable, exponent)
pairs.  Every exponent and total degree stays below 2**32: _pack and
every product raise OverflowError rather than let the degree field
carry into the next field (an exponent never exceeds the degree, so
checking the degree suffices).

A Poly maps monomials to nonzero exact coefficients: int, or Fraction
where rational data enters.  The canonical term order used for
printing and for the sign normalisation of generators is graded
reverse lexicographic over that variable order: higher degree first,
and at equal degree the smaller int.  Two monomials of one degree
differ first, from the top, in the field of the highest variable where
their exponents differ, and grevlex ranks the one with the smaller
exponent there higher.  So terms_sorted sorts by int and then, stably,
by degree descending, and no sort needs a Python key function.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from operator import neg, or_
from struct import Struct


LETTERS = "xyz"

# The total degree of a monomial, and the largest the layout holds.
_DEGREE_MAX = 0xFFFFFFFF
_DEGREE = _DEGREE_MAX.__and__


def var_id(letter, point):
    """Variable id of e.g. ('y', 3)."""
    return 3 * (point - 1) + LETTERS.index(letter)


def var_name(v):
    return "%s_%d" % (LETTERS[v % 3], v // 3 + 1)


def var_point(v):
    return v // 3 + 1


def _unit(v):
    """The monomial of variable v."""
    return 1 << 32 * v + 32 | 1


def _pack(pairs):
    """The monomial of the product of (variable, exponent) pairs: a
    repeated variable's exponents add and a zero exponent drops out.
    A negative exponent raises ValueError, and a total degree of 2**32
    or more OverflowError."""
    m = degree = 0
    for v, e in pairs:
        if e < 0:
            raise ValueError("negative exponent in %r" % (pairs,))
        m += e << 32 * v + 32
        degree += e
    if degree > _DEGREE_MAX:
        raise OverflowError("monomial degree %d does not fit in 32 bits"
                            % degree)
    return m | degree


def monomial_pairs(m):
    """The (variable, exponent) pairs of monomial m, by variable, with
    positive exponents: the inverse of _pack."""
    # Scan down from the highest set field, so the cost is one step per
    # variable of the term, whatever the size of the ring.
    pairs = []
    e = m >> 32
    while e:
        v = (e.bit_length() - 1) >> 5
        x = e >> (v << 5)
        pairs.append((v, x))
        e ^= x << (v << 5)
    pairs.reverse()
    return tuple(pairs)


def unit_exponents(m, nvars):
    """The exponents of variables 0..nvars-1 in monomial m as bytes, one
    per variable, when each is 0 or 1; None when one is higher.  m must
    have no variable from nvars on (to_bytes raises OverflowError)."""
    # The exponents are all 0 or 1 exactly when as many bits are set in
    # the exponent fields as the degree counts.
    if (m >> 32).bit_count() != m & _DEGREE_MAX:
        return None
    return m.to_bytes(4 * nvars + 4, "little")[4::4]


def _leading(terms):
    """The grevlex-greatest monomial: the highest degree, and at that
    degree the smallest int."""
    return -max(zip(map(_DEGREE, terms), map(neg, terms)))[1]


def expand_products(products):
    """The Poly sum over products = [(coeff, factors), ...] of coeff
    times the product of the factors: factors is a sequence, and each
    factor an iterable of (monomial, coeff) terms.  Every choice of one
    term per factor is added once into a single term dict; no partial
    product is built as a Poly.  A product whose factors' degrees add
    up to 2**32 or more raises OverflowError."""
    out = {}
    get = out.get
    for coeff, factors in products:
        if len(factors) == 1:
            # The terms of one factor are monomials already.
            for m, c in factors[0]:
                out[m] = get(m, 0) + coeff * c
            continue
        leaves = [(0, coeff)]
        degree = 0
        for factor in factors:
            # The factor's highest degree, by a loop that allocates
            # nothing: these products are mostly of two-term brackets.
            top = 0
            for m, _ in factor:
                if m & _DEGREE_MAX > top:
                    top = m & _DEGREE_MAX
            degree += top
            leaves = [(m + fm, c * fc) for m, c in leaves
                      for fm, fc in factor]
        if degree > _DEGREE_MAX:
            raise OverflowError("product degree %d does not fit in 32 bits"
                                % degree)
        for m, c in leaves:
            out[m] = get(m, 0) + c
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
        return cls({0: c})

    @classmethod
    def variable(cls, v):
        return cls({_unit(v): 1})

    @classmethod
    def monomial(cls, coeff, pairs):
        """coeff times the product of the (variable, exponent) pairs; a
        zero exponent is dropped and a negative one raises ValueError."""
        return cls({_pack(pairs): coeff})

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
        return max(map(_DEGREE, self.terms), default=0)

    def support_vars(self):
        """Set of variable ids that occur with nonzero exponent."""
        # A field of the bitwise or is nonzero where a term's field is.
        return {v for v, _ in monomial_pairs(reduce(or_, self.terms, 0))}

    def terms_sorted(self):
        """Terms as (monomial, coeff) pairs, leading term first."""
        ms = sorted(sorted(self.terms), key=_DEGREE, reverse=True)
        return list(zip(ms, map(self.terms.__getitem__, ms)))

    def least_monomial(self):
        """The grevlex-least monomial, None for the zero polynomial: the
        lowest degree, and at that degree the largest int."""
        if not self.terms:
            return None
        return -min(zip(map(_DEGREE, self.terms), map(neg, self.terms)))[1]

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
            for v, e in monomial_pairs(mono):
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
        division leaves a remainder.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero()
        div_lead = _leading(divisor.terms)
        div_exps = monomial_pairs(div_lead)
        div_lead_c = divisor.terms[div_lead]
        rem = self
        quot_terms = {}
        while not rem.is_zero():
            lead = _leading(rem.terms)
            exps = dict(monomial_pairs(lead))
            if any(exps.get(v, 0) < e for v, e in div_exps):
                raise ArithmeticError("inexact polynomial division")
            # The quotient monomial is the difference of the ints, and
            # times div_lead it gives lead back exactly, so every step
            # cancels the leading term.
            qmono = lead - div_lead
            qc = Fraction(rem.terms[lead]) / div_lead_c
            quot_terms[qmono] = quot_terms.get(qmono, 0) + qc
            rem = rem - Poly({qmono: qc}) * divisor
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
    return ((_unit(a + u) + _unit(b + w), 1),
            (_unit(b + u) + _unit(a + w), -1))


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
def _point_fields(n):
    """The mask of fields 2, 5, ..., 3n - 1 of an int of 3n 32-bit
    fields, and the unpacker of all its fields."""
    return (int.from_bytes((bytes(8) + b"\xff" * 4) * n, "little"),
            Struct("<%dI" % (3 * n)).unpack)


def multidegree(p, npoints=None):
    """MultiDeg shared by all terms, or None if p is not multihomogeneous.

    The point multidegree has npoints entries, by default as many as
    the largest point index among p's variables; a term with a point
    above npoints raises ValueError.  The zero polynomial is
    multihomogeneous of degree zero.
    """
    # The largest int holds the highest variable of any term; field f
    # holds variable f - 1, of point (f + 2) // 3.
    top = ((max(p.terms).bit_length() - 1) // 32 + 2) // 3 if p.terms else 0
    n = top if npoints is None else npoints
    if top > n:
        raise ValueError("polynomial has point %d, above npoints = %d"
                         % (top, n))
    if not p.terms:
        return MultiDeg((0, 0, 0), (0,) * n)
    # Read as a number in base B = 2**32, the exponent fields e = m >> 32
    # of a term are the digits e_0, e_1, ..., one per variable.  Modulo
    # B**3 - 1, where B**3 = 1, they leave L_x + L_y*B + L_z*B**2: the
    # three letter degrees, which cannot carry, as none exceeds the
    # total degree, below B.  Times 1 + B + B**2, e has the degree
    # e_3p + e_3p+1 + e_3p+2 of point p + 1 in field 3p + 2, and again
    # no field carries.
    triples = (1 << 96) - 1
    spread = 1 + (1 << 32) + (1 << 64)
    points, fields = _point_fields(n)
    terms = iter(p.terms)
    e = next(terms) >> 32
    letters = e % triples
    point_degrees = e * spread & points
    for m in terms:
        e = m >> 32
        if e * spread & points != point_degrees or e % triples != letters:
            return None
    return MultiDeg((letters & _DEGREE_MAX, letters >> 32 & _DEGREE_MAX,
                     letters >> 64),
                    fields(point_degrees.to_bytes(12 * n, "little"))[2::3])


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
        # Most terms have exponents of 0 and 1 only, and their names are
        # picked straight off the exponent bytes.
        ones = unit_exponents(mono, len(names))
        if ones is not None:
            out.append("*".join(compress(names, ones)))
        else:
            out.append("*".join([names[v] if e == 1
                                 else "%s^%d" % (names[v], e)
                                 for v, e in monomial_pairs(mono)]))
    # The first term takes its sign without spaces, and no "+".
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)
