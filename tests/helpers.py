"""Shared oracles for the test suite.

These deliberately use different algorithms from the package (textbook
Gaussian elimination, permutation-sum determinants) so that agreement
between the two is meaningful.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, permutations

from planelift import lifting, probes
from planelift.config import (Config, MembershipReport, Realisation,
                              _non_simple, analyze, components, induced,
                              line_triples, row_pairs)
from planelift.linalg import QMatrix, cross
from planelift.poly import Poly, monomial_pairs, multidegree, var_id


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


def matvec(rows, v):
    """The matrix with the given rows times the column vector v, as a
    plain list."""
    return [sum(x * y for x, y in zip(row, v)) for row in rows]


def transpose(rows):
    """The transpose of a list of rows, as a list of lists."""
    return [list(col) for col in zip(*rows)]


def assignment_from_columns(columns):
    """Assignment {variable id: entry} mapping the variables of points
    1..n to the entries of the given 3-vector columns, kept as given."""
    return {3 * (idx - 1) + off: col[off]
            for idx, col in enumerate(columns, start=1) for off in range(3)}


def config_json(c):
    """The JSON config file text of c, as the CLI reads it."""
    return json.dumps({"points": c.n,
                       "lines": [list(line) for line in c.lines]})


def frac_rref(rows):
    """(R, pivots): the nonzero rows of the reduced row echelon form of
    rows, by plain Fraction Gauss-Jordan elimination (no Bareiss), and
    their pivot columns."""
    a = [[Fraction(e) for e in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [e / pv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [e - f * p for e, p in zip(a[i], a[r])]
        pivots.append(col)
    return a[:len(pivots)], pivots


def gauss_rank(rows):
    """Rank by plain fraction elimination (no Bareiss)."""
    return len(frac_rref(rows)[1])


def frac_kernel_rref(rows, ncols):
    """The reduced row echelon form of the right kernel of rows (a
    matrix with ncols columns), as lists of Fractions.  A kernel basis
    is read off the RREF of rows, one vector per free column, and is
    then reduced by a second Gauss-Jordan elimination of its own."""
    reduced, pivots = frac_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return frac_rref(basis)[0]


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


def reference_parse_compact(text):
    """Parse a coefficient polynomial written like '-y_6z_4z_5+y_5z_4z_6'
    by Poly arithmetic: each monomial is the product of its sign and its
    variables, and the polynomial the sum of its monomials.  The
    reference for ideals._parse_compact, which builds the terms
    directly."""
    p = Poly.zero()
    for chunk in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        m = re.match(r"([+-]?)((?:[xyz]_\d+)+)$", chunk)
        if not m:
            raise ValueError("bad monomial %r in %r" % (chunk, text))
        mono = Poly.constant(-1 if m.group(1) == "-" else 1)
        for letter, idx in re.findall(r"([xyz])_(\d+)", m.group(2)):
            mono = mono * Poly.variable(var_id(letter, int(idx)))
        p = p + mono
    return p


# --- Fraction oracles for the projective zero tests --------------------------
#
# The package runs these tests on integer-scaled columns.  The oracles
# below take the columns exactly as given, as Fractions, and decide
# dependence with leibniz_det and coincidence with gauss_rank.


def frac_dependent(*cols):
    """True when the Fraction 3-vectors cols (two or three of them) are
    linearly dependent."""
    if len(cols) == 3:
        return leibniz_det([[Fraction(c[i]) for c in cols]
                            for i in range(3)]) == 0
    return gauss_rank(cols) < len(cols)


def frac_membership(cols, m):
    """MembershipReport of the columns against the Rank3Matroid m."""
    in_cv = in_v0 = realises = True
    circuit = independence = None
    for t in combinations(range(1, m.n + 1), 3):
        dep = frac_dependent(*(cols[i - 1] for i in t))
        in_v0 = in_v0 and dep
        if t in m.circuits3 and not dep:
            in_cv = realises = False
            circuit = circuit or t
        elif t not in m.circuits3 and dep:
            realises = False
            independence = independence or t
    return MembershipReport(in_cv, in_v0, realises, circuit, independence)


def frac_non_simple(cols):
    """Message naming the first zero column or coincident pair, or None."""
    for i, col in enumerate(cols, start=1):
        if all(Fraction(x) == 0 for x in col):
            return "point %d is a loop" % i
    for (i, u), (j, v) in combinations(enumerate(cols, start=1), 2):
        if frac_dependent(u, v):
            return "points %d and %d coincide" % (i, j)
    return None


def frac_config_of_realisation(cols):
    """Config of the maximal collinear sets of size >= 3; raises
    ValueError on non-simple columns, with the package's message."""
    why = frac_non_simple(cols)
    if why:
        raise ValueError("non-simple input: " + why)
    n = len(cols)
    lines = set()
    for i, j in combinations(range(n), 2):
        flat = tuple(k + 1 for k in range(n) if k in (i, j)
                     or frac_dependent(cols[i], cols[j], cols[k]))
        if len(flat) >= 3:
            lines.add(flat)
    return Config(n, tuple(sorted(lines)))


def frac_classify_lift(c, cols):
    """'realising', 'trivial' or 'degenerate', as classify_lift."""
    if frac_non_simple(cols):
        return "degenerate"
    circuits3 = {t for line in c.lines for t in combinations(line, 3)}
    realising = trivial = True
    for t in combinations(range(1, c.n + 1), 3):
        dep = frac_dependent(*(cols[i - 1] for i in t))
        trivial = trivial and dep
        realising = realising and dep == (t in circuits3)
    if realising:
        return "realising"
    return "trivial" if trivial else "degenerate"


def frac_evaluate(p, assignment):
    """Value of the Poly p with every coefficient and value taken as a
    Fraction."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        val = Fraction(coeff)
        for v, e in monomial_pairs(mono):
            val *= Fraction(assignment[v]) ** e
        total += val
    return total


def frac_generators_vanish(gens, cols):
    """(True, None), or (False, label of the first generator that does
    not vanish at the columns)."""
    assignment = {3 * i + off: Fraction(col[off])
                  for i, col in enumerate(cols) for off in range(3)}
    for e in gens.entries:
        if frac_evaluate(e.poly, assignment) != 0:
            return False, e.label
    return True, None


# --- term order and bracket products, the long way --------------------------


def pack_monomial(pairs):
    """The packed int of the monomial of the (variable, exponent) pairs,
    a repeated variable's exponents added: the sum of the total degree,
    in bits 0-31, and of each exponent shifted into the 32-bit field of
    its variable, field v + 1."""
    exps = Counter()
    for v, e in pairs:
        exps[v] += e
    degree = sum(exps.values())
    if degree >= 2 ** 32:
        raise OverflowError("degree %d needs more than 32 bits" % degree)
    return degree + sum(e << 32 * (v + 1) for v, e in exps.items())


def dense_multidegree(p, npoints):
    """The (letter, point) degrees shared by every term of p, summed
    from each term's (variable, exponent) pairs, or None when two terms
    differ; the zero polynomial has degree zero."""
    found = set()
    for mono in p.terms:
        letter, point = [0, 0, 0], [0] * npoints
        for v, e in monomial_pairs(mono):
            letter[v % 3] += e
            point[v // 3] += e
        found.add((tuple(letter), tuple(point)))
    if len(found) > 1:
        return None
    return found.pop() if found else ((0, 0, 0), (0,) * npoints)


def dense_grevlex_cmp(a, b, nvars):
    """-1, 0 or 1 as monomial a is below, equal to or above b in the
    dense-exponent graded reverse lexicographic comparison."""
    ea, eb = dict(monomial_pairs(a)), dict(monomial_pairs(b))
    da, db = sum(ea.values()), sum(eb.values())
    if da != db:
        return -1 if da < db else 1
    for v in reversed(range(nvars)):
        if ea.get(v, 0) != eb.get(v, 0):
            return -1 if ea.get(v, 0) > eb.get(v, 0) else 1
    return 0


def dense_terms_sorted(p, nvars):
    """The monomials of p, leading first, by dense_grevlex_cmp."""
    key = cmp_to_key(lambda a, b: dense_grevlex_cmp(a, b, nvars))
    return sorted(p.terms, key=key, reverse=True)


def dense_mul(p, q):
    """p * q, adding exponent Counters term by term: the slow reference
    for the package's expansion kernel."""
    out = Counter()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = Counter(dict(monomial_pairs(m1)))
            exps.update(dict(monomial_pairs(m2)))
            out[pack_monomial(exps.items())] += c1 * c2
    return Poly(dict(out))


def dense_det3(cols):
    """Leibniz determinant of three columns of Polys, by dense_mul."""
    total = Poly.zero()
    for perm in permutations(range(3)):
        inv = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = Poly.constant(-1 if inv % 2 else 1)
        for row, col in enumerate(perm):
            term = dense_mul(term, cols[col][row])
        total = total + term
    return total


def collin_pair(c, row, col):
    """The pair (a, b) of the entry x_a - x_b of the collinearity matrix
    of c at 1-based (row, col), or None where the entry is zero."""
    return dict(row_pairs(line_triples(c)[row - 1])).get(col)


def _symbolic_column(point):
    return [Poly.variable(3 * (point - 1) + off) for off in range(3)]


def dense_bracket(i, j, k):
    """[i j k] as the determinant of three symbolic point columns."""
    return dense_det3([_symbolic_column(p) for p in (i, j, k)])


def dense_bracket_sum(products, frames):
    """Sum over products = [(sign, ((a1, b1), ...)), ...] of sign times
    the chain of dense products of the frame brackets [a_t b_t R_f],
    f = frames[t], each the determinant of the columns of a_t, b_t and
    the f-th unit column."""
    total = Poly.zero()
    for sign, pairs in products:
        prod = Poly.constant(sign)
        for (a, b), f in zip(pairs, frames):
            unit = [Poly.constant(1 if t == f - 1 else 0) for t in range(3)]
            prod = dense_mul(prod, dense_det3([_symbolic_column(a),
                                               _symbolic_column(b), unit]))
        total = total + prod
    return total


# --- the JSON emission, through the json module ----------------------------


def json_emit_oracle(g):
    """The 'json' text of a GeneratorSet as emit once built it: a dict
    per generator and per term, encoded by json.dumps(sort_keys=True,
    indent=2).  Coefficients print as str(Fraction) and variables as
    letter_point, independently of the package's formatters."""
    generators = []
    for e in g.entries:
        md = None
        multideg = multidegree(e.poly, g.npoints)
        if multideg is not None:
            md = {"letter": list(multideg.letter),
                  "point": list(multideg.point)}
        terms = [{"coeff": str(Fraction(coeff)),
                  "exps": {"%s_%d" % ("xyz"[v % 3], v // 3 + 1): x
                           for v, x in monomial_pairs(mono)}}
                 for mono, coeff in e.poly.terms_sorted()]
        generators.append({"label": e.label,
                           "degree": e.poly.total_degree(),
                           "multidegree": md, "terms": terms})
    doc = {"ideal": g.ideal_name, "points": g.npoints,
           "generators": generators}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --- the incidence count, the long way ---------------------------------------


def structural_bound(c):
    """Sum over the components with lines of min(n - 2, sum |L| - 2),
    the bound on the generic rank that the incidence count replaced."""
    total = 0
    for comp in components(c):
        sub, _ = induced(c, comp)
        if sub.lines:
            total += min(sub.n - 2, sum(len(line) - 2 for line in sub.lines))
    return total


def subset_count_bound(c):
    """generic_rank_bound by brute force: greedy over the incidences
    (point, line), keeping one when, with it, every vertex set W that
    holds its point and line spans at most |points of W| +
    2|lines of W| - 2 kept incidences; that is the count on the
    incidences inside W.  Lines are numbered n+1, n+2, ... after the
    points."""
    kept = []
    for f, line in enumerate(c.lines, start=c.n + 1):
        for p in line:
            cand = kept + [(p, f)]
            others = sorted({v for e in kept for v in e} - {p, f})
            if all(sum(1 for a, b in cand if a in w and b in w)
                   <= sum(1 if v <= c.n else 2 for v in w) - 2
                   for k in range(len(others) + 1)
                   for w in (set(extra) | {p, f}
                             for extra in combinations(others, k))):
                kept = cand
    return len(kept) - 2 * len(c.lines)


# --- reference decide loops --------------------------------------------------
#
# The liftability check and the lift search the long way: the check
# takes each component's rank from symbolic_collin_rank, and a rank
# tests each lift candidate against the trivial plane before
# classify_lift judges it.  The package must give the same answers.
# Package functions are looked up on the lifting module at call time,
# so a test that patches them patches both.


def reference_is_liftable_generic(c, seed=0):
    """is_liftable_generic with the component ranks of the verdict
    taken from symbolic_collin_rank, and the tuples drawn (up to
    GENERIC_RANK_BUDGET) ranked on the full collinearity matrix until
    one meets the incidence count; the verdict's trials counts them."""
    full_omega = analyze(c).omega
    active = []
    for comp in components(c):
        sub, _ = induced(c, comp)
        if sub.lines:
            active.append((comp, sub))
    bound = sum(lifting.generic_rank_bound(sub) for _, sub in active)
    drawn = 0
    if bound:
        for t in range(lifting.GENERIC_RANK_BUDGET):
            rng = random.Random(seed + t)
            total = 0
            for _, sub in active:
                xs = lifting.random_distinct_abscissas(sub.n, rng)
                total += lifting.rank(lifting.build_collin(sub, xs).numeric)
            if total == bound:
                drawn = t + 1
                break
        else:
            raise RuntimeError("no trial meets the incidence count")
    comp_rank = [lifting.symbolic_collin_rank(sub) for _, sub in active]
    verdicts = []
    threshold = 0
    for ci, (comp, sub) in enumerate(active):
        thr = sub.n - 3
        threshold += thr
        forest = analyze(sub).is_forest
        if forest:
            v = "liftable"
        elif comp_rank[ci] > thr:
            v = "not-liftable"
        else:
            v = "liftable"
        verdicts.append(lifting.ComponentVerdict(tuple(comp), v,
                                                 comp_rank[ci], thr, forest))
    if any(cv.verdict == "not-liftable" for cv in verdicts):
        overall = "not-liftable"
    else:
        overall = "liftable"
    return lifting.LiftabilityVerdict(
        overall, sum(comp_rank), threshold, full_omega, drawn,
        tuple(verdicts))


def rank_check_lift(c, x, seed=0):
    """lift with a trivial-plane rank test before classify_lift."""
    cm = lifting.build_collin(c, x)
    space = lifting.lift_space(cm)
    if space.dimension <= 2:
        return lifting.LiftResult("no-nontrivial-lift")
    rng = lifting.random.Random(seed)
    xs = cm.abscissas
    ones = [1] * c.n
    best = None
    for _ in range(lifting.LIFT_ATTEMPTS):
        coeffs = [rng.randint(-10000, 10000) for _ in space.basis]
        z = [sum(cv * bv[i] for cv, bv in zip(coeffs, space.basis))
             for i in range(c.n)]
        if lifting.rank(QMatrix([ones, xs, z])) < 3:
            continue
        r = Realisation.from_columns(
            [(xs[i], 1, z[i]) for i in range(c.n)])
        kind = lifting.classify_lift(c, r)
        if kind == "realising":
            return lifting.LiftResult("realising", r)
        if best is None:
            best = lifting.LiftResult(kind, r)
    if best is not None:
        return best
    for b in space.basis:
        if lifting.rank(QMatrix([ones, xs, b])) == 3:
            r = Realisation.from_columns(
                [(xs[i], 1, b[i]) for i in range(c.n)])
            return lifting.LiftResult(lifting.classify_lift(c, r), r)
    raise RuntimeError("kernel basis spans only the trivial plane")


# --- the collinear sampler, with its own parameter draw -------------------


def reference_sample_collinear(rng, n):
    """probes.sample_collinear as it drew before it shared
    probes._line_points: the n parameters come from a set of draws,
    which keeps drawing past a duplicate, as _line_points does too, so
    the two draw the same stream."""
    for _ in range(probes.RETRY_BUDGET):
        a = probes._rand_vec(rng, probes.COEFF_RANGE)
        b = probes._rand_vec(rng, probes.COEFF_RANGE)
        if not any(cross(a, b)):
            continue
        params = set()
        while len(params) < n:
            params.add(rng.randint(-probes.COEFF_RANGE, probes.COEFF_RANGE))
        pts = [tuple(t * u + v for u, v in zip(a, b))
               for t in sorted(params)]
        if not _non_simple(pts):
            return Realisation.from_columns(pts)
    raise probes.SampleError("retry budget exhausted sampling collinear "
                             "points")


# Dense linear configurations: the Fano plane, the Pappus and Desargues
# configurations and the affine plane of order 3.
DENSE_CONFIGS = (
    Config(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
               (3, 4, 7), (3, 5, 6))),
    Config(9, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 9), (1, 6, 8),
               (2, 4, 9), (2, 6, 7), (3, 4, 8), (3, 5, 7))),
    Config(10, ((1, 2, 5), (1, 3, 6), (1, 4, 7), (2, 3, 8), (5, 6, 8),
                (2, 4, 9), (5, 7, 9), (3, 4, 10), (6, 7, 10), (8, 9, 10))),
    Config(9, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8),
               (3, 6, 9), (1, 5, 9), (2, 6, 7), (3, 4, 8), (1, 6, 8),
               (2, 4, 9), (3, 5, 7))),
)


def random_linear_config(rng, max_points=11,
                         line_sizes=(2, 3, 3, 3, 3, 4, 4, 5)):
    """A seeded random linear configuration on at most max_points
    points, with its labels shuffled.  Half of them are random lines,
    each of a size drawn from line_sizes (2 to 5 points by default),
    with no point pair on two lines; the other half keep most lines of
    a dense configuration and hang up to two pendant lines, each
    through one old point, on it.  The dense configuration
    is drawn among those on at most max_points points; when none is
    that small, every draw takes random lines."""
    fits = [base for base in DENSE_CONFIGS if base.n <= max_points]
    if rng.random() < 0.5 or not fits:
        n = rng.randint(4, max_points)
        lines = []
        covered = set()
        for _ in range(rng.randint(1, 16)):
            size = min(n, rng.choice(line_sizes))
            line = tuple(sorted(rng.sample(range(1, n + 1), size)))
            pairs = set(combinations(line, 2))
            if not pairs & covered:
                covered |= pairs
                lines.append(line)
    else:
        base = rng.choice(fits)
        n = base.n
        lines = [line for line in base.lines if rng.random() < 0.85]
        for _ in range(rng.randint(0, 2)):
            if n == max_points:
                break
            new = rng.randint(1, min(2, max_points - n))
            lines.append((rng.randint(1, base.n),)
                         + tuple(range(n + 1, n + new + 1)))
            n += new
    perm = rng.sample(range(1, n + 1), n)
    return Config(n, tuple(sorted(tuple(sorted(perm[p - 1] for p in line))
                                  for line in lines)))
