"""Collinearity matrices, lift spaces, and constructive liftings.

Given distinct abscissas x_1..x_n on a line, a lift assigns a height
z_i to each point; the lifted points (x_i, 1, z_i) must stay collinear
along every configuration line.  Those conditions are linear in z and
are encoded by the collinearity matrix built here.  The rest of the
module decides when a non-degenerate (realising) lift exists and
constructs one.
"""

import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .config import (Realisation, _non_simple, analyze, circuits,
                     components, delete_line, induced, line_triples,
                     membership, row_pairs)
from .linalg import (QMatrix, _exact, _int_row, bareiss, cross,
                     nullspace, rank)
from .poly import Poly, var_id

CONVENTIONAL_CENTER = (0, 0, 1)
CONVENTIONAL_LINE = (0, 0, 1)
ABSCISSA_RANGE = 65536
GENERIC_RANK_BUDGET = 64
LIFT_ATTEMPTS = 32


def _collin_rows(triples, xs, zero):
    """Collinearity rows of the triples over any ring, with xs[p - 1]
    standing for x_p and zero for the ring's zero."""
    rows = []
    for t in triples:
        row = [zero] * len(xs)
        for col, (a, b) in row_pairs(t):
            row[col - 1] = xs[a - 1] - xs[b - 1]
        rows.append(row)
    return rows


class CollinMatrix:
    """The collinearity matrix Lambda of a configuration at abscissas.

    Lambda has one row per collinear triple, in the order of
    config.line_triples.  The row of triple i1 < i2 < i3 has entries
    x_{i2}-x_{i3}, -(x_{i1}-x_{i3}), x_{i1}-x_{i2} in columns i1, i2, i3
    (config.row_pairs) and zeros elsewhere.

    Ranks and kernels are taken from `line_basis`, an integer matrix
    with the row space of Lambda.  For a line with sorted points
    p1 < p2 < ... < pm it keeps only the rows of the triples
    (p1, p2, pj), j = 3..m.  At distinct abscissas the kernel of the
    line's block is {z : z on the line lies in span(1, x)}, of
    codimension m - 2; each kept row is the only one of them that is
    nonzero in column pj, where it holds x_{p1} - x_{p2} != 0, so the
    m - 2 kept rows are independent and span the block.  Each row is
    scaled by the lcm of its three denominators, which changes neither
    rank nor kernel.  `numeric`, the full Lambda as ints and Fractions,
    is built on first read: its minors are the paper's objects.
    """

    def __init__(self, config, abscissas, line_basis):
        self.config = config
        self.abscissas = abscissas
        self.line_basis = line_basis

    @cached_property
    def numeric(self):
        return QMatrix(_collin_rows(line_triples(self.config),
                                    self.abscissas, 0),
                       cols=self.config.n)


def _line_basis_rows(c, nums, dens):
    """The integer rows of CollinMatrix.line_basis at the abscissas
    x_p = a_p / b_p, with a_p = nums[p - 1] and b_p = dens[p - 1].  The
    row of the triple (i, j, k) times L = lcm(b_i, b_j, b_k) holds
    s_j - s_k, s_k - s_i and s_i - s_j in columns i, j and k, where
    s_p = a_p (L / b_p) = L x_p."""
    rows = []
    for line in c.lines:
        if len(line) < 3:
            continue
        i, j, *rest = (p - 1 for p in sorted(line))
        ai, bi, aj, bj = nums[i], dens[i], nums[j], dens[j]
        lij = lcm(bi, bj)
        for k in rest:
            ak, bk = nums[k], dens[k]
            big = lcm(lij, bk)
            si, sj, sk = (ai * (big // bi), aj * (big // bj),
                          ak * (big // bk))
            row = [0] * c.n
            row[i] = sj - sk
            row[j] = sk - si
            row[k] = si - sj
            rows.append(row)
    return rows


def build_collin(c, x):
    """Collinearity matrix of c at the abscissas x, which must be one
    int or Fraction per point of c, no two equal."""
    xs = _exact(x)
    if len(xs) != c.n:
        raise ValueError("expected %d abscissas, got %d" % (c.n, len(xs)))
    nums = [v.numerator for v in xs]
    dens = [v.denominator for v in xs]
    # Keyed by the lowest-terms pair, which hashes faster than a
    # Fraction.
    seen = {}
    for i, key in enumerate(zip(nums, dens), start=1):
        if key in seen:
            raise ValueError("duplicate abscissa: points %d and %d "
                             "both sit at %s" % (seen[key], i, xs[i - 1]))
        seen[key] = i
    return CollinMatrix(c, xs,
                        QMatrix.of_ints(_line_basis_rows(c, nums, dens), c.n))


def rank_test(c, x):
    """(rank, threshold): the rank of the collinearity matrix of c at
    the abscissas x, taken from its line basis, and the liftability
    threshold c.n - 3.  Generically, x lifts when the rank is at most
    the threshold: the lift space then exceeds the trivial plane."""
    return rank(build_collin(c, x).line_basis), c.n - 3


class LiftSpace(namedtuple("LiftSpace", "basis dimension")):
    """Kernel of a collinearity matrix."""

    __slots__ = ()


def lift_space(cm):
    """Exact kernel of the collinearity matrix cm, taken from
    cm.line_basis, which has the same kernel, in the canonical form of
    nullspace().  It contains the trivial plane spanned by the all-ones
    vector and the abscissa vector, so heights outside that plane exist
    iff the dimension is at least 3."""
    basis = nullspace(cm.line_basis)
    return LiftSpace(tuple(tuple(v) for v in basis), len(basis))


class LiftResult(namedtuple("LiftResult", "kind realisation",
                            defaults=(None,))):
    __slots__ = ()


def classify_lift(c, r):
    """'realising', 'trivial' or 'degenerate' for a candidate lift r.

    Realising means the columns reproduce the dependence pattern of c
    exactly: a 3-subset is linearly dependent iff it is collinear in c,
    no column vanishes and no two columns coincide projectively.  A
    configuration whose every triple is collinear is realised by
    collinear points, so the realising answer takes precedence over the
    trivial one.  Trivial means all lifted points are collinear.  The
    zero tests run on r.int_columns(), as brackets are multihomogeneous.
    """
    if _non_simple(r.int_columns()):
        return "degenerate"
    rep = membership(r, circuits(c))
    if rep.realises:
        return "realising"
    if rep.in_v0:
        return "trivial"
    return "degenerate"


def _candidate(c, xs, basis, rng):
    """LiftResult of one random lift at the abscissas xs: the heights
    are an integer combination of the basis vectors, with coefficients
    drawn from rng in [-10000, 10000], judged by classify_lift."""
    coeffs = [rng.randint(-10000, 10000) for _ in basis]
    z = [sum(cv * bv[i] for cv, bv in zip(coeffs, basis))
         for i in range(c.n)]
    r = Realisation.from_columns([(xs[i], 1, z[i]) for i in range(c.n)])
    return LiftResult(classify_lift(c, r), r)


def lift(c, x, seed=0):
    """Search the lift space at abscissas x for a realising lift.

    Returns a LiftResult of kind 'no-nontrivial-lift' when the lift
    space is at most the trivial plane; otherwise draws LIFT_ATTEMPTS
    candidates from the kernel basis (_candidate) and returns the first
    realising one, or else the first degenerate one; trivial ones (all
    points collinear) are skipped.  A lift space of dimension >= 3
    means c is not one line through every point, so no trivial
    candidate realises c.  Deterministic for a given seed.
    """
    cm = build_collin(c, x)
    space = lift_space(cm)
    if space.dimension <= 2:
        return LiftResult("no-nontrivial-lift")
    rng = random.Random(seed)
    xs = cm.abscissas
    best = None
    for _ in range(LIFT_ATTEMPTS):
        cand = _candidate(c, xs, space.basis, rng)
        if cand.kind == "realising":
            return cand
        if best is None and cand.kind != "trivial":
            best = cand
    if best is not None:
        return best
    # Every random draw hit the trivial plane.  The first basis vector
    # lies outside it: the basis is in reduced echelon form, so it is
    # zero at the other dimension - 1 >= 2 pivot columns, and a nonzero
    # a + b*x has at most one zero at distinct abscissas.
    b = space.basis[0]
    r = Realisation.from_columns([(xs[i], 1, b[i]) for i in range(c.n)])
    return LiftResult(classify_lift(c, r), r)


def forest_lift(c, x):
    """Realising lift of a forest configuration, drawn from its lift
    space.

    The lines of a forest can be ordered so that each meets those
    before it in at most one point, so the heights on each line can be
    any affine function of x that matches the one height, if any,
    already fixed on it.  The lift space holds exactly these height
    vectors, and a generic one of them realises c.  Candidates are
    drawn as in lift(), from the kernel basis with each vector scaled
    to integers, so that integer abscissas give integer heights, by a
    fixed internal generator: the output is a deterministic function of
    the input.  A candidate with an accidental extra collinearity is
    redrawn, up to LIFT_ATTEMPTS times.
    """
    if not analyze(c).is_forest:
        raise ValueError("not a forest configuration")
    cm = build_collin(c, x)
    basis = [_int_row(v)[0] for v in lift_space(cm).basis]
    rng = random.Random(0x1f2e3d)
    for _ in range(LIFT_ATTEMPTS):
        cand = _candidate(c, cm.abscissas, basis, rng)
        if cand.kind == "realising":
            return cand
    raise RuntimeError("degenerate parameter collision: retry budget of %d "
                       "exhausted" % LIFT_ATTEMPTS)


def epsilon_scale(l, eps):
    """Rescale the heights of a lift by eps / (n * max |z_i|).

    Every 3x3 minor is multiplied by a fixed power of the common factor
    (one per lifted point involved), so the zero pattern of the minors,
    and with it the classification, is unchanged.  eps must be a
    positive int or Fraction; a float raises TypeError.
    """
    _exact([eps])
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    r = l.realisation
    if r is None:
        raise ValueError("lift result carries no realisation")
    cols = r.columns()
    zmax = max(abs(col[2]) for col in cols)
    if zmax == 0:
        raise ValueError("all-zero lift cannot be rescaled")
    f = Fraction(eps, r.n * zmax)
    return LiftResult(l.kind, Realisation.from_columns(
        [(col[0], col[1], col[2] * f) for col in cols]))


class ChartMap(namedtuple("ChartMap", "basis")):
    """Affine chart of a projective line with basis (A, B): the point
    at abscissa t is t*A + B."""

    __slots__ = ()

    def to_point(self, t):
        a, b = self.basis
        return tuple(t * u + v for u, v in zip(a, b))


class ProjectionResult(namedtuple("ProjectionResult",
                                  "abscissas chart distinct")):
    __slots__ = ()


def project(r, center=CONVENTIONAL_CENTER, target_line=CONVENTIONAL_LINE):
    """Central projection of the columns of r onto a target line.

    Returns the abscissas of the images in a fixed affine chart of the
    line, together with the chart map (so w = t*A + B reconstructs the
    image points).  Coincident images are reported via the `distinct`
    flag rather than as an error.  The default center (0,0,1) and line
    z = 0 invert lift(): projecting a lift recovers its abscissas.
    """
    ln = _exact(target_line)
    cen = _exact(center)
    if not any(ln):
        raise ValueError("target line must have a nonzero coefficient")
    if not any(cen):
        raise ValueError("projection center must be nonzero")
    if sum(a * b for a, b in zip(cen, ln)) == 0:
        raise ValueError("projection center lies on the target line")
    m = max(range(3), key=lambda k: abs(ln[k]))
    i, j = (k for k in range(3) if k != m)
    a = [0] * 3
    a[i] = 1
    a[m] = Fraction(-ln[i], ln[m])
    b = [0] * 3
    b[j] = 1
    b[m] = Fraction(-ln[j], ln[m])
    chart = ChartMap((tuple(a), tuple(b)))
    out = []
    for idx in range(1, r.n + 1):
        through = cross(cen, r.column(idx))
        if not any(through):
            raise ValueError("point %d coincides with the projection center"
                             % idx)
        w = cross(through, ln)
        if w[j] == 0:
            raise ValueError("point %d projects to the chart's infinity"
                             % idx)
        out.append(Fraction(w[i], w[j]))
    return ProjectionResult(tuple(out), chart,
                            len(set(out)) == len(out))


# --- liftability decisions ---------------------------------------------------

class ComponentVerdict(namedtuple(
        "ComponentVerdict", "points verdict witness_rank threshold "
        "is_forest")):
    __slots__ = ()


class LiftabilityVerdict(namedtuple(
        "LiftabilityVerdict", "verdict witness_rank threshold omega trials "
        "components")):
    """Outcome of the generic-rank liftability test.

    witness_rank is the generic rank of the collinearity matrix, summed
    over components (exact because the matrix is block diagonal across
    them); threshold is n' - 3*omega' over the components that carry
    lines.  Isolated points impose no conditions and are excluded from
    both.  trials counts the tuples drawn to certify the rank.
    """

    __slots__ = ()


class RankNotCertified(RuntimeError):
    """No sampled tuple met the incidence count within the budget."""


def random_distinct_abscissas(n, rng):
    """n distinct random integers of size at most ABSCISSA_RANGE, in
    draw order: a repeated draw is skipped and one more value drawn."""
    xs = {}
    while len(xs) < n:
        xs[rng.randint(-ABSCISSA_RANGE, ABSCISSA_RANGE)] = None
    return list(xs)


def _fetch_pebble(x, blocked, pebbles, out):
    """Bring a free pebble to x along out-edges avoiding the blocked
    vertices, reversing the path; False when none is reachable."""
    parent = {x: None}
    stack = [x]
    while stack:
        a = stack.pop()
        for b in out[a]:
            if b in parent or b in blocked:
                continue
            parent[b] = a
            if pebbles[b]:
                pebbles[b] -= 1
                pebbles[x] += 1
                while b != x:
                    a = parent[b]
                    out[a].remove(b)
                    out[b].append(a)
                    b = a
                return True
            stack.append(b)
    return False


def generic_rank_bound(c):
    """Upper bound on the rank of the collinearity matrix of c at every
    tuple, equal to its generic rank (Whiteley, Discrete Comput. Geom.
    4, 1989).

    One row z_p - a_L - b_L*x_p per incidence (p, L) gives, at distinct
    abscissas, a matrix of rank 2*#lines + rank of the collinearity
    matrix.  The affine heights
    lie in the kernel of any set I of these rows, so its rank is at most
    |points of I| + 2|lines of I| - 2.  The rank r of the matroid of the
    incidence sets that meet this count on every subset bounds the
    rank by r - 2*#lines.  r comes from a pebble game (Lee-Streinu,
    Discrete Math. 308, 2008): a point holds 1 pebble, a line 2, and an
    incidence is kept when all 3 pebbles of its ends can be gathered.
    """
    cap = [1] * c.n + [2] * len(c.lines)
    pebbles = cap[:]
    out = [[] for _ in cap]
    kept = 0
    for f, line in enumerate(c.lines, start=c.n):
        for p in line:
            ends = (p - 1, f)
            while pebbles[p - 1] + pebbles[f] < 3:
                if not any(pebbles[x] < cap[x]
                           and _fetch_pebble(x, ends, pebbles, out)
                           for x in ends):
                    break
            else:
                pebbles[p - 1] -= 1
                out[p - 1].append(f)
                kept += 1
    return kept - 2 * len(c.lines)


def is_liftable_generic(c, seed=0):
    """Decide liftability component by component.

    Forest components are liftable outright: a generic element of their
    lift space realises them, and forest_lift draws one.  Each other
    component is not liftable when its generic rank,
    generic_rank_bound, exceeds n_comp - 3.  A rank within the bound is
    reported liftable on the rank test alone.  That is exact when the
    component's matroid is maximal; otherwise the bound only guarantees
    a lift space beyond the trivial plane, and lift() may find nothing
    but degenerate lifts in it.

    The ranks are certified at random distinct integer abscissa
    tuples, trial t drawn with seed seed+t, components in order.  The
    rank at every tuple is at most the bound, so the first trial whose
    total meets the summed bounds meets each component's own bound.
    RankNotCertified, a RuntimeError, is raised if none does within
    GENERIC_RANK_BUDGET trials.  The verdict counts the trials drawn.
    """
    comps = components(c)
    active = []
    for comp in comps:
        sub, _ = induced(c, comp)
        if sub.lines:
            active.append((comp, sub))
    bounds = [generic_rank_bound(sub) for _, sub in active]
    bound = sum(bounds)
    total = drawn = 0
    while total < bound:
        if drawn == GENERIC_RANK_BUDGET:
            raise RankNotCertified("generic rank not certified: sampled "
                                   "rank %d below the incidence count %d "
                                   "after %d trials" % (total, bound, drawn))
        rng = random.Random(seed + drawn)
        drawn += 1
        total = sum(rank_test(sub, random_distinct_abscissas(sub.n, rng))[0]
                    for _, sub in active)
    verdicts = []
    threshold = 0
    for (comp, sub), r in zip(active, bounds):
        thr = sub.n - 3
        threshold += thr
        forest = analyze(sub).is_forest
        v = "liftable" if forest or r <= thr else "not-liftable"
        verdicts.append(ComponentVerdict(tuple(comp), v, r, thr, forest))
    overall = ("not-liftable" if any(cv.verdict == "not-liftable"
                                     for cv in verdicts) else "liftable")
    return LiftabilityVerdict(overall, bound, threshold, len(comps), drawn,
                              tuple(verdicts))


class QuasiLiftability(namedtuple("QuasiLiftability",
                                  "is_quasi base deletions")):
    __slots__ = ()


def is_quasi_liftable(c, seed=0):
    """A configuration is quasi-liftable when it is not liftable itself
    but deleting any single line leaves a liftable configuration."""
    base = is_liftable_generic(c, seed)
    ok = base.verdict == "not-liftable"
    deletions = []
    for li in range(1, len(c.lines) + 1):
        sub, _ = delete_line(c, li)
        v = is_liftable_generic(sub, seed)
        deletions.append((li, v))
        if v.verdict != "liftable":
            ok = False
    return QuasiLiftability(ok, base, tuple(deletions))


def poly_matrix_rank(a):
    """Rank of a matrix of Poly entries over the rational function
    field, by fraction-free elimination with exact division; the tests'
    reference for generic_rank_bound."""
    return len(bareiss([row[:] for row in a])[0])


def symbolic_collin_rank(c):
    """Exact generic rank of the collinearity matrix of c, over the
    polynomial ring: slow, and only the tests' reference for
    generic_rank_bound, which decides instead."""
    xs = [Poly.variable(var_id("x", p)) for p in range(1, c.n + 1)]
    return poly_matrix_rank(_collin_rows(line_triples(c), xs, Poly.zero()))
