"""Abstract point-line configurations and their rank-3 matroids.

Points are labelled 1..n throughout.  A configuration is linear: two
points lie on at most one common line.  The graph of a configuration
joins consecutive points along each line (under the natural order of
the labels); its component count and forest property drive the
liftability results.
"""

from collections import namedtuple
from itertools import combinations
from math import comb

from .linalg import _exact, _int_rows, cross, det3, format_rat


# The records below are namedtuples: immutable, compared and hashed by
# value, and cheap to define, which keeps the package's import fast.

class Config(namedtuple("Config", "n lines")):
    """Points 1..n and lines given as tuples of point indices, which
    must be ints: any other label raises TypeError."""

    __slots__ = ()

    def __new__(cls, n, lines=()):
        lines = tuple(tuple(line) for line in lines)
        for line in lines:
            for p in line:
                # A bool is an int, but no label: True == 1.
                if not isinstance(p, int) or isinstance(p, bool):
                    raise TypeError("point label is not an int: %r" % (p,))
        return super().__new__(cls, n, lines)

    def lines_through(self, p):
        """1-based indices of the lines containing point p."""
        return [i for i, line in enumerate(self.lines, start=1) if p in line]


class Violation(namedtuple("Violation", "kind points lines",
                           defaults=((), ()))):
    """One well-formedness failure found by validate()."""

    __slots__ = ()

    def __str__(self):
        bits = [self.kind]
        if self.points:
            bits.append("points " + ",".join(map(str, self.points)))
        if self.lines:
            bits.append("lines " + ",".join(map(str, self.lines)))
        return ": ".join((bits[0], "; ".join(bits[1:]))) if len(bits) > 1 \
            else bits[0]


def validate(c):
    """All well-formedness violations of c, empty when c is fine.

    Checks line length, monotone point lists, index range, duplicate
    and nested lines, and linearity (no point pair on two lines).
    """
    out = []
    for i, line in enumerate(c.lines, start=1):
        if len(line) < 2:
            out.append(Violation("line too short", lines=(i,)))
        if any(b <= a for a, b in zip(line, line[1:])):
            out.append(Violation("line not strictly increasing", lines=(i,)))
        bad = tuple(p for p in line if not 1 <= p <= c.n)
        if bad:
            out.append(Violation("point index out of range",
                                 points=bad, lines=(i,)))
    for i, j in combinations(range(1, len(c.lines) + 1), 2):
        a, b = set(c.lines[i - 1]), set(c.lines[j - 1])
        common = a & b
        if a == b:
            out.append(Violation("duplicate line", lines=(i, j)))
        elif a <= b or b <= a:
            out.append(Violation("line contained in another", lines=(i, j)))
        elif len(common) >= 2:
            pair = tuple(sorted(common))[:2]
            out.append(Violation("two lines share a point pair",
                                 points=pair, lines=(i, j)))
    return out


class Rank3Matroid(namedtuple("Rank3Matroid", "n circuits3")):
    """Rank-3 matroid on 1..n whose 3-element circuits are given, as
    increasing triples, in the frozenset circuits3.

    Every 4-subset not containing a listed triple is implicitly a
    circuit as well.
    """

    __slots__ = ()


def line_triples(c):
    """The collinear triples of c: each line's increasing 3-subsets in
    lexicographic order, lines in configuration order."""
    return tuple(t for line in c.lines for t in combinations(sorted(line), 3))


def row_pairs(triple):
    """The nonzero entries of the collinearity row of triple i1 < i2 < i3,
    as (column, (a, b)) for the entry x_a - x_b."""
    i1, i2, i3 = triple
    return ((i1, (i2, i3)), (i2, (i3, i1)), (i3, (i1, i2)))


def circuits(c):
    """Rank3Matroid whose 3-circuits are the collinear triples of c."""
    return Rank3Matroid(c.n, frozenset(line_triples(c)))


class MembershipReport(namedtuple(
        "MembershipReport", "in_circuit_variety in_v0 realises "
        "violated_circuit violated_independence", defaults=(None, None))):
    __slots__ = ()


def _dependent(cols):
    """The increasing 1-based triples of linearly dependent columns,
    from one det3 pass over the columns cols."""
    return {t for t in combinations(range(1, len(cols) + 1), 3)
            if not det3(cols[t[0] - 1], cols[t[1] - 1], cols[t[2] - 1])}


def membership(r, m):
    """Test a realisation against a rank-3 matroid.

    in_circuit_variety: every circuit triple is linearly dependent.
    in_v0: every triple is dependent (all points on one line), which
    for a 3 x n matrix is the same as rank at most 2.
    realises: circuits dependent and every other triple independent.
    One scan of r.int_columns() finds the dependent triples (brackets
    are multihomogeneous, so the scaling does not matter); the flags
    and the first violated triples, the lexicographically least, come
    from its set differences with the circuit triples.
    """
    if r.n != m.n:
        raise ValueError("realisation has %d points, matroid %d"
                         % (r.n, m.n))
    dep = _dependent(r.int_columns())
    independent_circuits = m.circuits3 - dep
    dependent_others = dep - m.circuits3
    return MembershipReport(not independent_circuits,
                            len(dep) == comb(m.n, 3),
                            not independent_circuits and not dependent_others,
                            min(independent_circuits, default=None),
                            min(dependent_others, default=None))


class Realisation:
    """Homogeneous coordinates of n points: a tuple of n exact
    3-tuples, one column per point, built by from_columns().

    Zero columns are allowed; they encode loops of the matroid.
    """

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = cols

    @classmethod
    def from_columns(cls, columns):
        cols = tuple(_exact(col) for col in columns)
        if any(len(col) != 3 for col in cols):
            raise ValueError("columns must have 3 entries")
        return cls(cols)

    @property
    def n(self):
        return len(self.cols)

    def column(self, i):
        """Column of point i (1-based), a 3-tuple."""
        return self.cols[i - 1]

    def columns(self):
        return list(self.cols)

    def int_columns(self):
        """Columns, each scaled to integers by the lcm of its
        denominators; a multihomogeneous polynomial, such as a bracket,
        vanishes on these exactly when it vanishes on the columns."""
        return _int_rows(self.cols)[0]

    def __eq__(self, other):
        return isinstance(other, Realisation) and self.cols == other.cols

    def __repr__(self):
        return "Realisation(%r)" % (self.cols,)


def _non_simple(cols):
    """Why integer columns are not simple: the first zero column or the
    first projectively equal pair (zero cross product), or None."""
    for i, col in enumerate(cols, start=1):
        if not any(col):
            return "point %d is a loop" % i
    for (i, u), (j, v) in combinations(enumerate(cols, start=1), 2):
        if not any(cross(u, v)):
            return "points %d and %d coincide" % (i, j)
    return None


def config_of_realisation(r):
    """Configuration whose lines are the maximal collinear sets of size
    at least 3 among the columns of r.

    Requires a simple realisation: raises ValueError on zero or
    projectively-equal columns.  The line through two points is the
    union of the dependent triples containing both.  All zero tests run
    on r.int_columns(), which is valid because brackets and cross
    products are multihomogeneous in the columns.
    """
    cols = r.int_columns()
    n = len(cols)
    why = _non_simple(cols)
    if why:
        raise ValueError("non-simple input: " + why)
    through = {}
    for t in _dependent(cols):
        for pair in combinations(t, 2):
            through.setdefault(pair, set()).update(t)
    return Config(n, tuple(sorted({tuple(sorted(flat))
                                   for flat in through.values()})))


class ConfigAnalysis(namedtuple("ConfigAnalysis", "omega is_forest")):
    __slots__ = ()


def _graph(c):
    """Union-find over the graph of c.

    Returns (is_forest, find): whether the edges joining consecutive
    points along each line close no cycle, and a function mapping each
    point to the root of its component.
    """
    # A list: two lines through the same pair of points close a cycle.
    edges = []
    for line in c.lines:
        pts = sorted(line)
        edges += zip(pts, pts[1:])
    parent = list(range(c.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = True
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            forest = False
        else:
            parent[ra] = rb
    return forest, find


def analyze(c):
    """Graph-theoretic summary of c.

    The graph joins consecutive points along each line; omega counts
    its connected components (isolated points included).
    """
    forest, find = _graph(c)
    return ConfigAnalysis(len({find(p) for p in range(1, c.n + 1)}), forest)


def components(c):
    """Connected components of the configuration graph, as increasing
    point tuples (isolated points form singleton components)."""
    _, find = _graph(c)
    groups = {}
    for p in range(1, c.n + 1):
        groups.setdefault(find(p), []).append(p)
    return sorted(tuple(g) for g in groups.values())


def induced(c, points):
    """Subconfiguration on the given point set, keeping the lines that
    lie entirely inside it.  Returns (config, old-to-new index map)."""
    pts = sorted(set(points))
    index_map = {old: new for new, old in enumerate(pts, start=1)}
    new_lines = tuple(tuple(index_map[p] for p in line)
                      for line in c.lines
                      if all(p in index_map for p in line))
    return Config(len(pts), new_lines), index_map


def delete_line(c, line_index):
    """Remove line line_index (1-based) and the points incident to no
    other line, reindexing the survivors monotonically.

    Returns (new config, old-to-new index map for surviving points).
    """
    if not 1 <= line_index <= len(c.lines):
        raise IndexError("no line %r" % (line_index,))
    doomed = c.lines[line_index - 1]
    removed = {p for p in doomed if c.lines_through(p) == [line_index]}
    survivors = [p for p in range(1, c.n + 1) if p not in removed]
    index_map = {old: new for new, old in enumerate(survivors, start=1)}
    new_lines = tuple(tuple(index_map[p] for p in line)
                      for i, line in enumerate(c.lines, start=1)
                      if i != line_index)
    return Config(len(survivors), new_lines), index_map


# --- file formats ----------------------------------------------------------

def config_from_dict(d):
    if not isinstance(d, dict) or "points" not in d or "lines" not in d:
        raise ValueError("config must be {\"points\": n, \"lines\": [...]}")
    n = d["points"]
    lines = d["lines"]
    # JSON true and false load as bools, which isinstance() takes as ints.
    if type(n) is not int or n < 0:
        raise ValueError("\"points\" must be a nonnegative integer")
    if not isinstance(lines, list) or any(
            not isinstance(line, list)
            or any(type(p) is not int for p in line) for line in lines):
        raise ValueError("\"lines\" must be a list of integer lists")
    return Config(n, tuple(tuple(line) for line in lines))


def realisation_to_dict(r):
    return {"columns": [[format_rat(x) for x in col] for col in r.columns()]}


# --- standard configurations -----------------------------------------------

def qs_config():
    """Four generic lines meeting in six points: 1 = AB, 2 = AC, 3 = AD,
    4 = CD, 5 = BD, 6 = BC."""
    return Config(6, ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)))


def grid_config(rows, cols):
    """The rows x cols grid; point (row j, column i) has label
    rows*(i-1) + j.  Column lines come first, then row lines."""
    lines = []
    for i in range(1, cols + 1):
        lines.append(tuple(rows * (i - 1) + j for j in range(1, rows + 1)))
    for j in range(1, rows + 1):
        lines.append(tuple(rows * (i - 1) + j for i in range(1, cols + 1)))
    return Config(rows * cols, tuple(lines))


_BUNDLED = {
    "qs": qs_config(),
    "grid3x3": Config(9, ((1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9),
                          (4, 5, 6), (7, 8, 9))),
    "grid3x4": grid_config(3, 4),
    "forest_single_line": Config(6, ((1, 2, 3, 4, 5, 6),)),
    "forest_two_lines": Config(5, ((1, 2, 3), (3, 4, 5))),
    "forest_path10": Config(10, ((1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10))),
}


def bundled_names():
    return sorted(_BUNDLED)


def bundled_config(name):
    try:
        return _BUNDLED[name]
    except KeyError:
        raise KeyError("unknown bundled config %r (have: %s)"
                       % (name, ", ".join(bundled_names())))
