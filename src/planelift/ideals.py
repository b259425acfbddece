"""Bracket-polynomial families and generating sets of matroid ideals.

The two families built here certify that six, resp. twelve, collinear
points are the projection of a quadrilateral set, resp. a 3x4 grid.
Each is a fixed skeleton of signed products of brackets [a b F], one
frame point F per slot (SKELETONS).  A minor of the collinearity
matrix is named by 1-based rows, the collinear triples of
config.line_triples, and columns, the points; config.row_pairs gives
its entries, and extending it (extend_minor) puts [a b F] in place of
each entry x_a - x_b of its Leibniz products.  SKELETONS builds the QS
polynomial of a line from the minor on the rows of the other three
lines, ordered by the point where each meets the line, and the columns
of the three points off the line: the negated extension, with frame
F_t in the slot of the t-th row.  A grid polynomial extends no
minor: its products put each other column's leftover pair at all three
of that column's points, nine columns where a 6 x 6 minor has six.

A frame point is 1, 2 or 3 for R_1 = (1,0,0), R_2 = (0,1,0),
R_3 = (0,0,1), or an exact 3-vector.

Every skeleton is summed by one of two functions: _expand builds the
Poly (qs_poly, g34_poly, extend_minor, radical_ideal_generators,
verify_rewrite_rows), and _value the number at explicit point columns
(qs_value and g34_value only).  A generator is declared as a formula
(family, args): ("bracket", (i, j, k)), ("qs", (line, f1, f2, f3)) or
("g34", (ci, f1, ..., f6)), args being the family function's own
arguments.  generator_poly expands a formula with bracket, qs_poly or
g34_poly, and generator_value evaluates it with det3, qs_value or
g34_value, each looked up by name when called, so that a wrapper put
on the module attribute (bench/tracing.py) sees every call.
"""

import re
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, \
    compress, product
from json.encoder import encode_basestring_ascii

from .config import grid_config, line_triples, qs_config, row_pairs
from .linalg import _check_index_set, _exact, det3
from .poly import (FRAME_COFACTORS, Poly, _pack, bracket, expand_products,
                   frame_terms, monomial_pairs, multidegree, point_bracket,
                   poly_to_plain, unit_exponents, var_id, var_names)


def _frame(spec):
    """The frame point spec, checked: 1, 2 or 3 as given, or a 3-vector
    of ints and Fractions as a tuple.  Any other int raises ValueError
    and a bool TypeError."""
    if isinstance(spec, int):
        if isinstance(spec, bool):
            raise TypeError("frame index must be an int, not a bool")
        if spec not in (1, 2, 3):
            raise ValueError("frame index must be 1, 2 or 3")
        return spec
    vector = _exact(spec)
    if len(vector) != 3:
        raise ValueError("frame point needs 3 coordinates")
    return vector


def _expand(products, frames):
    """Sum over products = [(sign, ((a1, b1), ..., (ak, bk))), ...] of
    sign * [a1 b1 F1] * ... * [ak bk Fk] for the checked frame points
    F = frames, expanded as a Poly: zero when there are no products, and
    1 for the one empty product."""
    return expand_products(
        [(sign, [frame_terms(a, b, f) if isinstance(f, int)
                 else point_bracket(a, b, f).terms.items()
                 for (a, b), f in zip(pairs, frames, strict=True)])
         for sign, pairs in products])


def _value(products, frames, cols):
    """The value of _expand(products, frames) at the point columns cols,
    summed bracket by bracket with no Poly built."""
    total = 0
    for sign, pairs in products:
        prod = sign
        for (a, b), f in zip(pairs, frames, strict=True):
            u, w = cols[a - 1], cols[b - 1]
            if isinstance(f, int):
                i, j = FRAME_COFACTORS[f]
                prod = prod * (u[i] * w[j] - w[i] * u[j])
            else:
                prod = prod * det3(u, w, f)
        total = total + prod
    return total


# --- the worked examples: quadrilateral set and 3x4 grid --------------------

QS_LINES = qs_config().lines


def _qs_line(spec):
    if isinstance(spec, str):
        spec = tuple(int(ch) for ch in spec.strip().lstrip("l"))
    line = tuple(sorted(spec))
    if line not in QS_LINES:
        raise ValueError("not a quadrilateral-set line: %r" % (spec,))
    return line


_S3 = (((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
       ((1, 3, 2), -1), ((2, 1, 3), -1), ((3, 2, 1), -1))


# The points of each column of the 3x4 grid, by row: grid_config lists
# its four column lines first.
_G34_COLUMNS = grid_config(3, 4).lines[:4]


def _g34_products(ci):
    """The six signed bracket-product skeletons of the grid polynomial.

    Each skeleton is (sign, ((a1,b1), ..., (a6,b6))): six point pairs,
    the first three pairing the fixed column's points with one point
    from each remaining column (a permutation pattern), the last three
    the leftover point pairs of the remaining columns.
    """
    fixed = _G34_COLUMNS[ci - 1]
    others = [col for i, col in enumerate(_G34_COLUMNS, 1) if i != ci]
    out = []
    for perm, sign in _S3:
        pairs = [(fixed[j], others[perm[j] - 1][j]) for j in range(3)]
        for m in (1, 2, 3):
            used_row = perm.index(m)
            pairs.append(tuple(p for r, p in enumerate(others[m - 1])
                               if r != used_row))
        out.append((sign, tuple(pairs)))
    return out


def _minor_products(triples, rows):
    """The signed Leibniz products of the minors on the 1-based rows of
    the collinearity matrix with one row per triple of triples
    (config.line_triples), as {cols: [(sign, ((a1, b1), ..., (ak, bk)))]}
    for each increasing column tuple cols with a product whose entries
    x_{a_t} - x_{b_t} are all nonzero.  A row's only nonzero entries are
    the three of its triple (config.row_pairs), so the walk takes one
    of them per row, 3^k choices, and keeps each whose columns are
    distinct.  The rows may come in any order: slot t is row rows[t],
    and each sign is the parity of the chosen column sequence."""
    out = {}
    for choice in product(*(row_pairs(triples[r - 1]) for r in rows)):
        cols = [col for col, _ in choice]
        if len(set(cols)) == len(cols):
            inv = sum(a > b for a, b in combinations(cols, 2))
            out.setdefault(tuple(sorted(cols)), []).append(
                ((-1) ** inv, tuple(pair for _, pair in choice)))
    return out


def _skeletons():
    """The signed bracket products (as _expand takes them) of the QS
    polynomial of each line, in construction order, at ("qs", line), and
    of the grid polynomial of each column ci = 1..4 at ("g34", ci).
    The QS products are those of the minor the module docstring names,
    signs negated; each QS line has three points, so QS_LINES are the
    rows' triples."""
    table = {("g34", ci): tuple(_g34_products(ci)) for ci in (1, 2, 3, 4)}
    for line in QS_LINES:
        rows = [next(r for r, other in enumerate(QS_LINES, 1)
                     if p in other and other != line) for p in line]
        cols = tuple(p for p in range(1, 7) if p not in line)
        table["qs", line] = tuple(
            (-sign, pairs)
            for sign, pairs in _minor_products(QS_LINES, rows)[cols])
    return table


SKELETONS = _skeletons()


def qs_poly(line, f1, f2, f3):
    """Fully expanded quadrilateral-set polynomial of a line, with the
    canonical sign."""
    return _expand(SKELETONS["qs", _qs_line(line)],
                   [_frame(f) for f in (f1, f2, f3)]).canonical()


def qs_value(cols, line, f1, f2, f3):
    """Value of the QS polynomial at explicit point columns, computed
    via the bracket products (no symbolic expansion)."""
    return _value(SKELETONS["qs", _qs_line(line)],
                  [_frame(f) for f in (f1, f2, f3)], cols)


def _g34_skeleton(ci, frames):
    """The skeleton of column ci and its 6 checked frame points."""
    frames = [_frame(f) for f in frames]
    if len(frames) != 6:
        raise ValueError("the grid polynomial takes 6 frame points")
    if ci not in (1, 2, 3, 4):
        raise ValueError("grid column index must be 1..4")
    return SKELETONS["g34", ci], frames


def g34_poly(ci, *frames):
    """Fully expanded grid polynomial of column ci, canonical sign."""
    return _expand(*_g34_skeleton(ci, frames)).canonical()


def g34_value(cols, ci, *frames):
    """Value of the grid polynomial at explicit point columns."""
    return _value(*_g34_skeleton(ci, frames), cols)


# --- generating sets ---------------------------------------------------------

class GenEntry(namedtuple("GenEntry", "poly label")):
    __slots__ = ()


class GeneratorSet(namedtuple("GeneratorSet", "ideal_name npoints entries")):
    __slots__ = ()


def _bracket_formulas(c):
    """One bracket (label, formula) pair per collinear triple of c."""
    return [("bracket(%d,%d,%d)" % t, ("bracket", t))
            for t in line_triples(c)]


# Each generating set is declared once, as (label, formula) pairs; the
# module docstring describes the formulas.

QS_FORMULAS = tuple(
    _bracket_formulas(qs_config())
    + [("qs(%d,%d,%d)" % f, ("qs", ((1, 2, 3),) + f))
       for f in combinations_with_replacement((1, 2, 3), 3)])

G34_FORMULAS = tuple(
    _bracket_formulas(grid_config(3, 4))
    + [("g34(%s)" % ",".join(map(str, f)), ("g34", (1,) + f))
       for f in combinations_with_replacement((1, 2, 3), 6)])


def generator_poly(formula):
    """The expanded generator of a formula, with the canonical sign."""
    family, args = formula
    if family == "bracket":
        return bracket(*args).canonical()
    return (qs_poly if family == "qs" else g34_poly)(*args)


def generator_value(cols, formula):
    """The value at the point columns cols of generator_poly(formula),
    up to sign (canonical() only flips signs), from det3, qs_value or
    g34_value: no Poly is built."""
    family, args = formula
    if family == "bracket":
        return det3(*(cols[i - 1] for i in args))
    return (qs_value if family == "qs" else g34_value)(cols, *args)


def _generator_set(name, npoints, formulas):
    return GeneratorSet(name, npoints, tuple(
        GenEntry(generator_poly(formula), label)
        for label, formula in formulas))


@lru_cache(maxsize=None)
def qs_generators():
    """The 14 generators of the quadrilateral-set ideal: one bracket
    per line and the 10 weakly-increasing QS(l123; R_i, R_j, R_k)."""
    return _generator_set("I_QS", 6, QS_FORMULAS)


@lru_cache(maxsize=None)
def g34_generators():
    """The 44 generators of the 3x4 grid ideal: 16 brackets (one per
    column, four per row) and the 28 weakly-increasing G34(c1; ...)."""
    return _generator_set("I_G34", 12, G34_FORMULAS)


def extend_minor(c, row_idx, col_idx, frame_tuple):
    """Extension of a minor of the collinearity matrix of c.

    Expands the k x k minor on the given 1-based rows and columns by
    Leibniz products, replacing the scalar entry x_a - x_b at each slot
    with the bracket [a b F] against the frame point F = frame_tuple[t]
    of slot t (the t-th smallest row).  The result keeps the sign the
    Leibniz expansion produces, so the multilinear relation with the
    unextended minor holds on the nose.  It is zero when every product
    has a zero entry, and 1 for the 0 x 0 minor.  Rows and columns not
    strictly increasing raise ValueError, and out of range IndexError.
    """
    rows = tuple(row_idx)
    cols = tuple(col_idx)
    frames = [_frame(f) for f in frame_tuple]
    k = len(rows)
    if len(cols) != k or len(frames) != k:
        raise ValueError("rows, columns and frame tuple must have equal "
                         "length")
    triples = line_triples(c)
    _check_index_set(rows, len(triples), "row")
    _check_index_set(cols, c.n, "column")
    return _expand(_minor_products(triples, rows).get(cols, ()), frames)


def radical_ideal_generators(c, minor_size=None):
    """Bracket generators of every collinear triple of c plus the
    extensions of all minor_size x minor_size minors of its collinearity
    matrix over every frame tuple.

    minor_size defaults to n - 2.  An explicit minor_size must be from 1
    to min(rows of the matrix, n): the 0 x 0 minor is 1, whose ideal is
    the whole ring.  A default outside that range emits the brackets
    alone.  Zero extensions are dropped and duplicates (after sign
    canonicalisation) are kept once.  Each k-set of rows costs its 3^k
    support choices (_minor_products), plus 3^k frame tuples for each
    column set that has a product, so large configurations need a
    deliberate minor_size choice.
    """
    triples = line_triples(c)
    nrows = len(triples)
    top = min(nrows, c.n)
    k = c.n - 2 if minor_size is None else minor_size
    if minor_size is not None and not 1 <= k <= top:
        raise ValueError("minor size must be from 1 to min(rows, n) = %d, "
                         "got %d" % (top, k))
    entries = []
    seen = set()
    for label, formula in _bracket_formulas(c):
        p = generator_poly(formula)
        if p not in seen:
            seen.add(p)
            entries.append(GenEntry(p, label))
    if 1 <= k <= top:
        for rows in combinations(range(1, nrows + 1), k):
            minors = _minor_products(triples, rows)
            for cols, products in sorted(minors.items()):
                for frames in product((1, 2, 3), repeat=k):
                    p = _expand(products, frames)
                    if p.is_zero():
                        continue
                    p = p.canonical()
                    if p in seen:
                        continue
                    seen.add(p)
                    label = "ext(%s|%s|%s)" % (
                        ".".join(map(str, rows)),
                        ".".join(map(str, cols)),
                        ".".join(map(str, frames)))
                    entries.append(GenEntry(p, label))
    return GeneratorSet("J_radical", c.n, tuple(entries))


# --- emission ----------------------------------------------------------------

def _json_array(items, pad):
    """Rendered items as json.dumps(indent=2) lays out an array whose
    key sits at indent pad: one item per line at indent pad + 2."""
    if not items:
        return "[]"
    sep = "\n" + pad + "  "
    return "[" + sep + ("," + sep).join(items) + "\n" + pad + "]"


def _json_text(g, names):
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n" for
    the document emit describes, written without building it: the C
    string escaper quotes the label and ideal name, and every other
    value is an int, a 'p/q' string or a variable name from names.
    Each term's exps are read off its packed monomial as emit says."""
    # sort_keys orders the exps keys as strings: "x_10" before "x_2".
    # Sorting the rendered '"name": e' items gives that order, since a
    # name that is a prefix of another ("x_1", "x_10") is followed by the
    # quote, which sorts before every character of a name.
    keys = ['"%s": ' % name for name in names]
    ones = [key + "1" for key in keys]
    sep = ",\n            "
    gens = []
    for e in g.entries:
        terms = []
        for mono, coeff in e.poly.terms_sorted():
            exps = "{}"
            if mono:
                flags = unit_exponents(mono, len(names))
                items = sorted(
                    compress(ones, flags) if flags is not None
                    else [ones[v] if x == 1 else keys[v] + str(x)
                          for v, x in monomial_pairs(mono)])
                exps = "{\n            %s\n          }" % sep.join(items)
            terms.append('{\n          "coeff": "%s",\n          "exps": %s'
                         '\n        }' % (str(coeff), exps))
        md = "null"
        multideg = multidegree(e.poly, g.npoints)
        if multideg is not None:
            md = ('{\n        "letter": %s,\n        "point": %s\n      }'
                  % (_json_array(list(map(str, multideg.letter)), " " * 8),
                     _json_array(list(map(str, multideg.point)), " " * 8)))
        gens.append('{\n      "degree": %d,\n      "label": %s,'
                    '\n      "multidegree": %s,\n      "terms": %s\n    }'
                    % (e.poly.total_degree(), encode_basestring_ascii(e.label),
                       md, _json_array(terms, " " * 6)))
    return ('{\n  "generators": %s,\n  "ideal": %s,\n  "points": %d\n}\n'
            % (_json_array(gens, "  "), encode_basestring_ascii(g.ideal_name),
               g.npoints))


def emit(g, fmt):
    """Render a GeneratorSet as deterministic text.

    Formats: 'plain' (one generator per line), 'cas' (a computer
    algebra script declaring the ring and the ideal), 'json'.  The
    'json' text is byte for byte json.dumps(doc, sort_keys=True,
    indent=2) followed by a newline, where doc is

        {"ideal": name, "points": n, "generators": [
            {"label": str, "degree": int,
             "multidegree": {"letter": [3 ints], "point": [n ints]}
                            or null,
             "terms": [{"coeff": "p/q", "exps": {"x_1": e, ...}}, ...]},
            ...]}

    with terms in canonical order and exps listing only the variables
    that occur.  Every format reads a term's variables off its packed
    monomial: as one byte per variable (poly.unit_exponents) when each
    exponent is 0 or 1, else through poly.monomial_pairs.
    """
    names = var_names(g.npoints)
    if fmt == "plain":
        out = ["# %s: %d generators" % (g.ideal_name, len(g.entries))]
        for e in g.entries:
            out.append("%s = %s" % (e.label, poly_to_plain(e.poly, names)))
        return "\n".join(out) + "\n"
    if fmt == "cas":
        names = [name.replace("_", "") for name in names]
        out = ["// %s: %d generators" % (g.ideal_name, len(g.entries)),
               "ring R = 0, (%s), dp;" % ", ".join(names)]
        for idx, e in enumerate(g.entries, start=1):
            out.append("poly g_%d = %s; // %s"
                       % (idx, poly_to_plain(e.poly, names), e.label))
        out.append("ideal %s = %s;"
                   % (g.ideal_name,
                      ", ".join("g_%d" % i
                                for i in range(1, len(g.entries) + 1))
                      or "0"))
        return "\n".join(out) + "\n"
    if fmt == "json":
        return _json_text(g, names)
    raise ValueError("unknown format %r (use plain, cas or json)" % (fmt,))


# --- rewriting table ---------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)((?:[xyz]_\d+)+)$")
_VAR_RE = re.compile(r"([xyz])_(\d+)")


def _parse_compact(text):
    """Parse coefficient polynomials written like '-y_6z_4z_5+y_5z_4z_6'
    straight into their terms, with no Poly arithmetic: each signed
    monomial adds its sign to the coefficient of its packed variables."""
    terms = {}
    for chunk in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError("bad monomial %r in %r" % (chunk, text))
        mono = _pack([(var_id(letter, int(idx)), 1)
                      for letter, idx in _VAR_RE.findall(m.group(2))])
        terms[mono] = terms.get(mono, 0) + (-1 if m.group(1) == "-" else 1)
    return Poly(terms)


class RewriteRow(namedtuple("RewriteRow", "excluded generator coeffs")):
    __slots__ = ()


# Every non-weakly-increasing frame triple rewrites as its
# weakly-increasing representative plus a bracket combination; the
# coefficients below (one per line bracket, in QS_LINES order) pin the
# combination down exactly.  Each block shares one letter multidegree,
# which forces the (2,2,3) block to consist of (2,3,2) and (3,2,2).
_REWRITE_TABLE = (
    ((1, 2, 1), (1, 1, 2), "-y_6z_4z_5+y_5z_4z_6", "y_3z_2z_4-y_2z_3z_4",
     "-y_5z_1z_3+y_1z_3z_5", "-y_6z_1z_2+y_1z_2z_6"),
    ((2, 1, 1), (1, 1, 2), "-y_6z_4z_5+y_4z_5z_6", "y_4z_2z_3-y_2z_3z_4",
     "-y_3z_1z_5+y_1z_3z_5", "-y_6z_1z_2+y_2z_1z_6"),
    ((1, 3, 1), (1, 1, 3), "y_4y_6z_5-y_4y_5z_6", "-y_3y_4z_2+y_2y_4z_3",
     "y_3y_5z_1-y_1y_3z_5", "y_2y_6z_1-y_1y_2z_6"),
    ((3, 1, 1), (1, 1, 3), "y_5y_6z_4-y_4y_5z_6", "-y_3y_4z_2+y_2y_3z_4",
     "y_3y_5z_1-y_1y_5z_3", "y_1y_6z_2-y_1y_2z_6"),
    ((2, 1, 2), (1, 2, 2), "x_5z_4z_6-x_4z_5z_6", "-x_4z_2z_3+x_3z_2z_4",
     "-x_5z_1z_3+x_3z_1z_5", "-x_2z_1z_6+x_1z_2z_6"),
    ((2, 2, 1), (1, 2, 2), "x_6z_4z_5-x_4z_5z_6", "-x_4z_2z_3+x_2z_3z_4",
     "x_3z_1z_5-x_1z_3z_5", "x_6z_1z_2-x_2z_1z_6"),
    ((1, 3, 2), (1, 2, 3), "-x_4y_6z_5+x_4y_5z_6", "x_4y_3z_2-x_4y_2z_3",
     "-x_3y_5z_1+x_3y_1z_5", "-x_2y_6z_1+x_2y_1z_6"),
    ((2, 1, 3), (1, 2, 3), "-x_5y_4z_6+x_4y_5z_6", "x_4y_3z_2-x_3y_4z_2",
     "x_5y_3z_1-x_3y_5z_1", "x_2y_1z_6-x_1y_2z_6"),
    ((2, 3, 1), (1, 2, 3), "-x_6y_4z_5+x_4y_5z_6", "x_4y_3z_2-x_2y_4z_3",
     "-x_3y_5z_1+x_1y_3z_5", "-x_6y_2z_1+x_2y_1z_6"),
    ((3, 1, 2), (1, 2, 3), "-x_5y_6z_4+x_4y_5z_6", "x_4y_3z_2-x_3y_2z_4",
     "-x_3y_5z_1+x_5y_1z_3", "-x_1y_6z_2+x_2y_1z_6"),
    ((3, 2, 1), (1, 2, 3), "-x_6y_5z_4+x_4y_5z_6", "x_4y_3z_2-x_2y_3z_4",
     "-x_3y_5z_1+x_1y_5z_3", "-x_6y_1z_2+x_2y_1z_6"),
    ((3, 1, 3), (1, 3, 3), "x_5y_4y_6-x_4y_5y_6", "-x_4y_2y_3+x_3y_2y_4",
     "-x_5y_1y_3+x_3y_1y_5", "-x_2y_1y_6+x_1y_2y_6"),
    ((3, 3, 1), (1, 3, 3), "x_6y_4y_5-x_4y_5y_6", "-x_4y_2y_3+x_2y_3y_4",
     "x_3y_1y_5-x_1y_3y_5", "x_6y_1y_2-x_2y_1y_6"),
    ((2, 3, 2), (2, 2, 3), "x_4x_6z_5-x_4x_5z_6", "-x_3x_4z_2+x_2x_4z_3",
     "x_3x_5z_1-x_1x_3z_5", "x_2x_6z_1-x_1x_2z_6"),
    ((3, 2, 2), (2, 2, 3), "x_5x_6z_4-x_4x_5z_6", "-x_3x_4z_2+x_2x_3z_4",
     "x_3x_5z_1-x_1x_5z_3", "x_1x_6z_2-x_1x_2z_6"),
    ((3, 2, 3), (2, 3, 3), "-x_5x_6y_4+x_4x_6y_5", "x_2x_4y_3-x_2x_3y_4",
     "x_1x_5y_3-x_1x_3y_5", "x_2x_6y_1-x_1x_6y_2"),
    ((3, 3, 2), (2, 3, 3), "-x_5x_6y_4+x_4x_5y_6", "x_3x_4y_2-x_2x_3y_4",
     "-x_3x_5y_1+x_1x_5y_3", "-x_1x_6y_2+x_1x_2y_6"),
)

REWRITE_ROWS = tuple(
    RewriteRow(excluded, generator, tuple(map(_parse_compact, coeffs)))
    for excluded, generator, *coeffs in _REWRITE_TABLE)


class RowCheck(namedtuple("RowCheck", "excluded generator ok")):
    __slots__ = ()


def verify_rewrite_rows(rows):
    """Check the exact identity behind each rewriting row:

        QS(l123; excluded) == QS(l123; generator) + sum coeff * bracket

    with both QS polynomials in construction order and the brackets in
    QS_LINES order.  Returns (all_ok, per-row results).
    """
    checks = []
    brackets = [bracket(*line) for line in QS_LINES]
    skeleton = SKELETONS["qs", (1, 2, 3)]
    for row in rows:
        lhs = _expand(skeleton, [_frame(f) for f in row.excluded])
        rhs = _expand(skeleton, [_frame(f) for f in row.generator])
        for coeff, br in zip(row.coeffs, brackets):
            rhs = rhs + coeff * br
        checks.append(RowCheck(row.excluded, row.generator, lhs == rhs))
    return all(c.ok for c in checks), tuple(checks)


def table1_verify():
    """Verify every rewriting identity of the coefficient table."""
    return verify_rewrite_rows(REWRITE_ROWS)
