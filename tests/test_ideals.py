import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest

from helpers import (assignment_from_columns, collin_pair, dense_bracket,
                     dense_bracket_sum, golden_poly, leibniz_det,
                     rand_fraction, reference_parse_compact)
from planelift import ideals
from planelift.config import (Config, bundled_config, grid_config,
                              line_triples, qs_config)
from planelift.ideals import (G34_FORMULAS, QS_FORMULAS, GeneratorSet,
                              QS_LINES, SKELETONS, RewriteRow, _expand,
                              _frame, _g34_products, _minor_products,
                              _parse_compact, _qs_line, emit,
                              extend_minor, g34_generators,
                              g34_poly, generator_poly,
                              g34_value, qs_generators, qs_poly, qs_value,
                              radical_ideal_generators, REWRITE_ROWS,
                              table1_verify, verify_rewrite_rows)
from planelift.lifting import build_collin
from planelift.linalg import det3, minor
from planelift.poly import Poly, bracket, frame_bracket, multidegree, var_id

# The full expansion of the quadrilateral-set polynomial
# QS(l123; R1, R1, R2), 14 terms, transcribed term by term.
QS_112_TERMS = [
    (-1, (("x", 5), ("y", 4), ("y", 6), ("z", 1), ("z", 2), ("z", 3))),
    (+1, (("x", 4), ("y", 5), ("y", 6), ("z", 1), ("z", 2), ("z", 3))),
    (-1, (("x", 3), ("y", 5), ("y", 6), ("z", 1), ("z", 2), ("z", 4))),
    (+1, (("x", 5), ("y", 2), ("y", 6), ("z", 1), ("z", 3), ("z", 4))),
    (+1, (("x", 3), ("y", 4), ("y", 6), ("z", 1), ("z", 2), ("z", 5))),
    (-1, (("x", 4), ("y", 1), ("y", 6), ("z", 2), ("z", 3), ("z", 5))),
    (-1, (("x", 3), ("y", 2), ("y", 6), ("z", 1), ("z", 4), ("z", 5))),
    (+1, (("x", 3), ("y", 1), ("y", 6), ("z", 2), ("z", 4), ("z", 5))),
    (-1, (("x", 4), ("y", 2), ("y", 5), ("z", 1), ("z", 3), ("z", 6))),
    (+1, (("x", 5), ("y", 1), ("y", 4), ("z", 2), ("z", 3), ("z", 6))),
    (+1, (("x", 3), ("y", 2), ("y", 5), ("z", 1), ("z", 4), ("z", 6))),
    (-1, (("x", 5), ("y", 1), ("y", 2), ("z", 3), ("z", 4), ("z", 6))),
    (-1, (("x", 3), ("y", 1), ("y", 4), ("z", 2), ("z", 5), ("z", 6))),
    (+1, (("x", 4), ("y", 1), ("y", 2), ("z", 3), ("z", 5), ("z", 6))),
]

# The six signed bracket products of the grid polynomial for column 1,
# in the order the permutation sum produces them.
G34_C1_PRODUCTS = [
    (+1, ((1, 4), (2, 8), (3, 12), (5, 6), (7, 9), (10, 11))),
    (+1, ((1, 7), (2, 11), (3, 6), (4, 5), (8, 9), (10, 12))),
    (+1, ((1, 10), (2, 5), (3, 9), (4, 6), (7, 8), (11, 12))),
    (-1, ((1, 4), (2, 11), (3, 9), (5, 6), (7, 8), (10, 12))),
    (-1, ((1, 7), (2, 5), (3, 12), (4, 6), (8, 9), (10, 11))),
    (-1, ((1, 10), (2, 8), (3, 6), (4, 5), (7, 9), (11, 12))),
]

# Variables absent from QS(l123; i, j, k), one row per weakly
# increasing frame triple.
QS_MISSING_VARS = {
    (1, 1, 1): {("x", p) for p in range(1, 7)},
    (1, 1, 2): {("x", 1), ("x", 2), ("y", 3), ("x", 6)},
    (1, 1, 3): {("x", 1), ("x", 2), ("z", 3), ("x", 6)},
    (1, 2, 2): {("x", 1), ("y", 2), ("y", 3), ("y", 4)},
    (1, 2, 3): {("x", 1), ("y", 2), ("z", 3)},
    (1, 3, 3): {("x", 1), ("z", 2), ("z", 3), ("z", 4)},
    (2, 2, 2): {("y", p) for p in range(1, 7)},
    (2, 2, 3): {("y", 1), ("y", 2), ("z", 3), ("y", 6)},
    (2, 3, 3): {("y", 1), ("z", 2), ("z", 3), ("z", 4)},
    (3, 3, 3): {("z", p) for p in range(1, 7)},
}

ALL_QS_VARS = {(letter, p) for letter in "xyz" for p in range(1, 7)}


def qs_as_built(line, *frames):
    """The QS polynomial of line, with the sign its skeleton gives."""
    return _expand(SKELETONS["qs", line], frames)


def rand_columns(rng, n, bound=9):
    return [tuple(rand_fraction(rng, bound) for _ in range(3))
            for _ in range(n)]


def test_frame_point_coercion():
    # A frame point is 1, 2 or 3 for R_1..R_3, or an exact 3-vector,
    # and every public function that takes frames checks each one.
    assert _frame(2) == 2
    assert _frame([1, 2, Fraction(1, 3)]) == (1, 2, Fraction(1, 3))
    assert qs_poly("123", (0, 1, 0), 1, 3) == qs_poly("123", 2, 1, 3)
    cols = [(i, 1, i * i) for i in range(12)]
    takers = (partial(qs_poly, "123", 1, 1),
              partial(qs_value, cols[:6], "123", 1, 1),
              partial(g34_poly, 1, 1, 1, 1, 1, 1),
              partial(g34_value, cols, 1, 1, 1, 1, 1, 1),
              lambda f: extend_minor(qs_config(), (1,), (1,), (f,)))
    for take in (_frame,) + takers:
        for bad in (0, 4, -1, (1, 2)):
            with pytest.raises(ValueError):
                take(bad)
        # True == 1, so a bool would pass as frame 1 without its own
        # check.
        for bad in (1.0, True, False, (1, 0, 0.5), (True, False, 2)):
            with pytest.raises(TypeError):
                take(bad)


def test_qs_line_coercion():
    assert _qs_line("l123") == (1, 2, 3)
    assert _qs_line("156") == (1, 5, 6)
    assert _qs_line((6, 2, 4)) == (2, 4, 6)
    with pytest.raises(ValueError) as err:
        _qs_line((1, 2, 4))
    assert "not a quadrilateral-set line" in str(err.value)


# The mates m1, m2, m3 of each line's points p1 < p2 < p3: the QS
# polynomial of the line is +[p1 m1][p2 m2][p3 m3] - [p1 m2][p2 m3][p3 m1].
QS_MATES = {(1, 2, 3): (5, 6, 4), (1, 5, 6): (2, 3, 4),
            (2, 4, 6): (1, 3, 5), (3, 4, 5): (1, 2, 6)}


def test_qs_skeleton_sign_of_every_line():
    for line, mates in QS_MATES.items():
        products = [(1, tuple(zip(line, mates))),
                    (-1, tuple(zip(line, mates[1:] + mates[:1])))]
        for frames in product((1, 2, 3), repeat=3):
            assert (qs_as_built(line, *frames)
                    == dense_bracket_sum(products, frames)), (line, frames)


def test_qs_formula_is_the_bracket_product_difference():
    lhs = qs_as_built((1, 2, 3), 1, 1, 2)
    rhs = (frame_bracket(1, 5, 1) * frame_bracket(2, 6, 1)
           * frame_bracket(3, 4, 2)
           - frame_bracket(1, 6, 1) * frame_bracket(2, 4, 1)
           * frame_bracket(3, 5, 2))
    assert lhs == rhs


def test_qs_112_expansion_verbatim():
    golden = golden_poly(QS_112_TERMS)
    assert len(golden.terms) == 14
    assert qs_as_built((1, 2, 3), 1, 1, 2) == golden
    # the canonical representative flips the sign: the grevlex-least
    # monomial x_3*y_1*y_4*z_2*z_5*z_6 carries -1 above
    assert qs_poly((1, 2, 3), 1, 1, 2) == -golden
    assert qs_poly((1, 2, 3), 1, 1, 2).canonical() == -golden


def test_qs_value_matches_formula():
    rng = random.Random(3)
    for _ in range(25):
        cols = rand_columns(rng, 6)
        a = assignment_from_columns(cols)
        for line in QS_LINES:
            f = tuple(rng.choice((1, 2, 3)) for _ in range(3))
            expected = qs_as_built(line, *f).evaluate(a)
            assert qs_value(cols, line, *f) == expected
            canon = qs_poly(line, *f).evaluate(a)
            assert canon in (expected, -expected)


def test_qs_value_with_explicit_frame_vectors():
    rng = random.Random(5)
    cols = rand_columns(rng, 6)
    units = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    for f1, f2, f3 in ((1, 2, 3), (2, 2, 1), (3, 1, 2)):
        assert (qs_value(cols, "123", units[f1], units[f2], units[f3])
                == qs_value(cols, "123", f1, f2, f3))
    p = (Fraction(2), Fraction(-1), Fraction(3))
    v = qs_value(cols, "123", p, 1, 1)
    expected = (2 * qs_value(cols, "123", 1, 1, 1)
                - qs_value(cols, "123", 2, 1, 1)
                + 3 * qs_value(cols, "123", 3, 1, 1))
    assert v == expected


def test_qs_multidegrees():
    for frames, missing in QS_MISSING_VARS.items():
        p = qs_poly((1, 2, 3), *frames)
        md = multidegree(p)
        assert md is not None
        assert md.point == (1, 1, 1, 1, 1, 1)
        n1, n2, n3 = (frames.count(f) for f in (1, 2, 3))
        assert md.letter == (n2 + n3, n1 + n3, n1 + n2)


def test_qs_missing_variables_table():
    for frames, missing in QS_MISSING_VARS.items():
        p = qs_poly((1, 2, 3), *frames)
        support = {(letter, pt) for letter in "xyz"
                   for pt in range(1, 7)
                   if var_id(letter, pt) in p.support_vars()}
        assert support == ALL_QS_VARS - missing, frames


def test_qs_letter_multidegrees_distinct():
    letters = {multidegree(qs_poly((1, 2, 3), *f)).letter
               for f in combinations_with_replacement((1, 2, 3), 3)}
    assert len(letters) == 10


def test_g34_products_golden():
    assert _g34_products(1) == [
        (sign, pairs) for sign, pairs in G34_C1_PRODUCTS]
    for ci in (1, 2, 3, 4):
        assert SKELETONS["g34", ci] == tuple(_g34_products(ci))
    for ci in (0, 5, (1,)):
        with pytest.raises(ValueError, match="grid column index must be"):
            g34_poly(ci, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="grid column index must be"):
            g34_value([(0, 0, 1)] * 12, ci, 1, 1, 1, 1, 1, 1)


def test_g34_products_cover_all_points_once():
    for ci in (1, 2, 3, 4):
        for sign, pairs in _g34_products(ci):
            flat = [p for pair in pairs for p in pair]
            assert sorted(flat) == list(range(1, 13))


def test_g34_term_counts():
    p = g34_poly(1, 1, 1, 1, 1, 1, 1)
    assert len(p.terms) == 216
    assert p.total_degree() == 12
    assert multidegree(p).point == (1,) * 12
    q = g34_poly(1, 1, 2, 3, 1, 2, 3)
    assert len(q.terms) == 360


def test_g34_value_matches_poly():
    rng = random.Random(7)
    for _ in range(5):
        cols = rand_columns(rng, 12, bound=5)
        a = assignment_from_columns(cols)
        frames = tuple(rng.choice((1, 2, 3)) for _ in range(6))
        for ci in (1, 3):
            got = g34_value(cols, ci, *frames)
            exact = g34_poly(ci, *frames).evaluate(a)
            assert got in (exact, -exact)
            assert abs(got) == abs(exact)


def test_g34_value_frame_count():
    with pytest.raises(ValueError):
        g34_value([(0, 0, 1)] * 12, 1, 1, 1)
    with pytest.raises(ValueError):
        g34_poly(1, 1, 1)


def test_qs_generators():
    g = qs_generators()
    assert g.ideal_name == "I_QS"
    assert g.npoints == 6
    assert len(g.entries) == 14
    assert Counter(e.poly.total_degree() for e in g.entries) == {3: 4, 6: 10}
    labels = [e.label for e in g.entries]
    assert labels[:4] == ["bracket(1,2,3)", "bracket(1,5,6)",
                          "bracket(2,4,6)", "bracket(3,4,5)"]
    assert labels[4] == "qs(1,1,1)"
    assert labels[-1] == "qs(3,3,3)"
    for e in g.entries:
        assert e.poly == e.poly.canonical()
        assert multidegree(e.poly, 6) is not None
    assert qs_generators() is g


def test_g34_generators():
    g = g34_generators()
    assert g.ideal_name == "I_G34"
    assert g.npoints == 12
    assert len(g.entries) == 44
    assert Counter(e.poly.total_degree() for e in g.entries) == {3: 16, 12: 28}
    bracket_labels = [e.label for e in g.entries
                      if e.poly.total_degree() == 3]
    assert bracket_labels[0] == "bracket(1,2,3)"
    assert bracket_labels[4] == "bracket(1,4,7)"
    assert "g34(1,1,1,1,1,1)" in [e.label for e in g.entries]
    counts = {len(e.poly.terms) for e in g.entries
              if e.poly.total_degree() == 12}
    assert counts == {216, 276, 300, 336, 360, 376}
    assert g34_generators() is g


def test_grid34_lines_match_grid_config():
    # The 16 bracket generators of the grid ideal are the collinear
    # triples of grid_config(3, 4), line by line.
    triples = [t for line in grid_config(3, 4).lines
               for t in combinations(line, 3)]
    assert [args for _, (kind, args) in G34_FORMULAS
            if kind == "bracket"] == triples
    assert [args for _, (kind, args) in QS_FORMULAS
            if kind == "bracket"] == list(QS_LINES)


def test_extend_minor_full_rows_is_qs():
    # The QS polynomial of a line L is the extended minor on the rows of
    # the other three lines and the columns of the off-line points; the
    # frame of each row is the one L's polynomial puts at the point where
    # that row's line meets L.
    c = qs_config()
    triples = line_triples(c)
    for line in QS_LINES:
        rows = tuple(r for r, t in enumerate(triples, 1) if t != line)
        cols = tuple(p for p in range(1, 7) if p not in line)
        meets = [line.index(next(p for p in triples[r - 1] if p in line))
                 for r in rows]
        for frames in product((1, 2, 3), repeat=3):
            ext = extend_minor(c, rows, cols, [frames[i] for i in meets])
            assert ext.canonical() == qs_poly(line, *frames)
            if line == (1, 2, 3):
                assert ext == -qs_as_built(line, *frames)


def test_extend_minor_empty_support_vanishes():
    assert extend_minor(qs_config(), (1, 2), (4, 5), (1, 1)).is_zero()


def test_extend_minor_validates_lengths():
    c = qs_config()
    with pytest.raises(ValueError):
        extend_minor(c, (1, 2), (1, 2, 3), (1, 1))
    with pytest.raises(ValueError):
        extend_minor(c, (1, 2), (1, 2), (1, 1, 1))
    # Index sets are in range and strictly increasing, as linalg.minor
    # checks them: row 0 would wrap around to the last triple, rows
    # (2, 1) would flip the sign, and column 9 would give zero.
    for rows, cols in (((2, 1), (1, 2)), ((1, 1), (1, 2)),
                       ((1, 2), (2, 1))):
        with pytest.raises(ValueError):
            extend_minor(c, rows, cols, (1,) * len(rows))
    for rows, cols in (((0,), (3,)), ((5,), (1,)), ((1,), (9,)),
                       ((1,), (7,))):
        with pytest.raises(IndexError):
            extend_minor(c, rows, cols, (1,) * len(rows))


def test_extension_identity_small():
    # Summing extensions against products of frame coordinates
    # recovers the determinant whose entries are full point brackets.
    rng = random.Random(11)
    c = qs_config()
    cols = rand_columns(rng, 6)
    for rows, cidx in (((1, 2), (1, 2)), ((2, 3), (1, 6)),
                       ((1, 3), (2, 6))):
        pts = [tuple(rand_fraction(rng, 5) for _ in range(3))
               for _ in rows]
        k = len(rows)
        entries = []
        for t in range(k):
            row = []
            for s in range(k):
                pair = collin_pair(c, rows[t], cidx[s])
                if pair is None:
                    row.append(Fraction(0))
                else:
                    row.append(det3(cols[pair[0] - 1], cols[pair[1] - 1],
                                    pts[t]))
            entries.append(row)
        lhs = leibniz_det(entries)
        rhs = Fraction(0)
        a = assignment_from_columns(cols)
        for frames in product((1, 2, 3), repeat=k):
            factor = Fraction(1)
            for t, f in enumerate(frames):
                factor *= pts[t][f - 1]
            if factor:
                rhs += factor * extend_minor(c, rows, cidx,
                                             frames).evaluate(a)
        assert lhs == rhs


def test_formula_expansions_match_dense_products(monkeypatch):
    # Every bracket sum that a QS or G34 formula expands, against the
    # chain of dense products of its frame brackets.
    calls = []
    expand = ideals._expand

    def recording(products, frames):
        out = expand(products, frames)
        calls.append((products, frames, out))
        return out

    monkeypatch.setattr(ideals, "_expand", recording)
    for label, formula in QS_FORMULAS + G34_FORMULAS:
        del calls[:]
        p = generator_poly(formula)
        kind, args = formula
        if kind == "bracket":
            assert p == dense_bracket(*args).canonical(), label
            continue
        (products, frames, out), = calls
        assert out == dense_bracket_sum(products, frames), label
        assert p == out.canonical(), label


@pytest.mark.parametrize("name", ["qs", "grid3x4", "forest_path10"])
def test_minor_extensions_match_dense_products(name):
    # 200 seeded random minors of size 1 to 3 with at least one
    # product, each with random frames: a random row set, then one of
    # the column sets its support walk reaches.
    rng = random.Random(47)
    c = bundled_config(name)
    triples = line_triples(c)
    for _ in range(200):
        k = rng.randint(1, 3)
        rows = tuple(sorted(rng.sample(range(1, len(triples) + 1), k)))
        minors = _minor_products(triples, rows)
        cols = rng.choice(sorted(minors))
        products = minors[cols]
        frames = tuple(rng.randint(1, 3) for _ in range(k))
        assert (extend_minor(c, rows, cols, frames)
                == dense_bracket_sum(products, frames)), (rows, cols, frames)


@pytest.mark.parametrize("name,top", [("qs", 4), ("grid3x3", 3),
                                      ("forest_path10", 2)])
def test_minor_products_expand_the_numeric_minors(name, top):
    # At a seeded random integer tuple, the signed products of
    # x_a - x_b over each minor's support choices sum to that minor of
    # the numeric collinearity matrix, for every row and column set up
    # to size top; a column set the walk misses has minor 0.
    c = bundled_config(name)
    triples = line_triples(c)
    xs = random.Random(53).sample(range(-99, 100), c.n)
    lam = build_collin(c, xs).numeric
    for k in range(1, top + 1):
        for rows in combinations(range(1, len(triples) + 1), k):
            minors = _minor_products(triples, rows)
            for cols in combinations(range(1, c.n + 1), k):
                total = sum(sign * prod(xs[a - 1] - xs[b - 1]
                                        for a, b in pairs)
                            for sign, pairs in minors.get(cols, ()))
                assert total == minor(lam, rows, cols), (rows, cols)


def test_radical_generators_contain_qs():
    g = radical_ideal_generators(qs_config(), minor_size=3)
    polys = {e.poly for e in g.entries}
    for line in QS_LINES:
        assert bracket(*line).canonical() in polys
    for frames in combinations_with_replacement((1, 2, 3), 3):
        assert qs_poly((1, 2, 3), *frames) in polys
    assert g.ideal_name == "J_radical"
    labels = [e.label for e in g.entries]
    assert labels[:4] == ["bracket(1,2,3)", "bracket(1,5,6)",
                          "bracket(2,4,6)", "bracket(3,4,5)"]
    assert any(l.startswith("ext(2.3.4|") for l in labels)


def test_radical_generators_drop_zero_extensions():
    # On a four-point line, ext(1.2.3|1.2.3|1.1.1) has nonzero Leibniz
    # products that cancel.
    g = radical_ideal_generators(Config(4, ((1, 2, 3, 4),)), 3)
    labels = [e.label for e in g.entries]
    assert labels[4] == "ext(1.2.3|1.2.3|1.1.2)"
    assert "ext(1.2.3|1.2.3|1.1.1)" not in labels
    assert not any(e.poly.is_zero() for e in g.entries)


def test_radical_generators_forest_has_only_brackets():
    c = bundled_config("forest_two_lines")
    g = radical_ideal_generators(c)
    assert [e.label for e in g.entries] == ["bracket(1,2,3)",
                                            "bracket(3,4,5)"]
    for k in (0, -1, 3):
        with pytest.raises(ValueError):
            radical_ideal_generators(c, minor_size=k)


def test_emit_plain():
    g = radical_ideal_generators(bundled_config("forest_two_lines"))
    text = emit(g, "plain")
    lines = text.splitlines()
    assert lines[0] == "# J_radical: 2 generators"
    assert lines[1] == ("bracket(1,2,3) = -z_1*y_2*x_3 + y_1*z_2*x_3"
                        " + z_1*x_2*y_3 - x_1*z_2*y_3 - y_1*x_2*z_3"
                        " + x_1*y_2*z_3")
    assert text.endswith("\n")
    assert emit(g, "plain") == text


def test_emit_cas():
    text = emit(qs_generators(), "cas")
    lines = text.splitlines()
    assert lines[0] == "// I_QS: 14 generators"
    assert lines[1].startswith("ring R = 0, (x1, y1, z1, x2, y2, z2,")
    assert lines[1].endswith("), dp;")
    assert lines[2].startswith("poly g_1 = ")
    assert lines[2].endswith("// bracket(1,2,3)")
    assert lines[-1] == ("ideal I_QS = "
                         + ", ".join("g_%d" % i for i in range(1, 15))
                         + ";")
    assert "_" not in lines[1]


def test_emit_cas_without_generators():
    # An empty ideal is the zero ideal; "ideal J = ;" is not Singular.
    assert emit(GeneratorSet("J", 2, ()), "cas").splitlines()[-1] == \
        "ideal J = 0;"


def test_emit_json():
    text = emit(qs_generators(), "json")
    doc = json.loads(text)
    assert doc["ideal"] == "I_QS"
    assert doc["points"] == 6
    assert len(doc["generators"]) == 14
    first = doc["generators"][0]
    assert first["label"] == "bracket(1,2,3)"
    assert first["degree"] == 3
    assert first["multidegree"] == {"letter": [1, 1, 1],
                                    "point": [1, 1, 1, 0, 0, 0]}
    assert len(first["terms"]) == 6
    assert all(t["coeff"] in ("1", "-1") for t in first["terms"])
    assert text.endswith("\n")


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(qs_generators(), "latex")


def test_rewrite_rows_shape():
    assert len(REWRITE_ROWS) == 17
    gens = {row.generator for row in REWRITE_ROWS}
    for g in gens:
        assert list(g) == sorted(g)
    excluded = [row.excluded for row in REWRITE_ROWS]
    assert len(set(excluded)) == 17
    assert (2, 3, 2) in excluded
    assert (2, 3, 3) not in excluded
    for row in REWRITE_ROWS:
        assert sorted(row.excluded) == list(row.generator)
        assert len(row.coeffs) == 4


def test_table1_all_rows_hold():
    ok, checks = table1_verify()
    assert ok
    assert len(checks) == 17
    assert all(c.ok for c in checks)


def test_table1_detects_broken_coefficients():
    row = REWRITE_ROWS[0]
    broken = RewriteRow(row.excluded, row.generator,
                        (row.coeffs[0] + 1,) + row.coeffs[1:])
    ok, checks = verify_rewrite_rows((broken,))
    assert not ok
    assert not checks[0].ok
    dropped = RewriteRow(row.excluded, row.generator,
                         (row.coeffs[0] * 0,) + row.coeffs[1:])
    ok, _ = verify_rewrite_rows((dropped,))
    assert not ok
    # A frame missing from a row is an error, not a shorter product.
    short = RewriteRow(row.excluded[:2], row.generator, row.coeffs)
    with pytest.raises(ValueError):
        verify_rewrite_rows((short,))


def test_parse_compact():
    assert _parse_compact("-y_6z_4z_5 + y_5z_4z_6") == (
        Poly.monomial(-1, [(var_id("y", 6), 1), (var_id("z", 4), 1),
                           (var_id("z", 5), 1)])
        + Poly.monomial(1, [(var_id("y", 5), 1), (var_id("z", 4), 1),
                            (var_id("z", 6), 1)]))
    assert _parse_compact("x_12x_12") == Poly.monomial(
        1, [(var_id("x", 12), 2)])
    for bad in ("2x_1", "x_1*y_2", "w_1", "x1"):
        for parse in (_parse_compact, reference_parse_compact):
            with pytest.raises(ValueError) as err:
                parse("x_1+" + bad)
            assert "bad monomial %r" % ("+" + bad) in str(err.value)
    for text in ("x_1-x_1", "x_2y_1x_2+y_1x_2x_2", "-z_3 + y_2 - x_1",
                 "x_1+y_1-x_1+x_1"):
        assert _parse_compact(text) == reference_parse_compact(text)


def test_rewrite_rows_match_the_reference_parse():
    """Each coefficient of the table, parsed term by term at import,
    equals the Poly arithmetic of its text: the same monomials, merged
    alike, with the same int coefficients."""
    assert len(ideals._REWRITE_TABLE) == len(REWRITE_ROWS)
    for raw, row in zip(ideals._REWRITE_TABLE, REWRITE_ROWS):
        assert (row.excluded, row.generator) == raw[:2]
        assert len(row.coeffs) == len(raw[2:]) == 4
        for coeff, text in zip(row.coeffs, raw[2:]):
            ref = reference_parse_compact(text)
            assert coeff.terms == ref.terms
            assert all(type(c) is int for c in coeff.terms.values())
