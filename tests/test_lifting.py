import random
from fractions import Fraction

import pytest

from helpers import (collin_pair, frac_kernel_rref, gauss_rank, matvec,
                     random_linear_config)
from planelift import lifting
from planelift.config import (Config, Realisation, analyze, bundled_config,
                              grid_config, line_triples, qs_config)
from planelift.ideals import _frame
from planelift.lifting import (build_collin, classify_lift, epsilon_scale,
                               forest_lift, is_liftable_generic,
                               is_quasi_liftable, lift, lift_space,
                               poly_matrix_rank, project,
                               random_distinct_abscissas, rank_test,
                               symbolic_collin_rank)
from planelift.linalg import QMatrix, det3, rank
from planelift.poly import Poly
from planelift.probes import (_project_generic, _trial_rng, sample_grid,
                              sample_quadset)

from test_linalg import QS_AT_012345

# Symbolic pattern of the quadrilateral-set collinearity matrix: entry
# (row, col) is x_a - x_b for the pair (a, b), None off the support.
QS_PAIRS = {
    (1, 1): (2, 3), (1, 2): (3, 1), (1, 3): (1, 2),
    (2, 1): (5, 6), (2, 5): (6, 1), (2, 6): (1, 5),
    (3, 2): (4, 6), (3, 4): (6, 2), (3, 6): (2, 4),
    (4, 3): (4, 5), (4, 4): (5, 3), (4, 5): (3, 4),
}


def test_qs_collin_pattern():
    c = qs_config()
    assert line_triples(c) == ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5))
    for row in range(1, 5):
        for col in range(1, 7):
            assert collin_pair(c, row, col) == QS_PAIRS.get((row, col))
    # An integer tuple gives int entries; a rational one gives Fraction
    # entries wherever a Fraction abscissa takes part, int ones elsewhere.
    for xs in ((3, -1, 4, 1, -5, 9),
               (Fraction(3, 2), Fraction(-1, 3), 4, Fraction(1, 5),
                Fraction(-5, 7), Fraction(9, 4))):
        numeric = build_collin(c, xs).numeric
        for row in range(1, 5):
            for col in range(1, 7):
                pair = QS_PAIRS.get((row, col))
                want = (0 if pair is None
                        else xs[pair[0] - 1] - xs[pair[1] - 1])
                got = numeric.entry(row - 1, col - 1)
                assert got == want and type(got) is type(want)


def test_grid3x3_collin_pattern():
    c = bundled_config("grid3x3")
    triples = line_triples(c)
    assert len(triples) == 6
    assert triples[1] == (1, 4, 7)
    assert collin_pair(c, 2, 1) == (4, 7)
    assert collin_pair(c, 2, 4) == (7, 1)
    assert collin_pair(c, 2, 7) == (1, 4)
    assert triples[4] == (4, 5, 6)
    assert collin_pair(c, 5, 4) == (5, 6)
    assert collin_pair(c, 5, 5) == (6, 4)
    assert collin_pair(c, 5, 6) == (4, 5)


def test_grid3x4_collin_pattern():
    c = grid_config(3, 4)
    triples = line_triples(c)
    assert len(triples) == 16
    assert triples[:4] == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    assert triples[4:8] == ((1, 4, 7), (1, 4, 10), (1, 7, 10), (4, 7, 10))
    assert collin_pair(c, 5, 1) == (4, 7)
    assert collin_pair(c, 5, 4) == (7, 1)
    assert collin_pair(c, 5, 7) == (1, 4)
    assert collin_pair(c, 8, 4) == (7, 10)
    assert collin_pair(c, 8, 7) == (10, 4)
    assert collin_pair(c, 8, 10) == (4, 7)
    assert collin_pair(c, 8, 1) is None


def test_qs_collin_numeric_golden():
    cm = build_collin(qs_config(), range(6))
    assert cm.numeric.to_lists() == [[Fraction(e) for e in row]
                                     for row in QS_AT_012345]
    assert rank(cm.numeric) == 4


def _distinct_tuples(rng, n):
    """Distinct abscissa tuples of four kinds: ints of both signs,
    Fractions of both signs whose denominators differ, the two mixed,
    and Fractions of both signs over a few shared denominators."""
    while True:
        fracs = [Fraction(rng.randint(-999, 999), d)
                 for d in rng.sample(range(2, 90), n)]
        ints = random_distinct_abscissas(n, rng)
        mixed = [f if i % 2 else v
                 for i, (f, v) in enumerate(zip(fracs, ints))]
        shared = [Fraction(v, rng.choice((6, 12, 35)))
                  for v in random_distinct_abscissas(n, rng)]
        if len(set(fracs)) == n and len(set(mixed)) == n \
                and len(set(shared)) == n:
            return ints, fracs, mixed, shared


def _projected_tuples():
    """Abscissas of projected quadrilateral sets and 3x4 grids, as the
    TFAE probes draw them."""
    for t in range(4):
        rng = _trial_rng(26, t)
        yield qs_config(), _project_generic(sample_quadset(rng),
                                            rng).abscissas
        rng = _trial_rng(26, t)
        yield grid_config(3, 4), _project_generic(sample_grid(rng, 3, 4),
                                                  rng).abscissas


# The rational grid-check tuple of CI: a projected 3x4 grid, rank 8.
GRID_AT_RANK_8 = tuple(map(Fraction, (
    "9/11 2/3 9/16 23/22 23/27 23/32 14/11 28/27 7/8 3/2 11/9 33/32"
    .split())))


def _kept_triples(c):
    """The triples (p1, p2, pj) of each line p1 < p2 < ... < pm."""
    return [(p1, p2, pj) for line in c.lines if len(line) >= 3
            for p1, p2, *rest in [sorted(line)] for pj in rest]


def _bracket_rows(cm):
    """Lambda's row of each kept triple (i, j, k), times b_i b_j b_k and
    read in the unknowns w_p = b_p z_p, where b_p is the denominator of
    x_p."""
    triples = line_triples(cm.config)
    full = cm.numeric.to_lists()
    b = [Fraction(x).denominator for x in cm.abscissas]
    return [[e * b[i - 1] * b[j - 1] * b[k - 1] / b[p]
             for p, e in enumerate(full[triples.index((i, j, k))])]
            for i, j, k in _kept_triples(cm.config)]


def test_line_basis_has_the_rank_and_kernel_of_lambda():
    # The rows (p1, p2, pj) of each line, as integer brackets, against
    # the full Fraction matrix: the same rank, and lift_space reads the
    # canonical kernel of Lambda off them.  At integer abscissas the
    # rows are Lambda's own.
    rng = random.Random(1414)
    configs = [random_linear_config(rng, line_sizes=(3, 4, 5, 6, 7))
               for _ in range(80)]
    configs += [bundled_config(name) for name in
                ("qs", "grid3x3", "grid3x4", "forest_single_line")]
    cases = [(c, xs) for c in configs for xs in _distinct_tuples(rng, c.n)]
    cases += list(_projected_tuples())
    cases.append((grid_config(3, 4), GRID_AT_RANK_8))
    longest = 0
    for c, xs in cases:
        longest = max([longest] + [len(line) for line in c.lines])
        cm = build_collin(c, xs)
        full = cm.numeric.to_lists()
        basis = cm.line_basis.to_lists()
        assert len(basis) == sum(max(len(line) - 2, 0)
                                 for line in c.lines)
        assert all(type(e) is int for row in basis for e in row)
        assert basis == _bracket_rows(cm), (c, xs)
        if all(type(x) is int for x in xs):
            assert basis == [full[line_triples(c).index(t)]
                             for t in _kept_triples(c)], (c, xs)
        kernel = frac_kernel_rref(full, c.n)
        assert rank(cm.line_basis) == gauss_rank(full), (c, xs)
        assert lift_space(cm).basis == tuple(map(tuple, kernel)), (c, xs)
    assert longest == 7
    assert rank_test(grid_config(3, 4), GRID_AT_RANK_8) == (8, 9)


def test_build_collin_errors():
    with pytest.raises(ValueError):
        build_collin(qs_config(), [0, 1, 2])
    with pytest.raises(ValueError) as err:
        build_collin(qs_config(), [0, 1, 2, 3, 4, 0])
    assert "duplicate abscissa" in str(err.value)


def test_lift_space_contains_trivial_plane():
    rng = random.Random(3)
    for c in (qs_config(), bundled_config("grid3x3")):
        xs = random_distinct_abscissas(c.n, rng)
        cm = build_collin(c, xs)
        space = lift_space(cm)
        rows = cm.numeric.to_lists()
        assert not any(matvec(rows, [1] * c.n))
        assert not any(matvec(rows, xs))
        for b in space.basis:
            assert not any(matvec(rows, b))


def test_lift_space_dimensions():
    rng = random.Random(5)
    xs6 = random_distinct_abscissas(6, rng)
    qs = lift_space(build_collin(qs_config(), xs6))
    assert qs.dimension == 2
    xs9 = random_distinct_abscissas(9, rng)
    g = lift_space(build_collin(bundled_config("grid3x3"), xs9))
    assert g.dimension == 3


def test_classify_lift():
    c = qs_config()
    collinear = Realisation.from_columns(
        [(i, 1, 0) for i in range(6)])
    assert classify_lift(c, collinear) == "trivial"
    with_zero = Realisation.from_columns(
        [(0, 0, 0)] + [(i, 1, 0) for i in range(1, 6)])
    assert classify_lift(c, with_zero) == "degenerate"
    doubled = Realisation.from_columns(
        [(1, 1, 1), (2, 2, 2)] + [(i, 1, 0) for i in range(4)])
    assert classify_lift(c, doubled) == "degenerate"
    generic = Realisation.from_columns(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9)])
    assert classify_lift(c, generic) == "degenerate"
    # a violated circuit is degenerate even when no other triple exists
    triangle = Realisation.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert classify_lift(Config(3, ((1, 2, 3),)), triangle) == "degenerate"


def test_lift_qs_generic_has_no_nontrivial():
    rng = random.Random(7)
    for t in range(5):
        xs = random_distinct_abscissas(6, rng)
        res = lift(qs_config(), xs)
        assert res.kind == "no-nontrivial-lift"
        assert res.realisation is None


def test_lift_grid3x3_realises_and_projects_back():
    c = bundled_config("grid3x3")
    rng = random.Random(11)
    for t in range(5):
        xs = random_distinct_abscissas(9, rng)
        res = lift(c, xs, seed=t)
        assert res.kind == "realising"
        for i in range(1, 10):
            col = res.realisation.column(i)
            assert col[0] == xs[i - 1] and col[1] == 1
        back = project(res.realisation)
        assert back.abscissas == tuple(xs)
        assert back.distinct


def test_lift_is_deterministic():
    c = bundled_config("grid3x3")
    xs = list(range(1, 9)) + [17]
    assert lift(c, xs, seed=3) == lift(c, xs, seed=3)


def test_lift_two_lines_sharing_a_point():
    c = bundled_config("forest_two_lines")
    res = lift(c, [0, 1, 2, 3, 4])
    assert res.kind == "realising"


def test_lift_special_tuple_is_degenerate():
    # At these abscissas every nontrivial kernel vector of the 3x3 grid
    # makes the two lines through point 9 coincide, so no realising
    # lift exists even though the kernel is 3-dimensional.
    c = bundled_config("grid3x3")
    xs = [0, 1, 2, 3, 4, 5, 6, 7, 9]
    space = lift_space(build_collin(c, xs))
    assert space.dimension == 3
    for seed in range(3):
        assert lift(c, xs, seed).kind == "degenerate"


def test_forest_lift_round_trip():
    rng = random.Random(13)
    cases = []
    for name in ("forest_single_line", "forest_two_lines", "forest_path10"):
        c = bundled_config(name)
        cases.append((c, random_distinct_abscissas(c.n, rng)))
        # The same forest at distinct Fraction abscissas.
        cases.append((c, [Fraction(v, 7) for v in
                          random_distinct_abscissas(c.n, rng)]))
    # No line, one two-point line, and a forest of two trees and two
    # isolated points.
    cases += [(Config(2), [0, 5]),
              (Config(3, ((1, 2),)), [Fraction(1, 2), 3, -4]),
              (Config(9, ((1, 2, 3), (3, 4, 5), (6, 7))),
               [Fraction(k, 3) for k in range(1, 10)])]
    for c, xs in cases:
        res = forest_lift(c, xs)
        assert res.kind == "realising"
        assert classify_lift(c, res.realisation) == "realising"
        back = project(res.realisation)
        assert back.abscissas == tuple(xs)


def test_forest_lift_errors():
    with pytest.raises(ValueError):
        forest_lift(qs_config(), range(6))
    c = bundled_config("forest_two_lines")
    with pytest.raises(ValueError):
        forest_lift(c, [0, 1, 2, 3])
    with pytest.raises(ValueError, match="duplicate abscissa: points 1 and "
                                         "5 both sit at 0"):
        forest_lift(c, [0, 1, 2, 3, 0])


def test_lines_through_one_pair_are_not_a_forest():
    # Two lines through the points 1 and 2 close a cycle of the
    # configuration graph.
    c = Config(4, ((1, 2, 3), (1, 2, 4)))
    assert not analyze(c).is_forest
    with pytest.raises(ValueError, match="not a forest configuration"):
        forest_lift(c, [0, 1, 2, 3])
    v = is_liftable_generic(c)
    assert (v.verdict, v.witness_rank, v.threshold) == ("not-liftable", 2, 1)


def test_forest_lift_handles_isolated_points():
    c = Config(5, ((1, 2, 3),))
    res = forest_lift(c, [0, 1, 2, 3, 4])
    assert res.kind == "realising"


def test_epsilon_scale():
    c = bundled_config("forest_two_lines")
    res = forest_lift(c, [0, 1, 2, 3, 4])
    scaled = epsilon_scale(res, Fraction(1, 1000))
    assert scaled.kind == "realising"
    assert classify_lift(c, scaled.realisation) == "realising"
    zmax = max(abs(col[2]) for col in res.realisation.columns())
    f = Fraction(1, 1000) / (5 * zmax)
    for old, new in zip(res.realisation.columns(),
                        scaled.realisation.columns()):
        assert new == (old[0], old[1], old[2] * f)
    with pytest.raises(ValueError):
        epsilon_scale(res, 0)
    with pytest.raises(ValueError):
        epsilon_scale(res, -1)
    from planelift.lifting import LiftResult
    with pytest.raises(ValueError):
        epsilon_scale(LiftResult("no-nontrivial-lift"), 1)
    flat = LiftResult("trivial", Realisation.from_columns(
        [(0, 1, 0), (1, 1, 0)]))
    with pytest.raises(ValueError):
        epsilon_scale(flat, 1)


def _check_images(res, cols, center, line):
    """Each image is an int point on line and on the line through
    center and its column, with its abscissa as w_x / w_y (line's
    largest coefficient is at z), and the images project to themselves."""
    assert len(res.images) == len(cols)
    for t, col, w in zip(res.abscissas, cols, res.images):
        assert len(w) == 3 and all(type(e) is int for e in w)
        assert sum(a * b for a, b in zip(w, line)) == 0
        assert det3(center, col, w) == 0
        assert t == Fraction(w[0], w[1])
    again = project(Realisation.from_columns(res.images), center, line)
    assert again.abscissas == res.abscissas


def test_project_default_recovers_abscissas():
    cols = [(Fraction(i), Fraction(1), Fraction(i * i)) for i in range(4)]
    res = project(Realisation.from_columns(cols))
    assert res.abscissas == (0, 1, 2, 3)
    assert res.distinct
    # The images lie on z = 0 and on the lines through the centre.
    _check_images(res, cols, (0, 0, 1), (0, 0, 1))


def test_project_reports_coincidences():
    r = Realisation.from_columns([(1, 1, 0), (2, 2, 5)])
    res = project(r)
    assert res.abscissas == (1, 1)
    assert not res.distinct


def test_project_errors():
    r = Realisation.from_columns([(1, 1, 0)])
    with pytest.raises(ValueError, match="target line must have"):
        project(r, target_line=(0, 0, 0))
    with pytest.raises(ValueError, match="center must be nonzero"):
        project(r, center=(0, 0, 0))
    with pytest.raises(ValueError, match="center lies on the target line"):
        project(r, center=(0, 1, 0), target_line=(1, 0, 0))
    with pytest.raises(ValueError):
        project(r, center=(1, 0, 0), target_line=(1, 0, 0))
    # A fourth entry is not dropped, nor a missing third read as on the
    # line.
    with pytest.raises(ValueError, match="center needs 3 coordinates"):
        project(r, (0, 0, 1, 5))
    with pytest.raises(ValueError, match="line needs 3 coordinates"):
        project(r, (0, 0, 1), (0, 1))
    with pytest.raises(ValueError, match="line needs 3 coordinates"):
        project(r, target_line=(0, 0, 1, 0))
    at_center = Realisation.from_columns([(0, 0, 2)])
    with pytest.raises(ValueError):
        project(at_center)
    at_infinity = Realisation.from_columns([(1, 0, 0)])
    with pytest.raises(ValueError):
        project(at_infinity)


def test_project_generic_line():
    cols = [(1, 2, 3), (4, 5, 6), (7, 8, 10)]
    r = Realisation.from_columns(cols)
    res = project(r, center=(1, 1, 1), target_line=(2, 3, 5))
    _check_images(res, cols, (1, 1, 1), (2, 3, 5))


def test_liftable_qs():
    v = is_liftable_generic(qs_config())
    assert v.verdict == "not-liftable"
    assert v.witness_rank == 4
    assert v.threshold == 3
    assert v.omega == 1
    assert len(v.components) == 1
    assert not v.components[0].is_forest


def test_liftable_grids():
    v = is_liftable_generic(bundled_config("grid3x3"))
    assert v.verdict == "liftable"
    assert v.witness_rank == 6
    assert v.threshold == 6
    v = is_liftable_generic(grid_config(3, 4))
    assert v.verdict == "not-liftable"
    assert v.witness_rank == 10
    assert v.threshold == 9


def test_liftable_forests():
    for name in ("forest_single_line", "forest_two_lines", "forest_path10"):
        v = is_liftable_generic(bundled_config(name))
        assert v.verdict == "liftable"
        assert all(cv.is_forest for cv in v.components)


def test_liftable_deterministic_mode():
    # The first tuple certifies each bundled rank, at every seed tried.
    for name in ("qs", "grid3x3", "forest_two_lines"):
        c = bundled_config(name)
        first = is_liftable_generic(c)
        assert first.trials == 1
        for seed in (1, 2, 3):
            assert is_liftable_generic(c, seed) == first
    # No size limit.
    v = is_liftable_generic(Config(13, ((1, 2, 3),)))
    assert (v.verdict, v.witness_rank, v.omega) == ("liftable", 1, 11)


def test_deterministic_rank_below_the_structural_bound(monkeypatch):
    # The Fano plane plus the two-point line (1, 8): n - 2 = 6 bounds
    # the rank, but the generic rank is 5.  The incidence count is 5
    # too, so the first sampled rank certifies it and no symbolic rank
    # is computed, as on the 3x4 grid.
    calls = []
    monkeypatch.setattr(lifting, "symbolic_collin_rank", calls.append)
    fano = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
            (3, 4, 7), (3, 5, 6))
    c = Config(8, fano + ((1, 8),))
    v = is_liftable_generic(c)
    assert v.witness_rank == 5 and v.trials == 1
    v = is_liftable_generic(grid_config(3, 4))
    assert v.witness_rank == 10 and v.verdict == "not-liftable"
    assert calls == []


def test_liftable_multi_component():
    lines = qs_config().lines + ((7, 8, 9),)
    v = is_liftable_generic(Config(9, lines))
    assert v.verdict == "not-liftable"
    assert v.omega == 2
    assert len(v.components) == 2
    assert v.components[1].is_forest
    v = is_liftable_generic(Config(8, qs_config().lines))
    assert v.omega == 3
    assert len(v.components) == 1
    assert v.verdict == "not-liftable"
    assert is_liftable_generic(Config(3)).verdict == "liftable"


def test_quasi_liftable_frozen_verdicts():
    q = is_quasi_liftable(qs_config())
    assert q.is_quasi
    assert q.base.verdict == "not-liftable"
    assert len(q.deletions) == 4
    assert all(v.verdict == "liftable" for _, v in q.deletions)
    q = is_quasi_liftable(bundled_config("grid3x3"))
    assert not q.is_quasi
    assert q.base.verdict == "liftable"
    q = is_quasi_liftable(grid_config(3, 4))
    assert q.is_quasi
    assert len(q.deletions) == 7


def test_quasi_liftable_needs_every_deletion_liftable():
    # The 3x5 grid is not liftable, and so is what remains after
    # deleting any one of its five columns; deleting a row leaves a
    # liftable configuration.
    q = is_quasi_liftable(grid_config(3, 5))
    assert not q.is_quasi
    assert q.base.verdict == "not-liftable"
    assert [(li, v.verdict) for li, v in q.deletions] == (
        [(li, "not-liftable") for li in range(1, 6)]
        + [(li, "liftable") for li in range(6, 9)])


def test_poly_matrix_rank_on_constants():
    rows = [[Poly.constant(e) for e in row] for row in QS_AT_012345]
    assert poly_matrix_rank(rows) == 4
    assert poly_matrix_rank([[Poly.zero()] * 3]) == 0
    assert poly_matrix_rank([]) == 0


def test_symbolic_collin_rank():
    assert symbolic_collin_rank(qs_config()) == 4
    assert symbolic_collin_rank(bundled_config("grid3x3")) == 6
    assert symbolic_collin_rank(bundled_config("forest_two_lines")) == 2


def test_values_keep_the_ring_of_their_inputs():
    from planelift.probes import sample_grid, sample_quadset

    def ints(cols):
        return all(type(x) is int for col in cols for x in col)

    rng = random.Random(29)
    xs = random_distinct_abscissas(12, rng)
    assert all(type(x) is int for x in xs)
    cm = build_collin(grid_config(3, 4), xs)
    assert ints(cm.numeric.to_lists())
    quad = sample_quadset(rng)
    assert ints(quad.columns())
    assert ints(sample_grid(rng, 3, 4).columns())
    forest = forest_lift(bundled_config("forest_path10"), xs[:10])
    assert ints(forest.realisation.columns())
    # Quotients are Fractions, never floats.
    res = project(quad, [3, -1, 2], [1, 4, -7])
    assert all(type(t) is Fraction for t in res.abscissas)
    scaled = epsilon_scale(forest, 1)
    assert all(type(col[2]) is Fraction
               for col in scaled.realisation.columns())
    # Inexact entries are rejected, not converted.
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            QMatrix([[1, bad]])
        with pytest.raises(TypeError):
            Realisation.from_columns([(1, 0, bad)])
        with pytest.raises(TypeError):
            _frame((bad, 1, 0))
        with pytest.raises(TypeError):
            epsilon_scale(forest, bad)
        with pytest.raises(TypeError):
            project(quad, center=(bad, 0, 1))
        with pytest.raises(TypeError):
            project(quad, target_line=(0, bad, 1))
    # A bool is an int, but no number: True == 1 would pass otherwise.
    with pytest.raises(TypeError):
        QMatrix([[True, False], [False, True]])
    with pytest.raises(TypeError):
        _frame((True, False, 2))
    with pytest.raises(TypeError):
        Realisation.from_columns([(1, 0, False)])
