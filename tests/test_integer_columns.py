"""The projective zero tests run on integer-scaled columns; each must
agree with a Fraction oracle that takes the columns as given."""

import random
import re
from fractions import Fraction
from functools import partial

import pytest

from helpers import (BIG, assignment_from_columns, frac_classify_lift,
                     frac_config_of_realisation, frac_generators_vanish,
                     frac_membership, rand_fraction)
from planelift.config import (Config, Realisation, circuits,
                              config_of_realisation, grid_config, membership,
                              qs_config)
from planelift.ideals import (G34_FORMULAS, QS_FORMULAS, QS_LINES,
                              SKELETONS, _expand, _frame, g34_generators,
                              g34_value, generator_value, qs_generators,
                              qs_value)
from planelift.lifting import (build_collin, classify_lift, epsilon_scale,
                               lift, lift_space, project)
from planelift.linalg import CrossTable
from planelift.probes import (_all_generators_vanish, _project_generic,
                              sample_collinear, sample_grid, sample_quadset)


def _scaled(cols, rng, bound):
    """Each column times its own random nonzero rational with numerator
    and denominator up to bound."""
    out = []
    for col in cols:
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, bound),
                       rng.randint(1, bound))
        out.append(tuple(lam * x for x in col))
    return out


def _epsilon_lift(conf, r, rng):
    """An epsilon-scaled lift of a generic projection of r (realising,
    as test_cases_reach_every_outcome checks)."""
    res = _project_generic(r, rng)
    lifted = lift(conf, res.abscissas, seed=1)
    return epsilon_scale(lifted, Fraction(1, 1000)).realisation.columns()


def _cases():
    """(name, columns, reference configuration) triples covering random
    rational columns, 300-bit entries, rational column scales, zero and
    coincident columns, and epsilon-scaled lifts."""
    rng = random.Random(2024)
    qs, g33, g34 = qs_config(), grid_config(3, 3), grid_config(3, 4)
    out = []
    for k in range(3):
        quad = sample_quadset(rng).columns()
        out.append(("quadset %d" % k, _scaled(quad, rng, 97), qs))
        out.append(("quadset big %d" % k, _scaled(quad, rng, BIG), qs))
        swapped = [quad[3]] + quad[1:3] + [quad[0]] + quad[4:]
        out.append(("swapped %d" % k, _scaled(swapped, rng, 97), qs))
        zero = quad[:2] + [(0, 0, 0)] + quad[3:]
        out.append(("zero column %d" % k, _scaled(zero, rng, 97), qs))
        twin = quad[:4] + [tuple(Fraction(-3, 7) * x for x in quad[1])] \
            + quad[5:]
        out.append(("coincident %d" % k, _scaled(twin, rng, BIG), qs))
        out.append(("random %d" % k,
                    [[rand_fraction(rng) for _ in range(3)]
                     for _ in range(6)], qs))
        out.append(("random big %d" % k,
                    [[Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
                      for _ in range(3)] for _ in range(6)], qs))
        line = sample_collinear(rng, 6).columns()
        out.append(("collinear %d" % k, _scaled(line, rng, BIG), qs))
    out.append(("grid3x3", _scaled(sample_grid(rng, 3, 3).columns(),
                                   rng, 97), g33))
    out.append(("grid3x4", _scaled(sample_grid(rng, 3, 4).columns(),
                                   rng, BIG), g34))
    out.append(("epsilon qs", _epsilon_lift(qs, sample_quadset(rng), rng),
                qs))
    out.append(("epsilon grid3x3",
                _epsilon_lift(g33, sample_grid(rng, 3, 3), rng), g33))
    grid_r = sample_grid(rng, 3, 4)
    grid = grid_r.columns()
    out.append(("epsilon grid3x4", _epsilon_lift(g34, grid_r, rng), g34))
    out.append(("grid3x4 zero column",
                _scaled(grid[:4] + [(0, 0, 0)] + grid[5:], rng, 97), g34))
    out.append(("grid3x4 coincident",
                _scaled(grid[:7] + [tuple(Fraction(5, 3) * x
                                          for x in grid[1])] + grid[8:],
                        rng, BIG), g34))
    out.append(("random grid3x4", [[rand_fraction(rng) for _ in range(3)]
                                   for _ in range(12)], g34))
    return out


CASES = _cases()

# The generating sets whose formulas the probes evaluate, by point count.
GENERATING_SETS = {6: (QS_FORMULAS, qs_generators),
                   12: (G34_FORMULAS, g34_generators)}


@pytest.mark.parametrize("name,cols,conf", CASES,
                         ids=[name for name, _, _ in CASES])
def test_zero_tests_match_fraction_oracles(name, cols, conf):
    r = Realisation.from_columns(cols)
    everything = Config(conf.n, (tuple(range(1, conf.n + 1)),))
    for m in (circuits(conf), circuits(everything),
              circuits(Config(conf.n))):
        assert membership(r, m) == frac_membership(cols, m)
    try:
        expected = frac_config_of_realisation(cols)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(exc))):
            config_of_realisation(r)
    else:
        assert config_of_realisation(r) == expected
    assert classify_lift(conf, r) == frac_classify_lift(conf, cols)
    if conf.n in GENERATING_SETS:
        formulas, gens = GENERATING_SETS[conf.n]
        assert _all_generators_vanish(formulas, r) == \
            frac_generators_vanish(gens(), cols)


def test_cases_reach_every_outcome():
    """The cases above see every flag and violated triple both set and
    unset, every classification, and both simple and non-simple input."""
    seen = set()
    for name, cols, conf in CASES:
        if name.startswith("epsilon"):
            assert frac_classify_lift(conf, cols) == "realising"
        rep = frac_membership(cols, circuits(conf))
        seen.update(("flag", i, v) for i, v in enumerate(
            (rep.in_circuit_variety, rep.in_v0, rep.realises)))
        seen.add(("circuit", rep.violated_circuit is None))
        seen.add(("independence", rep.violated_independence is None))
        seen.add(("kind", frac_classify_lift(conf, cols)))
        try:
            frac_config_of_realisation(cols)
            seen.add(("simple", True))
        except ValueError:
            seen.add(("simple", False))
        if conf.n == 6:
            seen.add(("vanish", frac_generators_vanish(qs_generators(),
                                                       cols)[0]))
    want = {("flag", i, v) for i in range(3) for v in (True, False)}
    want |= {(k, v) for k in ("circuit", "independence", "simple", "vanish")
             for v in (True, False)}
    want |= {("kind", k) for k in ("realising", "trivial", "degenerate")}
    assert want <= seen


def test_grid_generators_match_fraction_oracle():
    rng = random.Random(77)
    gens = g34_generators()
    member = _scaled(sample_grid(rng, 3, 4).columns(), rng, BIG)
    nonmember = [[rand_fraction(rng) for _ in range(3)] for _ in range(12)]
    for cols in (member, nonmember):
        got = _all_generators_vanish(G34_FORMULAS,
                                     Realisation.from_columns(cols))
        assert got == frac_generators_vanish(gens, cols)
    assert _all_generators_vanish(
        G34_FORMULAS, Realisation.from_columns(member)) == (True, None)


@pytest.mark.parametrize("matroid", ["qs", "grid34"])
def test_formula_vanishing_matches_fraction_oracle(matroid):
    """The probe decides vanishing from each generator's bracket
    products; the Fraction oracle evaluates the expanded generators.
    Both must name the same first non-vanishing generator on members
    (rescaled realisations and epsilon-scaled lifts), on collinear
    tuples (every bracket vanishes, a later generator does not) and on
    random non-members."""
    rng = random.Random(4099)
    if matroid == "qs":
        formulas, gens, conf = QS_FORMULAS, qs_generators(), qs_config()
        make, later = sample_quadset, "qs("
    else:
        formulas, gens, conf = G34_FORMULAS, g34_generators(), \
            grid_config(3, 4)
        make, later = partial(sample_grid, rows=3, cols=4), "g34("
    assert [label for label, _ in formulas] == [e.label
                                                 for e in gens.entries]
    cases = [_scaled(make(rng).columns(), rng, 97),
             _epsilon_lift(conf, make(rng), rng),
             _scaled(sample_collinear(rng, conf.n).columns(), rng, 97),
             [[rand_fraction(rng) for _ in range(3)] for _ in range(conf.n)]]
    got = [_all_generators_vanish(formulas, Realisation.from_columns(cols))
           for cols in cases]
    assert got == [frac_generators_vanish(gens, cols) for cols in cases]
    assert got[0] == got[1] == (True, None)
    assert not got[2][0] and got[2][1].startswith(later)
    assert not got[3][0] and got[3][1].startswith("bracket(")


def test_formula_values_match_expanded_generators():
    """Each formula's value at integer columns is, up to the sign that
    canonical() picks, its expanded generator's value there."""
    rng = random.Random(12)
    for formulas, gens in ((QS_FORMULAS, qs_generators()),
                           (G34_FORMULAS, g34_generators())):
        assert len(formulas) == len(gens.entries)
        for _ in range(2):
            cols = [[rng.randint(-99, 99) for _ in range(3)]
                    for _ in range(gens.npoints)]
            a = assignment_from_columns(cols)
            for (label, formula), e in zip(formulas, gens.entries):
                assert label == e.label
                v = e.poly.evaluate(a)
                assert v != 0
                assert generator_value(cols, formula) in (v, -v)


def test_int_columns_are_integer_multiples():
    rng = random.Random(5)
    cols = [[rand_fraction(rng) for _ in range(3)] for _ in range(5)]
    cols.append([0, 0, 0])
    cols.append([Fraction(1, BIG), Fraction(-BIG, 3), Fraction(7)])
    ints = Realisation.from_columns(cols).int_columns()
    for col, icol in zip(cols, ints):
        assert all(type(x) is int for x in icol)
        k = next((i for i, x in enumerate(col) if x), None)
        if k is None:
            assert icol == [0, 0, 0]
            continue
        scale = Fraction(icol[k]) / col[k]
        assert scale > 0
        assert [scale * x for x in col] == icol


def test_values_from_a_table_match_plain_columns_and_the_expansion():
    """qs_value and g34_value give one value whether they get the point
    columns or a CrossTable of them, for int and Fraction columns and
    for index and vector frames, and it is the value of the expanded
    skeleton.  One table serves every formula, as in the probes, so a
    cross product filled by one formula is read by the next."""
    rng = random.Random(27)
    vector = (Fraction(2, 3), -1, Fraction(5))
    for kind in ("int", "fraction"):
        for n, family in ((6, "qs"), (12, "g34")):
            cols = [tuple(rng.randint(-99, 99) if kind == "int"
                          else rand_fraction(rng) for _ in range(3))
                    for _ in range(n)]
            table = CrossTable(cols)
            a = assignment_from_columns(cols)
            for _ in range(4):
                frames = [rng.choice((1, 2, 3, vector, (0, 1, -7)))
                          for _ in range(3 if family == "qs" else 6)]
                if family == "qs":
                    line = rng.choice(QS_LINES)
                    key = ("qs", line)
                    got = [qs_value(cols, line, *frames),
                           qs_value(table, line, *frames)]
                else:
                    ci = rng.randint(1, 4)
                    key = ("g34", ci)
                    got = [g34_value(cols, ci, *frames),
                           g34_value(table, ci, *frames)]
                expected = _expand(SKELETONS[key],
                                   [_frame(f) for f in frames]).evaluate(a)
                assert got == [expected, expected]
            assert table, "the formulas read the shared table"


def _extra_collinear_lift(conf, xs, triple, rng):
    """Columns (x_p, 1, z_p) of a lift of conf at xs whose heights also
    make the points of triple, collinear in no line of conf, collinear:
    a random combination of the lift-space basis in the kernel of that
    triple's collinearity row."""
    basis = lift_space(build_collin(conf, xs)).basis
    i, j, k = (p - 1 for p in triple)
    row = [b[i] * (xs[j] - xs[k]) + b[j] * (xs[k] - xs[i])
           + b[k] * (xs[i] - xs[j]) for b in basis]
    free = [rng.randint(1, 99) for _ in basis[1:]]
    coeffs = [-sum(c * e for c, e in zip(free, row[1:])) / row[0]] + free
    z = [sum(c * b[p] for c, b in zip(coeffs, basis))
         for p in range(conf.n)]
    return [(x, 1, h) for x, h in zip(xs, z)]


def test_classify_lift_on_grid_candidates_matches_the_oracle():
    """classify_lift reads one table for its simplicity and membership
    tests; on grid3x4 candidates with a loop, a coincident pair, one
    extra collinear triple, and none of these, it must answer as the
    Fraction oracle does."""
    rng = random.Random(99)
    g34 = grid_config(3, 4)
    seen = set()
    for _ in range(3):
        res = _project_generic(sample_grid(rng, 3, 4), rng)
        xs = res.abscissas
        good = lift(g34, xs, seed=2).realisation.columns()
        loop = good[:6] + [(0, 0, 0)] + good[7:]
        twin = good[:10] + [tuple(Fraction(-3, 7) * x for x in good[4])] \
            + good[11:]
        extra = _extra_collinear_lift(g34, xs, (1, 5, 9), rng)
        rep = frac_membership(extra, circuits(g34))
        assert rep.in_circuit_variety
        assert rep.violated_independence == (1, 5, 9)
        for cols in (good, loop, twin, extra):
            cols = _scaled(cols, rng, BIG)
            r = Realisation.from_columns(cols)
            want = frac_classify_lift(g34, cols)
            assert classify_lift(g34, r) == want
            assert membership(r, circuits(g34)) == \
                frac_membership(cols, circuits(g34))
            seen.add(want)
    assert seen == {"realising", "degenerate"}


def test_project_reads_integer_columns():
    """Scaling a column does not move its image: project gives the
    same result on a realisation and on its integer columns, at the
    default centre and line and at random ones, for lifted and
    epsilon-scaled quadrilateral sets and grids."""
    rng = random.Random(31)
    for conf, make in ((qs_config(), sample_quadset),
                       (grid_config(3, 4), partial(sample_grid, rows=3,
                                                   cols=4))):
        for _ in range(3):
            res = _project_generic(make(rng), rng)
            lifted = lift(conf, res.abscissas, seed=1)
            scaled = epsilon_scale(lifted, Fraction(1, 1000))
            for r in (lifted.realisation, scaled.realisation):
                ints = Realisation.from_columns(r.int_columns())
                assert project(r) == project(ints)
                assert project(r).abscissas == res.abscissas
                centre = (rng.randint(-99, 99), rng.randint(-99, 99), 1)
                line = (rng.randint(1, 99), rng.randint(-99, 99),
                        Fraction(rng.randint(1, 99), 7))
                try:
                    expected = project(r, centre, line)
                except ValueError as exc:
                    with pytest.raises(ValueError,
                                       match="^%s$" % re.escape(str(exc))):
                        project(ints, centre, line)
                else:
                    assert project(ints, centre, line) == expected
