"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line directly to the terminal (bypassing
capture) so a full run leaves a thirteen-line scoreboard.  All checks
are exact; random data comes from fixed seeds.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from helpers import (assignment_from_columns, collin_pair, golden_poly,
                     leibniz_det, matvec, rand_fraction)
from planelift.config import Config, analyze, grid_config, qs_config, validate
from planelift.ideals import (QS_LINES, RewriteRow, extend_minor,
                              g34_generators, g34_value, qs_generators,
                              qs_poly, qs_value, REWRITE_ROWS, table1_verify,
                              verify_rewrite_rows)
from planelift.lifting import (build_collin, classify_lift, forest_lift, lift,
                               lift_space, project, random_distinct_abscissas)
from planelift.linalg import QMatrix, det, det3, rank
from planelift.poly import multidegree, var_id
from planelift.probes import (_trial_rng, probe_decomposition,
                              probe_tfae_grid, probe_tfae_qs, sample_grid,
                              sample_quadset)

from test_ideals import QS_112_TERMS, QS_MISSING_VARS, ALL_QS_VARS

_FRAMES = (1, 2, 3)
_W6 = tuple(combinations_with_replacement(_FRAMES, 6))


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print("ACCEPTANCE %d: %s %s" % (num, "PASS" if ok else "FAIL",
                                        detail))
    assert ok, "acceptance %d: %s" % (num, detail)


def test_acceptance_01_golden_expansion(capsys):
    start = time.monotonic()
    golden = golden_poly(QS_112_TERMS).canonical()
    got = qs_poly((1, 2, 3), 1, 1, 2)
    ok = got == golden and len(got.terms) == 14
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(capsys, 1, ok,
           "14-term expansion matches termwise in %.3fs" % elapsed)


def test_acceptance_02_generator_counts(capsys):
    qs = qs_generators()
    g34 = g34_generators()
    qs_deg = Counter(e.poly.total_degree() for e in qs.entries)
    g34_deg = Counter(e.poly.total_degree() for e in g34.entries)
    ok = (len(qs.entries) == 14 and qs_deg == {3: 4, 6: 10}
          and len(g34.entries) == 44 and g34_deg == {3: 16, 12: 28})
    report(capsys, 2, ok,
           "qs: %d entries %s; grid: %d entries %s"
           % (len(qs.entries), dict(qs_deg), len(g34.entries),
              dict(g34_deg)))


def test_acceptance_03_vanishing(capsys):
    start = time.monotonic()
    bad = 0
    checked = 0
    for t in range(1000):
        r = sample_quadset(_trial_rng(301, t))
        cols = r.columns()
        for line in QS_LINES:
            for f in product(_FRAMES, repeat=3):
                checked += 1
                if qs_value(cols, line, *f) != 0:
                    bad += 1
    qs_checked = checked
    for t in range(200):
        rng = _trial_rng(302, t)
        r = sample_grid(rng, 3, 4)
        cols = r.columns()
        for ci in (1, 2, 3, 4):
            for frames in _W6:
                checked += 1
                if g34_value(cols, ci, *frames) != 0:
                    bad += 1
        for _ in range(100):
            ci = rng.randint(1, 4)
            frames = tuple(rng.randint(1, 3) for _ in range(6))
            checked += 1
            if g34_value(cols, ci, *frames) != 0:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and qs_checked == 108000 and elapsed < 300.0
    report(capsys, 3, ok,
           "%d evaluations, %d nonzero, %.1fs" % (checked, bad, elapsed))


def test_acceptance_04_tfae_qs(capsys):
    rep = probe_tfae_qs(1000, 4)
    neg_rank = rep.counts.get("negative-rank-4", 0)
    neg_wit = rep.counts.get("negative-nonzero-witness", 0)
    ok = rep.failed == 0 and neg_rank >= 990 and neg_wit >= 990
    report(capsys, 4, ok,
           "1000 round-trips, %d failures; negative controls "
           "rank4=%d/1000 witness=%d/1000"
           % (rep.failed, neg_rank, neg_wit))


def test_acceptance_05_tfae_grid(capsys):
    rep = probe_tfae_grid(200, 5, minors_on_first_trial=True)
    neg_rank = rep.counts.get("negative-rank-10", 0)
    neg_wit = rep.counts.get("negative-nonzero-witness", 0)
    minors = rep.counts.get("ten-minors-enumerated", 0)
    ok = (rep.failed == 0 and minors == 8008 * 66
          and neg_rank >= 198 and neg_wit >= 198)
    report(capsys, 5, ok,
           "200 round-trips, %d failures; %d ten-minors all zero; "
           "negative controls rank10=%d/200 witness=%d/200"
           % (rep.failed, minors, neg_rank, neg_wit))


def test_acceptance_06_grid3x3_lifts(capsys):
    c = grid_config(3, 3)
    bad_dim = 0
    bad_lift = 0
    for t in range(500):
        rng = _trial_rng(6, t)
        xs = random_distinct_abscissas(9, rng)
        space = lift_space(build_collin(c, xs))
        if space.dimension != 3:
            bad_dim += 1
            continue
        res = lift(c, xs, seed=t)
        if res.kind != "realising":
            bad_lift += 1
        elif project(res.realisation).abscissas != tuple(xs):
            bad_lift += 1
    ok = bad_dim == 0 and bad_lift == 0
    report(capsys, 6, ok,
           "500 tuples: %d wrong kernel dimensions, %d failed lifts"
           % (bad_dim, bad_lift))


def random_forest_config(rng, max_points=12, max_lines=5):
    """Random forest: every new line touches at most one placed point."""
    n = 0
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        size = rng.randint(3, 4)
        attach = lines and rng.random() < 0.7
        fresh = size - 1 if attach else size
        if n + fresh > max_points:
            break
        pts = []
        if attach:
            pts.append(rng.randint(1, n))
        pts.extend(range(n + 1, n + fresh + 1))
        n += fresh
        lines.append(tuple(sorted(pts)))
    if not lines:
        lines = [(1, 2, 3)]
        n = 3
    if rng.random() < 0.3 and n < max_points:
        n += 1  # an isolated point
    return Config(n, tuple(lines))


def test_acceptance_07_forest_lifting(capsys):
    bad = 0
    for t in range(200):
        rng = _trial_rng(7, t)
        c = random_forest_config(rng)
        if validate(c) or not analyze(c).is_forest:
            bad += 1
            continue
        xs = random_distinct_abscissas(c.n, rng)
        res = forest_lift(c, xs)
        if res.kind != "realising":
            bad += 1
            continue
        if classify_lift(c, res.realisation) != "realising":
            bad += 1
            continue
        if project(res.realisation).abscissas != tuple(xs):
            bad += 1
    report(capsys, 7, ok=bad == 0,
           detail="200 random forests lifted and projected back, "
                  "%d failures" % bad)


def _sparse_linear_config(rng):
    """Random configuration of 1-5 lines of 3-4 points on 6-12 points,
    any two lines sharing at most one point; not the differently drawn
    helpers.random_linear_config."""
    n = rng.randint(6, 12)
    lines = []
    pairs = set()
    for _ in range(rng.randint(1, 5)):
        for _attempt in range(20):
            size = rng.randint(3, min(4, n))
            pts = tuple(sorted(rng.sample(range(1, n + 1), size)))
            new_pairs = set(combinations(pts, 2))
            if new_pairs & pairs:
                continue
            pairs |= new_pairs
            lines.append(pts)
            break
    return Config(n, tuple(lines))


def test_acceptance_08_line_rank(capsys):
    bad = 0
    checked_lines = 0
    for t in range(500):
        rng = _trial_rng(8, t)
        c = _sparse_linear_config(rng)
        if validate(c):
            bad += 1
            continue
        xs = random_distinct_abscissas(c.n, rng)
        cm = build_collin(c, xs)
        offset = 0
        for line in c.lines:
            nrows = len(list(combinations(line, 3)))
            block = [cm.numeric.row(offset + i) for i in range(nrows)]
            offset += nrows
            checked_lines += 1
            if rank(QMatrix(block, cols=c.n)) != len(line) - 2:
                bad += 1
    report(capsys, 8, ok=bad == 0,
           detail="%d line blocks over 500 configs, %d rank mismatches"
                  % (checked_lines, bad))


def test_acceptance_09_rewrite_table(capsys):
    start = time.monotonic()
    ok_all, checks = table1_verify()
    rows_ok = ok_all and len(checks) == 17
    undetected = 0
    mutations = 0
    for row in REWRITE_ROWS:
        for ci in range(4):
            mutations += 1
            coeffs = list(row.coeffs)
            coeffs[ci] = coeffs[ci] + 1
            broken = RewriteRow(row.excluded, row.generator, tuple(coeffs))
            still_ok, _ = verify_rewrite_rows((broken,))
            if still_ok:
                undetected += 1
    elapsed = time.monotonic() - start
    ok = rows_ok and undetected == 0 and elapsed < 10.0
    report(capsys, 9, ok,
           "%d/17 identities hold; %d/%d coefficient mutations detected; "
           "%.2fs" % (sum(1 for ch in checks if ch.ok), mutations -
                      undetected, mutations, elapsed))


def test_acceptance_10_variable_support(capsys):
    bad = 0
    for frames, missing in QS_MISSING_VARS.items():
        p = qs_poly((1, 2, 3), *frames)
        support = {(letter, pt) for letter in "xyz" for pt in range(1, 7)
                   if var_id(letter, pt) in p.support_vars()}
        if support != ALL_QS_VARS - missing:
            bad += 1
    letters = {multidegree(qs_poly((1, 2, 3), *f)).letter
               for f in combinations_with_replacement(_FRAMES, 3)}
    ok = bad == 0 and len(letters) == 10
    report(capsys, 10, ok,
           "10 variable supports match, %d mismatches; "
           "%d distinct letter multidegrees" % (bad, len(letters)))


def test_acceptance_11_extension_identity(capsys):
    c = qs_config()
    rng = random.Random(11)
    bad = 0
    cache = {}
    assert len(list(product(_FRAMES, repeat=2))) == 9
    for t in range(500):
        k = 2 if t % 2 == 0 else 3
        rows = tuple(sorted(rng.sample(range(1, 5), k)))
        cidx = tuple(sorted(rng.sample(range(1, 7), k)))
        cols = [tuple(rand_fraction(rng, 9) for _ in range(3))
                for _ in range(6)]
        pts = [tuple(rand_fraction(rng, 5) for _ in range(3))
               for _ in range(k)]
        entries = []
        for i in range(k):
            row = []
            for j in range(k):
                pair = collin_pair(c, rows[i], cidx[j])
                if pair is None:
                    row.append(Fraction(0))
                else:
                    row.append(det3(cols[pair[0] - 1], cols[pair[1] - 1],
                                    pts[i]))
            entries.append(row)
        lhs = leibniz_det(entries)
        a = assignment_from_columns(cols)
        rhs = Fraction(0)
        for frames in product(_FRAMES, repeat=k):
            factor = Fraction(1)
            for i, f in enumerate(frames):
                factor *= pts[i][f - 1]
            if factor:
                key = (rows, cidx, frames)
                if key not in cache:
                    cache[key] = extend_minor(c, rows, cidx, frames)
                rhs += factor * cache[key].evaluate(a)
        if lhs != rhs:
            bad += 1
    report(capsys, 11, ok=bad == 0,
           detail="500 random minor extensions (9 summands at k=2, 27 at "
                  "k=3), %d mismatches" % bad)


def _random_projectivity(rng):
    while True:
        t = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        d = det(QMatrix(t))
        if d != 0:
            return t, d


def _nonzero_scales(rng, n):
    out = []
    while len(out) < n:
        s = rand_fraction(rng, 9)
        if s != 0:
            out.append(s)
    return out


def test_acceptance_12_projective_invariance(capsys):
    bad = 0
    for t in range(250):
        rng = random.Random(12000 + t)
        if t % 3 == 0:
            cols = sample_quadset(_trial_rng(121, t)).columns()
        else:
            cols = [tuple(rng.randint(-99, 99) for _ in range(3))
                    for _ in range(6)]
            if any(all(v == 0 for v in c) for c in cols):
                continue
        tmat, d = _random_projectivity(rng)
        scales = _nonzero_scales(rng, 6)
        frames_new = [tuple(row[f - 1] for row in tmat) for f in _FRAMES]
        moved = [tuple(s * v for v in matvec(tmat, c))
                 for s, c in zip(scales, cols)]
        factor = d ** 3
        for s in scales:
            factor *= s
        for line in QS_LINES:
            for f in product(_FRAMES, repeat=3):
                old = qs_value(cols, line, *f)
                new = qs_value(moved, line, frames_new[f[0] - 1],
                               frames_new[f[1] - 1], frames_new[f[2] - 1])
                if new != factor * old:
                    bad += 1
    for t in range(250):
        rng = random.Random(12500 + t)
        if t % 5 == 0:
            cols = sample_grid(_trial_rng(122, t), 3, 4).columns()
        else:
            cols = [tuple(rng.randint(-99, 99) for _ in range(3))
                    for _ in range(12)]
            if any(all(v == 0 for v in c) for c in cols):
                continue
        tmat, d = _random_projectivity(rng)
        scales = _nonzero_scales(rng, 12)
        frames_new = [tuple(row[f - 1] for row in tmat) for f in _FRAMES]
        moved = [tuple(s * v for v in matvec(tmat, c))
                 for s, c in zip(scales, cols)]
        factor = d ** 6
        for s in scales:
            factor *= s
        ci = t % 4 + 1
        tuples = [tuple(rng.randint(1, 3) for _ in range(6))
                  for _ in range(8)]
        for frames in tuples:
            old = g34_value(cols, ci, *frames)
            new = g34_value(moved, ci, *[frames_new[f - 1] for f in frames])
            if new != factor * old:
                bad += 1
    report(capsys, 12, ok=bad == 0,
           detail="500 random projectivities with per-point scales, "
                  "%d value mismatches against the exact factor" % bad)


def test_acceptance_13_decomposition_probe(capsys):
    qs_rep = probe_decomposition("qs", 25, 13)
    grid_rep = probe_decomposition("grid34", 10, 13)
    ok = qs_rep.failed == 0 and grid_rep.failed == 0
    report(capsys, 13, ok,
           "radicality/minimality/irreducibility are out of scope "
           "(CAS-scale); substitute decomposition probes: qs %d/%d checks "
           "pass, grid %d/%d checks pass"
           % (qs_rep.passed, qs_rep.passed + qs_rep.failed,
              grid_rep.passed, grid_rep.passed + grid_rep.failed))
