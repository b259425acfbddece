"""Random exact samplers and experimental probes.

The samplers build realisations (quadrilateral sets, grids, forests,
collinear tuples) from random integer data with rejection of degenerate
draws.  The probes run the library's equivalences on many samples and
report exact counts: positive branches must hold on every trial,
negative controls record how often genericity delivered a witness.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from math import comb

from .config import (Realisation, _non_simple, circuits, grid_config,
                     membership, qs_config)
from .ideals import G34_FORMULAS, QS_FORMULAS, QS_LINES, generator_value
from .lifting import (build_collin, classify_lift, epsilon_scale, lift,
                      forest_lift, project, random_distinct_abscissas,
                      rank_test)
from .linalg import CrossTable, all_minors, cross


def _trial_rng(seed, t):
    return random.Random(seed * 1000003 + t)

# Bounds on random integer coordinates: of sampled points and lines, and
# of projection centres and target lines.
COEFF_RANGE = 65536
PROJECTION_RANGE = 256
RETRY_BUDGET = 64


class SampleError(RuntimeError):
    """Raised when rejection sampling exhausts its retry budget."""


def _rand_vec(rng, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(3))


def _rand_line(rng, bound):
    while True:
        v = _rand_vec(rng, bound)
        if any(v):
            return v


def sample_quadset(rng):
    """Four random lines in general position and their six intersection
    points, labelled so that the configuration is exactly qs_config().

    Point 1 lies on lines A and B, 2 on A and C, 3 on A and D, 4 on C
    and D, 5 on B and D, 6 on B and C; then A, B, C, D recover the
    lines 123, 156, 246 and 345.  A draw is kept when it realises
    qs_config() (lifting.classify_lift), which rejects the zero meet of
    two equal lines as a loop.
    """
    target = qs_config()
    for _ in range(RETRY_BUDGET):
        a, b, c, d = (_rand_line(rng, COEFF_RANGE) for _ in range(4))
        r = Realisation.from_columns([cross(a, b), cross(a, c), cross(a, d),
                                      cross(c, d), cross(b, d), cross(b, c)])
        if classify_lift(target, r) == "realising":
            return r
    raise SampleError("retry budget exhausted sampling a quadrilateral set")


def sample_grid(rng, rows=3, cols=4):
    """Two pencils of concurrent lines and their grid of intersections.

    One pencil of `cols` lines through a random apex plays the columns,
    one of `rows` lines through a second apex the rows; the point on
    column i and row j gets label rows*(i-1)+j, matching grid_config.
    A draw is kept when it realises grid_config(rows, cols)
    (lifting.classify_lift, which rejects a zero meet as a loop).
    """
    target = grid_config(rows, cols)
    for _ in range(RETRY_BUDGET):
        apex_c = _rand_vec(rng, COEFF_RANGE)
        apex_r = _rand_vec(rng, COEFF_RANGE)
        if not any(apex_c) or not any(apex_r):
            continue
        col_lines = [cross(apex_c, _rand_vec(rng, COEFF_RANGE))
                     for _ in range(cols)]
        row_lines = [cross(apex_r, _rand_vec(rng, COEFF_RANGE))
                     for _ in range(rows)]
        r = Realisation.from_columns(
            [cross(cl, rl) for cl in col_lines for rl in row_lines])
        if classify_lift(target, r) == "realising":
            return r
    raise SampleError("retry budget exhausted sampling a grid")


def sample_forest(rng, config):
    """Realise a forest configuration at random distinct abscissas."""
    xs = random_distinct_abscissas(config.n, rng)
    return forest_lift(config, xs).realisation


def sample_collinear(rng, n):
    """n distinct points on a random line, in full homogeneous
    coordinates (generically no zero coordinates): the draw of
    _line_points, in increasing order of abscissa."""
    xs, crosses = _line_points(rng, n)
    return Realisation.from_columns(
        [p for _, p in sorted(zip(xs, crosses.cols))])


# --- probe reports ------------------------------------------------------------


class ProbeReport:
    """The exact tallies of one probe suite run: checks passed and
    failed, named counts, and the first failed checks' witnesses."""

    def __init__(self, suite, trials):
        self.suite = suite
        self.trials = trials
        self.passed = 0
        self.failed = 0
        self.counts = {}
        self.witnesses = []

    def check(self, ok, label, detail=""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.witnesses) < 20:
                msg = label if not detail else "%s: %s" % (label, detail)
                self.witnesses.append(msg)
        return ok

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_dict(self):
        return {"suite": self.suite, "trials": self.trials,
                "passed": self.passed, "failed": self.failed,
                "counts": dict(sorted(self.counts.items())),
                "witnesses": list(self.witnesses)}


_FRAMES = (1, 2, 3)


def _line_points(rng, n):
    """Embed n random distinct abscissas on a random generic line,
    returning the abscissas and the CrossTable of the points' full
    homogeneous integer columns, which the simplicity check filled."""
    for _ in range(RETRY_BUDGET):
        a = _rand_vec(rng, COEFF_RANGE)
        b = _rand_vec(rng, COEFF_RANGE)
        if not any(cross(a, b)):
            continue
        xs = random_distinct_abscissas(n, rng)
        crosses = CrossTable([tuple(x * u + v for u, v in zip(a, b))
                              for x in xs])
        if not _non_simple(crosses):
            return xs, crosses
    raise SampleError("retry budget exhausted embedding points on a line")


def _project_generic(r, rng):
    """Project r from a random center onto a random generic line,
    rejecting draws with coincident images or chart accidents."""
    for _ in range(RETRY_BUDGET):
        ln = _rand_line(rng, PROJECTION_RANGE)
        cen = _rand_vec(rng, PROJECTION_RANGE)
        try:
            res = project(r, cen, ln)
        except ValueError:
            continue
        if res.distinct:
            return res
    raise SampleError("retry budget exhausted projecting to a line")


# The TFAE formulas (ideals.generator_value): the QS polynomial of every
# line on every frame triple, 4*27, and the grid polynomial of every
# column on every weakly increasing frame 6-tuple, 4*28.
_TFAE_QS = tuple(("qs", (line,) + f)
                 for line in QS_LINES for f in product(_FRAMES, repeat=3))
_TFAE_GRID = tuple(("g34", (ci,) + f) for ci in (1, 2, 3, 4)
                   for f in combinations_with_replacement(_FRAMES, 6))


def _random_grid_formulas(rng):
    """100 grid formulas at random (column, frame 6-tuple) draws."""
    return tuple(("g34", (rng.randint(1, 4),)
                  + tuple(rng.randint(1, 3) for _ in range(6)))
                 for _ in range(100))


def _probe_tfae(suite, trials, seed, conf, sample, matrix, noun, formulas,
                draw=None, minors_on_first_trial=False):
    """Exercise the equivalences of a fixed example on random samples.

    Positive branch, per trial: sample(rng) is projected to a generic
    line; at its abscissas the rank of matrix must be at most the
    liftability threshold bound of lifting.rank_test (and, on trial 0
    with minors_on_first_trial, every (bound+1)-minor must be zero),
    every formula of formulas, and of draw(rng) when draw is given, must
    vanish at the image, and lift() must realise conf and project back
    to the same abscissas.  The image is one CrossTable over the
    projection's integer image points; each differs from the point at
    its abscissa by a nonzero factor, which no vanishing depends on.
    Negative branch: a random collinear tuple should generically show
    rank bound+1 and a nonzero value of one of formulas; the report
    counts how often it did.  All formulas at one point set read one
    CrossTable.
    """
    report = ProbeReport(suite, trials)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        res = _project_generic(sample(rng), rng)
        xs = res.abscissas
        r, bound = rank_test(conf, xs)
        k = bound + 1
        report.check(r <= bound, "trial %d rank" % t,
                     "rank(%s) > %d at projected abscissas" % (matrix, bound))
        if minors_on_first_trial and t == 0:
            numeric = build_collin(conf, xs).numeric
            count, allzero = 0, True
            for _, _, v in all_minors(numeric, k):
                count += 1
                allzero = allzero and v == 0
            expected = comb(numeric.rows, k) * comb(conf.n, k)
            report.check(count == expected and allzero,
                         "trial 0 ten-minors",
                         "%d minors, allzero=%s" % (count, allzero))
            report.bump("ten-minors-enumerated", count)
        image = CrossTable(res.images)
        vals = [generator_value(image, f)
                for f in formulas + (draw(rng) if draw else ())]
        report.check(not any(vals), "trial %d vanishing" % t,
                     "%d of %d %s values vanish"
                     % (vals.count(0), len(vals), noun))
        report.bump("%s-values-checked" % noun.lower(), len(vals))
        lifted = lift(conf, xs, seed=t)
        report.check(lifted.kind == "realising"
                     and project(lifted.realisation).abscissas == tuple(xs),
                     "trial %d lift" % t, "lift kind %s" % lifted.kind)
        # negative control
        nxs, ncrosses = _line_points(rng, conf.n)
        if rank_test(conf, nxs)[0] == k:
            report.bump("negative-rank-%d" % k)
        if any(generator_value(ncrosses, f) for f in formulas):
            report.bump("negative-nonzero-witness")
        report.bump("negative-trials")
    return report


def probe_tfae_qs(trials, seed):
    """The quadrilateral-set equivalences: projected samples give
    rank(Lambda_QS) <= 3, all 4*27 QS values vanish, and lift() recovers
    a realising quadrilateral set; random collinear 6-tuples generically
    show rank 4 and a nonzero QS value."""
    return _probe_tfae("tfae-qs", trials, seed, qs_config(), sample_quadset,
                       "Lambda_QS", "QS", _TFAE_QS)


def probe_tfae_grid(trials, seed, minors_on_first_trial=True):
    """The 3x4-grid equivalences: projected samples give
    rank(Lambda_G34) <= 9 (equivalently, every 10-minor vanishes; the
    full 8008*66 enumeration runs on the first trial only), the grid
    values vanish on all 28 weakly increasing frame 6-tuples per column
    plus 100 random tuples, and lift() recovers a realising grid; random
    collinear 12-tuples generically show rank 10 and a nonzero grid
    value."""
    return _probe_tfae("tfae-grid", trials, seed, grid_config(3, 4),
                       sample_grid, "Lambda_G34", "grid", _TFAE_GRID,
                       _random_grid_formulas, minors_on_first_trial)


def _all_generators_vanish(formulas, r):
    """(True, None), or (False, label of the first generator that does
    not vanish at r), for the (label, formula) pairs of a generating set
    (ideals.QS_FORMULAS, ideals.G34_FORMULAS).  Each value comes from
    the generator's bracket products, read off r.crosses; the generators
    are multihomogeneous, so r.int_columns() gives the same answer as
    r's own columns."""
    for label, formula in formulas:
        if generator_value(r.crosses, formula):
            return False, label
    return True, None


def probe_decomposition(matroid, trials, seed):
    """One-way membership probe of the circuit-variety decomposition.

    Samples circuit-variety points three ways (genuine realisations,
    collinear tuples, epsilon-scaled realising lifts) and checks each
    lands in the collinear branch or kills every generator of the
    ideal.  Random general-position tuples serve as non-members and
    should leave some generator nonzero.  A generator vanishes when the
    bracket products it is expanded from do (ideals.generator_value: a
    line bracket is a cross product dotted with a column, and qs_value
    or g34_value give the rest), so no Poly is built or evaluated.
    Each sample's tests and values all read its Realisation.crosses.
    """
    # Built per call, so that a sampler wrapped by a tracer is called.
    examples = {"qs": (QS_FORMULAS, qs_config(), sample_quadset),
                "grid34": (G34_FORMULAS, grid_config(3, 4), sample_grid)}
    if matroid not in examples:
        raise ValueError("matroid must be 'qs' or 'grid34'")
    formulas, conf, make = examples[matroid]
    m = circuits(conf)
    report = ProbeReport("decomp-%s" % matroid, trials)
    for t in range(trials):
        rng = _trial_rng(seed, t)

        r = make(rng)
        rep = membership(r, m)
        report.check(rep.realises, "trial %d realisation membership" % t)
        ok, bad = _all_generators_vanish(formulas, r)
        report.check(ok, "trial %d realisation generators" % t,
                     "nonzero %s" % bad)
        report.bump("realisation-samples")

        coll = sample_collinear(rng, conf.n)
        crep = membership(coll, m)
        report.check(crep.in_v0 and crep.in_circuit_variety,
                     "trial %d collinear membership" % t)
        report.bump("collinear-samples")

        res = _project_generic(r, rng)
        lifted = lift(conf, res.abscissas, seed=t)
        if report.check(lifted.kind == "realising",
                        "trial %d lift of projected tuple" % t,
                        "kind %s" % lifted.kind):
            scaled = epsilon_scale(lifted, Fraction(1, 1000))
            report.check(classify_lift(conf, scaled.realisation)
                         == "realising",
                         "trial %d epsilon scaling" % t)
            ok, bad = _all_generators_vanish(formulas, scaled.realisation)
            report.check(ok, "trial %d scaled-lift generators" % t,
                         "nonzero %s" % bad)
            report.bump("scaled-lift-samples")

        pts = []
        while len(pts) < conf.n:
            p = _rand_vec(rng, 64)
            if any(p):
                pts.append(p)
        rnd = Realisation.from_columns(pts)
        ok, _ = _all_generators_vanish(formulas, rnd)
        if not ok:
            report.bump("nonmember-nonzero-witness")
        report.bump("nonmember-trials")
    return report


SUITES = {
    "tfae-qs": probe_tfae_qs,
    "tfae-grid": probe_tfae_grid,
    "decomp-qs": partial(probe_decomposition, "qs"),
    "decomp-grid34": partial(probe_decomposition, "grid34"),
}


def run_probe(name, trials, seed):
    """Run the probe suite SUITES[name] with trials >= 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    if name not in SUITES:
        raise ValueError("unknown probe suite: %r" % (name,))
    return SUITES[name](trials, seed)
