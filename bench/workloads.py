"""The three request batches and the code that runs one request.

Every request is either a `planelift` command line, run in-process
through `planelift.cli.main(argv)` with stdout captured, or one of two
direct library calls: `probe_tfae_grid` without the 528,528-minor
enumeration, and `all_minors` on a 12-row slab of the 3x4 grid's
collinearity matrix.  A batch is built once per run from the workload
seed and then replayed unchanged, so every batch does the same work.

Library functions are looked up as module attributes at call time, so
that the traced run sees the wrappers that tracing.py installs.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

from planelift import cli, ideals, lifting, linalg, probes
from planelift.config import grid_config

WORKLOADS = ("decide", "certify", "symbolic")

BUNDLED = ("forest_path10", "forest_single_line", "forest_two_lines",
           "grid3x3", "grid3x4", "qs")

# Rounds of the decide batch; each round samples fresh tuples.
DECIDE_ROUNDS = 8
# Slab pairs of the certify batch: one slab at a projected grid tuple
# (every 10-minor vanishes, so all_minors short-circuits) and one at a
# random tuple (rank 10, so the determinant path runs).
CERTIFY_SLAB_PAIRS = 2

# `qs_generators` and `g34_generators` are memoised for the life of the
# process.  A `planelift` invocation starts with empty caches, so they
# are cleared before every request.
_CACHED = (ideals.qs_generators, ideals.g34_generators)


@dataclass
class Request:
    """One request and what the oracle needs to judge its answer.

    `kind` selects the oracle check.  Exactly one of `argv` (a CLI
    request) and `call` (a direct library call) is set.  `facts` holds
    the inputs from which the oracle recomputes the answer.
    """

    kind: str
    label: str
    argv: tuple = None
    call: object = None
    facts: dict = field(default_factory=dict)


@dataclass
class Response:
    code: object
    output: object
    error: str = None


def execute(req, clock):
    """Run one request and return (seconds, Response).

    The generator caches are cleared before the clock starts.
    Exceptions are caught and reported in the response, so a crashing
    request counts as a failure instead of ending the run.
    """
    for f in _CACHED:
        f.cache_clear()
    if req.argv is not None:
        buf = io.StringIO()
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(req.argv))
        except SystemExit as e:
            code, error = e.code, "exited via SystemExit(%r)" % (e.code,)
        except Exception as e:  # boundary: report and keep running
            code, error = None, "%s: %s" % (type(e).__name__, e)
        dt = clock() - t0
        return dt, Response(code, buf.getvalue(), error)
    t0 = clock()
    try:
        out = req.call()
    except Exception as e:  # boundary: report and keep running
        return clock() - t0, Response(None, None,
                                      "%s: %s" % (type(e).__name__, e))
    return clock() - t0, Response(0, out)


# --- inputs ------------------------------------------------------------------

def _rat_args(xs):
    return [linalg.format_rat(x) for x in xs]


def _projected(rng, realisation):
    """Abscissas of a central projection of `realisation` from a random
    centre onto a random line, redrawn until the images are distinct."""
    while True:
        centre = [rng.randint(-256, 256) for _ in range(3)]
        line = [rng.randint(-256, 256) for _ in range(3)]
        if not any(line):
            continue
        try:
            res = lifting.project(realisation, centre, line)
        except ValueError:
            continue
        if res.distinct:
            return list(res.abscissas)


def _small_ints(rng, n):
    """n distinct integers in [-999, 999]; generically these do not lift
    to a quadrilateral set or to a 3x4 grid."""
    return rng.sample(range(-999, 1000), n)


class WorkDir:
    """Abscissa files for the `lift` command, kept under bench/work."""

    def __init__(self, bench_dir):
        self.path = os.path.join(bench_dir, "work")
        self.files = set()

    def write(self, name, xs):
        os.makedirs(self.path, exist_ok=True)
        path = os.path.join(self.path, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"abscissas": _rat_args(xs)}, fh)
        self.files.add(path)
        return path

    def remove(self):
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)
        self.files = set()
        if os.path.isdir(self.path) and not os.listdir(self.path):
            os.rmdir(self.path)


def _draw(rng, name, sampler):
    """A projected sample of `sampler`, or small random integers when
    there is no sampler."""
    if sampler is not None:
        return _projected(rng, sampler(rng))
    return _small_ints(rng, 6 if name == "qs" else 12)


def _seed_arg(rng):
    return ("--seed", str(rng.randrange(10 ** 6)))


def build_decide(seed, work):
    """Everyday queries: sampled `check` of every bundled configuration,
    the two rank tests, and the three lift commands, on projected
    sampled realisations (liftable) and on small random integers (not
    liftable)."""
    rng = random.Random(seed)
    reqs = []
    for rnd in range(DECIDE_ROUNDS):
        for name in BUNDLED:
            reqs.append(Request("check", "check " + name,
                                argv=("check", name, *_seed_arg(rng)),
                                facts={"config": name}))
        cases = [("qs", True, probes.sample_quadset),
                 ("grid3x3", True, lambda r: probes.sample_grid(r, 3, 3)),
                 ("grid3x4", True, lambda r: probes.sample_grid(r, 3, 4)),
                 ("qs", False, None),
                 ("grid3x4", False, None)]
        for name, liftable, sampler in cases:
            xs = _draw(rng, name, sampler)
            facts = {"config": name, "xs": xs, "liftable": liftable}
            path = work.write("r%d-%s-%s.json" % (rnd, name, liftable), xs)
            reqs.append(Request("lift", "lift " + name,
                                argv=("lift", name, path, *_seed_arg(rng)),
                                facts=facts))
            if name == "grid3x3":
                continue
            short = "qs" if name == "qs" else "grid"
            reqs.append(Request("rank-check", short + "-check",
                                argv=(short + "-check", *_rat_args(xs)),
                                facts=facts))
            xs2 = _draw(rng, name, sampler)
            reqs.append(Request("lift", short + "-lift",
                                argv=(short + "-lift", *_rat_args(xs2),
                                      *_seed_arg(rng)),
                                facts={"config": name, "xs": xs2,
                                       "liftable": liftable}))
    rng.shuffle(reqs)
    warmup = Request("check", "check qs", argv=("check", "qs"),
                     facts={"config": "qs"})
    return reqs, warmup


# Rows of the 3x4 grid's collinearity matrix: 0-3 are the four column
# lines (one triple each), 4-7, 8-11 and 12-15 the triples of the three
# row lines.  A row line's block has rank 2, so a slab keeps rank 10 at
# a random tuple when it keeps at least two rows of every block.
_ROW_BLOCKS = ((4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))


def _slab_rows(rng):
    while True:
        dropped = set(rng.sample(range(4, 16), 4))
        if all(len(dropped.intersection(b)) <= 2 for b in _ROW_BLOCKS):
            return [i for i in range(16) if i not in dropped]


def _slab_request(rng, xs, projected):
    full = lifting.build_collin(grid_config(3, 4), xs).numeric
    rows = _slab_rows(rng)
    slab = linalg.QMatrix([full.row(i) for i in rows])
    kind = "projected" if projected else "random"

    def call():
        return list(linalg.all_minors(slab, 10))

    return Request("slab", "all_minors %s slab" % kind, call=call,
                   facts={"slab": slab.to_lists(), "k": 10,
                          "projected": projected})


def _tfae_grid_request(seed):
    def call():
        return probes.probe_tfae_grid(1, seed, minors_on_first_trial=False)

    return Request("probe", "probe_tfae_grid", call=call,
                   facts={"suite": "tfae-grid", "trials": 1})


def _verify_request(rng, suite, trials, seed=None):
    if seed is None:
        seed = rng.randrange(10 ** 6)
    return Request("verify", "verify " + suite,
                   argv=("verify", suite, "--trials", str(trials),
                         "--seed", str(seed)),
                   facts={"suite": suite, "trials": trials})


# Light requests of the certify batch.  Their costs barely move with
# the sampled numbers, and there are enough of them that the median
# falls among the `tfae-qs` requests and the tail percentile among the
# `decomp-qs` ones.
CERTIFY_TFAE_QS = 24
CERTIFY_DECOMP_QS = 10
# `verify decomp-grid34 --trials 1` takes 1.8 to 2.6 s depending on the
# sampled grid, about 60% of the batch, so it runs at this fixed trial
# seed; the workload seed picks every other input of the batch.
DECOMP_GRID34_SEED = 0


def build_certify(seed, work):
    """The numeric certificate side: probe suites at small trial counts
    and ten-minor enumeration on 12-row slabs of the grid matrix."""
    rng = random.Random(seed)
    reqs = [_verify_request(rng, "tfae-qs", 1)
            for _ in range(CERTIFY_TFAE_QS)]
    reqs += [_verify_request(rng, "decomp-qs", 1)
             for _ in range(CERTIFY_DECOMP_QS)]
    for _ in range(2):
        reqs.append(_tfae_grid_request(rng.randrange(10 ** 6)))
    reqs.append(_verify_request(rng, "decomp-grid34", 1,
                                DECOMP_GRID34_SEED))
    for _ in range(CERTIFY_SLAB_PAIRS):
        proj = _projected(rng, probes.sample_grid(rng, 3, 4))
        reqs.append(_slab_request(rng, proj, True))
        rand = lifting.random_distinct_abscissas(12, rng)
        reqs.append(_slab_request(rng, rand, False))
    rng.shuffle(reqs)
    warmup = Request("verify", "verify tfae-qs",
                     argv=("verify", "tfae-qs", "--trials", "1"),
                     facts={"suite": "tfae-qs", "trials": 1})
    return reqs, warmup


def _gens(target, fmt, minor_size=None):
    argv = ["gens", target, "--format", fmt]
    label = "gens %s %s" % (target, fmt)
    if minor_size is not None:
        argv += ["--minor-size", str(minor_size)]
        label += " k=%d" % minor_size
    return Request("gens", label, argv=tuple(argv),
                   facts={"target": target, "format": fmt,
                          "minor_size": minor_size})


def _det_check(name):
    return Request("check", "check %s --deterministic" % name,
                   argv=("check", name, "--deterministic"),
                   facts={"config": name})


def build_symbolic(seed, work):
    """The construction side: generator sets in all three formats, the
    rewriting table and exact generic ranks.  The inputs are fixed
    commands, so the seed only orders the batch.

    Three requests of about 0.3 to 1.1 s, three of 0.1 to 0.2 s and
    thirty small ones, so that the tail percentile falls among the
    small ones.  The requests of heavy_symbolic() are left out of the
    timed batch (see README.md); selfcheck.py still checks their
    answers.
    """
    formats = ("plain", "cas", "json")
    reqs = [_gens("radical:qs", "cas", 3), _gens("grid34", "json"),
            _det_check("forest_single_line")]
    reqs += [_gens("radical:qs", fmt, 2) for fmt in formats]
    reqs += [_gens("qs", fmt) for fmt in formats]
    reqs += [Request("table1", "table1", argv=("table1",)),
             _det_check("qs"), _det_check("forest_two_lines")]
    reqs += [_gens("radical:forest_two_lines", fmt, k)
             for k in (None, 2) for fmt in formats]
    reqs += [_gens("radical:" + name, fmt, 1)
             for name in BUNDLED for fmt in formats]
    random.Random(seed).shuffle(reqs)
    return reqs, _gens("qs", "plain")


def heavy_symbolic():
    """Construction requests of 1.5 to 5 s each.  With them the
    symbolic batch took 11 s, too long to replay often enough in one
    run for steady figures."""
    return [_gens("radical:qs", "plain", 4), _det_check("grid3x3"),
            _det_check("forest_path10")]


BUILDERS = {"decide": build_decide, "certify": build_certify,
            "symbolic": build_symbolic}
