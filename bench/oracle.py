"""Independent checks of every answer the benchmark receives.

Nothing here calls planelift: ranks and determinants use textbook
Gaussian elimination over Fraction, the collinearity matrix is rebuilt
from its definition, and the bundled configurations' lines and verdicts
are written out below.  `check(req, resp)` returns None for a correct
answer and a one-line reason otherwise.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

LINES = {
    "qs": ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)),
    "grid3x3": ((1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9), (4, 5, 6),
                (7, 8, 9)),
    "grid3x4": ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12),
                (1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12)),
    "forest_single_line": ((1, 2, 3, 4, 5, 6),),
    "forest_two_lines": ((1, 2, 3), (3, 4, 5)),
    "forest_path10": ((1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10)),
}
POINTS = {"qs": 6, "grid3x3": 9, "grid3x4": 12, "forest_single_line": 6,
          "forest_two_lines": 5, "forest_path10": 10}
# Known verdicts: qs and the 3x4 grid are not liftable, the rest are.
VERDICT = {name: "not-liftable" if name in ("qs", "grid3x4") else "liftable"
           for name in LINES}
EXIT = {"liftable": 0, "not-liftable": 2, "realising": 0,
        "no-nontrivial-lift": 2}

QS_LABELS = (["bracket(%d,%d,%d)" % t for t in LINES["qs"]]
             + ["qs(%d,%d,%d)" % f
                for f in combinations_with_replacement((1, 2, 3), 3)])
G34_LABELS = (["bracket(%d,%d,%d)" % t for line in LINES["grid3x4"]
               for t in combinations(line, 3)]
              + ["g34(%s)" % ",".join(map(str, f))
                 for f in combinations_with_replacement((1, 2, 3), 6)])
# Generator counts: 14 for the quadrilateral set, 44 for the 3x4 grid,
# and 1,219 for the quadrilateral set's radical ideal at minor size 4.
GEN_COUNTS = {("qs", None): 14, ("grid34", None): 44,
              ("radical:qs", 4): 1219}

SLAB_SAMPLES = 12


def gauss_rank(rows):
    """Rank by plain Fraction elimination."""
    a = [[Fraction(e) for e in row] for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][col] / a[r][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def gauss_det(rows):
    """Determinant by plain Fraction elimination."""
    a = [[Fraction(e) for e in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def det3(p, q, r):
    return gauss_det([[p[i], q[i], r[i]] for i in range(3)])


def triples(name):
    return {t for line in LINES[name] for t in combinations(line, 3)}


def collin_rows(name, xs):
    """The collinearity matrix from its definition: for each triple
    i1 < i2 < i3 of a line, x_i2 - x_i3, x_i3 - x_i1 and x_i1 - x_i2 in
    columns i1, i2 and i3."""
    xs = [Fraction(x) for x in xs]
    rows = []
    for line in LINES[name]:
        for i1, i2, i3 in combinations(sorted(line), 3):
            row = [Fraction(0)] * len(xs)
            row[i1 - 1] = xs[i2 - 1] - xs[i3 - 1]
            row[i2 - 1] = xs[i3 - 1] - xs[i1 - 1]
            row[i3 - 1] = xs[i1 - 1] - xs[i2 - 1]
            rows.append(row)
    return rows


_generic_rank = {}


def generic_rank(name):
    """Rank of the collinearity matrix at a random 64-bit tuple (made
    distinct by adding the index), which is the generic rank except
    with negligible probability."""
    if name not in _generic_rank:
        rng = random.Random(name)
        xs = [rng.getrandbits(64) + i for i in range(POINTS[name])]
        _generic_rank[name] = gauss_rank(collin_rows(name, xs))
    return _generic_rank[name]


class Oracle:
    """Judges responses; an answer already judged is not judged again."""

    def __init__(self):
        self._seen = {}

    def check(self, req, resp):
        if resp.error is not None:
            return resp.error
        text = resp.output if isinstance(resp.output, str) \
            else repr(resp.output)
        key = (id(req), resp.code, hashlib.sha256(text.encode()).digest())
        if key not in self._seen:
            try:
                self._seen[key] = CHECKS[req.kind](req.facts, resp)
            except (ValueError, KeyError, IndexError, TypeError,
                    ZeroDivisionError, AttributeError) as e:
                self._seen[key] = "unreadable answer: %s: %s" % (
                    type(e).__name__, e)
        return self._seen[key]


def _code(resp, expected):
    if resp.code != expected:
        return "exit code %r, expected %r" % (resp.code, expected)
    return None


def check_check(facts, resp):
    name = facts["config"]
    doc = json.loads(resp.output)
    if doc["verdict"] != VERDICT[name]:
        return "verdict %s for %s" % (doc["verdict"], name)
    if doc["genericRank"] != generic_rank(name):
        return "genericRank %s, expected %d" % (doc["genericRank"],
                                                generic_rank(name))
    return _code(resp, EXIT[VERDICT[name]])


def check_rank(facts, resp):
    name = facts["config"]
    r = gauss_rank(collin_rows(name, facts["xs"]))
    thr = POINTS[name] - 3
    verdict = "liftable" if r <= thr else "not-liftable"
    want = {"rank": r, "threshold": thr, "verdict": verdict}
    if json.loads(resp.output) != want:
        return "answer %s, expected %s" % (resp.output.strip(),
                                           json.dumps(want, sort_keys=True))
    return _code(resp, EXIT[verdict])


def check_lift(facts, resp):
    name = facts["config"]
    xs = [Fraction(x) for x in facts["xs"]]
    n = POINTS[name]
    doc = json.loads(resp.output)
    kernel = n - gauss_rank(collin_rows(name, xs))
    if kernel <= 2:
        if doc != {"kind": "no-nontrivial-lift", "realisation": None}:
            return "expected no-nontrivial-lift, got %s" % doc["kind"]
        return _code(resp, EXIT["no-nontrivial-lift"])
    if doc["kind"] != "realising":
        return "expected a realising lift, got %s" % doc["kind"]
    cols = [[Fraction(v) for v in col]
            for col in doc["realisation"]["columns"]]
    if len(cols) != n or any(len(c) != 3 for c in cols):
        return "realisation has the wrong shape"
    for i, (x, y, _) in enumerate(cols):
        # Projection from (0, 0, 1) onto the line z = 0 gives x / y.
        if y == 0 or x / y != xs[i]:
            return "point %d does not project back to its abscissa" % (i + 1)
    on_line = triples(name)
    for t in combinations(range(1, n + 1), 3):
        zero = det3(*(cols[i - 1] for i in t)) == 0
        if zero != (t in on_line):
            return "triple %s is %scollinear" % (t, "" if zero else "not ")
    return _code(resp, EXIT["realising"])


def _probe_doc(facts, doc):
    if doc["suite"] != facts["suite"] or doc["trials"] != facts["trials"]:
        return "report is for %s x%s" % (doc["suite"], doc["trials"])
    if doc["failed"] != 0 or doc["passed"] < 1:
        return "probe passed %s, failed %s" % (doc["passed"], doc["failed"])
    return None


def check_verify(facts, resp):
    return _probe_doc(facts, json.loads(resp.output)) or _code(resp, 0)


def check_probe(facts, resp):
    return _probe_doc(facts, resp.output.to_dict())


def check_slab(facts, resp):
    slab, k = facts["slab"], facts["k"]
    out = resp.output
    row_sets = list(combinations(range(1, len(slab) + 1), k))
    col_sets = list(combinations(range(1, len(slab[0]) + 1), k))
    if len(out) != len(row_sets) * len(col_sets):
        return "%d minors, expected %d" % (len(out),
                                           len(row_sets) * len(col_sets))
    it = iter(out)
    for rs in row_sets:
        for cs in col_sets:
            got_r, got_c, _ = next(it)
            if (tuple(got_r), tuple(got_c)) != (rs, cs):
                return "minor order broken at %s|%s" % (rs, cs)
    r = gauss_rank(slab)
    if facts["projected"] and r >= k:
        return "projected slab has rank %d" % r
    if r < k and any(v != 0 for _, _, v in out):
        return "nonzero minor of a rank-%d slab" % r
    rng = random.Random(repr(slab))
    for idx in rng.sample(range(len(out)), SLAB_SAMPLES):
        rs, cs, v = out[idx]
        want = gauss_det([[slab[i - 1][j - 1] for j in cs] for i in rs])
        if v != want:
            return "minor %s|%s is %s, expected %s" % (rs, cs, v, want)
    return None


def _gens_plain(text):
    lines = text.splitlines()
    name, count = lines[0][2:].split(": ")
    labels = [ln.split(" = ", 1)[0] for ln in lines[1:]]
    return name, int(count.split()[0]), labels


def _gens_cas(text):
    lines = text.splitlines()
    name, count = lines[0][3:].split(": ")
    polys = [ln for ln in lines if ln.startswith("poly g_")]
    labels = [ln.rsplit("; // ", 1)[1] for ln in polys]
    if not lines[1].startswith("ring R = 0, (") \
            or not lines[-1].startswith("ideal %s = " % name):
        raise ValueError("cas script lacks its ring or ideal line")
    return name, int(count.split()[0]), labels


def _gens_json(text):
    doc = json.loads(text)
    labels = [g["label"] for g in doc["generators"]]
    return doc["ideal"], len(labels), labels


def check_gens(facts, resp):
    target, k = facts["target"], facts["minor_size"]
    parse = {"plain": _gens_plain, "cas": _gens_cas,
             "json": _gens_json}[facts["format"]]
    name, count, labels = parse(resp.output)
    if count != len(labels):
        return "header says %d generators, found %d" % (count, len(labels))
    if target == "qs":
        want_name, want_labels = "I_QS", QS_LABELS
    elif target == "grid34":
        want_name, want_labels = "I_G34", G34_LABELS
    else:
        config = target[len("radical:"):]
        want_name = "J_radical"
        want_labels = ["bracket(%d,%d,%d)" % t for line in LINES[config]
                       for t in combinations(line, 3)]
        labels = labels[:len(want_labels)]
    if name != want_name or labels != want_labels:
        return "generator set %s does not start with the expected labels" \
            % name
    want = GEN_COUNTS.get((target, k))
    if want is not None and count != want:
        return "%d generators, expected %d" % (count, want)
    return _code(resp, 0)


def check_table1(facts, resp):
    lines = resp.output.splitlines()
    if len(lines) != 18 or lines[-1] != "17/17 rewriting identities hold":
        return "table1 summary: %r" % (lines[-1] if lines else "")
    if any(not ln.endswith(": ok") for ln in lines[:-1]):
        return "a rewriting identity failed"
    return _code(resp, 0)


CHECKS = {"check": check_check, "rank-check": check_rank, "lift": check_lift,
          "verify": check_verify, "probe": check_probe, "slab": check_slab,
          "gens": check_gens, "table1": check_table1}
