"""Spans around planelift's public functions, installed from outside.

`Tracer.install()` replaces each function listed in TARGETS with a
wrapper in every planelift module namespace that binds it (for example
both `planelift.linalg.rank` and `planelift.lifting.rank`), and `Poly`
methods on the class.  `uninstall()` puts the originals back.  The
package itself is not changed.

Each call records a span: name, request id, parent span, start and
duration, kept in flat arrays in memory and written out when the run
ends.  A span's self time is its duration minus the durations of its
child spans.  Work done by the wrappers themselves (scanning matrix
entries for their bit length, measuring output sizes) is excluded from
every span.
"""

import gzip
import inspect
import sys
import time
from array import array

# Span name -> the functions it covers, as (module, attribute) pairs;
# "Poly.x" names a method of planelift.poly.Poly.
TARGETS = (
    ("linalg.rank", (("linalg", "rank"),)),
    ("linalg.nullspace", (("linalg", "nullspace"),)),
    ("linalg.det", (("linalg", "det"), ("linalg", "minor"))),
    ("linalg.det3", (("linalg", "det3"),)),
    ("linalg.all_minors", (("linalg", "all_minors"),)),
    ("poly.mul", (("poly", "Poly.__mul__"),)),
    ("poly.exact_div", (("poly", "Poly.exact_div"),)),
    ("poly.canonical", (("poly", "Poly.canonical"),)),
    ("poly.evaluate", (("poly", "Poly.evaluate"),)),
    ("config.circuits", (("config", "circuits"),)),
    ("config.config_of_realisation", (("config", "config_of_realisation"),)),
    ("config.analyze", (("config", "analyze"),)),
    ("lifting.build_collin", (("lifting", "build_collin"),)),
    ("lifting.lift_space", (("lifting", "lift_space"),)),
    ("lifting.lift", (("lifting", "lift"),)),
    ("lifting.classify_lift", (("lifting", "classify_lift"),)),
    ("lifting.project", (("lifting", "project"),)),
    ("lifting.forest_lift", (("lifting", "forest_lift"),)),
    ("lifting.is_liftable_generic", (("lifting", "is_liftable_generic"),)),
    ("lifting.symbolic_collin_rank", (("lifting", "symbolic_collin_rank"),)),
    ("ideals.qs_value", (("ideals", "qs_value"),)),
    ("ideals.g34_value", (("ideals", "g34_value"),)),
    ("ideals.generators", (("ideals", "qs_generators"),
                           ("ideals", "g34_generators"),
                           ("ideals", "radical_ideal_generators"))),
    ("ideals.extend_minor", (("ideals", "extend_minor"),)),
    ("ideals.emit", (("ideals", "emit"),)),
    ("ideals.table1_verify", (("ideals", "table1_verify"),)),
    ("probes.sample", (("probes", "sample_quadset"), ("probes", "sample_grid"),
                       ("probes", "sample_collinear"),
                       ("probes", "sample_forest"))),
    ("probes.membership", (("probes", "membership"),)),
    ("probes.run_probe", (("probes", "run_probe"),)),
    ("cli.main", (("cli", "main"),)),
)
NAMES = tuple(name for name, _ in TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}

# Counters kept beside the spans; all are totals over the traced batches.
COUNTERS = ("all_minors.minors", "entry_bits_max", "lift.realising",
            "radical.kept", "emit.bytes", "sample.accepted",
            "cli.stdout_bytes")


def _entry_bits(m):
    bits = 0
    for row in m.to_lists():
        for e in row:
            bits = max(bits, e.numerator.bit_length(),
                       e.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one traced phase of a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name_id = array("B")
        self.request = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.duration = array("d")
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.request_id = -1
        self._stack = []    # [span index, name id, start, child time]
        self._patched = []  # (owner, attribute, original)

    # --- spans ---------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.request.append(self.request_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        t = self.clock()
        self.start.append(t)
        self.duration.append(0.0)
        self._stack.append([idx, nid, t, 0.0])

    def _close(self):
        t = self.clock()
        idx, nid, t0, child = self._stack.pop()
        d = t - t0
        self.duration[idx] = d
        self.calls[nid] += 1
        self.self_s[nid] += d - child
        if self._stack:
            self._stack[-1][3] += d

    def _untimed(self, f, *args):
        """Run instrumentation work and charge it to no span."""
        t = self.clock()
        f(*args)
        if self._stack:
            self._stack[-1][3] += self.clock() - t

    # --- hooks ---------------------------------------------------------------

    def _bits(self, args, kwargs):
        self.counters["entry_bits_max"] = max(
            self.counters["entry_bits_max"], _entry_bits(args[0]))

    def _after(self, attr, result):
        c = self.counters
        if attr == "lift" and result.kind == "realising":
            c["lift.realising"] += 1
        elif attr == "radical_ideal_generators":
            c["radical.kept"] += sum(1 for e in result.entries
                                     if e.label.startswith("ext("))
        elif attr == "emit":
            c["emit.bytes"] += len(result.encode())
        elif attr in ("sample_quadset", "sample_grid"):
            c["sample.accepted"] += 1

    def _wrap(self, fn, nid, attr):
        tracer = self
        pre = self._bits if attr in ("rank", "nullspace") else None
        post = attr in ("lift", "radical_ideal_generators", "emit",
                        "sample_quadset", "sample_grid")

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first item to exhaustion; callers in
            # this benchmark do no traced work between items.
            def wrapper(*args, **kwargs):
                tracer._open(nid)
                try:
                    for item in fn(*args, **kwargs):
                        tracer.counters["all_minors.minors"] += 1
                        yield item
                finally:
                    tracer._close()
            return wrapper

        def wrapper(*args, **kwargs):
            if pre:
                tracer._untimed(pre, args, kwargs)
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post:
                tracer._untimed(tracer._after, attr, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "planelift" or n.startswith("planelift.")]
        for name, funcs in TARGETS:
            for modname, attr in funcs:
                mod = sys.modules["planelift." + modname]
                if attr.startswith("Poly."):
                    owner, attr = mod.Poly, attr[len("Poly."):]
                    orig = owner.__dict__[attr]
                    self._patched.append((owner, attr, orig))
                    setattr(owner, attr, self._wrap(orig, _ID[name], attr))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(orig, _ID[name], attr)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    # --- results -------------------------------------------------------------

    def _children(self, parent_names, child_name):
        """Spans named child_name whose parent is one of parent_names."""
        want = {_ID[n] for n in parent_names}
        cid = _ID[child_name]
        return sum(1 for i, nid in enumerate(self.name_id)
                   if nid == cid and self.parent[i] >= 0
                   and self.name_id[self.parent[i]] in want)

    def metrics(self, batches):
        """Per-layer metrics, as totals divided by the traced batch
        count, except for the ratios and the bit-length maximum."""
        out = {}
        for i, name in enumerate(NAMES):
            out[name + ".calls"] = (self.calls[i] / batches, "count")
            out[name + ".self_s"] = (self.self_s[i] / batches, "s")
        c = self.counters
        out["linalg.all_minors.minors"] = (c["all_minors.minors"] / batches,
                                           "count")
        out["linalg.entry_bits_max"] = (c["entry_bits_max"], "bits")
        lifts = self.calls[_ID["lifting.lift"]]
        out["lifting.lift.classify_per_lift"] = (
            _ratio(self._children(["lifting.lift"], "lifting.classify_lift"),
                   lifts), "ratio")
        out["lifting.lift.realising_ratio"] = (
            _ratio(c["lift.realising"], lifts), "ratio")
        out["ideals.radical.kept_ratio"] = (
            _ratio(c["radical.kept"],
                   self._children(["ideals.generators"],
                                  "ideals.extend_minor")), "ratio")
        out["ideals.emit.bytes"] = (c["emit.bytes"] / batches, "bytes")
        out["probes.sample.accept_ratio"] = (
            _ratio(c["sample.accepted"],
                   self._children(["probes.sample"],
                                  "config.config_of_realisation")), "ratio")
        out["cli.stdout_bytes"] = (c["cli.stdout_bytes"] / batches, "bytes")
        return out

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed:
        span, name, request, parent, start (s), duration (s)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\trequest\tparent\tstart_s\tduration_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    i, NAMES[self.name_id[i]], self.request[i],
                    self.parent[i], self.start[i] - t0, self.duration[i]))


def _ratio(num, den):
    return num / den if den else 0.0
