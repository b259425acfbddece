#!/usr/bin/env python3
"""planelift benchmark: closed-loop request batches, one client, no threads.

    python3 bench/run.py --workload decide|certify|symbolic|all \\
        --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the package is imported from ./src.
A run builds its workload's request batch from the seed, then replays
the batch until the measured time would pass --seconds (at least twice).
Every answer is checked by oracle.py outside the timed region.  A
request's latency is its median over the replays, each replay's time
scaled to nominal host speed by calibrate.py's reference kernel.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
replays the batch untraced for half the time and traced for the rest,
and prints the per-layer metrics and the tracing overhead.  The last
line of stdout is always one JSON object with the keys correct,
attempted, failed and metrics.  --record appends the result, with the
workload, seed and details, to a JSON-lines file for compare.py.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
CLOCK = time.perf_counter

# Every untraced run replays the batch at least this often.
MIN_BATCHES = 2
SETUP_REPEATS = 5
SHOW_FAILURES = 5


def import_planelift():
    """Import the package from ./src, and refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "planelift", "__init__.py")):
        raise ImportError("no planelift package under %s" % SRC)
    sys.path.insert(0, SRC)
    import planelift.cli  # noqa: F401  (imports every module)
    if os.path.dirname(os.path.dirname(planelift.cli.__file__)) != SRC:
        raise ImportError("planelift was imported from %s, not %s"
                          % (planelift.cli.__file__, SRC))


def import_seconds(calib):
    """Median time at nominal speed to import the package in a fresh
    interpreter, which is what every `planelift` invocation pays."""
    code = ("import sys, time; sys.path.insert(0, %r); "
            "t = time.perf_counter(); import planelift.cli; "
            "print(time.perf_counter() - t)" % SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        calib.sample()
        t0 = CLOCK()
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=60)
        calib.sample()
        times.append(calib.scale(t0, float(proc.stdout)))
    return statistics.median(times)


class Run:
    """Latencies, batch times and oracle verdicts of one measured phase."""

    def __init__(self):
        self.walls = []
        self.starts = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def judge(self, oracle, req, resp):
        self.attempted += 1
        why = oracle.check(req, resp)
        if why is not None:
            self.failed += 1
            if len(self.failures) < SHOW_FAILURES:
                self.failures.append("%s: %s" % (req.label, why))


def replay(batch, budget, min_batches, oracle, run, calib, tracer=None):
    """Replay the batch until another batch would overrun `budget`
    seconds of measured time; answers are judged between batches, and
    the reference kernel is timed between requests.

    A batch's time is the sum of its requests' times: requests run back
    to back, and the benchmark's own work between them is left out."""
    from workloads import execute
    spent = 0.0
    done = 0
    while True:
        results = []
        wall = 0.0
        for i, req in enumerate(batch):
            if tracer is not None:
                tracer.request_id = done * len(batch) + i
            # A request should not pay for collecting the benchmark's
            # own objects: collect, then hide the survivors from the
            # collector until the batch ends.
            gc.collect()
            gc.freeze()
            run.starts.append(CLOCK())
            dt, resp = execute(req, CLOCK)
            calib.maybe_sample()
            wall += dt
            run.latencies.append(dt)
            results.append((req, resp))
        gc.unfreeze()
        run.walls.append(wall)
        for req, resp in results:
            run.judge(oracle, req, resp)
            if tracer is not None and isinstance(resp.output, str):
                tracer.counters["cli.stdout_bytes"] += len(
                    resp.output.encode())
        spent += wall
        done += 1
        if done >= min_batches and spent + statistics.median(
                run.walls[-done:]) > budget:
            return done


def setup(name, seed, work, oracle, run, calib):
    """Build the batch and answer one warm-up request, SETUP_REPEATS
    times; returns (median seconds at nominal speed, batch)."""
    from workloads import BUILDERS, execute
    times = []
    for _ in range(SETUP_REPEATS):
        calib.sample()
        t0 = CLOCK()
        batch, warmup = BUILDERS[name](seed, work)
        _, resp = execute(warmup, CLOCK)
        dt = CLOCK() - t0
        calib.sample()
        times.append(calib.scale(t0, dt))
        run.judge(oracle, warmup, resp)
    return statistics.median(times), batch


def typical_latencies(run, calib, batch_size, first=0):
    """Each request's median time at nominal speed over the replays from
    the `first`-th timed request on.

    The batch is replayed unchanged, so every request is timed once per
    replay.  Each time is scaled by the host's speed while it was taken
    (calibrate.py), and the median then drops the replays that other
    work on the machine slowed in a way the kernel did not see.
    """
    scaled = [calib.scale(t0, dt) for t0, dt in
              zip(run.starts[first:], run.latencies[first:])]
    return [statistics.median(scaled[i::batch_size])
            for i in range(batch_size)]


def tail(values):
    """(percentile, value): the highest percentile of `values` that
    still has ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        raise ValueError("a tail needs more than ten samples, got %d" % n)
    return (n - 10) / n, ordered[n - 11]


def run_workload(name, seed, seconds, trace):
    from calibrate import Calibrator
    from oracle import Oracle
    from workloads import WorkDir
    oracle = Oracle()
    run = Run()
    work = WorkDir(BENCH)
    calib = Calibrator(CLOCK)
    try:
        setup_s, batch = setup(name, seed, work, oracle, run, calib)
        setup_s += import_seconds(calib)
        if trace:
            metrics, lines = _traced(name, batch, seconds, oracle, run,
                                     calib)
        else:
            replay(batch, seconds, MIN_BATCHES, oracle, run, calib)
            metrics, lines = _end_to_end(run, len(batch), setup_s, calib)
    finally:
        work.remove()
    header = ("workload %s  seed %d  %d batches of %d requests  "
              "(closed loop, one client)" % (name, seed, len(run.walls),
                                            len(batch)))
    lines.insert(0, header)
    lines.append("  %-34s %d of %d requests failed (fail_frac %.4g)"
                 % ("fail_frac", run.failed, run.attempted,
                    run.failed / run.attempted))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, lines, run.failures


def _end_to_end(run, batch_size, setup_s, calib):
    factor = calib.factor()
    typical = typical_latencies(run, calib, batch_size)
    q, tail_s = tail(typical)
    reps = len(run.walls)
    metrics = {
        "wall_s": (sum(typical), "s"),
        "req_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "req_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "wall_s": "time for the batch, each request at its median of %d"
                  % reps,
        "req_p50_ms": "median of %d requests' medians of %d"
                      % (batch_size, reps),
        "req_tail_ms": "p%.1f of %d requests' medians of %d"
                       % (100 * q, batch_size, reps),
        "setup_s": "median of %d imports + median of %d set-ups"
                   % (SETUP_REPEATS, SETUP_REPEATS),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = ["  %-22s %12.4f %-5s %s" % (k, v, u, notes[k])
             for k, (v, u) in metrics.items()]
    lines.append("  host speed: reference kernel median %.2f ms over %d "
                 "samples, %.3f x nominal; each measured time is scaled "
                 "by the samples around it"
                 % (calib.median() * 1e3, len(calib.samples), factor))
    lines.append("  batch times (s, unscaled): "
                 + " ".join("%.3f" % w for w in run.walls))
    return metrics, lines


def _traced(name, batch, seconds, oracle, run, calib):
    from calibrate import Calibrator
    from tracing import Tracer
    plain = replay(batch, seconds / 2, 1, oracle, run, calib)
    untraced = sum(typical_latencies(run, calib, len(batch)))
    spent = sum(run.walls)
    calib = Calibrator(CLOCK)
    tracer = Tracer(CLOCK)
    tracer.install()
    try:
        traced_batches = replay(batch, seconds - spent, 1, oracle, run,
                                calib, tracer)
    finally:
        tracer.uninstall()
    factor = calib.factor()
    traced = sum(typical_latencies(run, calib, len(batch),
                                   plain * len(batch)))
    metrics = {k: (v / factor if u == "s" else v, u)
               for k, (v, u) in tracer.metrics(traced_batches).items()}
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    out = os.path.join(BENCH, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spans-%s.tsv.gz" % name)
    tracer.write(path)
    lines = ["  %-44s %14.6f %s" % (k, v, u) for k, (v, u) in metrics.items()]
    lines.append("  tracing overhead: traced wall_s %.4f s - untraced wall_s "
                 "%.4f s = %.4f s per batch (%d untraced, %d traced batches)"
                 % (traced, untraced, traced - untraced, plain,
                    traced_batches))
    lines.append("  per-layer times are divided by the traced phase's "
                 "host-speed factor %.3f; each phase's wall_s is scaled "
                 "request by request" % factor)
    lines.append("  %d spans written to %s" % (len(tracer.start),
                                               os.path.relpath(path)))
    return metrics, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("decide", "certify", "symbolic", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="FILE",
                   help="append the result as one JSON line to FILE")
    args = p.parse_args(argv)
    try:
        import_planelift()
    except ImportError as e:
        print("bench: cannot import planelift: %s" % e, file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines, failures = run_workload(name, args.seed, args.seconds,
                                               args.trace)
        print("\n".join(lines), flush=True)
        for f in failures:
            print("bench: wrong answer: %s" % f, file=sys.stderr)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "seconds": args.seconds,
                                     "trace": args.trace, "result": result,
                                     "details": lines}) + "\n")
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
