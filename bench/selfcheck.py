#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. A minimal run (--seconds 0, so the minimum number of batches) of
   every workload, untraced and traced, must end in a correct result
   that reports exactly the metrics of BENCHMARK.json with their units.
2. For one request of every kind, the oracle must accept the genuine
   answer and reject a deliberately wrong one, and the wrong answer
   must count toward fail_frac.
3. The oracle must accept the answers to the heavy construction
   requests that the symbolic batch leaves out, among them the 1,219
   generators of the quadrilateral set's radical ideal at minor size 4.

Exits 0 when every check holds and 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def check_runs(spec, problems):
    for workload in ("decide", "certify", "symbolic"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = "%s --trace %d" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s exited %d: %s" % (
                    where, proc.returncode, proc.stderr.strip()[-300:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s reports %s, expected %s"
                                % (where, sorted(got.items()),
                                   sorted(want.items())))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d answers wrong"
                                % (where, result["failed"],
                                   result["attempted"]))
            print("ok   %s: %d metrics, %d answers checked"
                  % (where, len(got), result["attempted"]))


def _json_edit(edit):
    def tamper(resp):
        doc = json.loads(resp.output)
        edit(doc)
        return json.dumps(doc, sort_keys=True) + "\n"
    return tamper


def _flip_verdict(doc):
    doc["verdict"] = ("not-liftable" if doc["verdict"] == "liftable"
                      else "liftable")


def _bump_rank(doc):
    doc["rank"] += 1


def _move_point(doc):
    col = doc["realisation"]["columns"][0]
    col[0] = str(Fraction(col[0]) + 1)


def _fail_probe(doc):
    doc["failed"] = 1


def _fail_report(resp):
    report = copy.copy(resp.output)
    report.failed = 1
    return report


def _shift_minors(resp):
    return [(r, c, v + 1) for r, c, v in resp.output]


def _drop_last_line(resp):
    return "".join(resp.output.splitlines(True)[:-1])


def _table1_fails(resp):
    return resp.output.replace("17/17", "16/17")


TAMPER = {"check": _json_edit(_flip_verdict),
          "rank-check": _json_edit(_bump_rank),
          "lift": _json_edit(_move_point),
          "verify": _json_edit(_fail_probe),
          "probe": _fail_report,
          "slab": _shift_minors,
          "gens": _drop_last_line,
          "table1": _table1_fails}


def check_oracle(problems):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    import time
    from oracle import Oracle
    from run import Run
    from workloads import BUILDERS, WorkDir, Response, execute
    work = WorkDir(BENCH)
    oracle = Oracle()
    run = Run()
    tried = set()
    try:
        for name in ("decide", "certify", "symbolic"):
            batch, _ = BUILDERS[name](1, work)
            for req in batch:
                if req.kind in tried or (req.kind == "lift"
                                         and not req.facts["liftable"]):
                    continue
                tried.add(req.kind)
                _, resp = execute(req, time.perf_counter)
                wrong = Response(resp.code, TAMPER[req.kind](resp))
                genuine = oracle.check(req, resp)
                if genuine is not None:
                    problems.append("oracle rejects the genuine answer to "
                                    "%s: %s" % (req.label, genuine))
                why = oracle.check(req, wrong)
                if why is None:
                    problems.append("oracle accepts a wrong answer to %s"
                                    % req.label)
                else:
                    print("ok   wrong answer to %s rejected: %s"
                          % (req.label, why))
                run.judge(oracle, req, resp)
                run.judge(oracle, req, wrong)
    finally:
        work.remove()
    if tried != set(TAMPER):
        problems.append("no request of kind %s" % sorted(set(TAMPER) - tried))
    if run.failed != len(tried):
        problems.append("fail count %d after %d wrong answers"
                        % (run.failed, len(tried)))
    print("ok   fail_frac %d/%d counts every wrong answer"
          % (run.failed, run.attempted))


def check_heavy(problems):
    """Answers of the requests that are too slow to time in a batch."""
    import time
    from oracle import Oracle
    from workloads import execute, heavy_symbolic
    oracle = Oracle()
    for req in heavy_symbolic():
        dt, resp = execute(req, time.perf_counter)
        why = oracle.check(req, resp)
        if why is not None:
            problems.append("oracle rejects the answer to %s: %s"
                            % (req.label, why))
        else:
            print("ok   %s answered correctly in %.1f s" % (req.label, dt))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    check_oracle(problems)
    check_heavy(problems)
    check_runs(spec, problems)
    for p in problems:
        print("FAIL %s" % p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
