"""Command-line interface.

Exit codes follow a fixed partition so scripts can branch on them:
  0   success / realising lift / liftable / all checks pass
  1   a verification suite or the rewrite-table check failed
  2   no nontrivial lift exists / not liftable
  3   only trivial or degenerate lifts found
  64  command line usage error
  65  unreadable or invalid input data
  70  internal error: a generic rank could not be certified

Identical invocations produce byte-identical output.
"""

import argparse
import json
import os
import re
import sys
from functools import cache, partial

from .config import (bundled_config, bundled_names, config_from_dict,
                     grid_config, qs_config, realisation_to_dict, validate)
from .ideals import (emit, g34_generators, qs_generators,
                     radical_ideal_generators, table1_verify)
from .lifting import RankNotCertified, build_collin, is_liftable_generic, lift
from .linalg import parse_rat, rank
from .probes import SUITES, run_probe

EX_OK = 0
EX_FAIL = 1
EX_NO_LIFT = 2
EX_DEGENERATE = 3
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_CHECK_EXITS = {"liftable": EX_OK, "not-liftable": EX_NO_LIFT}
_LIFT_EXITS = {"realising": EX_OK, "no-nontrivial-lift": EX_NO_LIFT}


class DataError(Exception):
    """Bad input data (files, configs, abscissas); exits 65."""


class UsageError(Exception):
    """Options that parse but do not fit together; exits 64."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors, which collides with the
    no-nontrivial-lift status; use 64 instead.  The negative-number
    matcher is widened so that every negative rational parse_rat reads,
    such as -3/4, -0.5, -.5 or -1e3, counts as a value, not an option:
    after its sign such a number starts with a digit or a point and a
    digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


def _rat(text):
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(str(e))


def _positive_int(text):
    """An argparse type for integers of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % (text,))
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise DataError("%s: %s" % (path, e.strerror or e))
    except json.JSONDecodeError as e:
        raise DataError("%s:%d: %s" % (path, e.lineno, e.msg))


def _load_config(spec):
    """A bundled configuration name or a path to a JSON config file."""
    if spec in bundled_names():
        return bundled_config(spec)
    doc = _load_json(spec)
    try:
        c = config_from_dict(doc)
    except ValueError as e:
        raise DataError("%s: %s" % (spec, e))
    problems = validate(c)
    if problems:
        raise DataError("%s: invalid configuration: %s"
                        % (spec, "; ".join(str(p) for p in problems)))
    return c


def _load_abscissas(path, n):
    """JSON file holding either a list of rationals or an object with
    an "abscissas" list; entries are integers or "p/q" strings."""
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("abscissas")
    if not isinstance(doc, list):
        raise DataError("%s: expected a JSON list of rationals "
                        "or {\"abscissas\": [...]}" % path)
    try:
        xs = [parse_rat(str(v)) for v in doc]
    except (ValueError, ZeroDivisionError) as e:
        raise DataError("%s: %s" % (path, e))
    if len(xs) != n:
        raise DataError("%s: expected %d abscissas, got %d"
                        % (path, n, len(xs)))
    return xs


def _emit_json(doc):
    print(json.dumps(doc, sort_keys=True))


# --- commands ----------------------------------------------------------------

def cmd_check(args):
    v = is_liftable_generic(_load_config(args.config), seed=args.seed)
    _emit_json({"omega": v.omega, "genericRank": v.witness_rank,
                "verdict": v.verdict})
    return _CHECK_EXITS[v.verdict]


def cmd_lift(args):
    c = _load_config(args.config)
    xs = _load_abscissas(args.abscissas, c.n)
    return _run_lift(c, xs, args.seed)


def _run_lift(c, xs, seed):
    try:
        res = lift(c, xs, seed=seed)
    except ValueError as e:
        raise DataError(str(e))
    doc = {"kind": res.kind, "realisation": None}
    if res.realisation is not None:
        doc["realisation"] = realisation_to_dict(res.realisation)
    _emit_json(doc)
    return _LIFT_EXITS.get(res.kind, EX_DEGENERATE)


def cmd_fixed_check(args):
    """qs-check and grid-check: the rank test at the given abscissas."""
    c = args.fixed()
    try:
        r = rank(build_collin(c, args.x).line_basis)
    except ValueError as e:
        raise DataError(str(e))
    threshold = c.n - 3
    verdict = "liftable" if r <= threshold else "not-liftable"
    _emit_json({"rank": r, "threshold": threshold, "verdict": verdict})
    return _CHECK_EXITS[verdict]


def cmd_fixed_lift(args):
    return _run_lift(args.fixed(), args.x, args.seed)


def cmd_gens(args):
    target = args.target
    if args.minor_size is not None and not target.startswith("radical:"):
        raise UsageError("--minor-size applies only to radical: targets")
    if target == "qs":
        g = qs_generators()
    elif target == "grid34":
        g = g34_generators()
    elif target.startswith("radical:"):
        c = _load_config(target[len("radical:"):])
        try:
            g = radical_ideal_generators(c, minor_size=args.minor_size)
        except ValueError as e:
            raise UsageError(str(e))
    else:
        raise DataError("unknown generator target %r "
                        "(use qs, grid34 or radical:CONFIG)" % target)
    sys.stdout.write(emit(g, args.format))
    return EX_OK


def cmd_verify(args):
    rep = run_probe(args.suite, args.trials, args.seed)
    print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    return EX_OK if rep.failed == 0 else EX_FAIL


def cmd_table1(args):
    ok, checks = table1_verify()
    for ch in checks:
        print("excluded %s -> generator %s: %s"
              % (_triple(ch.excluded), _triple(ch.generator),
                 "ok" if ch.ok else "FAIL"))
    print("%d/%d rewriting identities hold"
          % (sum(1 for ch in checks if ch.ok), len(checks)))
    return EX_OK if ok else EX_FAIL


def _triple(t):
    return "(%d,%d,%d)" % t


# --- parser ------------------------------------------------------------------

def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="random seed (default 0)")


@cache
def build_parser():
    """The argparse tree of every command, built on the first call and
    shared by every later call in the process; callers must not mutate
    it.  Sharing is safe because nothing in the tree depends on the
    caller, no option has a mutable default, parse_args returns a fresh
    Namespace, and _Parser.error looks up sys.stderr when it runs."""
    top = _Parser(prog="planelift",
                  description="Exact liftability of collinear point tuples "
                              "to point-line configurations.")
    sub = top.add_subparsers(dest="command", metavar="COMMAND",
                             parser_class=_Parser)
    sub.required = True
    # main reports a UsageError with the usage line of its command.
    top.commands = sub.choices

    p = sub.add_parser("check",
                       help="decide generic liftability of a configuration")
    p.add_argument("config", metavar="CONFIG",
                   help="bundled name (%s) or JSON file"
                        % ", ".join(bundled_names()))
    p.add_argument("--deterministic", action="store_true",
                   help="no effect, kept for old scripts: every verdict "
                        "is certified")
    _add_seed(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lift",
                       help="search for a realising lift at given abscissas")
    p.add_argument("config", metavar="CONFIG")
    p.add_argument("abscissas", metavar="ABSCISSAS",
                   help="JSON file with one rational per point")
    _add_seed(p)
    p.set_defaults(func=cmd_lift)

    for short, n, noun, fixed in (("qs", 6, "quadrilateral set", qs_config),
                                  ("grid", 12, "3x4 grid",
                                   partial(grid_config, 3, 4))):
        p = sub.add_parser(short + "-check",
                           help="rank test for lifting %d abscissas to a %s"
                                % (n, noun))
        p.add_argument("x", type=_rat, nargs=n, metavar="X")
        p.set_defaults(func=cmd_fixed_check, fixed=fixed)

        p = sub.add_parser(short + "-lift",
                           help="lift %d abscissas to a %s" % (n, noun))
        p.add_argument("x", type=_rat, nargs=n, metavar="X")
        _add_seed(p)
        p.set_defaults(func=cmd_fixed_lift, fixed=fixed)

    p = sub.add_parser("gens",
                       help="emit a generating set of a matroid ideal")
    p.add_argument("target", metavar="TARGET",
                   help="qs, grid34 or radical:CONFIG")
    p.add_argument("--format", choices=("plain", "cas", "json"),
                   default="plain", help="output format (default plain)")
    p.add_argument("--minor-size", type=_positive_int, metavar="K",
                   help="minor size, radical: targets only (default n-2)")
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("verify",
                       help="run an experimental probe suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--trials", type=_positive_int, default=8, metavar="N",
                   help="trials to run (default 8)")
    _add_seed(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1",
                       help="check the bracket rewriting identities")
    p.set_defaults(func=cmd_table1)

    return top


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        if extra:
            raise UsageError("unrecognized arguments: %s" % " ".join(extra))
        return args.func(args)
    except UsageError as e:
        parser.commands[args.command].error(str(e))
    except DataError as e:
        print("planelift: %s" % e, file=sys.stderr)
        return EX_DATAERR
    except RankNotCertified as e:
        print("planelift: %s" % e, file=sys.stderr)
        return EX_SOFTWARE
    except BrokenPipeError:
        # The reader went away (e.g. piped into head).  Point stdout at
        # devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_OK


if __name__ == "__main__":
    sys.exit(main())
