import json
import os
import random
import subprocess
import sys

import pytest

import planelift
from helpers import config_json
from planelift import cli, ideals, lifting
from planelift.cli import build_parser, main
from planelift.config import bundled_names, grid_config
from planelift.lifting import random_distinct_abscissas
from planelift.linalg import format_rat
from planelift.probes import _project_generic, _trial_rng, sample_grid, \
    sample_quadset


def subprocess_env():
    """The environment with PYTHONPATH led by the directory planelift
    was imported from, so that `python -m planelift` in a child process
    finds the same package (pytest's own pythonpath setting does not
    reach child processes)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        planelift.__file__)))
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + rest if rest else ""))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def projected_abscissas(kind, seed=0):
    rng = _trial_rng(seed, 0)
    if kind == "qs":
        r = sample_quadset(rng)
    else:
        r = sample_grid(rng, 3, 4)
    return _project_generic(r, rng).abscissas


def test_check_grid3x3(capsys):
    code, out, err = run_cli(capsys, "check", "grid3x3")
    assert code == 0
    assert out == ('{"genericRank": 6, "omega": 1, '
                   '"verdict": "liftable"}\n')
    assert err == ""


def test_check_qs(capsys):
    code, out, _ = run_cli(capsys, "check", "qs")
    assert code == 2
    doc = json.loads(out)
    assert doc == {"genericRank": 4, "omega": 1, "verdict": "not-liftable"}
    code, out2, _ = run_cli(capsys, "check", "qs", "--deterministic")
    assert code == 2
    assert json.loads(out2) == doc


def test_check_grid3x4(capsys):
    code, out, _ = run_cli(capsys, "check", "grid3x4")
    assert code == 2
    assert json.loads(out)["genericRank"] == 10


def test_check_is_byte_identical(capsys):
    first = run_cli(capsys, "check", "grid3x3", "--seed", "4")
    second = run_cli(capsys, "check", "grid3x3", "--seed", "4")
    assert first == second


# The answer of `check` on each bundled configuration: exit code and
# stdout.
CHECK_BUNDLED = {
    "forest_path10": (0, '{"genericRank": 6, "omega": 1, '
                         '"verdict": "liftable"}\n'),
    "forest_single_line": (0, '{"genericRank": 4, "omega": 1, '
                              '"verdict": "liftable"}\n'),
    "forest_two_lines": (0, '{"genericRank": 2, "omega": 1, '
                            '"verdict": "liftable"}\n'),
    "grid3x3": (0, '{"genericRank": 6, "omega": 1, "verdict": "liftable"}\n'),
    "grid3x4": (2, '{"genericRank": 10, "omega": 1, '
                   '"verdict": "not-liftable"}\n'),
    "qs": (2, '{"genericRank": 4, "omega": 1, "verdict": "not-liftable"}\n'),
}


def test_check_answers_alike_at_every_seed(capsys):
    # One certified path: the seed only picks the certifying tuple, and
    # --deterministic changes nothing.
    assert sorted(CHECK_BUNDLED) == sorted(bundled_names())
    for name, (want_code, want_out) in CHECK_BUNDLED.items():
        for seed in range(20):
            for extra in ((), ("--deterministic",)):
                assert run_cli(capsys, "check", name, "--seed", str(seed),
                               *extra) == (want_code, want_out, ""), \
                    (name, seed, extra)


def test_check_deterministic_answers_large_configs(tmp_path, capsys):
    # 13 and 20 points, beyond the former limit of 12.
    small = tmp_path / "n13.json"
    small.write_text(json.dumps({"points": 13, "lines": [[1, 2, 3]]}))
    code, out, err = run_cli(capsys, "check", str(small), "--deterministic")
    assert code == 0 and err == ""
    assert out == ('{"genericRank": 1, "omega": 11, '
                   '"verdict": "liftable"}\n')
    grid = tmp_path / "grid4x5.json"
    grid.write_text(config_json(grid_config(4, 5)))
    code, out, err = run_cli(capsys, "check", str(grid), "--deterministic")
    assert code == 2 and err == ""
    assert out == ('{"genericRank": 18, "omega": 1, '
                   '"verdict": "not-liftable"}\n')


def test_check_deterministic_below_the_structural_bound(tmp_path, capsys):
    # Pappus plus the line (1, 10, 11, 12): min(n - 2, sum |L| - 2) is
    # 10, the generic rank 9.
    lines = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 5, 9], [1, 6, 8],
             [2, 4, 9], [2, 6, 7], [3, 4, 8], [3, 5, 7], [1, 10, 11, 12]]
    cfg = tmp_path / "pappus_plus.json"
    cfg.write_text(json.dumps({"points": 12, "lines": lines}))
    code, out, err = run_cli(capsys, "check", str(cfg), "--deterministic")
    assert code == 0 and err == ""
    assert out == ('{"genericRank": 9, "omega": 1, '
                   '"verdict": "liftable"}\n')


def test_qs_check_generic_tuple(capsys):
    code, out, _ = run_cli(capsys, "qs-check", "0", "1", "2", "3", "4", "5")
    assert code == 2
    assert json.loads(out) == {"rank": 4, "threshold": 3,
                               "verdict": "not-liftable"}


def test_qs_check_accepts_rationals(capsys):
    code, out, _ = run_cli(capsys, "qs-check", "1/2", "-3/4", "2", "7/3",
                           "-1", "0")
    assert code == 2
    assert json.loads(out)["rank"] == 4


@pytest.mark.parametrize("command", ["qs-check", "qs-lift", "grid-check"])
@pytest.mark.parametrize("token, exact", [("-0.5", "-1/2"), ("-.5", "-1/2"),
                                          ("-1e3", "-1000"),
                                          ("-3/4", "-3/4")])
def test_negative_abscissas_in_every_form(capsys, command, token, exact):
    """A negative abscissa is a value, not an option, in every form
    parse_rat reads, and means the same as its exact 'p/q' spelling."""
    rest = [str(v) for v in range(1, 12 if command == "grid-check" else 6)]
    code, out, err = run_cli(capsys, command, token, *rest)
    assert (code, out, err) == run_cli(capsys, command, exact, *rest)
    assert code in (0, 2) and out and not err


def test_qs_check_projected_tuple(capsys):
    xs = projected_abscissas("qs")
    code, out, _ = run_cli(capsys, "qs-check", *[format_rat(x) for x in xs])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "liftable"
    assert doc["rank"] <= 3


def test_qs_lift_generic_tuple(capsys):
    code, out, _ = run_cli(capsys, "qs-lift", "0", "1", "2", "3", "4", "5")
    assert code == 2
    assert json.loads(out) == {"kind": "no-nontrivial-lift",
                               "realisation": None}


def test_qs_lift_projected_tuple(capsys):
    xs = projected_abscissas("qs", seed=1)
    code, out, _ = run_cli(capsys, "qs-lift", *[format_rat(x) for x in xs])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "realising"
    cols = doc["realisation"]["columns"]
    assert len(cols) == 6
    assert [col[0] for col in cols] == [format_rat(x) for x in xs]
    assert all(col[1] == "1" for col in cols)


def test_grid_check_generic_tuple(capsys):
    args = [str(v) for v in (3, 1, 4, 15, 9, 2, 6, 5, 35, 8, 97, 93)]
    code, out, _ = run_cli(capsys, "grid-check", *args)
    assert code == 2
    assert json.loads(out) == {"rank": 10, "threshold": 9,
                               "verdict": "not-liftable"}


def test_grid_check_arithmetic_progression_lifts(capsys):
    # consecutive integers are the image of an affine grid under the
    # linear functional 3*i + j, so they pass the rank test
    args = [str(v) for v in range(12)]
    code, out, _ = run_cli(capsys, "grid-check", *args)
    assert code == 0
    assert json.loads(out)["verdict"] == "liftable"


def test_grid_lift_projected_tuple(capsys):
    xs = projected_abscissas("grid")
    code, out, _ = run_cli(capsys, "grid-lift", *[format_rat(x) for x in xs])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "realising"
    assert len(doc["realisation"]["columns"]) == 12


def test_lift_file_workflow(tmp_path, capsys):
    rng = random.Random(23)
    xs = random_distinct_abscissas(9, rng)
    absf = tmp_path / "xs.json"
    absf.write_text(json.dumps({"abscissas": [format_rat(x) for x in xs]}))
    code, out, _ = run_cli(capsys, "lift", "grid3x3", str(absf))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "realising"
    cols = doc["realisation"]["columns"]
    assert [c[0] for c in cols] == [format_rat(x) for x in xs]


def test_lift_accepts_bare_list_and_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(config_json(grid_config(3, 3)))
    absf = tmp_path / "xs.json"
    rng = random.Random(29)
    xs = rng.sample(range(-50, 51), 9)
    absf.write_text(json.dumps([format_rat(x) for x in xs]))
    code, out, _ = run_cli(capsys, "lift", str(cfg), str(absf))
    assert code == 0
    assert json.loads(out)["kind"] == "realising"


def test_lift_duplicate_abscissas(tmp_path, capsys):
    absf = tmp_path / "xs.json"
    absf.write_text(json.dumps([0, 1, 2, 3, 4, 0]))
    code, out, err = run_cli(capsys, "lift", "qs", str(absf))
    assert code == 65
    assert out == ""
    assert "duplicate abscissa" in err


def test_fixed_check_duplicate_abscissas(capsys):
    code, out, err = run_cli(capsys, "qs-check", "0", "0", "1", "2", "3",
                             "4")
    assert code == 65
    assert out == ""
    assert err == ("planelift: duplicate abscissa: points 1 and 2 both "
                   "sit at 0\n")


@pytest.mark.parametrize("doc, why", [
    ({"x": 1}, "expected a JSON list of rationals"),
    (["1/0", 1, 2, 3, 4, 5], "not a rational number: '1/0'"),
])
def test_lift_bad_abscissa_file(tmp_path, capsys, doc, why):
    absf = tmp_path / "xs.json"
    absf.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "lift", "qs", str(absf))
    assert code == 65
    assert out == ""
    assert err.startswith("planelift: %s: " % absf), err
    assert why in err, err


def test_uncertified_rank_exits_70(capsys, monkeypatch):
    # With a rank that under-reports, no tuple meets the incidence
    # count: check reports it in one line, with no traceback.
    original = lifting.rank
    monkeypatch.setattr(lifting, "rank", lambda m: original(m) - 1)
    code, out, err = run_cli(capsys, "check", "qs")
    assert code == 70
    assert out == ""
    assert err.startswith("planelift: generic rank not certified: "), err
    assert err.count("\n") == 1, err


def test_lift_wrong_count(tmp_path, capsys):
    absf = tmp_path / "xs.json"
    absf.write_text(json.dumps([0, 1, 2]))
    code, _, err = run_cli(capsys, "lift", "qs", str(absf))
    assert code == 65
    assert "expected 6 abscissas, got 3" in err


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "check", "/no/such/file.json")
    assert code == 65
    assert err.startswith("planelift: /no/such/file.json:")


def test_bad_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "points": oops\n}\n')
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 65
    assert ("%s:2:" % bad) in err


def test_invalid_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3, "lines": [[2, 1, 3]]}))
    code, _, err = run_cli(capsys, "check", str(cfg))
    assert code == 65
    assert "invalid configuration" in err
    cfg.write_text(json.dumps({"points": 3}))
    code, _, err = run_cli(capsys, "check", str(cfg))
    assert code == 65


def test_usage_errors_exit_64(capsys):
    for argv in ([], ["frobnicate"], ["qs-check", "1", "2"],
                 ["qs-check", "a", "b", "c", "d", "e", "f"],
                 ["gens", "qs", "--format", "xml"],
                 ["check", "qs", "--seed", "two"],
                 ["verify", "tfae-qs", "--trials", "0"],
                 ["verify", "decomp-qs", "--trials", "-3"],
                 ["gens", "radical:qs", "--minor-size", "0"],
                 ["gens", "radical:qs", "--minor-size", "-1"],
                 ["gens", "radical:qs", "--minor-size", "two"],
                 ["gens", "qs", "--minor-size", "3"],
                 ["gens", "grid34", "--format", "json", "--minor-size", "1"],
                 ["gens", "radical:qs", "--minor-size", "7"],
                 ["gens", "radical:forest_two_lines", "--minor-size", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        capsys.readouterr()


def test_removed_budget_options_exit_64(capsys, tmp_path):
    # check has no tuple budget and the lifts no attempt budget.  The
    # leftover arguments are reported with the command's usage line.
    xs = tmp_path / "xs.json"
    xs.write_text("[-4, -3, -2, 1, 0, -1]")
    for argv in (["check", "qs", "--trials", "3"],
                 ["lift", "qs", str(xs), "--attempts", "3"],
                 ["qs-lift", "-4", "-3", "-2", "1", "0", "-1",
                  "--attempts", "3"],
                 ["grid-lift"] + ["%d" % i for i in range(12)]
                 + ["--attempts", "3"]):
        err = _usage_error(capsys, argv)
        assert err.startswith("usage: planelift %s " % argv[0]), err
        assert err.endswith("\nplanelift %s: error: unrecognized "
                            "arguments: %s\n"
                            % (argv[0], " ".join(argv[-2:]))), err


def test_command_usage_errors_show_the_command_usage(capsys):
    # Errors found after parsing print the usage line of their command,
    # as argparse does for its own errors.
    for argv in (["gens", "qs", "--minor-size", "3"],
                 ["gens", "radical:qs", "--minor-size", "9"]):
        err = _usage_error(capsys, argv)
        assert err.startswith("usage: planelift gens "), err
        assert "\nplanelift gens: error: " in err, err
    assert _usage_error(capsys, ["verify", "tfae-qs", "--trials", "0"]) \
        .startswith("usage: planelift verify ")


def test_gens_qs_json(capsys):
    code, out, _ = run_cli(capsys, "gens", "qs", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ideal"] == "I_QS"
    assert len(doc["generators"]) == 14


def test_gens_grid34_plain(capsys):
    code, out, _ = run_cli(capsys, "gens", "grid34")
    assert code == 0
    assert out.splitlines()[0] == "# I_G34: 44 generators"
    assert len(out.splitlines()) == 45


def test_gens_radical(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gens", "radical:forest_two_lines")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# J_radical: 2 generators"
    code, out, _ = run_cli(capsys, "gens", "radical:qs",
                           "--minor-size", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    labels = [g["label"] for g in doc["generators"]]
    assert "bracket(1,2,3)" in labels
    assert any(l.startswith("ext(") for l in labels)


def test_gens_radical_default_below_one(tmp_path, capsys):
    # The default minor size n - 2 is 0 here; only an explicit size
    # below 1 is a usage error.
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"points": 2, "lines": []}))
    code, out, err = run_cli(capsys, "gens", "radical:%s" % path)
    assert (code, out, err) == (0, "# J_radical: 0 generators\n", "")
    with pytest.raises(SystemExit) as exit_info:
        main(["gens", "radical:%s" % path, "--minor-size", "0"])
    assert exit_info.value.code == 64


def test_gens_unknown_target(capsys):
    code, _, err = run_cli(capsys, "gens", "radical:/missing.json")
    assert code == 65
    code, _, err = run_cli(capsys, "gens", "fano")
    assert code == 65
    assert "unknown generator target" in err


def test_gens_is_byte_identical(capsys):
    first = run_cli(capsys, "gens", "qs", "--format", "cas")
    second = run_cli(capsys, "gens", "qs", "--format", "cas")
    assert first == second


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "tfae-qs", "--trials", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "tfae-qs"
    assert doc["failed"] == 0
    assert doc["trials"] == 1
    assert doc["counts"]["negative-trials"] == 1


def test_verify_decomp_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "decomp-qs", "--trials", "1")
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_table1(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert lines[0] == "excluded (1,2,1) -> generator (1,1,2): ok"
    assert all(l.endswith(": ok") for l in lines[:-1])
    assert lines[-1] == "17/17 rewriting identities hold"


def test_commands_reuse_the_skeletons_built_at_import(capsys, monkeypatch):
    def rebuild(*args):
        raise AssertionError("a skeleton was rebuilt after import")

    monkeypatch.setattr(ideals, "_qs_pairing", rebuild)
    monkeypatch.setattr(ideals, "_g34_products", rebuild)
    ideals.qs_generators.cache_clear()
    ideals.g34_generators.cache_clear()
    for argv in (("verify", "tfae-qs", "--trials", "1"),
                 ("verify", "decomp-grid34", "--trials", "1"),
                 ("gens", "qs"), ("gens", "grid34"), ("table1",)):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "planelift", "table1"],
                          capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "17/17 rewriting identities hold"


def test_gens_survives_broken_pipe():
    # head closes the pipe after one line; no traceback, clean exit
    for args, first in (("gens grid34", "# I_G34: 44 generators"),
                        ("gens radical:qs --minor-size 3",
                         "# J_radical: 1831 generators")):
        script = ("%s -m planelift %s | head -n 1; exit ${PIPESTATUS[0]}"
                  % (sys.executable, args))
        proc = subprocess.run(["bash", "-c", script],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, args
        assert proc.stdout == first + "\n"
        assert proc.stderr == "", args


def test_broken_pipe_exits_0_in_process(monkeypatch):
    # A pipe whose reader is gone: the first flush of the 455 kB grid34
    # text fails with EPIPE, and main points the descriptor at devnull.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["gens", "grid34"]) == 0


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_left_out_options_take_their_defaults():
    xs = ["0", "1", "2", "3", "4", "5"]
    for with_opts, without, expected in (
            (["check", "qs", "--deterministic"], ["check", "qs"],
             {"deterministic": False}),
            (["gens", "radical:qs", "--minor-size", "2"],
             ["gens", "radical:qs"], {"minor_size": None}),
            (["qs-lift"] + xs + ["--seed", "9"],
             ["qs-lift"] + xs, {"seed": 0})):
        first = build_parser().parse_args(with_opts)
        second = build_parser().parse_args(without)
        assert second is not first
        assert {k: getattr(second, k) for k in expected} == expected
        assert vars(second) == \
            vars(build_parser.__wrapped__().parse_args(without))


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    return capsys.readouterr().err


def test_usage_error_leaves_no_trace(capsys, monkeypatch):
    valid = ["gens", "radical:qs", "--minor-size", "2"]
    bad = (["check", "qs", "--seed", "two"],
           ["gens", "qs", "--minor-size", "3"])
    shared = [(_usage_error(capsys, argv), run_cli(capsys, *valid))
              for argv in bad]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    alone = run_cli(capsys, *valid)
    assert alone[0] == 0 and alone[2] == ""
    assert shared == [(_usage_error(capsys, argv), alone) for argv in bad]


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_help_is_unchanged_by_sharing(capsys, monkeypatch):
    argvs = [["--help"]] + [[name, "--help"] for name in (
        "check", "lift", "qs-check", "qs-lift", "grid-check", "grid-lift",
        "gens", "verify", "table1")]
    first = [_help(capsys, argv) for argv in argvs]
    assert [_help(capsys, argv) for argv in argvs] == first
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert [_help(capsys, argv) for argv in argvs] == first
