import hashlib
import json
import random

import pytest

from helpers import reference_sample_collinear
from planelift import ideals, probes
from planelift.config import (Config, MembershipReport, Realisation,
                              bundled_config, circuits, config_of_realisation,
                              grid_config, membership, qs_config)
from planelift.lifting import (ABSCISSA_RANGE, classify_lift,
                               random_distinct_abscissas)
from planelift.probes import (ProbeReport, SampleError, probe_decomposition,
                              probe_tfae_grid, probe_tfae_qs, run_probe,
                              sample_collinear, sample_forest, sample_grid,
                              sample_quadset)


class ConstantRandom(random.Random):
    """Degenerate generator: every randint call returns the same value,
    so every geometric draw collapses and rejection sampling must give
    up."""

    def randint(self, a, b):
        return b


class ScriptedRandom(random.Random):
    """Random(0) whose first randint calls return the values of script
    instead of drawing."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def randint(self, a, b):
        if self.script:
            return self.script.pop(0)
        return super().randint(a, b)


def test_sample_is_deterministic():
    forest = bundled_config("forest_path10")
    for make in (sample_quadset,
                 lambda rng: sample_grid(rng, 3, 3),
                 lambda rng: sample_collinear(rng, 7),
                 lambda rng: sample_forest(rng, forest)):
        assert make(random.Random(5)) == make(random.Random(5))
    assert sample_quadset(random.Random(1)) != \
        sample_quadset(random.Random(2))


def test_sample_quadset_matches_config():
    r = sample_quadset(random.Random(3))
    assert r.n == 6
    found = config_of_realisation(r)
    assert set(found.lines) == set(qs_config().lines)
    rep = membership(r, circuits(qs_config()))
    assert rep.realises
    assert rep.in_circuit_variety
    assert not rep.in_v0
    assert rep.violated_circuit is None
    assert rep.violated_independence is None


def test_sample_grid_matches_config():
    r = sample_grid(random.Random(3))
    assert r.n == 12
    found = config_of_realisation(r)
    assert set(found.lines) == set(grid_config(3, 4).lines)
    r = sample_grid(random.Random(4), 3, 3)
    found = config_of_realisation(r)
    assert set(found.lines) == set(grid_config(3, 3).lines)


def test_sample_collinear_lands_in_v0():
    r = sample_collinear(random.Random(9), 6)
    rep = membership(r, circuits(qs_config()))
    assert rep.in_v0
    assert rep.in_circuit_variety
    assert not rep.realises
    assert rep.violated_independence == (1, 2, 4)


def test_sample_collinear_matches_the_reference_draw():
    """sample_collinear sorts the draw of _line_points, which, like the
    reference, skips a duplicate parameter and draws one more, so both
    use the same draws, leave the generator in the same state and give
    the same points."""
    for seed in range(300):
        n = 3 + seed % 10
        ours, theirs = random.Random(seed), random.Random(seed)
        got = sample_collinear(ours, n)
        want = reference_sample_collinear(theirs, n)
        assert ours.getstate() == theirs.getstate(), seed
        assert got == want, seed


def test_distinct_abscissas_skip_a_repeated_draw():
    # The repeated 5 is skipped and one more value drawn, in draw order.
    rng = ScriptedRandom([5, -7, 5, 9, 11])
    assert random_distinct_abscissas(3, rng) == [5, -7, 9]
    assert rng.script == [11]


class CountingRandom:
    """Returns 0, 1, 2, ... from randint, recording the bounds asked."""

    def __init__(self):
        self.bounds = set()
        self.drawn = 0

    def randint(self, a, b):
        self.bounds.add((a, b))
        self.drawn += 1
        return self.drawn - 1


def test_distinct_abscissas_range_admits_n_values():
    # Below the range the draw is unchanged; above it, the range grows
    # with n, or the loop could never find n distinct values.
    for n, bound in ((5, ABSCISSA_RANGE), (ABSCISSA_RANGE, ABSCISSA_RANGE),
                     (2 * ABSCISSA_RANGE + 2, 2 * ABSCISSA_RANGE + 2)):
        rng = CountingRandom()
        assert random_distinct_abscissas(n, rng) == list(range(n))
        assert rng.bounds == {(-bound, bound)}
        assert 2 * bound + 1 >= n


def test_sample_forest_realises():
    c = bundled_config("forest_path10")
    r = sample_forest(random.Random(2), c)
    assert classify_lift(c, r) == "realising"


def test_samplers_give_up_on_degenerate_randomness():
    with pytest.raises(SampleError):
        sample_quadset(ConstantRandom())
    with pytest.raises(SampleError):
        sample_grid(ConstantRandom())
    with pytest.raises(SampleError):
        sample_collinear(ConstantRandom(), 4)


def test_samplers_redraw_degenerate_draws():
    # Each scripted draw is rejected and the next one is Random(0)'s
    # first: both apexes of a grid zero, both direction vectors of a
    # line zero, and a projection centre (0, 1, 0) on the target line
    # x = 0.  A script RETRY_BUDGET draws long exhausts the budget.
    budget = probes.RETRY_BUDGET
    zero_apexes = [0] * 6
    assert (sample_grid(ScriptedRandom(zero_apexes))
            == sample_grid(random.Random(0)))
    with pytest.raises(SampleError):
        sample_grid(ScriptedRandom(zero_apexes * budget))
    zero_line = [0] * 6
    assert (probes._line_points(ScriptedRandom(zero_line), 6)
            == probes._line_points(random.Random(0), 6))
    with pytest.raises(SampleError):
        probes._line_points(ScriptedRandom(zero_line * budget), 6)
    r = sample_quadset(random.Random(3))
    centre_on_line = [1, 0, 0, 0, 1, 0]
    assert (probes._project_generic(r, ScriptedRandom(centre_on_line))
            == probes._project_generic(r, random.Random(0)))
    with pytest.raises(SampleError):
        probes._project_generic(r, ScriptedRandom(centre_on_line * budget))


def test_membership_detects_swapped_points():
    r = sample_quadset(random.Random(7))
    cols = r.columns()
    cols[0], cols[3] = cols[3], cols[0]
    swapped = Realisation.from_columns(cols)
    rep = membership(swapped, circuits(qs_config()))
    assert not rep.in_circuit_variety
    assert not rep.realises
    assert rep.violated_circuit == (1, 2, 3)


def test_membership_size_mismatch():
    r = sample_collinear(random.Random(1), 5)
    with pytest.raises(ValueError):
        membership(r, circuits(qs_config()))


def test_membership_report_implications():
    # spot check the logical shape on a batch of assorted samples
    m = circuits(qs_config())
    for seed in range(6):
        for make in (sample_quadset, lambda rng: sample_collinear(rng, 6)):
            r = make(random.Random(seed))
            rep = membership(r, m)
            if rep.realises:
                assert rep.in_circuit_variety
            if rep.in_v0:
                assert rep.in_circuit_variety
    # in_v0 means every triple is dependent, circuits included
    triangle = Realisation.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rep = membership(triangle, circuits(Config(3, ((1, 2, 3),))))
    assert not rep.in_v0 and not rep.in_circuit_variety


def test_probe_report_bookkeeping():
    rep = ProbeReport("demo", 2)
    assert rep.check(True, "fine")
    assert not rep.check(False, "broken", "detail")
    rep.bump("hits")
    rep.bump("hits", 2)
    assert rep.passed == 1 and rep.failed == 1
    assert rep.counts == {"hits": 3}
    assert rep.witnesses == ["broken: detail"]
    d = rep.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["suite"] == "demo"
    for _ in range(30):
        rep.check(False, "again")
    assert len(rep.witnesses) == 20


def _digest(rep):
    """sha256 of a probe report's sorted JSON: a pinned digest catches
    any change to its counts, checks or witnesses."""
    text = json.dumps(rep.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_probe_tfae_qs_small():
    rep = probe_tfae_qs(3, 0)
    assert rep.failed == 0
    assert rep.passed == 9
    assert rep.counts == {"qs-values-checked": 324,
                          "negative-rank-4": 3,
                          "negative-nonzero-witness": 3,
                          "negative-trials": 3}
    assert _digest(probe_tfae_qs(3, 7)) == (
        "5400b597829ee7c92b73e9cdf660ebd919b0ccda978c0a5aa99ba66ff7415634")


def test_probe_tfae_grid_small():
    rep = probe_tfae_grid(1, 0, minors_on_first_trial=False)
    assert rep.failed == 0
    assert rep.passed == 3
    assert rep.counts == {"grid-values-checked": 212,
                          "negative-rank-10": 1,
                          "negative-nonzero-witness": 1,
                          "negative-trials": 1}
    assert "ten-minors-enumerated" not in rep.counts
    for s in (0, 1):
        rep = probe_tfae_grid(2, s, minors_on_first_trial=False)
        assert _digest(rep) == ("b31bacd8c19c26a34d2c582a732f089750a421928"
                                "cd7113688fbf1619abaf953")


def test_probe_decomposition_small():
    rep = probe_decomposition("qs", 2, 0)
    assert rep.failed == 0
    assert rep.passed == 12
    assert rep.counts["realisation-samples"] == 2
    assert rep.counts["scaled-lift-samples"] == 2
    assert rep.counts["nonmember-nonzero-witness"] == 2
    with pytest.raises(ValueError):
        probe_decomposition("fano", 1, 0)


def test_probe_decomposition_grid_small():
    rep = probe_decomposition("grid34", 1, 0)
    assert rep.failed == 0
    assert rep.counts["nonmember-nonzero-witness"] == 1


def test_probe_reports_are_pinned():
    # Each suite's whole report, its counts, checks and witnesses, at
    # trial counts and seeds beyond the small tests above.
    pinned = (
        (lambda: probe_tfae_qs(8, 11),
         "b4930743b1dbd98a3f44b21f12e98acac3164d11babd1550b414598d76ffa452"),
        (lambda: probe_tfae_grid(2, 11, minors_on_first_trial=False),
         "b31bacd8c19c26a34d2c582a732f089750a421928cd7113688fbf1619abaf953"),
        (lambda: probe_decomposition("grid34", 2, 3),
         "64b835eb4250a9ef6f3937e98e927726162db259f4326968bbea349839b86883"),
    )
    for run, digest in pinned:
        assert _digest(run()) == digest


@pytest.mark.parametrize("matroid,attr,least", [
    ("qs", "qs_value", 10), ("grid34", "g34_value", 28)])
def test_decomposition_values_go_through_the_checked_evaluator(
        monkeypatch, matroid, attr, least):
    # Each QS or grid generator the probe evaluates goes through
    # ideals.qs_value or ideals.g34_value, looked up when it is called:
    # a wrapper put on the module attribute sees every such call.
    calls = []
    evaluate = getattr(ideals, attr)

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(ideals, attr, counting)
    assert probe_decomposition(matroid, 1, 0).failed == 0
    assert len(calls) >= least


class RecordingRandom(random.Random):
    """Continues from another generator's state and feeds every randint
    call, its bounds and its value into a shared sha256, so a reordered,
    added or dropped draw changes the digest."""

    def __init__(self, rng, sink):
        super().__init__()
        self.setstate(rng.getstate())
        self._sink = sink

    def randint(self, a, b):
        v = super().randint(a, b)
        self._sink.update(b"%d %d %d\n" % (a, b, v))
        return v


def test_probe_rng_draw_sequence_is_pinned(monkeypatch):
    # The tfae reports hold counts only, so their digests cannot see the
    # order of the draws; this hashes the draws themselves.
    sink = hashlib.sha256()
    seeded = probes._trial_rng

    def trial_rng(seed, t):
        sink.update(b"trial %d %d\n" % (seed, t))
        return RecordingRandom(seeded(seed, t), sink)

    monkeypatch.setattr(probes, "_trial_rng", trial_rng)
    probe_tfae_qs(3, 7)
    probe_tfae_grid(2, 0, minors_on_first_trial=False)
    probe_decomposition("qs", 2, 0)
    probe_decomposition("grid34", 1, 0)
    assert sink.hexdigest() == (
        "6458329cf50c1a91a9f98629532a92a6080119d54261efab1e3013364200f43a")


def test_run_probe_dispatch():
    rep = run_probe("tfae-qs", 1, 0)
    assert rep.suite == "tfae-qs"
    assert rep.failed == 0
    rep = run_probe("decomp-qs", 1, 0)
    assert rep.suite == "decomp-qs"
    assert rep.failed == 0
    with pytest.raises(ValueError):
        run_probe("tfae-heptad", 1, 0)
    for trials in (0, -3):
        with pytest.raises(ValueError):
            run_probe("tfae-qs", trials, 0)


def test_membership_report_is_plain_data():
    rep = MembershipReport(True, False, True)
    assert rep.violated_circuit is None
    assert rep.violated_independence is None
