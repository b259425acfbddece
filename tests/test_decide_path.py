"""The decide path asks each question once: the liftability check stops
at its rank bound, and each lift candidate is judged only by
classify_lift.  Every answer is compared with the reference loops of
tests/helpers.py, which draw every trial and test the trivial plane
with a rank."""

import random
from types import SimpleNamespace

import pytest

from planelift import lifting
from planelift.config import (Config, bundled_config, bundled_names,
                              components, validate)
from planelift.lifting import (build_collin, is_liftable_generic, lift,
                               lift_space, project, random_distinct_abscissas)
from planelift.probes import sample_grid, sample_quadset

from helpers import (DENSE_CONFIGS, full_trial_is_liftable_generic,
                     random_linear_config, rank_check_lift, structural_bound)

FANO = DENSE_CONFIGS[0]
FANO_PLUS = Config(8, FANO.lines + ((1, 8),))
GRID34 = bundled_config("grid3x4")

_RNG = random.Random(2024)
RANDOM_CONFIGS = [random_linear_config(_RNG) for _ in range(100)]
CONFIGS = ([bundled_config(name) for name in bundled_names()]
           + [FANO_PLUS] + RANDOM_CONFIGS)


@pytest.fixture
def symbolic_calls(monkeypatch):
    """Stands in for symbolic_collin_rank, which takes seconds to
    minutes on some of these configurations, with the largest rank at
    four fixed tuples; records every configuration it is handed."""
    calls = []

    def sampled(c):
        calls.append(c)
        rng = random.Random(99)
        return max(lifting.rank(build_collin(
            c, random_distinct_abscissas(c.n, rng)).numeric)
            for _ in range(4))
    monkeypatch.setattr(lifting, "symbolic_collin_rank", sampled)
    return calls


@pytest.fixture
def rank_calls(monkeypatch):
    calls = []
    original = lifting.rank

    def counted(m):
        calls.append(m)
        return original(m)
    monkeypatch.setattr(lifting, "rank", counted)
    return calls


def test_random_configs_are_linear_and_reach_every_case():
    # Every verdict, non-forest components found liftable on the rank
    # test alone, and several components occur, and many generic ranks
    # fall short of the structural bound: those are the cases the
    # incidence count certifies at the first trial.
    assert all(not validate(c) for c in CONFIGS)
    assert all(c.n <= 11 for c in RANDOM_CONFIGS)
    met = gap = 0
    verdicts = set()
    rank_only = False
    for c in CONFIGS:
        v = full_trial_is_liftable_generic(c, trials=3)
        verdicts.add(v.verdict)
        rank_only |= any(not cv.is_forest and cv.verdict == "liftable"
                         for cv in v.components)
        if v.witness_rank == structural_bound(c):
            met += 1
        else:
            gap += 1
    assert verdicts == {"liftable", "not-liftable"} and rank_only
    assert met >= 20 and gap >= 10
    assert sum(len(components(c)) > 1 for c in RANDOM_CONFIGS) >= 10


@pytest.mark.parametrize("trials", (1, 3, 8))
def test_check_matches_the_full_trial_loop(trials):
    for i, c in enumerate(CONFIGS):
        for seed in (0, 5, 1000 + i):
            got = is_liftable_generic(c, trials, seed)
            want = full_trial_is_liftable_generic(c, trials, seed)
            assert got == want, (c, trials, seed)


def test_deterministic_check_matches_the_reference(symbolic_calls):
    # The package never hands a component to the symbolic rank, and its
    # certified ranks are the ones the reference takes from it.
    for i, c in enumerate(CONFIGS):
        for seed in (0, 7, 3000 + i):
            got = is_liftable_generic(c, seed=seed, deterministic=True)
            assert symbolic_calls == [], (c, seed)
            want = full_trial_is_liftable_generic(c, seed=seed,
                                                  deterministic=True)
            assert got == want, (c, seed)
            del symbolic_calls[:]


def test_check_stops_at_the_rank_bound(rank_calls):
    # The 3x4 grid meets its bound 10 at trial 0, and so does the Fano
    # plane plus (1, 8), whose generic rank 5 is the incidence count
    # but falls short of min(n - 2, sum |L| - 2) = 6.
    v = is_liftable_generic(GRID34)
    assert len(rank_calls) == 1
    assert v.witness_rank == 10 and v.trials == 1
    for trials in (1, 3, 8):
        del rank_calls[:]
        v = is_liftable_generic(FANO_PLUS, trials=trials)
        assert len(rank_calls) == 1
        assert v.witness_rank == 5 and v.trials == 1


def test_check_goes_on_below_the_bound(monkeypatch):
    # A trial 0 that falls short of the bound does not stop the loop.
    calls = []
    original = lifting.rank

    def short_first(m):
        calls.append(m)
        r = original(m)
        return r - 1 if len(calls) == 1 else r
    monkeypatch.setattr(lifting, "rank", short_first)
    v = is_liftable_generic(GRID34, trials=4)
    assert len(calls) == 2
    assert v.witness_rank == 10 and v.verdict == "not-liftable"
    assert v.trials == 2


def _lift_cases():
    """(config, abscissas): random ones, and special tuples whose lift
    space exceeds the trivial plane."""
    rng = random.Random(77)
    cases = [(c, random_distinct_abscissas(c.n, rng)) for c in CONFIGS]
    for seed in range(4):
        r = random.Random(seed)
        cases.append((bundled_config("qs"),
                      list(project(sample_quadset(r)).abscissas)))
        grid = project(sample_grid(r, 3, 4))
        if grid.distinct:
            cases.append((GRID34, list(grid.abscissas)))
    return cases


LIFT_CASES = _lift_cases()


def test_lift_cases_reach_every_kind():
    kinds = {rank_check_lift(c, xs, attempts=4).kind for c, xs in LIFT_CASES}
    assert kinds == {"no-nontrivial-lift", "realising", "degenerate"}
    assert sum(lift_space(build_collin(c, xs)).dimension >= 3
               for c, xs in LIFT_CASES) >= 20


def test_lift_matches_the_rank_check_loop():
    for c, xs in LIFT_CASES:
        for attempts, seed in ((1, 0), (4, 3), (32, 0)):
            assert (lift(c, xs, attempts, seed)
                    == rank_check_lift(c, xs, attempts, seed)), (c, xs)


class _ZeroRandom(random.Random):
    """Every randint is 0, so every lift candidate is the zero height
    vector, which lies in the trivial plane."""

    def randint(self, a, b):
        return 0


def test_lift_falls_back_to_a_basis_vector(monkeypatch):
    # With every candidate trivial, lift returns the first kernel basis
    # vector, which is never trivial.
    monkeypatch.setattr(lifting, "random",
                        SimpleNamespace(Random=_ZeroRandom))
    checked = 0
    for c, xs in LIFT_CASES:
        space = lift_space(build_collin(c, xs))
        if space.dimension <= 2:
            continue
        res = lift(c, xs, attempts=3)
        assert res == rank_check_lift(c, xs, attempts=3)
        assert res.kind in ("realising", "degenerate")
        heights = tuple(col[2] for col in res.realisation.columns())
        assert heights == space.basis[0]
        checked += 1
    assert checked >= 20
