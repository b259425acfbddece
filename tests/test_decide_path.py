"""The decide path asks each question once: the liftability check stops
at its rank bound, and each lift candidate is judged only by
classify_lift.  Every answer is compared with the reference loops of
tests/helpers.py, which take the ranks of the verdict from
symbolic_collin_rank and test the trivial plane with a rank."""

import random
from types import SimpleNamespace

import pytest

from planelift import lifting
from planelift.config import (Config, bundled_config, bundled_names,
                              components, validate)
from planelift.lifting import (build_collin, is_liftable_generic, lift,
                               lift_space, project, random_distinct_abscissas)
from planelift.probes import sample_grid, sample_quadset

from helpers import (DENSE_CONFIGS, random_linear_config, rank_check_lift,
                     reference_is_liftable_generic, structural_bound)

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


def test_random_configs_are_linear_and_reach_every_case(symbolic_calls):
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
        v = reference_is_liftable_generic(c)
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


def test_deterministic_check_matches_the_reference(symbolic_calls):
    # The package never hands a component to the symbolic rank, and its
    # certified ranks are the ones the reference takes from it.
    for i, c in enumerate(CONFIGS):
        for seed in (0, 5, 7, 1000 + i, 3000 + i):
            got = is_liftable_generic(c, seed)
            assert symbolic_calls == [], (c, seed)
            assert got == reference_is_liftable_generic(c, seed), (c, seed)
            del symbolic_calls[:]


def _outcome(decide, c, seed):
    try:
        return decide(c, seed)
    except RuntimeError:
        return RuntimeError


@pytest.mark.parametrize("budget", (1, 3, 8))
def test_check_matches_the_full_trial_loop(budget, symbolic_calls,
                                           monkeypatch):
    # The first two nonzero component ranks of each decision fall one
    # short, so the loop runs past trial 0: a configuration needs three
    # trials when one component has nonzero rank and two otherwise.
    # Within the budget the package and the reference loop agree on the
    # verdict and the trials drawn; beyond it both raise.
    monkeypatch.setattr(lifting, "GENERIC_RANK_BUDGET", budget)
    calls = []
    original = lifting.rank

    def short_first(m):
        calls.append(m)
        r = original(m)
        return r - 1 if r and len(calls) <= 2 else r
    monkeypatch.setattr(lifting, "rank", short_first)
    raised = 0
    drawn = set()
    for i, c in enumerate(CONFIGS):
        for seed in (0, 5, 1000 + i):
            del calls[:]
            got = _outcome(is_liftable_generic, c, seed)
            del calls[:]
            want = _outcome(reference_is_liftable_generic, c, seed)
            assert got == want, (c, budget, seed)
            if got is RuntimeError:
                raised += 1
            elif got.trials:
                drawn.add(got.trials)
    assert (raised > 0) == (budget == 1)
    assert drawn == ({2, 3} if budget > 1 else set())


def test_check_stops_at_the_rank_bound(rank_calls):
    # The 3x4 grid meets its bound 10 at trial 0, and so does the Fano
    # plane plus (1, 8), whose generic rank 5 is the incidence count
    # but falls short of min(n - 2, sum |L| - 2) = 6.
    v = is_liftable_generic(GRID34)
    assert len(rank_calls) == 1
    assert v.witness_rank == 10 and v.trials == 1
    del rank_calls[:]
    v = is_liftable_generic(FANO_PLUS)
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
    v = is_liftable_generic(GRID34)
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
    kinds = {rank_check_lift(c, xs).kind for c, xs in LIFT_CASES}
    assert kinds == {"no-nontrivial-lift", "realising", "degenerate"}
    assert sum(lift_space(build_collin(c, xs)).dimension >= 3
               for c, xs in LIFT_CASES) >= 20


def test_lift_matches_the_rank_check_loop(monkeypatch):
    # Small budgets too, so that some searches end without a realising
    # candidate.
    for attempts, seed in ((1, 0), (4, 3), (32, 0)):
        monkeypatch.setattr(lifting, "LIFT_ATTEMPTS", attempts)
        for c, xs in LIFT_CASES:
            assert (lift(c, xs, seed)
                    == rank_check_lift(c, xs, seed)), (c, xs, attempts)


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
        res = lift(c, xs)
        assert res == rank_check_lift(c, xs)
        assert res.kind in ("realising", "degenerate")
        heights = tuple(col[2] for col in res.realisation.columns())
        assert heights == space.basis[0]
        checked += 1
    assert checked >= 20
