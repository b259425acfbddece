"""The incidence count that certifies every generic rank.

generic_rank_bound is compared with a brute-force oracle over vertex
sets, with sampled ranks, and with symbolic_collin_rank.  Most cases
are configurations whose generic rank falls short of
min(n - 2, sum |L| - 2), the structural bound the count replaced."""

import random

import pytest

from planelift import lifting
from planelift.config import Config, bundled_config, bundled_names, \
    grid_config
from planelift.lifting import (GENERIC_RANK_BUDGET, build_collin,
                               generic_rank_bound, is_liftable_generic,
                               random_distinct_abscissas,
                               symbolic_collin_rank)

from helpers import (DENSE_CONFIGS, random_linear_config, structural_bound,
                     subset_count_bound)

FANO, PAPPUS = DENSE_CONFIGS[:2]
BUNDLED = [bundled_config(name) for name in bundled_names()]

# Over-constrained blocks with pendant lines, and their generic ranks.
GAP_CASES = (
    (Config(8, FANO.lines + ((1, 8),)), 5),
    (Config(9, FANO.lines[:6] + ((1, 8), (2, 9))), 5),
    (Config(10, FANO.lines + ((1, 8, 9, 10),)), 7),
    (Config(12, FANO.lines + ((1, 8, 9), (9, 10, 11, 12))), 8),
    (Config(12, FANO.lines + ((1, 8), (8, 9, 10, 11, 12))), 8),
    (Config(12, PAPPUS.lines + ((1, 10, 11, 12),)), 9),
)
GRIDS = [grid_config(4, 4), grid_config(3, 5), grid_config(4, 5)]


def _sampled_rank(c):
    """The larger rank of the collinearity matrix of c at two seeded
    tuples."""
    rng = random.Random(c.n)
    return max(lifting.rank(build_collin(
        c, random_distinct_abscissas(c.n, rng)).numeric)
        for _ in range(2))


def test_count_matches_the_subset_oracle():
    rng = random.Random(8)
    small = [random_linear_config(rng, max_points=8) for _ in range(30)]
    # Up to 23 incidences: the 3x4 grid's 24 take the oracle too long.
    cases = ([c for c in BUNDLED if c.n <= 10] + [Config(4)]
             + [c for c, _ in GAP_CASES[:2]] + small)
    gaps = 0
    for c in cases:
        count = generic_rank_bound(c)
        assert count == subset_count_bound(c), c
        gaps += count < structural_bound(c)
    assert gaps >= 8


def test_count_is_the_sampled_rank():
    for c in BUNDLED + GRIDS + list(DENSE_CONFIGS):
        assert generic_rank_bound(c) == _sampled_rank(c), c
    for c, generic in GAP_CASES:
        assert generic_rank_bound(c) == _sampled_rank(c) == generic, c
        assert generic < structural_bound(c)
    # Random configurations, many of several components: the count is
    # additive over them, as is the rank.
    rng = random.Random(600)
    gaps = 0
    for _ in range(600):
        c = random_linear_config(rng, max_points=14)
        count = generic_rank_bound(c)
        assert count == _sampled_rank(c), c
        gaps += count < structural_bound(c)
    assert gaps >= 100


def test_count_matches_the_symbolic_rank():
    for c, generic in GAP_CASES[:2]:
        assert symbolic_collin_rank(c) == generic_rank_bound(c) == generic


def test_deterministic_check_certifies_the_count(monkeypatch):
    # One tuple certifies each of these ranks; the symbolic rank is
    # never asked for, and there is no limit on the size.
    calls = []
    monkeypatch.setattr(lifting, "symbolic_collin_rank", calls.append)
    for c, generic in GAP_CASES:
        v = is_liftable_generic(c)
        assert (v.witness_rank, v.trials) == (generic, 1), c
    for c in GRIDS:
        v = is_liftable_generic(c)
        assert v.witness_rank == c.n - 2 and v.verdict == "not-liftable"
    assert calls == []


def test_deterministic_check_raises_below_the_count(monkeypatch):
    # A rank that under-reports never meets the count; the check gives
    # up after the budget instead of answering.
    calls = []
    original = lifting.rank

    def short(m):
        calls.append(m)
        return original(m) - 1
    monkeypatch.setattr(lifting, "rank", short)
    with pytest.raises(RuntimeError):
        is_liftable_generic(GAP_CASES[0][0])
    assert len(calls) == GENERIC_RANK_BUDGET
