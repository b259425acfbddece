"""The package's result records: their reprs, value semantics and
immutability, which callers and printed output rely on."""

import pytest

from planelift.config import (Config, Realisation, analyze, circuits,
                              membership, qs_config, validate)
from planelift.ideals import (REWRITE_ROWS, GenEntry, GeneratorSet,
                              table1_verify)
from planelift.lifting import (LiftResult, build_collin, is_liftable_generic,
                               is_quasi_liftable, lift_space, project)
from planelift.poly import Poly
from planelift.probes import ProbeReport

TWO_LINES = Config(5, ((1, 2, 3), (3, 4, 5)))
SEGMENT = Realisation.from_columns([(1, 1, 5), (2, 1, 7)])
COLLINEAR = Realisation.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def _gens():
    return GeneratorSet("J", 1, (GenEntry(Poly.constant(2), "two"),))


# (record factory, one of its fields, the record's exact repr).
CASES = [
    (qs_config, "n",
     "Config(n=6, lines=((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)))"),
    (lambda: validate(Config(3, ((1, 2), (1, 2))))[0], "kind",
     "Violation(kind='duplicate line', points=(), lines=(1, 2))"),
    (lambda: circuits(Config(4, ((1, 2, 3),))), "circuits3",
     "Rank3Matroid(n=4, circuits3=frozenset({(1, 2, 3)}))"),
    (lambda: membership(COLLINEAR, circuits(Config(3, ()))), "realises",
     "MembershipReport(in_circuit_variety=True, in_v0=True, realises=False,"
     " violated_circuit=None, violated_independence=(1, 2, 3))"),
    (lambda: analyze(qs_config()), "omega",
     "ConfigAnalysis(omega=1, is_forest=False)"),
    (lambda: lift_space(build_collin(Config(3, ((1, 2, 3),)), [0, 1, 2])),
     "dimension",
     "LiftSpace(basis=((Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)), "
     "(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1))), dimension=2)"),
    (lambda: LiftResult("no-nontrivial-lift"), "kind",
     "LiftResult(kind='no-nontrivial-lift', realisation=None)"),
    (lambda: project(SEGMENT), "distinct",
     "ProjectionResult(abscissas=(Fraction(1, 1), Fraction(2, 1)), "
     "chart=ChartMap(basis=((1, 0, Fraction(0, 1)), "
     "(0, 1, Fraction(0, 1)))), distinct=True)"),
    (lambda: project(SEGMENT).chart, "basis",
     "ChartMap(basis=((1, 0, Fraction(0, 1)), (0, 1, Fraction(0, 1))))"),
    (lambda: is_liftable_generic(TWO_LINES), "verdict",
     "LiftabilityVerdict(verdict='liftable', witness_rank=2, threshold=2, "
     "omega=1, trials=1, components=(ComponentVerdict(points=(1, 2, 3, 4, "
     "5), verdict='liftable', witness_rank=2, threshold=2, "
     "is_forest=True),))"),
    (lambda: is_liftable_generic(TWO_LINES).components[0], "threshold",
     "ComponentVerdict(points=(1, 2, 3, 4, 5), verdict='liftable', "
     "witness_rank=2, threshold=2, is_forest=True)"),
    (lambda: is_quasi_liftable(Config(4, ((1, 2, 3),))), "is_quasi",
     "QuasiLiftability(is_quasi=False, base=LiftabilityVerdict("
     "verdict='liftable', witness_rank=1, threshold=0, omega=2, trials=1, "
     "components=(ComponentVerdict(points=(1, 2, 3), verdict='liftable', "
     "witness_rank=1, threshold=0, is_forest=True),)), deletions=((1, "
     "LiftabilityVerdict(verdict='liftable', witness_rank=0, threshold=0, "
     "omega=1, trials=0, components=())),))"),
    (_gens, "entries",
     "GeneratorSet(ideal_name='J', npoints=1, "
     "entries=(GenEntry(poly=Poly(2), label='two'),))"),
    (lambda: _gens().entries[0], "label",
     "GenEntry(poly=Poly(2), label='two')"),
    (lambda: REWRITE_ROWS[0], "coeffs",
     "RewriteRow(excluded=(1, 2, 1), generator=(1, 1, 2), "
     "coeffs=(Poly(-z_4*z_5*y_6 + z_4*y_5*z_6), "
     "Poly(z_2*y_3*z_4 - y_2*z_3*z_4), Poly(-z_1*z_3*y_5 + y_1*z_3*z_5), "
     "Poly(-z_1*z_2*y_6 + y_1*z_2*z_6)))"),
    (lambda: table1_verify()[1][0], "ok",
     "RowCheck(excluded=(1, 2, 1), generator=(1, 1, 2), ok=True)"),
]


@pytest.mark.parametrize("make, field, text", CASES,
                         ids=[text.split("(")[0] for _, _, text in CASES])
def test_record_repr_value_semantics_and_immutability(make, field, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.note = "extra"
    assert repr(a) == text


def test_probe_report_to_dict():
    rep = ProbeReport("demo", 3)
    rep.check(True, "fine")
    rep.check(False, "broken", "detail")
    rep.check(False, "bare")
    rep.bump("z")
    rep.bump("a", 4)
    d = rep.to_dict()
    assert d == {"suite": "demo", "trials": 3, "passed": 1, "failed": 2,
                 "counts": {"a": 4, "z": 1},
                 "witnesses": ["broken: detail", "bare"]}
    assert list(d) == ["suite", "trials", "passed", "failed", "counts",
                       "witnesses"]
    assert list(d["counts"]) == ["a", "z"]
    # The report's own containers are not handed out.
    d["counts"]["a"] = 0
    d["witnesses"].clear()
    assert rep.to_dict()["counts"]["a"] == 4
    assert rep.witnesses == ["broken: detail", "bare"]


def test_collin_matrix_builds_numeric_once():
    c = Config(3, ((1, 2, 3),))
    cm = build_collin(c, [0, 1, 2])
    assert cm.config is c and cm.abscissas == (0, 1, 2)
    assert cm.numeric is cm.numeric
    assert cm.numeric.to_lists() == [[-1, 2, -1]]
