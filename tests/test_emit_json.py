"""The 'json' format of emit, byte for byte against the json module.

emit writes the JSON text itself; json_emit_oracle builds the document
as dicts and lists and encodes it with json.dumps(sort_keys=True,
indent=2).  Every case requires the two texts to be equal.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import json_emit_oracle
from planelift.config import bundled_config, bundled_names
from planelift.ideals import (GenEntry, GeneratorSet, emit, g34_generators,
                              qs_generators, radical_ideal_generators)
from planelift.poly import Poly, multidegree, var_id


def _checked(g):
    text = emit(g, "json")
    assert text == json_emit_oracle(g)
    return text


def test_paper_generator_sets():
    _checked(qs_generators())
    _checked(g34_generators())


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", bundled_names())
def test_radical_generator_sets(name, k):
    _checked(radical_ideal_generators(bundled_config(name), k))


def test_empty_generator_list():
    text = _checked(GeneratorSet("J_empty", 3, ()))
    assert '\n  "generators": [],\n' in text
    assert json.loads(text)["generators"] == []


def test_constant_and_zero_polynomials():
    p = Poly.monomial(Fraction(-3, 2), [(var_id("x", 1), 2)]) + 1
    g = GeneratorSet("J", 2, (GenEntry(p, "p"),
                              GenEntry(Poly.constant(Fraction(-7, 3)), "c"),
                              GenEntry(Poly.constant(7), "seven"),
                              GenEntry(Poly.zero(), "zero")))
    gens = json.loads(_checked(g))["generators"]
    assert gens[0]["terms"] == [{"coeff": "-3/2", "exps": {"x_1": 2}},
                                {"coeff": "1", "exps": {}}]
    assert gens[1]["terms"] == [{"coeff": "-7/3", "exps": {}}]
    assert gens[2]["terms"] == [{"coeff": "7", "exps": {}}]
    assert gens[3]["terms"] == []
    # No points: the point multidegree is an empty list.
    text = _checked(GeneratorSet("J", 0, (GenEntry(Poly.constant(1),
                                                   "one"),)))
    assert json.loads(text)["generators"][0]["multidegree"]["point"] == []


def test_none_multidegree():
    p = Poly.variable(var_id("x", 1)) + 1
    assert multidegree(p, 1) is None
    text = _checked(GeneratorSet("J", 1, (GenEntry(p, "p"),)))
    assert '"multidegree": null,' in text
    assert json.loads(text)["generators"][0]["multidegree"] is None


def test_labels_and_names_are_escaped():
    p = Poly.variable(var_id("z", 2))
    labels = ['quote"d', "back\\slash", "tab\tnew\nline", "naïve ∑",
              "\U0001d53d_2", "\x00\x1f\x7f"]
    g = GeneratorSet('I_"ß"\\', 2, tuple(GenEntry(p, label)
                                          for label in labels))
    text = _checked(g)
    assert text.isascii()
    doc = json.loads(text)
    assert doc["ideal"] == 'I_"ß"\\'
    assert [e["label"] for e in doc["generators"]] == labels


def test_exponent_keys_in_string_order():
    p = Poly.monomial(1, [(var_id("x", 2), 1), (var_id("x", 10), 3),
                          (var_id("y", 1), 2)])
    text = _checked(GeneratorSet("J", 10, (GenEntry(p, "p"),)))
    assert text.index('"x_10": 3') < text.index('"x_2": 1') \
        < text.index('"y_1": 2')


def test_high_exponents_in_json():
    # The low byte of x_1^257's field reads 1, so the all-ones path must
    # not take it (tests/test_poly.py renders the same terms as text).
    x1, y1, z1, x2, y2 = (var_id(c, i) for c, i in
                          (("x", 1), ("y", 1), ("z", 1), ("x", 2), ("y", 2)))
    p = (Poly.monomial(-2, [(x1, 257), (y2, 1)])
         + Poly.monomial(1, [(z1, 256)])
         + Poly.variable(x2) * Poly.variable(y1))
    text = _checked(GeneratorSet("J", 2, (GenEntry(p, "p"),)))
    gen = json.loads(text)["generators"][0]
    assert gen["degree"] == 258 and gen["multidegree"] is None
    assert gen["terms"] == [{"coeff": "-2", "exps": {"x_1": 257, "y_2": 1}},
                            {"coeff": "1", "exps": {"z_1": 256}},
                            {"coeff": "1", "exps": {"x_2": 1, "y_1": 1}}]


_COEFFS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                    st.integers(1, 10 ** 6))


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(12, 15))
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        p = Poly.zero()
        for _ in range(draw(st.integers(0, 6))):
            exps = draw(st.dictionaries(st.integers(0, 3 * n - 1),
                                        st.integers(1, 4), max_size=6))
            p = p + Poly.monomial(draw(_COEFFS), exps.items())
        entries.append(GenEntry(p, draw(st.text(max_size=8))))
    return GeneratorSet(draw(st.text(max_size=8)), n, tuple(entries))


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_random_generator_sets(g):
    _checked(g)
