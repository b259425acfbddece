import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (BIG, assignment_from_columns, dense_grevlex_cmp,
                     dense_mul, dense_multidegree, dense_terms_sorted,
                     frac_evaluate, leibniz_det, pack_monomial, rand_fraction,
                     rand_poly)
from planelift.poly import (MultiDeg, Poly, _pack, bracket, expand_products,
                            frame_bracket, monomial_pairs, multidegree,
                            point_bracket, poly_to_plain, var_id, var_name,
                            var_point)

BRACKET_123_PLAIN = ("-z_1*y_2*x_3 + y_1*z_2*x_3 + z_1*x_2*y_3"
                     " - x_1*z_2*y_3 - y_1*x_2*z_3 + x_1*y_2*z_3")


def rand_assignment(rng, npoints):
    return {v: rand_fraction(rng, 9) for v in range(3 * npoints)}


def decoded(p):
    """The terms of p with each monomial as its (variable, exponent)
    pairs."""
    return {monomial_pairs(m): c for m, c in p.terms.items()}


def test_var_id_round_trip():
    seen = set()
    for point in range(1, 5):
        for letter in "xyz":
            v = var_id(letter, point)
            assert v not in seen
            seen.add(v)
            assert var_point(v) == point
            assert var_name(v) == "%s_%d" % (letter, point)
    assert seen == set(range(12))


def test_constructors():
    assert Poly.zero().is_zero()
    assert Poly.constant(0).is_zero()
    assert not Poly.zero() and Poly.constant(5)
    assert sum([Poly.constant(2), Poly.constant(3)]) == 5
    assert Poly.constant(5) == 5
    assert Poly.constant(5) - 2 == 3
    assert Poly.constant(5).__eq__("x") is NotImplemented
    assert Poly.constant(5) != "x"
    v = var_id("y", 2)
    p = Poly.variable(v)
    assert decoded(p) == {((v, 1),): Fraction(1)}
    assert p.terms == {pack_monomial([(v, 1)]): 1}
    assert Poly.constant(5).terms == {0: 5}
    # monomial sorts its pairs and drops zero exponents
    q = Poly.monomial(3, [(7, 2), (1, 0), (4, 1)])
    assert decoded(q) == {((4, 1), (7, 2)): Fraction(3)}
    assert q.terms == {pack_monomial([(4, 1), (7, 2)]): 3}
    assert q.total_degree() == 3


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(60):
        p = rand_poly(rng)
        q = rand_poly(rng)
        r = rand_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Poly.zero()
        assert p * 0 == Poly.zero()
        assert p * 1 == p
        assert 2 * p == p + p


def test_evaluate_is_a_homomorphism():
    rng = random.Random(9)
    for _ in range(60):
        p = rand_poly(rng)
        q = rand_poly(rng)
        a = rand_assignment(rng, 3)
        assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)
        assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
        assert (-p).evaluate(a) == -p.evaluate(a)


def test_evaluate_missing_variable():
    p = Poly.variable(var_id("z", 2))
    with pytest.raises(ValueError):
        p.evaluate({0: Fraction(1)})
    with pytest.raises(ValueError):
        (p * 3 + 1).evaluate({v: 1 for v in range(5)})


def test_evaluate_stays_in_the_ring_of_its_inputs():
    rng = random.Random(29)
    for _ in range(60):
        p = rand_poly(rng)
        ints = Poly({m: rng.randint(-BIG, BIG) for m in p.terms})
        a = {v: rng.randint(-BIG, BIG) for v in range(9)}
        value = ints.evaluate(a)
        assert type(value) is int
        assert value == frac_evaluate(ints, a)
        fa = rand_assignment(rng, 3)
        assert type(p.evaluate(fa)) is Fraction or p.is_zero()
        assert p.evaluate(fa) == frac_evaluate(p, fa)
        assert ints.evaluate(fa) == frac_evaluate(ints, fa)
    assert Poly.zero().evaluate({}) == 0


def test_canonical_sign():
    rng = random.Random(13)
    for _ in range(80):
        p = rand_poly(rng)
        c = p.canonical()
        assert c.canonical() == c
        assert (-p).canonical() == c
        if not p.is_zero():
            assert c == p or c == -p
            assert c.terms[c.least_monomial()] > 0
    assert Poly.zero().canonical().is_zero()


def test_bracket_golden_plain():
    assert poly_to_plain(bracket(1, 2, 3)) == BRACKET_123_PLAIN
    assert poly_to_plain(Poly.zero()) == "0"
    assert poly_to_plain(Poly.constant(Fraction(-3, 2))) == "-3/2"


def test_bracket_alternating():
    b = bracket(1, 2, 3)
    assert bracket(2, 1, 3) == -b
    assert bracket(1, 3, 2) == -b
    assert bracket(2, 3, 1) == b
    assert bracket(3, 1, 2) == b
    assert bracket(1, 1, 2).is_zero()
    assert bracket(1, 2, 2).is_zero()
    assert bracket(3, 2, 3).is_zero()


def test_bracket_is_the_determinant():
    rng = random.Random(17)
    for _ in range(40):
        cols = [[rand_fraction(rng, 9) for _ in range(3)] for _ in range(3)]
        a = assignment_from_columns(cols)
        expected = leibniz_det([[cols[j][i] for j in range(3)]
                                for i in range(3)])
        assert bracket(1, 2, 3).evaluate(a) == expected


def test_frame_bracket_cofactors():
    x1, y1, z1 = (Poly.variable(var_id(c, 1)) for c in "xyz")
    x2, y2, z2 = (Poly.variable(var_id(c, 2)) for c in "xyz")
    assert frame_bracket(1, 2, 1) == y1 * z2 - y2 * z1
    assert frame_bracket(1, 2, 2) == x2 * z1 - x1 * z2
    assert frame_bracket(1, 2, 3) == x1 * y2 - x2 * y1
    with pytest.raises(ValueError):
        frame_bracket(1, 2, 4)


def test_frame_bracket_specialises_bracket():
    # [i j R_f] equals the full bracket with the third point fixed at
    # the f-th standard basis vector.
    rng = random.Random(19)
    for f in (1, 2, 3):
        unit = [Fraction(1 if t == f - 1 else 0) for t in range(3)]
        for _ in range(10):
            cols = [[rand_fraction(rng, 9) for _ in range(3)]
                    for _ in range(2)]
            a = assignment_from_columns(cols + [unit])
            assert (frame_bracket(1, 2, f).evaluate(a)
                    == bracket(1, 2, 3).evaluate(a))


def test_point_bracket_multilinear():
    rng = random.Random(23)
    for _ in range(20):
        u = [rand_fraction(rng, 9) for _ in range(3)]
        v = [rand_fraction(rng, 9) for _ in range(3)]
        s = rand_fraction(rng, 9)
        total = [ui + s * vi for ui, vi in zip(u, v)]
        assert (point_bracket(1, 2, total)
                == point_bracket(1, 2, u) + point_bracket(1, 2, v) * s)
    for f in (1, 2, 3):
        unit = [1 if t == f - 1 else 0 for t in range(3)]
        assert point_bracket(2, 5, unit) == frame_bracket(2, 5, f)


def test_multidegree():
    b = bracket(1, 2, 3)
    md = multidegree(b)
    assert md == MultiDeg((1, 1, 1), (1, 1, 1))
    assert multidegree(b, npoints=4) == MultiDeg((1, 1, 1), (1, 1, 1, 0))
    assert multidegree(Poly.zero(), npoints=2) == MultiDeg((0, 0, 0), (0, 0))
    mixed = Poly.variable(0) + Poly.variable(0) * Poly.variable(1)
    assert multidegree(mixed) is None
    prod = bracket(1, 2, 3) * frame_bracket(1, 2, 1)
    assert multidegree(prod) == MultiDeg((1, 2, 2), (2, 2, 1))


def test_multidegree_rejects_too_few_points():
    with pytest.raises(ValueError, match=r"point 5, above npoints = 2"):
        multidegree(Poly.variable(var_id("x", 5)), 2)


def test_multidegree_fields_do_not_overflow():
    x1 = Poly.variable(var_id("x", 1))
    assert (multidegree(Poly.monomial(1, [(0, 70000)]), 1)
            == MultiDeg((70000, 0, 0), (70000,)))
    # Packed into fixed 8-bit fields, x_1^257 carries into the y and
    # point-2 fields and reads as x_1*y_2; in either term order the two
    # differ.
    high = Poly.monomial(1, [(var_id("x", 1), 257)])
    low = x1 * Poly.variable(var_id("y", 2))
    assert multidegree(low + high, 2) is None
    assert multidegree(high + low, 2) is None
    assert multidegree(high, 2) == MultiDeg((257, 0, 0), (257, 0))


def test_multidegree_matches_the_exponent_sums():
    # Products of brackets are multihomogeneous; adding one monomial of
    # the same total degree usually breaks that.  Exponents reach 2**30,
    # so that a field carrying into its neighbour would show.
    rng = random.Random(67)
    for _ in range(300):
        npoints = rng.randint(1, 7)
        p = Poly.constant(rng.randint(1, 5))
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(1, npoints + 1), 2) if npoints > 1 \
                else (1, 1)
            p = p * frame_bracket(i, j, rng.randint(1, 3))
        if rng.random() < 0.3:
            v = rng.randrange(3 * npoints)
            p = p * Poly.monomial(1, [(v, rng.choice([1, 2 ** 30]))])
        if rng.random() < 0.5:
            degree = p.total_degree()
            part = rng.randint(0, degree)
            pairs = [(rng.randrange(3 * npoints), degree - part),
                     (rng.randrange(3 * npoints), part)]
            p = p + Poly.monomial(rng.randint(1, 3), pairs)
        for n in (npoints, npoints + 2):
            got = multidegree(p, n)
            assert (None if got is None else tuple(got)) \
                == dense_multidegree(p, n), poly_to_plain(p)


def test_exact_div_round_trip():
    rng = random.Random(29)
    done = 0
    while done < 40:
        p = rand_poly(rng)
        q = rand_poly(rng)
        if not q:
            continue
        assert (p * q).exact_div(q) == p
        # // is the same exact division, also by a plain number
        assert (p * q) // q == p
        assert (p * 3) // 3 == p
        done += 1


def test_exact_div_keeps_coefficients_exact():
    x1 = Poly.variable(var_id("x", 1))
    y2 = Poly.variable(var_id("y", 2))
    p = 6 * x1 * x1 - 4 * x1 * y2
    q = p.exact_div(2 * x1)
    assert q == 3 * x1 - 2 * y2
    assert all(isinstance(c, (int, Fraction)) for c in q.terms.values())
    assert decoded(p // 4)[((var_id("x", 1), 2),)] == Fraction(3, 2)
    assert isinstance(decoded(p // 4)[((var_id("x", 1), 2),)], Fraction)


def test_int_and_fraction_coefficients_are_interchangeable():
    b = bracket(1, 2, 3)
    assert all(type(c) is int for c in b.terms.values())
    f = Poly({m: Fraction(c) for m, c in b.terms.items()})
    assert f == b and hash(f) == hash(b)
    assert len({b, f}) == 1
    assert f.canonical() == b.canonical()
    assert poly_to_plain(f) == poly_to_plain(b)
    assert Poly.constant(Fraction(4, 2)) == Poly.constant(2) == 2
    assert hash(Poly.constant(Fraction(4, 2))) == hash(Poly.constant(2))


def test_order_key_matches_dense_grevlex():
    rng = random.Random(41)
    nvars = 12

    def rand_mono(support, degree):
        exps = dict.fromkeys(support, 1)
        for _ in range(degree - len(support)):
            v = rng.choice(support)
            exps[v] += 1
        return pack_monomial(exps.items())

    cases = 0
    for _ in range(4000):
        da = rng.randint(0, 6)
        db = da if rng.random() < 0.7 else rng.randint(0, 6)
        a = rand_mono(rng.sample(range(nvars), rng.randint(min(1, da),
                                                          min(da, 4))), da)
        if rng.random() < 0.2:
            b = a
        else:
            b = rand_mono(rng.sample(range(nvars), rng.randint(min(1, db),
                                                              min(db, 4))), db)
        # The packed order: the higher degree first, then the smaller
        # int; terms_sorted lists the grevlex-larger monomial first, and
        # least_monomial is the smaller.
        expected = dense_grevlex_cmp(a, b, nvars)
        p = Poly({a: 1, b: 2})
        if expected == 0:
            assert a == b and p.terms_sorted() == [(a, 2)]
        else:
            big, small = (a, b) if expected > 0 else (b, a)
            assert [m for m, _ in p.terms_sorted()] == [big, small], (a, b)
            assert p.least_monomial() == small
        if da == db and (set(dict(monomial_pairs(a)))
                         != set(dict(monomial_pairs(b)))):
            cases += 1
    # pairs of equal degree and different supports were exercised
    assert cases > 1000


def test_terms_sorted_matches_dense_grevlex():
    # Random polynomials whose monomials are built from repeated
    # variables, so that merged exponents up to 9 and the constant
    # monomial occur.
    rng = random.Random(43)
    nvars = 9
    for _ in range(300):
        p = Poly.zero()
        for _ in range(rng.randint(1, 12)):
            pairs = [(rng.randrange(nvars), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 5))]
            p = p + Poly.monomial(rng.randint(-3, 3), pairs)
        if p.is_zero():
            continue
        expected = dense_terms_sorted(p, nvars)
        assert p.terms_sorted() == [(m, p.terms[m]) for m in expected]
        assert p.least_monomial() == expected[-1]


def test_expand_products_matches_dense_products():
    # Sums of products of 0 to 3 random factors with shared variables,
    # scaled by random coefficients, against chains of dense_mul.
    rng = random.Random(53)
    for _ in range(200):
        products = []
        expected = Poly.zero()
        for _ in range(rng.randint(0, 3)):
            coeff = rng.choice([-2, -1, 1, 3, Fraction(1, 2)])
            factors = [rand_poly(rng, npoints=2, nterms=3, maxdeg=2)
                       for _ in range(rng.randint(0, 3))]
            products.append((coeff, [f.terms.items() for f in factors]))
            prod = Poly.constant(coeff)
            for f in factors:
                prod = dense_mul(prod, f)
            expected = expected + prod
        assert expand_products(products) == expected


def test_monomial_merges_repeated_variables():
    x = Poly.variable(3)
    assert Poly.monomial(1, [(3, 1), (3, 1)]) == x * x
    assert decoded(Poly.monomial(1, [(3, 1), (3, 1)])) == {((3, 2),): 1}
    q = Poly.monomial(2, [(5, 1), (3, 2), (5, 2), (0, 0)])
    assert decoded(q) == {((3, 2), (5, 3)): 2}
    y = Poly.variable(5)
    assert q == 2 * x * x * y * y * y


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Poly.monomial(1, [(3, -1)])
    with pytest.raises(ValueError):
        Poly.monomial(1, [(3, 2), (3, -1)])


def test_exact_div_errors():
    x1 = Poly.variable(var_id("x", 1))
    y1 = Poly.variable(var_id("y", 1))
    with pytest.raises(ZeroDivisionError):
        x1.exact_div(Poly.zero())
    with pytest.raises(ArithmeticError):
        (x1 * x1 + y1).exact_div(x1 + 1)


def test_exact_div_rejects_a_monomial_that_does_not_divide():
    # Each field of the leading monomial must reach the divisor's: a
    # plain int difference would borrow from the next field instead.
    x1, y1, z1 = (Poly.variable(var_id(c, 1)) for c in "xyz")
    for p, divisor in ((x1 * y1, z1), (y1, x1), (x1 * x1 * y1, x1 * y1 * y1),
                       (Poly.constant(3), x1), (z1 * z1, y1 * z1 + 1)):
        with pytest.raises(ArithmeticError, match="inexact"):
            p.exact_div(divisor)


def test_pack_round_trips_and_bounds_every_field():
    top = 2 ** 32 - 1
    rng = random.Random(61)
    for _ in range(200):
        pairs = [(rng.randrange(40), rng.choice([1, 2, 255, 256, 257,
                                                  2 ** 16, 2 ** 24]))
                 for _ in range(rng.randint(0, 4))]
        m = _pack(pairs)
        assert m == pack_monomial(pairs)
        assert _pack(monomial_pairs(m)) == m
    assert _pack([]) == 0 and monomial_pairs(0) == ()
    # The largest exponent the layout holds: the degree field is full.
    m = _pack([(5, top)])
    assert monomial_pairs(m) == ((5, top),)
    p = Poly.monomial(1, [(5, top)])
    assert p.total_degree() == top
    assert multidegree(p) == MultiDeg((0, 0, top), (0, top))
    assert p * 1 == p and p * Poly.constant(2) == 2 * p
    assert poly_to_plain(p) == "z_2^%d" % top
    # 2**32 overflows, in one exponent or summed over pairs.
    for pairs in ([(5, top + 1)], [(5, top), (6, 1)], [(5, top), (5, 1)]):
        with pytest.raises(OverflowError):
            _pack(pairs)
        with pytest.raises(OverflowError):
            Poly.monomial(1, pairs)
    # A product whose degree reaches 2**32 overflows rather than carry
    # into the field of the first variable.
    half = Poly.monomial(1, [(0, 2 ** 31)])
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        p * Poly.variable(7)
    with pytest.raises(OverflowError):
        expand_products([(1, [half.terms.items(), half.terms.items()])])
    with pytest.raises(OverflowError):
        expand_products([(1, [p.terms.items(), [(0, 1)],
                              Poly.variable(0).terms.items()])])


def test_high_exponents_render_as_before():
    # x_1^257*y_2: the byte of x_1's field alone would read 1.
    p = (Poly.monomial(-2, [(var_id("x", 1), 257), (var_id("y", 2), 1)])
         + Poly.monomial(1, [(var_id("z", 1), 256)])
         + Poly.variable(var_id("x", 2)) * Poly.variable(var_id("y", 1)))
    assert poly_to_plain(p) == "-2*x_1^257*y_2 + z_1^256 + y_1*x_2"
    names = ["x1", "y1", "z1", "x2", "y2", "z2"]
    assert poly_to_plain(p, names) == "-2*x1^257*y2 + z1^256 + y1*x2"


def test_terms_sorted_and_least_monomial():
    b = bracket(1, 2, 3)
    ordered = b.terms_sorted()
    assert len(ordered) == 6
    assert [m for m, _ in ordered] == [m for m, _ in b.terms_sorted()]
    least = b.least_monomial()
    assert least == ordered[-1][0]
    assert dict(ordered)[least] == 1
    assert Poly.zero().least_monomial() is None


def test_assignment_from_columns():
    cols = [(1, 2, 3), (4, 5, 6)]
    a = assignment_from_columns(cols)
    assert a[var_id("x", 1)] == 1
    assert a[var_id("y", 1)] == 2
    assert a[var_id("z", 1)] == 3
    assert a[var_id("x", 2)] == 4
    assert a[var_id("z", 2)] == 6
    assert len(a) == 6
    # entries are kept as given: no coercion to Fraction
    cols = [(1, Fraction(1, 2), 3), (Fraction(4), 5, BIG)]
    a = assignment_from_columns(cols)
    for i, col in enumerate(cols):
        for off in range(3):
            assert a[3 * i + off] is col[off]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5),
                          st.integers(0, 8),
                          st.integers(0, 3)),
                max_size=6))
def test_add_never_keeps_zero_terms(triples):
    p = Poly.zero()
    for c, v, e in triples:
        p = p + Poly.monomial(c, [(v, e)])
    assert all(c != 0 for c in p.terms.values())
    assert (p - p).terms == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_bracket_repeated_points_vanish(i, j, k):
    b = bracket(i, j, k)
    if len({i, j, k}) < 3:
        assert b.is_zero()
    else:
        assert len(b.terms) == 6
