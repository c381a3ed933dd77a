from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import expand_exchange, long_division
from yperiod.algebra import (
    Polynomial,
    RationalPoint,
    TropicalMonomial,
    evaluate,
    exchange,
    poly_div_exact,
    poly_mul,
    trop_one_plus,
)
from yperiod.errors import DivisibilityError, InputError


def P(nvars, text):
    return Polynomial.parse(nvars, text)


# -- tropical monomials -------------------------------------------------------

def test_one_plus_positive_exponent_absorbed():
    m = TropicalMonomial.variable(2, 0)
    assert trop_one_plus(m) == TropicalMonomial.one(2)


def test_one_plus_negative_exponent_kept():
    m = TropicalMonomial.variable(2, 0).inverse()
    assert trop_one_plus(m) == m


def test_one_plus_mixed_signs():
    m = TropicalMonomial((1, -1))
    assert trop_one_plus(m) == TropicalMonomial((0, -1))


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_one_plus_divides_one_and_m(exps):
    m = TropicalMonomial(tuple(exps))
    o = trop_one_plus(m)
    assert all(e <= 0 for e in o.exponents)
    assert all(a <= b for a, b in zip(o.exponents, m.exponents))


@given(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_tropical_product_is_exponent_sum(e1, e2):
    a, b = TropicalMonomial(tuple(e1)), TropicalMonomial(tuple(e2))
    assert (a * b).exponents == tuple(x + y for x, y in zip(e1, e2))
    assert a * b == b * a
    assert (a * a.inverse()).is_one()


# -- polynomial arithmetic ----------------------------------------------------

def test_product_square_of_binomial():
    p = P(1, "1 + y1")
    assert poly_mul(p, p) == P(1, "1 + 2*y1 + y1^2")


def test_product_with_one():
    p = P(2, "1 + 3*y1*y2")
    assert poly_mul(p, Polynomial.one(2)) == p


def test_product_two_variables():
    assert poly_mul(P(2, "1 + y1"), P(2, "1 + y2")) == P(2, "1 + y1 + y2 + y1*y2")


def test_exact_division_examples():
    assert poly_div_exact(P(1, "1 + 2*y1 + y1^2"), P(1, "1 + y1")) == P(1, "1 + y1")
    p = P(2, "1 + y1 + y2^2")
    assert poly_div_exact(p, Polynomial.one(2)) == p


def test_exact_division_failure():
    with pytest.raises(DivisibilityError):
        poly_div_exact(P(1, "1 + y1^2"), P(1, "1 + y1"))


def test_evaluate_examples():
    assert evaluate(P(1, "1 + y1"), [Fraction(1, 2)]) == Fraction(3, 2)
    assert evaluate(Polynomial.one(3), [Fraction(7), Fraction(1), Fraction(2)]) == 1
    assert evaluate(P(1, "1 + 2*y1 + y1^2"), [Fraction(1)]) == 4


def test_evaluate_dimension_mismatch():
    with pytest.raises(InputError):
        P(2, "1 + y1").evaluate([Fraction(1)])


small_polys = st.builds(
    lambda terms: Polynomial(3, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200)
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + q == q + p


@given(small_polys, small_polys)
@settings(max_examples=200)
def test_division_round_trip(p, q):
    if q.is_zero():
        return
    assert poly_div_exact(poly_mul(p, q), q) == p


exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
nonzero = st.integers(-9, 9).filter(bool)


def _unit_divisor(terms):
    return Polynomial(3, {**{e: c for e, c in terms.items() if any(e)}, (0, 0, 0): 1})


# constant term 1 and non-constant terms in at least two degrees
unit_divisors = st.builds(
    _unit_divisor, st.dictionaries(exponents3, nonzero, min_size=2, max_size=6)
).filter(lambda d: len({sum(e) for e, _ in d.items()} - {0}) >= 2)


@given(small_polys, unit_divisors, small_polys, exponents3, nonzero)
@settings(max_examples=200)
def test_division_by_unit_divisors(q, d, r, m_exp, m_coeff):
    p = q * d
    assert p.exact_div(d) == q
    m = Polynomial.monomial(3, m_exp, m_coeff)
    # a non-monomial divisor never divides a monomial
    with pytest.raises(DivisibilityError):
        m.exact_div(d)
    if len(r.terms) > 1:
        with pytest.raises(DivisibilityError):
            m.exact_div(r)
    # so a monomial off a multiple is never a multiple, also when it sits
    # below the multiple's top degree
    assume(sum(m_exp) <= p.total_degree())
    with pytest.raises(DivisibilityError):
        (p + m).exact_div(d)


# -- the exchange kernel ------------------------------------------------------

factor_lists = st.lists(st.tuples(small_polys, st.integers(0, 2)), max_size=3)


@given(exponents3, factor_lists, exponents3, factor_lists, unit_divisors, st.booleans())
@settings(max_examples=100)
def test_exchange_matches_expansion(plus, pf, minus, mf, d, cancel):
    if cancel:
        # the two sides cancel in part or in full
        minus, mf = plus, mf + [(Polynomial.constant(3, -1), 1)] + pf
    pf, mf = pf + [(d, 1)], mf + [(d, 1)]
    q = exchange(plus, pf, minus, mf, d)
    assert q == expand_exchange(plus, pf, minus, mf, d)
    assert q.max_exponents() == Polynomial(3, dict(q.items())).max_exponents()


@given(exponents3, factor_lists, exponents3, unit_divisors)
@settings(max_examples=100)
def test_exchange_refuses_a_remainder(plus, pf, minus, d):
    # d * (y^plus prod F^a) + y^minus: a monomial is never a multiple of d
    with pytest.raises(DivisibilityError):
        exchange(plus, pf + [(d, 1)], minus, [], d)


def test_exchange_quotient_leaving_the_box_raises():
    # Every exponent of num and d is at most 1, so each radix is 2 and
    # the key of y1*y2^a*y3^b*y4^c is 8 + 4a + 2b + c.  Dividing from the
    # bottom gives q = y2 + y4, above the quotient bound of 0; q*d holds
    # -y1*y4^2 + y2^2*y3, which leave the box and would both wrap to key
    # 10 of degree 3 and cancel, so without the bound the division would
    # end with no residue and return y2 + y4.
    num = Polynomial.parse(4, "y2 + y4 - y1*y2*y4 + y2*y3*y4")
    d = Polynomial.parse(4, "1 - y1*y4 + y2*y3")
    with pytest.raises(DivisibilityError):
        num.exact_div(d)
    with pytest.raises(DivisibilityError):
        exchange((0,) * 4, [(num, 1)], (1,) * 4, [(Polynomial.zero(4), 1)], d)
    with pytest.raises(DivisibilityError):
        long_division(num, d)


def test_exchange_checks_its_arguments():
    d = Polynomial.parse(2, "1 + y1")
    with pytest.raises(InputError):
        exchange((0, 0), [(d, -1)], (0, 0), [], d)
    with pytest.raises(InputError):
        exchange((0, -1), [], (0, 0), [], d)
    with pytest.raises(InputError):
        exchange((0, 0), [], (0, 0), [], Polynomial.parse(2, "2 + y1"))
    with pytest.raises(InputError):
        exchange((0, 0), [(Polynomial.one(3), 1)], (0, 0), [], d)


def test_long_division_oracle():
    assert long_division(P(2, "1 + 2*y1 + y1^2 + y2 + y1*y2"), P(2, "1 + y1")) == P(
        2, "1 + y1 + y2"
    )
    with pytest.raises(DivisibilityError):
        long_division(P(2, "1 + y1^2"), P(2, "1 + y1"))


# -- the exponent cap ----------------------------------------------------------

def test_exponents_never_carry_into_a_neighbour():
    big = Polynomial.monomial(2, [0, 2**31 - 1])
    with pytest.raises(InputError):
        big ** 3
    with pytest.raises(InputError):
        big * Polynomial.monomial(2, [0, 1])
    with pytest.raises(InputError):
        big.times_monomial([0, 1])
    with pytest.raises(InputError):
        big.times_monomial([1])
    with pytest.raises(InputError):
        exchange((0, 2**30), [(Polynomial.monomial(2, [0, 2**30]), 1)], (0, 2**31), [],
                 Polynomial.one(2))
    # right below the cap everything still works
    half = Polynomial.monomial(2, [0, 2**30 - 1])
    assert (half * half).max_exponents() == (0, 2**31 - 2)
    assert (half ** 2) == half.times_monomial([0, 2**30 - 1])
    assert exchange((0, 2**31 - 1), [], (0, 2**31 - 1), [], Polynomial.one(2)) == (
        Polynomial.monomial(2, [0, 2**31 - 1], 2)
    )


@given(small_polys, small_polys)
def test_max_exponents_are_exact(p, q):
    def direct(poly):
        return tuple(max((e[i] for e, _ in poly.items()), default=0) for i in range(3))

    for poly in (p, q, p * q, p + q, p ** 2):
        assert poly.max_exponents() == direct(poly)


@given(small_polys, small_polys, st.lists(st.integers(1, 9), min_size=3, max_size=3))
@settings(max_examples=200)
def test_evaluate_is_multiplicative(p, q, nums):
    point = [Fraction(x, 3) for x in nums]
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(small_polys)
@settings(max_examples=200)
def test_text_round_trip(p):
    assert Polynomial.parse(3, p.text()) == p


def test_text_canonical_order():
    p = Polynomial(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1})
    assert p.text() == "1 + 2*y1 + y2 + y1^2"


def test_parse_rejects_bad_input():
    with pytest.raises(InputError):
        Polynomial.parse(1, "1 + z3")
    with pytest.raises(InputError):
        Polynomial.parse(1, "1 + y2")


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(InputError):
        Polynomial(1, {(-1,): 2})


# -- rational points ----------------------------------------------------------

def test_rational_point_requires_positivity():
    with pytest.raises(InputError):
        RationalPoint([Fraction(1), Fraction(0)])
    pt = RationalPoint([Fraction(1, 3), 2])
    assert len(pt) == 2 and pt[1] == 2


def test_rational_point_random_is_reproducible():
    import random

    a = RationalPoint.random(4, random.Random(7))
    b = RationalPoint.random(4, random.Random(7))
    assert tuple(a) == tuple(b)
