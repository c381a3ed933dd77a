from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import expand_exchange, long_division
from yperiod import algebra
from yperiod.algebra import (
    Polynomial,
    RationalPoint,
    exchange,
)
from yperiod.dynkin import DynkinType
from yperiod.errors import DivisibilityError, InputError
from yperiod.quiver import alternating_quiver
from yperiod.seed import Seed


def P(nvars, text):
    return Polynomial.parse(nvars, text)


# -- polynomial arithmetic ----------------------------------------------------

def test_product_square_of_binomial():
    p = P(1, "1 + y1")
    assert p * p == P(1, "1 + 2*y1 + y1^2")


def test_product_with_one():
    p = P(2, "1 + 3*y1*y2")
    assert p * Polynomial.one(2) == p


def test_product_two_variables():
    assert P(2, "1 + y1") * P(2, "1 + y2") == P(2, "1 + y1 + y2 + y1*y2")


def test_exact_division_examples():
    assert P(1, "1 + 2*y1 + y1^2").exact_div(P(1, "1 + y1")) == P(1, "1 + y1")
    p = P(2, "1 + y1 + y2^2")
    assert p.exact_div(Polynomial.one(2)) == p


def test_exact_division_failure():
    with pytest.raises(DivisibilityError):
        P(1, "1 + y1^2").exact_div(P(1, "1 + y1"))


def test_evaluate_examples():
    assert P(1, "1 + y1").evaluate([Fraction(1, 2)]) == Fraction(3, 2)
    assert Polynomial.one(3).evaluate([Fraction(7), Fraction(1), Fraction(2)]) == 1
    assert P(1, "1 + 2*y1 + y1^2").evaluate([Fraction(1)]) == 4


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
    assert (p * q).exact_div(q) == p


exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
nonzero = st.integers(-9, 9).filter(bool)


def _unit_divisor(terms):
    return Polynomial(3, {**{e: c for e, c in terms.items() if any(e)}, (0, 0, 0): 1})


# constant term 1 and non-constant terms in at least two degrees
unit_divisors = st.builds(
    _unit_divisor, st.dictionaries(exponents3, nonzero, min_size=2, max_size=6)
).filter(lambda d: len({sum(e) for e, _ in d.items()} - {0}) >= 2)


def _exchange_div(p, d):
    """p / d through exchange, with a zero minus side."""
    zero = (0,) * p.nvars
    return exchange(zero, [(p, 1)], zero, [(Polynomial.zero(p.nvars), 1)], d)


@given(small_polys, unit_divisors, small_polys, exponents3, nonzero)
@settings(max_examples=200, deadline=None)
def test_division_by_unit_divisors(q, d, r, m_exp, m_coeff):
    p = q * d
    assert p.exact_div(d) == q
    assert _exchange_div(p, d) == q
    m = Polynomial.monomial(3, m_exp, m_coeff)
    # a non-monomial divisor never divides a monomial
    for divide in (Polynomial.exact_div, _exchange_div):
        with pytest.raises(DivisibilityError):
            divide(m, d)
    if len(r.terms) > 1:
        with pytest.raises(DivisibilityError):
            m.exact_div(r)
    # so a monomial off a multiple is never a multiple, also when it sits
    # below the multiple's top degree
    assume(sum(m_exp) <= p.total_degree())
    for divide in (Polynomial.exact_div, _exchange_div):
        with pytest.raises(DivisibilityError):
            divide(p + m, d)


# -- the exchange kernel ------------------------------------------------------
# No deadlines here: an example's time is mostly the expanding oracle's,
# and it swings with the host, not with correctness.

factor_lists = st.lists(st.tuples(small_polys, st.integers(0, 2)), max_size=3)


@given(exponents3, factor_lists, exponents3, factor_lists, unit_divisors, st.booleans())
@settings(max_examples=100, deadline=None)
def test_exchange_matches_expansion(plus, pf, minus, mf, d, cancel):
    if cancel:
        # the two sides cancel in part or in full
        minus, mf = plus, mf + [(Polynomial.constant(3, -1), 1)] + pf
    pf, mf = pf + [(d, 1)], mf + [(d, 1)]
    q = exchange(plus, pf, minus, mf, d)
    assert q == expand_exchange(plus, pf, minus, mf, d)
    assert q.max_exponents() == Polynomial(3, dict(q.items())).max_exponents()


@given(exponents3, factor_lists, exponents3, unit_divisors)
@settings(max_examples=100, deadline=None)
def test_exchange_refuses_a_remainder(plus, pf, minus, d):
    # d * (y^plus prod F^a) + y^minus: a monomial is never a multiple of d
    with pytest.raises(DivisibilityError):
        exchange(plus, pf + [(d, 1)], minus, [], d)


exponents4 = st.tuples(*[st.integers(0, 3)] * 4)
polys4 = st.builds(
    lambda terms: Polynomial(4, terms),
    st.dictionaries(exponents4, st.integers(-9, 9), max_size=4),
)
unit_divisors4 = st.builds(
    lambda terms: Polynomial(4, {**{e: c for e, c in terms.items() if any(e)}, (0,) * 4: 1}),
    st.dictionaries(exponents4, nonzero, min_size=1, max_size=4),
).filter(lambda d: len(d.terms) > 1)
factor_lists4 = st.lists(st.tuples(polys4, st.integers(0, 2)), max_size=2)


@given(factor_lists4, exponents4, factor_lists4, unit_divisors4)
@settings(max_examples=100, deadline=None)
def test_exchange_matches_expansion_across_packed_groups(pf, minus, mf, d):
    # y^far makes every radix at least 13, so the box holds 13^4 slots,
    # more than one packed int takes: the division runs over outer keys
    far = (12,) * 4
    pf, mf = pf + [(d, 1)], mf + [(d, 1)]
    assert exchange(far, pf, minus, mf, d) == expand_exchange(far, pf, minus, mf, d)
    with pytest.raises(DivisibilityError):
        exchange(far, pf, minus, [], d)


def _spy_widths(monkeypatch):
    """The slot width of every packed pass exchange makes."""
    widths = []
    packed = algebra._packed_exchange

    def spy(sides, divisor, bound, sup, width):
        widths.append(width)
        return packed(sides, divisor, bound, sup, width)

    monkeypatch.setattr(algebra, "_packed_exchange", spy)
    return widths


def test_exchange_restarts_on_wider_slots(monkeypatch):
    # (1 + y)^8 (1 - y) bounds the numerator's coefficients by B = 28, so
    # the first slots are bits(B + |d|_inf |d|_1) + 2 = bits(30) + 2 = 7
    # wide; but a remainder coefficient could reach
    # B + |q|_inf |d|_1 = 28 + 70 * 2, past 2^6: the call restarts on
    # wider slots
    q = P(1, "1 + y1") ** 8
    d = P(1, "1 - y1")
    widths = _spy_widths(monkeypatch)
    args = ((0,), [(q * d, 1)], (0,), [(Polynomial.zero(1), 1)], d)
    assert exchange(*args) == q == expand_exchange(*args)
    assert widths == [7, 14]


def test_exchange_restart_check_keeps_a_remainder_from_hiding():
    # num = 1 + y + ... + y^14 leaves the remainder num(1) = 15 on
    # division by 1 - y.  Its sup bound is 1, so the first slots are
    # bits(1 + |d|_inf |d|_1) + 2 = 4 bits wide, and the packed num,
    # num(16) = num(1) = 0 modulo 15, is a multiple of the packed divisor
    # 1 - 16; the decoded quotient stays in the box.  Only the restart
    # check (a remainder coefficient could reach 1 + |q|_inf |d|_1, past
    # 2^3) keeps that zero packed remainder from being trusted.
    num = Polynomial(1, {(i,): 1 for i in range(15)})
    d = P(1, "1 - y1")
    with pytest.raises(DivisibilityError):
        exchange((0,), [(num, 1)], (0,), [(Polynomial.zero(1), 1)], d)
    with pytest.raises(DivisibilityError):
        long_division(num, d)


def test_exchange_slots_follow_the_sup_norm_bound(monkeypatch):
    # f1 has 126 unit coefficients, so the L1 bound of the plus side,
    # |f1|_1^2 |f2|_1 = 126^2 * 2, is far above the sup bound
    # |f1|_inf |f1|_1^(2-1) |f2|_1 = 126 * 2 = 252, f1 having the largest
    # ratio |F|_1 / |F|_inf among the factors with a nonzero power.  The
    # power-0 factor g, of ratio 1024, is left out (taken for f1 it would
    # give 126^2 * 2 // 1024 = 31), and the zero factor makes the minus
    # side 0 (counted as |f2|_inf |f2|_1 = 2 it would give 254).  With
    # |d|_inf |d|_1 = 2 the first width is bits(252 + 2) + 2 = 10, and
    # 252 + |q|_inf |d|_1 = 252 + 126 * 2 stays below 2^9: no restart.
    f1 = Polynomial(3, {(i, j, 0): 1 for i in range(9) for j in range(14)})
    f2 = P(3, "1 + y3")
    g = Polynomial(3, {(i, 0, j): 1 for i in range(32) for j in range(32)})
    zero = Polynomial.zero(3)
    args = ((1, 0, 2), [(f1, 2), (g, 0), (f2, 1)], (0, 3, 0), [(f2, 2), (zero, 1)], f2)
    widths = _spy_widths(monkeypatch)
    q = exchange(*args)
    assert q == Polynomial.monomial(3, (1, 0, 2)) * f1 * f1 == expand_exchange(*args)
    assert widths == [10]
    assert widths[0] < (126**2 * 2).bit_length()


nonnegative_polys = st.builds(
    lambda terms: Polynomial(3, terms),
    st.dictionaries(exponents3, st.integers(1, 9), max_size=5),
)
# constant term 1 and at least one other term, every coefficient positive
positive_divisors = st.builds(
    lambda terms: Polynomial(3, {**terms, (0, 0, 0): 1}),
    st.dictionaries(exponents3.filter(any), st.integers(1, 9), min_size=1, max_size=4),
)
nonnegative_factor_lists = st.lists(st.tuples(nonnegative_polys, st.integers(0, 2)), max_size=3)


@given(exponents3, nonnegative_factor_lists, exponents3, nonnegative_factor_lists,
       positive_divisors)
@settings(max_examples=100, deadline=None)
def test_exchange_matches_expansion_on_f_polynomials(plus, pf, minus, mf, d):
    # the F-polynomial regime: every coefficient is nonnegative, so nothing
    # cancels and the numerator comes closest to its sup-norm bound
    pf, mf = pf + [(d, 1)], mf + [(d, 1)]
    assert exchange(plus, pf, minus, mf, d) == expand_exchange(plus, pf, minus, mf, d)
    with pytest.raises(DivisibilityError):
        exchange(plus, pf, minus, [], d)


def test_exchange_quotient_leaving_the_box_raises():
    # Every exponent of num and d is at most 1, so each radix is 2, and
    # all four variables pack into one int.  Dividing from the bottom
    # gives a quotient term above the quotient bound of 0, so that q*d
    # would leave the box and its packed products would carry into other
    # monomials' slots: the division must raise, not trust them.
    num = Polynomial.parse(4, "y2 + y4 - y1*y2*y4 + y2*y3*y4")
    d = Polynomial.parse(4, "1 - y1*y4 + y2*y3")
    with pytest.raises(DivisibilityError):
        num.exact_div(d)
    with pytest.raises(DivisibilityError):
        exchange((0,) * 4, [(num, 1)], (1,) * 4, [(Polynomial.zero(4), 1)], d)
    with pytest.raises(DivisibilityError):
        long_division(num, d)


def test_exchange_quotient_slot_carrying_into_the_next_variable_raises():
    # num = y1^3 - y2 bounds y1 by 3, so y1 packs lowest with radix 4 and
    # y2^1 sits in slot 4.  Packed, (1 - y1) * y1^3 = y1^3 - y1^4 carries
    # y1^4 into y2's slot, so the packed num divides exactly, to the
    # slot of y1^3.  That is above the quotient bound 3 - 1 = 2: without
    # the bound the division would return y1^3.  The box of y1 and y2 is
    # 8 slots, one int; the zero side's y3^999 makes y3 an outer key, so
    # the same num then divides as one packed group.
    num = P(3, "y1^3 - y2")
    d = P(3, "1 - y1")
    for widen in ((0, 0, 0), (0, 0, 999)):
        with pytest.raises(DivisibilityError):
            exchange((0, 0, 0), [(num, 1)], widen, [(Polynomial.zero(3), 1)], d)
    with pytest.raises(DivisibilityError):
        num.exact_div(d)
    with pytest.raises(DivisibilityError):
        long_division(num, d)


# In the first examples below y1 packs alone, its radix widened by a
# large exponent, and y2 and y3 make the outer key, so the numerator, the
# divisor and the quotient each spread over several groups.
D3 = "1 - y1*y2 + 2*y3 - y2*y3"  # a divisor with groups of both signs


@pytest.mark.parametrize("plus, pf, minus, mf, d, q", [
    # (1 + y2)(1 - y2) = 1 - y2^2 is multiplied first (fewest terms): its
    # y2 group cancels to 0.  The quotient's y2^2 group is negative.  The
    # minus side is 0 and only widens y1's radix.
    pytest.param(
        (0, 0, 0), [(P(3, "1 + y2"), 1), (P(3, "1 - y2"), 1), (P(3, D3), 1)],
        (299, 0, 0), [(Polynomial.zero(3), 1)], P(3, D3), P(3, "1 - y2^2"),
        id="product-group-cancels",
    ),
    # y1^199 d (1 + y3) - y1^199 y3 d: every group of the y3 * d part
    # cancels between the two sides, so the division meets zero groups
    pytest.param(
        (199, 0, 0), [(P(3, D3), 1), (P(3, "1 + y3"), 1)],
        (199, 0, 1), [(Polynomial.constant(3, -1), 1), (P(3, D3), 1)],
        P(3, D3), Polynomial.monomial(3, (199, 0, 0)),
        id="numerator-group-cancels",
    ),
    # the slots are 4 bits wide, so y1 - 16 would pack to 16 - 16 = 0; its
    # power is 0, so it must add nothing to the side.  The zero side's
    # y2^999 only widens y2's radix past one int: y2 makes the outer key
    pytest.param(
        (0, 0), [(P(2, "y1 - 16"), 0), (P(2, "1 + y1"), 1)],
        (0, 999), [(Polynomial.zero(2), 1)], P(2, "1 + y1"), Polynomial.one(2),
        id="factor-group-packs-to-zero",
    ),
    # a zero factor makes its side's norm bound 0, so the slots are again
    # 4 bits wide and y1 - 16, of power 1, packs to a zero group that the
    # side's product must skip
    pytest.param(
        (0, 999), [(Polynomial.zero(2), 1), (P(2, "y1 - 16"), 1)],
        (0, 0), [(P(2, "1 + y1"), 1)], P(2, "1 + y1"), Polynomial.one(2),
        id="zero-side-factor-packs-to-zero",
    ),
    # the same two without y2^999: the box is two slots, so each takes the
    # one-int route, where y1 - 16 packs to the int 0
    pytest.param(
        (0, 0), [(P(2, "y1 - 16"), 0), (P(2, "1 + y1"), 1)],
        (0, 0), [(Polynomial.zero(2), 1)], P(2, "1 + y1"), Polynomial.one(2),
        id="one-int-factor-packs-to-zero",
    ),
    pytest.param(
        (0, 0), [(Polynomial.zero(2), 1), (P(2, "y1 - 16"), 1)],
        (0, 0), [(P(2, "1 + y1"), 1)], P(2, "1 + y1"), Polynomial.one(2),
        id="one-int-zero-side-factor-packs-to-zero",
    ),
])
def test_exchange_matches_expansion_on_zero_and_negative_groups(plus, pf, minus, mf, d, q):
    assert exchange(plus, pf, minus, mf, d) == q == expand_exchange(plus, pf, minus, mf, d)


@pytest.mark.parametrize("num, d, widen", [
    # The outer key is e2 + 4 e3 (y2's radix is 4), so y2^4 would carry
    # into y3.  Dividing y2^3 - y3 by 1 - y2 from the bottom gives y2^3,
    # above the quotient bound 3 - 1 = 2 in the outer variable y2; its
    # correction y2^4 lands on y3's key and cancels it.  Without the
    # check on the group's outer exponents the division would return y2^3.
    pytest.param("y2^3 - y3", "1 - y2", (299, 0, 0), id="outer"),
    # y1 (radix 200) and y2 pack, y3 makes the outer key.  In the y3
    # group, y1^199 - y2 is y1^199 (1 - y1) packed, as y1^200 carries into
    # y2's slot; y1^199 is above the quotient bound 199 - 1 = 198 in the
    # inner variable y1.
    pytest.param("y1^199*y3 - y2*y3", "1 - y1", (0, 0, 0), id="inner"),
])
def test_exchange_quotient_leaving_the_box_in_a_later_group_raises(num, d, widen):
    args = ((0, 0, 0), [(P(3, num), 1)], widen, [(Polynomial.zero(3), 1)], P(3, d))
    with pytest.raises(DivisibilityError):
        exchange(*args)
    with pytest.raises(DivisibilityError):
        expand_exchange(*args)


def _packed_calls(args):
    """(sides, divisor, bound, sup, width) of every packed pass that
    exchange(*args) makes."""
    calls = []
    packed = algebra._packed_exchange

    def spy(*call):
        calls.append(call)
        return packed(*call)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(algebra, "_packed_exchange", spy)
        try:
            exchange(*args)
        except DivisibilityError:
            pass
    return calls


wide_polys = st.builds(
    lambda terms: Polynomial(3, terms),
    st.dictionaries(exponents3, st.integers(-300, 300), max_size=6),
)


# Each narrow-pass test runs once per route: with the plus monomial 1 its
# small box fits one int at the narrow widths, and y^FAR widens every
# radix past 13, so that no box fits and each pass divides packed groups.
ROUTE_MONOMIALS = ((0, 0, 0), (12, 12, 12))


@given(wide_polys, unit_divisors, exponents3, nonzero)
@settings(max_examples=100, deadline=None)
def test_a_narrow_pass_never_returns_a_wrong_quotient(q, d, m_exp, m_coeff):
    # every width from the narrowest that holds the numerator's
    # coefficients up to the widest exchange tries: a pass may ask for
    # wider slots, but an exact numerator gives q and one off a multiple
    # raises
    zero = (0, 0, 0)
    exact = q * d
    off = exact + Polynomial.monomial(3, m_exp, m_coeff)
    for mono in ROUTE_MONOMIALS:
        for num, quotient in ((exact, q * Polynomial.monomial(3, mono)), (off, None)):
            calls = _packed_calls((mono, [(num, 1)], zero, [(Polynomial.zero(3), 1)], d))
            sides, divisor, bound, sup, _ = calls[0]
            for width in range(sup.bit_length() + 1, calls[-1][4] + 1):
                try:
                    out = algebra._packed_exchange(sides, divisor, bound, sup, width)
                except DivisibilityError:
                    assert quotient is None
                    continue
                assert out is None or out == quotient


def test_a_narrow_pass_checks_its_width_before_a_mark():
    # q * (1 - y1) = 1 + y1 + y1^2 - y1^3 - y1^4 - y1^5 has sup norm 1,
    # but q's coefficients reach 3.  At width 2 (digits in [-2, 1]) the
    # packed q, q(4) = 441, reads 1 - 2y + 0y^2 - y^3 - 2y^4 + y^5: the
    # carries put a digit on y1^5, above the quotient bound 5 - 1 = 4.
    # The restart check on those digits fails first (2 |d|_1 = 4 is not
    # below 2^(2-1) - sup = 1), so the pass asks for wider slots instead
    # of raising on an exact division.  Through exchange, whose first width here is 4, no example
    # of this is known.
    # With y^FAR the pass divides packed groups; its quotient group's
    # digits fail the same check at width 2.
    q = P(3, "1 + 2*y1 + 3*y1^2 + 2*y1^3 + y1^4")
    d = P(3, "1 - y1")
    zero = (0, 0, 0)
    for mono in ROUTE_MONOMIALS:
        sides, divisor, bound, sup, _ = _packed_calls(
            (mono, [(q * d, 1)], zero, [(Polynomial.zero(3), 1)], d))[0]
        assert (sup, bound) == (1, [5 + mono[0], mono[1], mono[2]])
        assert algebra._packed_exchange(sides, divisor, bound, sup, 2) is None
        assert (algebra._packed_exchange(sides, divisor, bound, sup, 4)
                == q * Polynomial.monomial(3, mono))


def test_exchange_takes_the_one_int_route_exactly_when_the_box_fits(monkeypatch):
    # one int holds the box of q * d (volume 3 * 2 * 3) at the first
    # width; y^FAR widens it to 15 * 14 * 15 slots, more than one int
    # takes at any width, so every pass of that call divides groups
    volumes = []
    route = algebra._one_int_exchange

    def spy(sides, divisor, box, volume, sup, width):
        volumes.append(volume)
        return route(sides, divisor, box, volume, sup, width)

    monkeypatch.setattr(algebra, "_one_int_exchange", spy)
    q, d = P(3, "1 - y1 + 2*y3"), P(3, "1 + y1 + y2*y3")
    zero = Polynomial.zero(3)
    assert exchange((0, 0, 0), [(q * d, 1)], (0, 0, 0), [(zero, 1)], d) == q
    assert volumes == [18]
    far = Polynomial.monomial(3, ROUTE_MONOMIALS[1])
    assert exchange(ROUTE_MONOMIALS[1], [(q * d, 1)], (0, 0, 0), [(zero, 1)], d) == q * far
    assert volumes == [18]


def test_exchange_refuses_a_nonzero_packed_remainder():
    # d + y1 packs to d(2^w) + 2^w, which leaves the remainder 2^w on the
    # division by the packed d; its floor quotient, 1, would pass every
    # later check of the one-int route
    d = P(3, "1 + y1 + y2*y3")
    with pytest.raises(DivisibilityError):
        exchange((0, 0, 0), [(d, 1)], (1, 0, 0), [], d)
    with pytest.raises(DivisibilityError):
        long_division(d + P(3, "y1"), d)


def test_a_one_int_pass_refuses_a_quotient_slot_past_its_volume():
    # Exchange's own bound never gets this far: once the restart check
    # holds, q * d has no carries, so q's top slot is at most the
    # numerator's.  Handed a box too small for its numerator,
    # y1^2 (1 + y1) over 1 + y1 with bound 1, the pass packs y1 with radix
    # 2 (volume 2); the quotient y1^2 sits in slot 2, past the volume, and
    # raises rather than read as y1^0 modulo the volume.
    d = P(1, "1 + y1")
    sides = (((2,), [(d, 1)]), ((0,), [(Polynomial.zero(1), 1)]))
    with pytest.raises(DivisibilityError):
        algebra._packed_exchange(sides, d, [1], 1, 4)


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
    # exponents and powers are ints, not floats, strings or bools
    for mono in [(1.5, 0), (0, True), ("1", 0), (0, None)]:
        with pytest.raises(InputError, match="monomials"):
            exchange(mono, [], (0, 0), [], d)
        with pytest.raises(InputError, match="monomials"):
            exchange((0, 0), [], mono, [], d)
    for power in [1.5, "1", True, None]:
        with pytest.raises(InputError, match="power"):
            exchange((0, 0), [(d, power)], (0, 0), [], d)
        with pytest.raises(InputError, match="power"):
            exchange((0, 0), [], (0, 0), [(d, power)], d)
    # a factor or divisor that is not a polynomial raised AttributeError
    for bad in ["x", 1, None, {(0, 0): 1}]:
        with pytest.raises(InputError, match="factor"):
            exchange((0, 0), [(bad, 1)], (0, 0), [], d)
        with pytest.raises(InputError, match="factor"):
            exchange((0, 0), [], (0, 0), [(bad, 1)], d)
        with pytest.raises(InputError, match="divisor"):
            exchange((0, 0), [], (0, 0), [], bad)


def test_long_division_oracle():
    assert long_division(P(2, "1 + 2*y1 + y1^2 + y2 + y1*y2"), P(2, "1 + y1")) == P(
        2, "1 + y1 + y2"
    )
    with pytest.raises(DivisibilityError):
        long_division(P(2, "1 + y1^2"), P(2, "1 + y1"))


# -- large exponents ------------------------------------------------------------

def test_exponents_never_carry_into_a_neighbour():
    # exponents at and past 2^31 come back exact, whatever the operation
    n = 2**31
    big = Polynomial.monomial(2, [0, n - 1])
    assert big ** 3 == Polynomial.monomial(2, [0, 3 * n - 3])
    assert big * Polynomial.monomial(2, [1, 1]) == Polynomial.monomial(2, [1, n])
    p = P(2, "1 + y1") + big
    assert (p * p).max_exponents() == (2, 2 * n - 2)
    assert (p * p).exact_div(p) == p
    assert exchange((0, 0), [(p, 2)], (0, 0), [(Polynomial.zero(2), 1)], p) == p
    assert exchange((0, n // 2), [(Polynomial.monomial(2, [0, n // 2]), 1)], (0, n), [],
                    Polynomial.one(2)) == Polynomial.monomial(2, [0, n], 2)
    assert (p * p).text() == (
        "1 + 2*y1 + y1^2 + 2*y2^2147483647 + 2*y1*y2^2147483647 + y2^4294967294"
    )
    assert Polynomial.parse(2, (p * p).text()) == p * p
    # a seed carrying such an F-polynomial survives JSON and mutates on
    s = Seed.initial(alternating_quiver(DynkinType("A", 2)))
    s = replace(s, f=(s.f[0], Polynomial.monomial(2, [0, n]) + Polynomial.one(2)))
    back = Seed.from_json(s.to_json())
    assert back.equals(s)
    assert back.mutate(0).f[0] == P(2, "1 + y1 + y2^2147483648") == s.mutate(0).f[0]


@given(small_polys, small_polys)
def test_max_exponents_are_exact(p, q):
    def direct(poly):
        return tuple(max((e[i] for e, _ in poly.items()), default=0) for i in range(3))

    for poly in (p, q, p * q, p + q, p ** 2):
        assert poly.max_exponents() == direct(poly)


@given(small_polys, st.permutations(range(3)), st.lists(st.integers(1, 9), min_size=3, max_size=3))
@settings(max_examples=200)
def test_rename_moves_variables_and_carries_cached_data(p, perm, nums):
    perm = tuple(perm)
    inverse = tuple(sorted(range(3), key=perm.__getitem__))
    renamed = p.rename(perm)
    # y_i becomes y_perm[i]: evaluating at x equals evaluating p at x o perm
    point = [Fraction(x, 3) for x in nums]
    assert renamed.evaluate(point) == p.evaluate([point[j] for j in perm])
    assert renamed.rename(inverse) == p
    fresh = Polynomial(3, renamed.items())
    assert renamed.max_exponents() == fresh.max_exponents()
    assert renamed.norms() == fresh.norms()


def test_rename_by_a_three_cycle():
    p = P(3, "1 + y1 + 2*y1*y2^3")
    assert p.rename((1, 2, 0)) == P(3, "1 + y2 + 2*y2*y3^3")
    assert p.rename((1, 2, 0)).rename((2, 0, 1)) == p
    assert p.rename((0, 1, 2)) is p


def test_rename_needs_a_permutation():
    p = P(3, "1 + y1")
    # (True, 0, 2) renamed as (1, 0, 2) and (1.0, 0, 2) raised TypeError
    for perm in ((0, 1), (0, 1, 1), (0, 1, 3), (0, 1, 2, 3), (True, 0, 2), (1.0, 0, 2)):
        with pytest.raises(InputError, match="not a permutation"):
            p.rename(perm)


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


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: Polynomial(2, {(1,): 1}), "wrong length"),
        (lambda: P(1, "1 + y1").exact_div(Polynomial.zero(1)), "zero polynomial"),
        (lambda: Polynomial.parse(1, " "), "empty polynomial text"),
        (lambda: Polynomial.parse(1, "1 +"), "cannot parse"),
    ],
    ids=["exponent-length", "divide-by-zero", "blank-text", "dangling-sign"],
)
def test_polynomial_refusals(make, match):
    with pytest.raises(InputError, match=match):
        make()


def test_terms_that_cancel_are_not_stored():
    p = Polynomial(1, [((1,), 2), ((0,), 1), ((1,), -2)])
    assert p.terms == {(0,): 1} and p == Polynomial.one(1)


def test_equal_polynomials_hash_alike():
    p, q = P(2, "1 + y1*y2"), Polynomial(2, {(1, 1): 1, (0, 0): 1})
    assert p is not q and hash(p) == hash(q) and len({p, q, P(2, "1")}) == 2


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(InputError):
        Polynomial(1, {(-1,): 2})


def test_polynomial_refuses_what_int_would_truncate():
    # int() read 1.5 as 1 and 2.7 as 2, so {(1.5,): 2.7} was 2*y1, and a
    # bool exponent or coefficient as 0 or 1
    for terms in ({(1.5,): 2.7}, {(1.5,): 2}, {(1,): 2.7}, {(2.0,): 1}, {(1,): 3.0},
                  {(True,): 1}, {(1,): True}, {("1",): 1}, {(1,): "2"}):
        with pytest.raises(InputError, match="not integral"):
            Polynomial(1, terms)
    assert Polynomial(2, [((1, 0), 2), ((0, 3), -1)]).text() == "2*y1 - y2^3"
    # the text form parses to plain ints
    p = Polynomial.parse(2, "1 + 3*y1^2*y2")
    assert all(type(e) is int for exps in p.terms for e in exps)
    assert all(type(c) is int for c in p.terms.values())


def test_polynomial_refuses_a_variable_count_that_is_not_an_int():
    # Polynomial(True, {(1,): 1}) was y1 and Polynomial(2.5, {}).nvars 2.5;
    # parse(n, "0") skipped the constructor
    for nvars in (True, False, 2.5, 1.0, "2", None, -1):
        with pytest.raises(InputError, match="variable count"):
            Polynomial(nvars, {})
        # zero, one and constant skipped the constructor too
        for make in (Polynomial.zero, Polynomial.one, lambda n: Polynomial.constant(n, 3)):
            with pytest.raises(InputError, match="variable count"):
                make(nvars)
        for text in ("0", "1 + y1"):
            with pytest.raises(InputError, match="variable count"):
                Polynomial.parse(nvars, text)
    with pytest.raises(InputError, match="variable count"):
        Polynomial(True, {(1,): 1})


def test_power_refuses_an_exponent_that_is_not_an_int():
    # p ** True was p and p ** 2.0 raised TypeError
    p = P(2, "1 + y1")
    for k in (True, False, 2.0, "2", None, -1):
        with pytest.raises(InputError, match="power"):
            p ** k
    assert p ** 2 == p * p and p ** 0 == Polynomial.one(2)


def test_constant_refuses_what_int_would_truncate():
    # int() read 2.5 as 2 and True as 1
    for value in (2.5, True, "1"):
        with pytest.raises(InputError):
            Polynomial.constant(1, value)
    assert Polynomial.constant(1, 2).text() == "2"


# -- rational points ----------------------------------------------------------

def test_rational_point_requires_positivity():
    with pytest.raises(InputError):
        RationalPoint([Fraction(1), Fraction(0)])
    pt = RationalPoint([Fraction(1, 3), 2])
    assert len(pt) == 2 and pt[1] == 2


def test_rational_point_repr_shows_exact_values():
    assert repr(RationalPoint([1, Fraction(2, 3)])) == "RationalPoint(['1', '2/3'])"


def test_rational_point_random_is_reproducible():
    import random

    a = RationalPoint.random(4, random.Random(7))
    b = RationalPoint.random(4, random.Random(7))
    assert tuple(a) == tuple(b)
