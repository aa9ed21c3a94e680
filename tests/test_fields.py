"""Field backends: exact arithmetic, parsing, canonical formatting."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sheafforms import FpElement, ParseError, PrimeField, RationalField, field_from_name
from sheafforms.fields import MAX_PRIME


class TestRationals:
    def test_identity_elements(self, rationals):
        assert rationals.zero == Fraction(0)
        assert rationals.one == Fraction(1)
        assert rationals.characteristic == 0

    def test_parse_fraction(self, rationals):
        assert rationals.parse("3/4") == Fraction(3, 4)
        assert rationals.parse("-7/2") == Fraction(-7, 2)
        assert rationals.parse("5") == Fraction(5)

    def test_parse_garbage(self, rationals):
        for bad in ("", "x", "1/0", "1.5", "1/2/3"):
            with pytest.raises(ParseError):
                rationals.parse(bad)

    def test_format_always_carries_denominator(self, rationals):
        assert rationals.format(Fraction(3)) == "3/1"
        assert rationals.format(Fraction(-1, 2)) == "-1/2"

    @given(st.fractions())
    def test_round_trip(self, x):
        field = RationalField()
        assert field.parse(field.format(x)) == x

    def test_enumeration_refused(self, rationals):
        with pytest.raises(ValueError):
            rationals.elements()


class TestPrimeField:
    def test_rejects_non_prime_and_two(self):
        for bad in (1, 2, 4, 9, 15):
            with pytest.raises(ParseError):
                PrimeField(bad)

    def test_order_at_the_limit_and_above(self):
        largest = 2**31 - 1  # a prime
        assert largest <= MAX_PRIME < largest + 2
        assert PrimeField(largest).p == largest
        for big in (MAX_PRIME + 1, 10**18 + 3):  # the second is prime
            with pytest.raises(ParseError) as err:
                PrimeField(big)
            assert err.value.message == f"prime field order must be at most {MAX_PRIME}, got {big}"

    def test_huge_prime_name_is_refused(self):
        # trial division on this prime would not finish
        with pytest.raises(ParseError):
            field_from_name("gf:1000000000000000003")

    def test_arithmetic(self, gf3):
        one = gf3.one
        two = one + one
        assert two + two == one
        assert two * two == one
        assert -one == two
        assert two / two == one
        assert (one / two) * two == one

    def test_scalar_equality_with_int(self, gf3):
        assert gf3.parse("2") == 2
        assert gf3.parse("2") == 5  # lifted mod 3
        assert gf3.parse("2") != 1

    def test_mixed_characteristic_rejected(self, gf3):
        with pytest.raises(ValueError):
            gf3.one + PrimeField(5).one

    def test_parse_and_format(self, gf3):
        assert gf3.format(gf3.parse("2 mod 3")) == "2 mod 3"
        assert gf3.parse("5") == gf3.parse("2 mod 3")
        with pytest.raises(ParseError):
            gf3.parse("2 mod 5")
        with pytest.raises(ParseError):
            gf3.parse("two")

    def test_elements_enumerate_the_whole_field(self, gf3):
        els = gf3.elements()
        assert len(els) == 3
        assert len(set(els)) == 3

    def test_division_by_zero(self, gf3):
        with pytest.raises(ZeroDivisionError):
            gf3.one / gf3.zero

    @given(st.integers(), st.integers())
    def test_ring_laws_gf7(self, a, b):
        p = PrimeField(7)
        x, y = FpElement(a % 7, 7), FpElement(b % 7, 7)
        assert x + y == y + x
        assert x * y == y * x
        assert x + (-x) == p.zero
        if y != p.zero:
            assert (x / y) * y == x


def test_field_from_name():
    assert field_from_name("rationals").name == "rationals"
    assert field_from_name("gf:7").name == "gf:7"
    for bad in ("reals", "gf:4", "gf:", "gf:x"):
        with pytest.raises(ParseError):
            field_from_name(bad)


def test_random_scalars_are_reproducible(rationals, gf3):
    for field in (rationals, gf3):
        a = [field.random_scalar(Random(9)) for _ in range(20)]
        b = [field.random_scalar(Random(9)) for _ in range(20)]
        assert a == b
        assert all(field.random_nonzero(Random(s)) != field.zero for s in range(50))
