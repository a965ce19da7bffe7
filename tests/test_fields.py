import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cancelkit.errors import ZeroInversion
from cancelkit.fields import (DEFAULT_PRIME, PrimeField, RationalField,
                              field_from_spec)


def test_default_prime_is_prime():
    p = DEFAULT_PRIME
    assert p == 32003
    assert all(p % q for q in range(2, int(p ** 0.5) + 1))


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(32004)


def test_basic_arithmetic_mod_p():
    F = PrimeField(7)
    assert F.add(3, 5) == 1
    assert F.sub(2, 5) == 4
    assert F.mul(3, 5) == 1
    assert F.neg(3) == 4
    assert F.normalize(-1) == 6


def test_inverse_mod_p():
    F = PrimeField(32003)
    for a in (1, 2, 17, 32002, 12345):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroInversion):
        F.inv(0)


def test_rational_field():
    F = RationalField()
    assert F.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert F.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert F.normalize(5) == Fraction(5)
    with pytest.raises(ZeroInversion):
        F.inv(Fraction(0))


def test_field_from_spec():
    assert field_from_spec("q").kind == "rationals"
    assert field_from_spec("zp:101").p == 101
    assert field_from_spec("zp(101)").p == 101
    with pytest.raises(ValueError):
        field_from_spec("gf:4")


def test_describe_round_trip():
    for spec in ("q", "zp:32003", "zp:101"):
        assert field_from_spec(spec).describe() == spec


def test_random_elements_deterministic():
    F = PrimeField(32003)
    a = [F.random(random.Random(42)) for _ in range(5)]
    b = [F.random(random.Random(42)) for _ in range(5)]
    assert a == b


@given(st.integers(), st.integers())
def test_field_ops_match_integers_mod_p(a, b):
    F = PrimeField(32003)
    p = 32003
    assert F.add(F.normalize(a), F.normalize(b)) == (a + b) % p
    assert F.mul(F.normalize(a), F.normalize(b)) == (a * b) % p
    assert F.sub(F.normalize(a), F.normalize(b)) == (a - b) % p


@given(st.integers(min_value=1, max_value=32002))
def test_inverse_is_two_sided(a):
    F = PrimeField(32003)
    assert F.mul(F.inv(a), a) == 1
