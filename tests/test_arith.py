import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantlab.arith import (DEFAULT_PRIME, MAX_PRIME, RANK_BLOCK,
                             DivisionByZero, FieldElement, PrimeField,
                             is_prime)

F = PrimeField(32003)
F7 = PrimeField(7)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(32003)
    assert is_prime(31013)
    for n in (0, 1, 4, 9, 100, 32001, 32002):
        assert not is_prime(n)


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_largest_supported_prime():
    # float64 stays exact below 2^53 in the blocked rank routine
    def exact(p):
        return RANK_BLOCK * (p - 1) ** 2 + p < 2 ** 53
    assert is_prime(MAX_PRIME) and exact(MAX_PRIME)
    assert PrimeField(MAX_PRIME).p == MAX_PRIME
    q = MAX_PRIME + 1
    while not is_prime(q):
        q += 1
    assert not exact(q)
    with pytest.raises(ValueError, match="largest supported"):
        PrimeField(q)


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        F.inv(0)


@given(st.integers(min_value=1, max_value=32002))
def test_inverse_property(a):
    assert F.mul(a, F.inv(a)) == 1


@given(st.integers(), st.integers())
def test_addition_wraps(a, b):
    assert F.add(a, b) == (a + b) % 32003


@given(st.integers(min_value=0, max_value=32002))
def test_sqrt_of_square(a):
    s = F.sqrt(F.mul(a, a))
    assert s is not None
    assert F.mul(s, s) == F.mul(a, a)


def test_sqrt_nonresidue_returns_none():
    # count: exactly (p-1)/2 nonzero squares
    squares = sum(1 for a in range(1, 7) if F7.sqrt(a) is not None)
    assert squares == 3


def test_field_element_arithmetic():
    a = F.element(5)
    b = F.element(32000)
    assert (a + b).value == 2
    assert (a * b).value == (5 * 32000) % 32003
    assert (-a).value == 32003 - 5
    assert (a / a).value == 1
    assert bool(F.element(0)) is False


def test_element_mixed_field_rejected():
    with pytest.raises(Exception):
        F.element(1) + F7.element(1)
