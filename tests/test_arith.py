import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantlab.arith import (DEFAULT_PRIME, MAX_PRIME, DivisionByZero,
                             PrimeField, is_prime)

F = PrimeField(32003)
F7 = PrimeField(7)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(32003)
    assert is_prime(31013)
    for n in (0, 1, 4, 9, 100, 32001, 32002):
        assert not is_prime(n)


def _sieve(lo, hi):
    """The primes in [lo, hi), by an Eratosthenes sieve of [0, hi)."""
    flags = bytearray([1]) * hi
    flags[:2] = b"\0\0"
    for q in range(2, int(hi ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, hi, q)))
    return {n for n in range(lo, hi) if flags[n]}


def test_is_prime_agrees_with_a_sieve():
    assert {n for n in range(10 ** 5) if is_prime(n)} == _sieve(0, 10 ** 5)
    lo, hi = MAX_PRIME - 100, MAX_PRIME + 101
    assert {n for n in range(lo, hi) if is_prime(n)} == _sieve(lo, hi)


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(10)


def test_largest_supported_prime():
    # the top of the supported range is accepted, the next prime is not
    assert is_prime(MAX_PRIME)
    assert PrimeField(MAX_PRIME).p == MAX_PRIME
    q = MAX_PRIME + 1
    while not is_prime(q):
        q += 1
    with pytest.raises(ValueError, match="largest supported"):
        PrimeField(q)


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        F.inv(0)


@given(st.integers(min_value=1, max_value=32002))
def test_inverse_property(a):
    assert a * F.inv(a) % 32003 == 1


@given(st.integers(min_value=0, max_value=32002))
def test_sqrt_of_square(a):
    s = F.sqrt(a * a % 32003)
    assert s is not None
    assert s * s % 32003 == a * a % 32003


def test_sqrt_nonresidue_returns_none():
    # count: exactly (p-1)/2 nonzero squares
    squares = sum(1 for a in range(1, 7) if F7.sqrt(a) is not None)
    assert squares == 3



@pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31, 43])
def test_sqrt_is_the_exponentiation_root_when_p_is_3_mod_4(p):
    # for p = 3 (mod 4), a^((p+1)/4) is a root of every residue a
    field = PrimeField(p)
    squares = {a * a % p for a in range(p)}
    for a in range(p):
        expected = pow(a, (p + 1) // 4, p) if a in squares else None
        assert field.sqrt(a) == expected


@pytest.mark.parametrize("p", [5, 13, 17, 29, 101])
def test_sqrt_finds_a_root_exactly_of_the_residues(p):
    field = PrimeField(p)
    squares = {a * a % p for a in range(p)}
    for a in range(p):
        s = field.sqrt(a)
        assert (s is None) == (a not in squares)
        assert s is None or s * s % p == a
