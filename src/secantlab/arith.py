"""Prime-field arithmetic: the coefficient domain for everything else.

Coefficients are plain Python ints in [0, p), reduced with ``% p`` where
they are computed; ``PrimeField`` carries the modulus and supplies the
operations that are more than one ``%``: inversion and square roots.
"""

from __future__ import annotations

from math import isqrt

DEFAULT_PRIME = 32003

# The largest modulus PrimeField accepts: the supported range of primes,
# which the tests cover up to its top.  All arithmetic is on Python ints, so
# this is not an arithmetic limit.
MAX_PRIME = 5931641


class DivisionByZero(ZeroDivisionError):
    """Inversion of the zero element."""


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to isqrt(n): at most
    1,218 divisions for n <= MAX_PRIME.  The work grows as sqrt(n), so
    callers check the supported range first."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, isqrt(n) + 1, 2))


class PrimeField:
    """The field F_p for an odd prime p <= MAX_PRIME."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the largest supported "
                             f"prime {MAX_PRIME}")
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def sqrt(self, a: int) -> int | None:
        """A square root of a mod p, or None if a is a non-residue.

        Tonelli-Shanks; for p = 3 (mod 4) its loop is empty and the root is
        a^((p+1)/4).
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

