"""Prime-field arithmetic: the coefficient domain for everything else.

All heavy code paths (Groebner reduction, linear algebra) work on plain
Python ints reduced mod p and call the ``PrimeField`` methods directly;
``FieldElement`` is the convenience wrapper for user-facing code.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_PRIME = 32003

# The rank routine (homalg._rank_mod) eliminates in float64 with updates
# delayed over RANK_BLOCK pivots, so every intermediate value is at most
# RANK_BLOCK * (p - 1)^2 + p.  That is exact while it stays below 2^53, i.e.
# for p <= 5931642; MAX_PRIME is the largest prime in that range and the
# largest modulus PrimeField accepts.
RANK_BLOCK = 256
MAX_PRIME = 5931641

# Witnesses making Miller-Rabin deterministic for everything below 3.3 * 10^24,
# far beyond any machine-word modulus we accept.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class DivisionByZero(ZeroDivisionError):
    """Inversion of the zero element."""


class FieldMismatch(ValueError):
    """Operands live in prime fields with different moduli."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-sized integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for an odd prime p <= MAX_PRIME."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the largest supported "
                             f"prime {MAX_PRIME}")
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.p

    def sqrt(self, a: int) -> int | None:
        """A square root of a mod p, or None if a is a non-residue.

        Uses the p = 3 (mod 4) exponentiation shortcut when available and
        Tonelli-Shanks otherwise.
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks
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

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.p, self)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


@dataclass(frozen=True)
class FieldElement:
    """A canonical representative in [0, p)."""

    value: int
    field: PrimeField

    def __post_init__(self):
        if not 0 <= self.value < self.field.p:
            object.__setattr__(self, "value", self.value % self.field.p)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field.p != self.field.p:
                raise FieldMismatch(
                    f"moduli differ: {self.field.p} vs {other.field.p}"
                )
            return other.value
        return other % self.field.p

    def __add__(self, other):
        return FieldElement(self.field.add(self.value, self._coerce(other)), self.field)

    def __sub__(self, other):
        return FieldElement(self.field.sub(self.value, self._coerce(other)), self.field)

    def __mul__(self, other):
        return FieldElement(self.field.mul(self.value, self._coerce(other)), self.field)

    def __neg__(self):
        return FieldElement(self.field.neg(self.value), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __truediv__(self, other):
        return FieldElement(self.field.div(self.value, self._coerce(other)), self.field)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"
