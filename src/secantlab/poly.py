"""Sparse multivariate polynomials over a prime field.

Monomials are plain exponent tuples; a :class:`MonomialOrder` compiles to a
sort-key function so that all comparisons reduce to Python tuple comparison.
Polynomials keep their terms sorted strictly descending under the ring's
active order, with no zero coefficients and no duplicate monomials.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .arith import PrimeField


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


class ArityMismatch(ValueError):
    """Monomials with different exponent lengths."""


class RingMismatch(ValueError):
    """Operands belong to different polynomial rings."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialOrder:
    """A total order on monomials, described by comparison blocks.

    Each block is ``(kind, start, stop, weights)`` with kind ``"grevlex"`` or
    ``"lex"``; blocks are compared left to right, so a leading block acts as
    an elimination block for its variables.  ``weights`` (optional, per
    block) replace the total degree by a weighted degree inside the block.
    All orders built here are global (1 is the smallest monomial) and an
    elimination block dominates everything after it.
    """

    blocks: tuple = ()
    name: str = "grevlex"

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder((("grevlex", 0, None, None),), "grevlex")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder((("lex", 0, None, None),), "lex")

    @staticmethod
    def block_elim(first_block_size: int,
                   weights: tuple | None = None) -> "MonomialOrder":
        """Eliminate the first ``first_block_size`` variables; grevlex inside
        both blocks.  ``weights``, when given, covers all variables and makes
        each block compare by weighted degree first."""
        s = first_block_size
        w1 = w2 = None
        if weights is not None:
            w1, w2 = tuple(weights[:s]), tuple(weights[s:])
        return MonomialOrder(
            (("grevlex", 0, s, w1), ("grevlex", s, None, w2)),
            f"block_elim({s})",
        )

    def key_function(self, nvars: int):
        """Compile to a function exponent-tuple -> comparable key (larger key
        means larger monomial)."""
        parts = []
        for kind, start, stop, weights in self.blocks:
            stop_ = nvars if stop is None else stop
            parts.append((kind, start, stop_, weights))

        if (self.name == "grevlex" and len(parts) == 1):
            def key(e):
                return (sum(e), tuple(-x for x in reversed(e)))
            return key
        if self.name == "lex":
            def key(e):
                return e
            return key

        def key(e):
            out = []
            for kind, start, stop_, weights in parts:
                seg = e[start:stop_]
                if kind == "lex":
                    out.append(seg)
                else:
                    if weights is None:
                        d = sum(seg)
                    else:
                        d = sum(w * x for w, x in zip(weights, seg))
                    out.append(d)
                    out.append(tuple(-x for x in reversed(seg)))
            return tuple(out)
        return key

    def is_graded(self) -> bool:
        """True when the order refines total degree (single unit-weight
        degree-first block)."""
        return (len(self.blocks) == 1 and self.blocks[0][0] == "grevlex"
                and self.blocks[0][3] is None)

    def __repr__(self):
        return f"MonomialOrder({self.name})"


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class PolyRing:
    """k[x_1..x_n] with a coefficient field and a monomial order."""

    __slots__ = ("variables", "field", "order", "_index", "_key", "zero",
                 "one")

    def __init__(self, variables, field: PrimeField,
                 order: MonomialOrder | None = None):
        if isinstance(variables, str):
            variables = tuple(v.strip() for v in variables.split(","))
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not _NAME_RE.fullmatch(v):
                raise ValueError(f"bad variable name {v!r}")
        self.variables = variables
        self.field = field
        self.order = order if order is not None else MonomialOrder.grevlex()
        self._index = {v: i for i, v in enumerate(variables)}
        self._key = self.order.key_function(len(variables))
        self.zero = Polynomial(self, ())
        one_mon = (0,) * len(variables)
        self.one = Polynomial(self, ((one_mon, 1),))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, mon: tuple):
        return self._key(mon)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def gen(self, i: int) -> "Polynomial":
        mon = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((mon, 1),))

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def var(self, name: str) -> "Polynomial":
        return self.gen(self.var_index(name))

    def monomial(self, exps) -> "Polynomial":
        return Polynomial(self, ((tuple(exps), 1),))

    def constant(self, c: int) -> "Polynomial":
        c %= self.field.p
        if c == 0:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def from_dict(self, coeffs: dict) -> "Polynomial":
        p = self.field.p
        terms = [(m, c % p) for m, c in coeffs.items() if c % p]
        terms.sort(key=lambda t: self._key(t[0]), reverse=True)
        return Polynomial(self, tuple(terms))

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.variables, self.field, order)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.field == other.field
                and self.order == other.order)

    def __hash__(self):
        return hash((self.variables, self.field.p, self.order))

    def __repr__(self):
        return (f"PolyRing(F_{self.field.p}[{', '.join(self.variables)}], "
                f"{self.order.name})")


class Polynomial:
    """Immutable sparse polynomial; terms sorted strictly descending."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lm(self) -> tuple:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return self.terms[0][0]

    @property
    def lc(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("degree of the zero polynomial")
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(m) == d for m, _ in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.terms[0][1]
        if c == 1:
            return self
        fld = self.ring.field
        ci = fld.inv(c)
        p = fld.p
        return Polynomial(self.ring,
                          tuple((m, c2 * ci % p) for m, c2 in self.terms))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.field.p
        coeffs = dict(self.terms)
        for m, c in other.terms:
            nc = (coeffs.get(m, 0) + c) % p
            if nc:
                coeffs[m] = nc
            else:
                coeffs.pop(m, None)
        return self.ring.from_dict(coeffs)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring,
                          tuple((m, (-c) % p) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.field.p
            if c == 0:
                return self.ring.zero
            p = self.ring.field.p
            return Polynomial(self.ring,
                              tuple((m, c0 * c % p) for m, c0 in self.terms))
        self._check(other)
        p = self.ring.field.p
        coeffs: dict = {}
        get = coeffs.get
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                coeffs[m] = (get(m, 0) + c1 * c2) % p
        return self.ring.from_dict(coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def term_mul(self, mon: tuple, coeff: int) -> "Polynomial":
        p = self.ring.field.p
        return Polynomial(self.ring,
                          tuple((tuple(x + y for x, y in zip(m, mon)),
                                 c * coeff % p) for m, c in self.terms))

    def derivative(self, i: int) -> "Polynomial":
        p = self.ring.field.p
        coeffs = {}
        for m, c in self.terms:
            e = m[i]
            if e == 0:
                continue
            nm = m[:i] + (e - 1,) + m[i + 1:]
            nc = (coeffs.get(nm, 0) + c * e) % p
            coeffs[nm] = nc
        return self.ring.from_dict(coeffs)

    def evaluate(self, point) -> int:
        """Evaluate at a tuple of field values (ints)."""
        p = self.ring.field.p
        total = 0
        for m, c in self.terms:
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * pow(x, e, p) % p
            total = (total + v) % p
        return total

    def compose(self, images, target: PolyRing) -> "Polynomial":
        """Substitute images[i] (a Polynomial over target) for variable i."""
        if len(images) != self.ring.nvars:
            raise ArityMismatch(
                f"need {self.ring.nvars} images, got {len(images)}")
        result = target.zero
        for m, c in self.terms:
            term = target.constant(c)
            for img, e in zip(images, m):
                if e:
                    term = term * img ** e
            result = result + term
        return result

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------
# expr  := ['-'] term (('+'|'-') term)*
# term  := coeff? ('*'? var ('^' nat)?)*
# coeff := nat
# Whitespace ignored.  Example: "3x^2y - z + 17".

def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    p = ring.field.p
    n = ring.nvars
    pos = 0
    length = len(text)

    def skip_ws(i):
        while i < length and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == length:
        raise ParseError("empty input", pos)

    coeffs: dict = {}
    sign = 1
    if text[pos] == "-":
        sign = -1
        pos = skip_ws(pos + 1)
    elif text[pos] == "+":
        pos = skip_ws(pos + 1)

    while True:
        # one term
        term_start = pos
        coeff = None
        exps = [0] * n
        if pos < length and text[pos].isdigit():
            j = pos
            while j < length and text[j].isdigit():
                j += 1
            coeff = int(text[pos:j]) % p
            pos = skip_ws(j)
        saw_var = False
        while pos < length:
            if text[pos] == "*":
                pos = skip_ws(pos + 1)
                if pos >= length or not (text[pos].isalpha() or text[pos].isdigit()):
                    raise ParseError("dangling '*'", pos)
                if text[pos].isdigit():
                    raise ParseError("coefficient must precede variables", pos)
            m = _NAME_RE.match(text, pos)
            if not m:
                break
            name = m.group(0)
            idx = ring._index.get(name)
            if idx is None:
                raise UnknownVariable(name)
            pos = skip_ws(m.end())
            exp = 1
            if pos < length and text[pos] == "^":
                pos = skip_ws(pos + 1)
                j = pos
                while j < length and text[j].isdigit():
                    j += 1
                if j == pos:
                    raise ParseError("missing exponent after '^'", pos)
                exp = int(text[pos:j])
                pos = skip_ws(j)
            exps[idx] += exp
            saw_var = True
        if coeff is None:
            if not saw_var:
                raise ParseError("expected a term", term_start)
            coeff = 1
        c = sign * coeff % p
        mon = tuple(exps)
        nc = (coeffs.get(mon, 0) + c) % p
        if nc:
            coeffs[mon] = nc
        else:
            coeffs.pop(mon, None)
        if pos == length:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = skip_ws(pos + 1)
        if pos == length:
            raise ParseError("trailing operator", pos)

    return ring.from_dict(coeffs)


def format_polynomial(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    ring = f.ring
    p = ring.field.p
    parts = []
    for i, (m, c) in enumerate(f.terms):
        # print large residues as negatives for readability
        if c > p // 2:
            sign, c = "-", p - c
        else:
            sign = "+"
        factors = []
        for name, e in zip(ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(c)] + factors)
        if i == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
