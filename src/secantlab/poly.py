"""Sparse multivariate polynomials over a prime field.

Monomials are plain exponent tuples; a :class:`MonomialOrder`, an
immutable ``NamedTuple`` record equal and hashed by value, compiles to
packed integers (:class:`_Codec`) whose integer comparison is the order.
Polynomials keep their terms sorted strictly descending by the wide packed
key, with no zero coefficients and no duplicate monomials; building one
with a monomial too large to pack (total degree 16384 or more) raises
:class:`DegreeTooLarge`.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple

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


class _NeedWide(Exception):
    """Internal: degrees outgrew the narrow packed layout; retry wide."""


class DegreeTooLarge(OverflowError):
    """A monomial degree exceeds what even the wide packed layout holds."""


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder(NamedTuple):
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

    def __repr__(self):
        return f"MonomialOrder({self.name})"


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

class _Codec:
    """Packs exponent tuples into order-embedding integers.

    Layout, low bits to high: guarded exponent fields (one per variable),
    a total-degree field, then the order-key fields with the dominant
    comparison block at the top.  For two packed monomials a, b:

      a < b as ints        iff  the monomial of a is smaller under the order
      a + b - encode(0…0)  is the packed product
      mask test on fields  decides divisibility

    The narrow layout (8-bit exponent fields, 16-bit key fields) keeps the
    integers small for the common case; any monomial reaching total degree
    ``deg_cap`` triggers _NeedWide and the computation restarts on the wide
    layout.  The cap is chosen so that every transient product of two stored
    monomials still fits its fields exactly.
    """

    __slots__ = ("pmask", "guard", "low", "ones", "exp_bits", "deg_shift",
                 "deg_mask", "deg_cap", "wide", "order_weights", "_coeff_vec",
                 "_const", "_shifts", "_exp_mask", "_sum_shift")

    def __init__(self, ring: PolyRing, wide: bool = False):
        exp_bits = 16 if wide else 8
        key_bits = 32 if wide else 16
        deg_bits = 24 if wide else 16
        kcap = 1 << (key_bits - 2)
        n = ring.nvars
        self.wide = wide
        # linear form: packed(e) = const + sum_i coeff[i] * e_i
        coeff = [0] * n
        const = 0

        # exponent fields with guard bits
        for i in range(n):
            coeff[i] += 1 << (exp_bits * i)
        self.pmask = (1 << (exp_bits * n)) - 1
        self.guard = 0
        for i in range(n):
            self.guard |= (1 << (exp_bits - 1)) << (exp_bits * i)
        self._exp_mask = (1 << exp_bits) - 1
        self.exp_bits = exp_bits
        self.low = self.pmask & ~self.guard
        self.ones = sum(1 << (exp_bits * i) for i in range(n))
        # field n-1 of word * ones holds the sum of all fields
        self._sum_shift = exp_bits * max(n - 1, 0)

        # total degree field
        pos = exp_bits * n
        self.deg_shift = pos
        self.deg_mask = (1 << deg_bits) - 1
        for i in range(n):
            coeff[i] += 1 << pos
        pos += deg_bits

        # order key fields, least significant block first; order_weights
        # grades each variable by its block's weight, 1 in an unweighted one
        blocks = []
        order_weights = [1] * n
        for kind, start, stop, weights in ring.order.blocks:
            stop = n if stop is None else stop
            blocks.append((kind, start, stop, weights))
            if weights is not None:
                order_weights[start:stop] = weights
        self.order_weights = tuple(order_weights)
        maxweight = max(order_weights, default=1)
        for kind, start, stop, weights in reversed(blocks):
            idx = list(range(start, stop))
            if kind == "lex":
                # least significant variable last in the block
                for i in reversed(idx):
                    coeff[i] += 1 << pos
                    pos += key_bits
            else:
                # grevlex: reversed negated exponents below, degree above
                for i in idx:
                    const += (kcap << pos)
                    coeff[i] -= 1 << pos
                    pos += key_bits
                w = weights if weights is not None else (1,) * len(idx)
                for wi, i in zip(w, idx):
                    coeff[i] += wi << pos
                pos += key_bits
        self._coeff_vec = coeff
        self._const = const
        self._shifts = [exp_bits * i for i in range(n)]
        # stored monomials stay below deg_cap; transient products of two of
        # them then keep every exponent and key field carry-free
        self.deg_cap = min(1 << (exp_bits - 2), kcap // (2 * maxweight + 1))

    def too_large(self):
        """Raise for a monomial of total degree >= deg_cap."""
        if self.wide:
            raise DegreeTooLarge("monomial degree too large to pack")
        raise _NeedWide

    def encode(self, exps) -> int:
        if sum(exps) >= self.deg_cap:
            self.too_large()
        m = self._const
        for c, e in zip(self._coeff_vec, exps):
            if e:
                m += c * e
        return m

    def decode(self, m: int) -> tuple:
        p = m & self.pmask
        return tuple((p >> s) & self._exp_mask for s in self._shifts)

    def deg(self, m: int) -> int:
        return (m >> self.deg_shift) & self.deg_mask

    def times(self, m: int, a: int) -> int:
        """The packed monomial m times x^a, for the exponent word a."""
        m += sum(c * ((a >> s) & self._exp_mask)
                 for c, s in zip(self._coeff_vec, self._shifts))
        if self.deg(m) >= self.deg_cap:
            self.too_large()
        return m

    # Exponent words: packed monomials masked by pmask, every field below
    # deg_cap.  (a | guard) - b keeps each field's guard bit exactly where
    # a_i >= b_i, and no borrow crosses a field.

    def exp_colon(self, a: int, b: int) -> int:
        """The word of a / gcd(a, b), i.e. max(a_i - b_i, 0) per field."""
        t = (a | self.guard) - b
        ge = t & self.guard
        return t & (ge - (ge >> (self.exp_bits - 1)))

    def exp_lcm(self, a: int, b: int) -> int:
        """The word of lcm(a, b); a and b are coprime iff it is a + b."""
        ge = ((a | self.guard) - b) & self.guard
        fm = ge - (ge >> (self.exp_bits - 1))   # low bits where a_i >= b_i
        return (a & fm) | (b & (self.low ^ fm))

    def exp_deg(self, a: int) -> int:
        """Total degree of a word whose field sum is below 2^exp_bits."""
        return ((a * self.ones) >> self._sum_shift) & self._exp_mask

    def exp_nonzero(self, a: int) -> int:
        """The guard bits of the nonzero fields of a word."""
        return ((a | self.guard) - self.ones) & self.guard

    def weigher(self, weights):
        """Weighted degree of a word, sum_i w_i a_i, as one total degree per
        distinct weight."""
        fields: dict = {}
        for w, s in zip(weights, self._shifts):
            fields[w] = fields.get(w, 0) | (self._exp_mask << s)
        deg = self.exp_deg
        fields = tuple(fields.items())
        return lambda a: sum(w * deg(a & f) for w, f in fields)


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
        self._key = _Codec(self, wide=True).encode
        self.zero = Polynomial(self, ())
        one_mon = (0,) * len(variables)
        self.one = Polynomial(self, ((one_mon, 1),))

    @property
    def nvars(self) -> int:
        return len(self.variables)

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
        """Substitute images[i] (a Polynomial over target) for variable i.

        The powers of each image are built once (their products check the
        ring), and the terms of the result are collected in one dict and
        sorted once."""
        if len(images) != self.ring.nvars:
            raise ArityMismatch(
                f"need {self.ring.nvars} images, got {len(images)}")
        p = target.field.p
        powers = []
        tops = map(max, zip(*(m for m, _ in self.terms)))
        for img, top in zip(images, tops):
            pw = [target.one]
            for _ in range(top):
                pw.append(pw[-1] * img)
            powers.append([f.terms for f in pw])
        one = (0,) * target.nvars
        out: dict = {}
        for m, c in self.terms:
            term = {one: c}
            for pw, e in zip(powers, m):
                if e:
                    prod: dict = {}
                    for m1, c1 in term.items():
                        for m2, c2 in pw[e]:
                            mm = tuple(map(add, m1, m2))
                            prod[mm] = (prod.get(mm, 0) + c1 * c2) % p
                    term = prod
            for mm, cc in term.items():
                out[mm] = out.get(mm, 0) + cc
        return target.from_dict(out)

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
