"""Groebner basis engine.

Buchberger's algorithm with Gebauer-Moller pair elimination.  Pair selection
uses the normal strategy (minimal lcm degree, then order) for graded orders
and the sugar strategy for lex/elimination orders.  The reduced basis is
canonical for the (ideal, order) pair, so recomputation from any generating
set of the same ideal yields identical output.

Internally monomials are packed into single integers whose most significant
fields spell out the monomial-order key, followed by a total-degree field and
guarded per-variable exponent fields.  Integer comparison then realizes the
monomial order, multiplication is integer addition (up to a constant), and
divisibility is a pair of mask operations.  A narrow layout (8-bit exponents)
is tried first and transparently restarted with a wide layout when any total
degree reaches the narrow capacity; degree checks at encode and reduction
time keep both layouts exact.
"""

from __future__ import annotations

import heapq

from .poly import MonomialOrder, PolyRing, Polynomial, RingMismatch

DEFAULT_PAIR_BUDGET = 2_000_000


class _NeedWide(Exception):
    """Internal: degrees outgrew the narrow packed layout; retry wide."""


class ResourceLimit(RuntimeError):
    """The configurable S-pair budget was exhausted."""

    def __init__(self, pairs_processed: int, max_pairs: int):
        super().__init__(
            f"pair budget exhausted: processed {pairs_processed} of {max_pairs}")
        self.pairs_processed = pairs_processed
        self.max_pairs = max_pairs


class _Codec:
    """Packs exponent tuples into order-embedding integers.

    Layout, low bits to high: guarded exponent fields (one per variable),
    a total-degree field, then the order-key fields with the dominant
    comparison block at the top.  For two packed monomials a, b:

      a < b as ints        iff  the monomial of a is smaller under the order
      a + b - one          is the packed product
      mask test on fields  decides divisibility

    The narrow layout (8-bit exponent fields, 16-bit key fields) keeps the
    integers small for the common case; any monomial reaching total degree
    ``deg_cap`` triggers _NeedWide and the computation restarts on the wide
    layout.  The cap is chosen so that every transient product of two stored
    monomials still fits its fields exactly.
    """

    __slots__ = ("n", "one", "pmask", "guard", "deg_shift", "deg_mask",
                 "deg_cap", "wide", "exp_nbytes", "var_of_byte",
                 "_coeff_vec", "_const", "_shifts", "_exp_mask")

    def __init__(self, ring: PolyRing, wide: bool = False):
        exp_bits = 16 if wide else 8
        key_bits = 32 if wide else 16
        deg_bits = 24 if wide else 16
        kcap = 1 << (key_bits - 2)
        n = ring.nvars
        self.n = n
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

        # total degree field
        pos = exp_bits * n
        self.deg_shift = pos
        self.deg_mask = (1 << deg_bits) - 1
        for i in range(n):
            coeff[i] += 1 << pos
        pos += deg_bits

        # order key fields, least significant block first
        maxweight = 1
        blocks = []
        for kind, start, stop, weights in ring.order.blocks:
            blocks.append((kind, start, n if stop is None else stop, weights))
            if weights is not None:
                maxweight = max(maxweight, *weights)
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
        self.one = const
        self._shifts = [exp_bits * i for i in range(n)]
        self.exp_nbytes = (exp_bits // 8) * n
        self.var_of_byte = [i // (exp_bits // 8) for i in range(self.exp_nbytes)]
        # stored monomials stay below deg_cap; transient products of two of
        # them then keep every exponent and key field carry-free
        self.deg_cap = min(1 << (exp_bits - 2), kcap // (2 * maxweight + 1))

    def encode(self, exps) -> int:
        if sum(exps) >= self.deg_cap:
            if self.wide:
                raise OverflowError("monomial degree too large to pack")
            raise _NeedWide
        m = self._const
        for c, e in zip(self._coeff_vec, exps):
            if e:
                m += c * e
        return m

    def decode(self, m: int) -> tuple:
        p = m & self.pmask
        return tuple((p >> s) & self._exp_mask for s in self._shifts)

    def support_mask(self, m: int) -> int:
        sm = 0
        for b, v in zip((m & self.pmask).to_bytes(self.exp_nbytes, "little"),
                        self.var_of_byte):
            if b:
                sm |= 1 << v
        return sm

    def divides(self, a: int, b: int) -> bool:
        g = self.guard
        t = ((b & self.pmask) | g) - (a & self.pmask)
        return (t & g) == g

    def lcm(self, ea: tuple, eb: tuple) -> int:
        return self.encode(tuple(x if x > y else y for x, y in zip(ea, eb)))

    def deg(self, m: int) -> int:
        return (m >> self.deg_shift) & self.deg_mask


class _Reducer:
    """Monic basis element prepared for division: packed head plus tail."""

    __slots__ = ("lm", "lm_full", "lmdeg", "smask", "tail", "sugar", "alive",
                 "index", "exps")

    def __init__(self, lm, tail, sugar, index, exps):
        self.lm = lm              # packed monomial
        self.lmdeg = 0
        self.smask = 0            # bit i set iff variable i appears in lm
        self.tail = tail          # tuple of (packed, coeff), head stripped
        self.sugar = sugar
        self.alive = True         # False once head-redundant (still a reducer)
        self.index = index
        self.exps = exps          # decoded exponents of lm, for lcm work


def _reduce_full(items, reducers, codec: _Codec, p: int, sugar: int = 0):
    """Full normal form of (packed, coeff) items against the reducer list.

    Returns (terms_desc, sugar); terms_desc sorted descending as packed ints.
    Reducers must be monic.
    """
    one = codec.one
    guard = codec.guard
    pmask = codec.pmask
    deg_shift = codec.deg_shift
    deg_mask = codec.deg_mask
    deg_cap = codec.deg_cap
    nbytes = codec.exp_nbytes
    var_of_byte = codec.var_of_byte
    coeffs: dict = {}
    get = coeffs.get
    for m, c in items:
        nc = (get(m, 0) + c) % p
        if nc:
            coeffs[m] = nc
        else:
            coeffs.pop(m, None)
    heap = [-m for m in coeffs]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    remainder = []
    while heap:
        m = -pop(heap)
        c = coeffs.pop(m, None)
        if c is None:
            continue
        dm = (m >> deg_shift) & deg_mask
        if dm >= deg_cap:
            if codec.wide:
                raise OverflowError("monomial degree too large to pack")
            raise _NeedWide
        mt = m & pmask
        sm = 0
        for b, v in zip(mt.to_bytes(nbytes, "little"), var_of_byte):
            if b:
                sm |= 1 << v
        notm = ~sm
        mp = mt | guard
        red = None
        for g in reducers:
            if g.lmdeg <= dm and not (g.smask & notm) \
                    and (mp - g.lm) & guard == guard:
                red = g
                break
        if red is None:
            remainder.append((m, c))
            continue
        q1 = m - red.lm_full + one - one
        dq = dm - red.lmdeg
        if red.sugar + dq > sugar:
            sugar = red.sugar + dq
        for m2, c2 in red.tail:
            nm = m2 + q1
            old = get(nm)
            if old is None:
                nc = (-c * c2) % p
                if nc:
                    coeffs[nm] = nc
                    push(heap, -nm)
            else:
                nc = (old - c * c2) % p
                if nc:
                    coeffs[nm] = nc
                else:
                    del coeffs[nm]
    return tuple(remainder), sugar


class GroebnerBasis:
    """Reduced Groebner basis: monic, mutually reduced, sorted by leading
    monomial ascending under the order."""

    __slots__ = ("elements", "ring", "order", "_codec", "_reducers")

    def __init__(self, elements, ring: PolyRing, codec: _Codec | None = None):
        self.elements = tuple(elements)
        self.ring = ring
        self.order = ring.order
        self._codec = codec if codec is not None else _Codec(ring)
        self._reducers = None

    def _prepared(self):
        if self._reducers is None:
            enc = self._codec.encode
            reds = []
            for i, f in enumerate(self.elements):
                lm = enc(f.terms[0][0])
                tail = tuple((enc(m), c) for m, c in f.terms[1:])
                r = _Reducer(lm, tail, 0, i, f.terms[0][0])
                r.lm_full = lm
                r.lm = lm & self._codec.pmask
                r.lmdeg = self._codec.deg(lm)
                r.smask = self._codec.support_mask(lm)
                reds.append(r)
            self._reducers = reds
        return self._reducers

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring.variables != self.ring.variables or f.ring.field != self.ring.field:
            raise RingMismatch("polynomial not over the basis ring")
        try:
            codec = self._codec
            items = [(codec.encode(m), c) for m, c in f.terms]
            terms, _ = _reduce_full(items, self._prepared(), codec,
                                    self.ring.field.p)
        except _NeedWide:
            self._codec = codec = _Codec(self.ring, wide=True)
            self._reducers = None
            items = [(codec.encode(m), c) for m, c in f.terms]
            terms, _ = _reduce_full(items, self._prepared(), codec,
                                    self.ring.field.p)
        dec = codec.decode
        return Polynomial(self.ring, tuple((dec(m), c) for m, c in terms))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].total_degree() == 0

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.ring == other.ring
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements, {self.order.name})"


def buchberger(generators, ring: PolyRing,
               order: MonomialOrder | None = None,
               pair_budget: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``."""
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
    budget = pair_budget if pair_budget is not None else DEFAULT_PAIR_BUDGET
    try:
        return _buchberger(generators, ring, budget, _Codec(ring))
    except _NeedWide:
        return _buchberger(generators, ring, budget, _Codec(ring, wide=True))


def _buchberger(generators, ring, budget, codec: _Codec) -> GroebnerBasis:
    one = codec.one
    p = ring.field.p
    graded = ring.order.is_graded()

    packed_gens = []
    for f in generators:
        if not f or not f.terms:
            continue
        items = sorted((codec.encode(m), c) for m, c in f.terms)
        items.reverse()
        lc = items[0][1]
        if lc != 1:
            inv = ring.field.inv(lc)
            items = [(m, c * inv % p) for m, c in items]
        packed_gens.append(items)
    # deterministic seed order: ascending leading monomial
    packed_gens.sort(key=lambda it: it[0][0])

    basis: list[_Reducer] = []
    pair_heap: list = []       # (priority, i, j)
    pair_set: dict = {}        # (i, j) -> packed lcm

    def pair_priority(i, j, lcm):
        dl = codec.deg(lcm)
        if graded:
            return (dl, lcm, j, i)
        gi, gj = basis[i], basis[j]
        sugar = max(gi.sugar + dl - gi.lmdeg, gj.sugar + dl - gj.lmdeg)
        return (sugar, dl, lcm, j, i)

    def add_element(terms, sugar):
        """Gebauer-Moller update with the new monic element."""
        lm_full = terms[0][0]
        exps = codec.decode(lm_full)
        t = len(basis)
        red = _Reducer(lm_full & codec.pmask, terms[1:], sugar, t, exps)
        red.lm_full = lm_full
        red.lmdeg = codec.deg(lm_full)
        red.smask = codec.support_mask(lm_full)

        # candidate new pairs, examined by ascending lcm
        cand = [(codec.lcm(exps, g.exps), g.index) for g in basis if g.alive]
        cand.sort()
        basis.append(red)
        kept: list = []
        for lcm, i in cand:
            skip = False
            for lcm2, _ in kept:
                if lcm2 == lcm or codec.divides(lcm2, lcm):
                    skip = True
                    break
            if skip:
                continue
            kept.append((lcm, i))
        # chain criterion against existing pairs
        for (i, j), lcm in list(pair_set.items()):
            if (codec.divides(lm_full, lcm)
                    and codec.lcm(basis[i].exps, exps) != lcm
                    and codec.lcm(basis[j].exps, exps) != lcm):
                del pair_set[(i, j)]
        # product criterion on the survivors
        for lcm, i in kept:
            if all(x == 0 or y == 0 for x, y in zip(exps, basis[i].exps)):
                continue
            pair_set[(i, t)] = lcm
            heapq.heappush(pair_heap, (pair_priority(i, t, lcm), i, t))
        # head-redundant old elements stop generating pairs
        for g in basis[:-1]:
            if g.alive and codec.divides(lm_full, g.lm_full):
                g.alive = False

    for items in packed_gens:
        sugar0 = max(codec.deg(m) for m, _ in items)
        terms, sugar = _reduce_full(items, basis, codec, p, sugar0)
        if not terms:
            continue
        if terms[0][1] != 1:
            inv = ring.field.inv(terms[0][1])
            terms = tuple((m, c * inv % p) for m, c in terms)
        add_element(terms, sugar)

    processed = 0
    while pair_heap:
        _, i, j = heapq.heappop(pair_heap)
        lcm = pair_set.pop((i, j), None)
        if lcm is None:
            continue
        processed += 1
        if processed > budget:
            raise ResourceLimit(processed, budget)
        gi, gj = basis[i], basis[j]
        qi = lcm - gi.lm_full + one
        qj = lcm - gj.lm_full + one
        spoly: dict = {lcm: 0}
        for m, c in ((gi.lm_full, 1),) + gi.tail:
            nm = m + qi - one
            spoly[nm] = (spoly.get(nm, 0) + c) % p
        for m, c in ((gj.lm_full, 1),) + gj.tail:
            nm = m + qj - one
            spoly[nm] = (spoly.get(nm, 0) - c) % p
        items = [(m, c) for m, c in spoly.items() if c]
        if not items:
            continue
        sugar0 = max(gi.sugar + codec.deg(qi), gj.sugar + codec.deg(qj))
        terms, sugar = _reduce_full(items, basis, codec, p, sugar0)
        if not terms:
            continue
        if terms[0][1] != 1:
            inv = ring.field.inv(terms[0][1])
            terms = tuple((m, c * inv % p) for m, c in terms)
        add_element(terms, sugar)

    return _interreduce(basis, ring, codec)


def _interreduce(basis, ring, codec) -> GroebnerBasis:
    """Minimalize heads, then tail-reduce everything: the reduced GB."""
    live = sorted(basis, key=lambda g: g.lm_full)
    minimal: list[_Reducer] = []
    for g in live:
        if any(codec.divides(h.lm_full, g.lm_full) for h in minimal):
            continue
        minimal.append(g)
    p = ring.field.p
    out = []
    dec = codec.decode
    for g in minimal:
        others = [h for h in minimal if h is not g]
        tail, _ = _reduce_full(g.tail, others, codec, p)
        terms = ((dec(g.lm_full), 1),) + tuple((dec(m), c) for m, c in tail)
        out.append(Polynomial(ring, terms))
    out.sort(key=lambda f: ring._key(f.terms[0][0]))
    return GroebnerBasis(out, ring, codec)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the reduced basis G."""
    return G.normal_form(f)


class Ideal:
    """Generator list with a cached reduced Groebner basis per order and a
    cached Hilbert series (written by ``homalg.hilbert_data``)."""

    def __init__(self, ring: PolyRing, generators):
        for g in generators:
            if g.ring.variables != ring.variables or g.ring.field != ring.field:
                raise RingMismatch("generator not over the ideal's ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if g.terms)
        self._gb_cache: dict = {}
        self._hilbert_cache = None

    def groebner(self, order: MonomialOrder | None = None,
                 pair_budget: int | None = None) -> GroebnerBasis:
        order = order if order is not None else self.ring.order
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, self.ring, order,
                            pair_budget=pair_budget)
            self._gb_cache[order] = gb
        return gb

    def contains(self, f: Polynomial, order=None) -> bool:
        return self.groebner(order).contains(f)

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators in {self.ring!r})"


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder | None = None,
                pair_budget: int | None = None) -> bool:
    """True iff the reduced Groebner bases coincide."""
    if I.ring.variables != J.ring.variables or I.ring.field != J.ring.field:
        raise RingMismatch("ideals over different rings")
    order = order if order is not None else I.ring.order
    gb1 = I.groebner(order, pair_budget=pair_budget)
    gb2 = J.groebner(order, pair_budget=pair_budget)
    return [f.terms for f in gb1] == [f.terms for f in gb2]
