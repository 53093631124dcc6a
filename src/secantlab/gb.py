"""Groebner basis engine.

Buchberger's algorithm with Gebauer-Moller pair elimination.  The main
loop reduces each generator and S-polynomial only until its head is
irreducible and stores the rest unreduced: Buchberger's criterion needs
irreducible heads only.  Tails are fully reduced once, when the finished
basis is interreduced, and ``GroebnerBasis.normal_form`` always reduces
fully.  Every run has one selection rule: the loop takes a whole weighted
degree at once, every generator and pair whose head or lcm has the lowest
degree d left, generators first, then pairs by ascending lcm.  The weights
are the target's when there is one, else the order's (a block's weights, 1
in a block without), so on homogeneous input this is the normal strategy.
On such input the batch is closed: an element added in degree d forms
pairs of lcm degree > d only, for an lcm equal to its head would make that
head reducible.  The batch's head reductions run round-robin through the
one resumable reducer, which pauses after every division; the loop takes
``_STEP`` divisions per turn.  It merges its input and the reducer tails
on a heap, reading each only as far as the reduction gets, so a dropped
reduction costs only the terms it read.  A reduction whose head is
irreducible is made monic and added to the basis at once, so the
reductions still in flight meet it.  A zero S-polynomial reaches the
reducer too: its two shifted tails cancel on the heap, at no division.
A Hilbert target (:class:`HilbertTarget`, an immutable ``NamedTuple``
record), a weighted Hilbert series that is either exact for S/I or a
coefficient-wise lower bound on it, for a weighted-homogeneous ideal
(Traverso, J. Symbolic Comput. 22, 1996), lets a run drop the rest of the
batch of degree d, in flight or not yet started, once dim (S/in(G))_d
equals the target's.  Since dim (S/in(G))_d >= dim (S/I)_d >= target(d),
in(G) is then complete in degree d, so the rest would reduce to zero;
this holds for a lower bound as much as for the exact series.  The count
of in(G) changes only when a head is added, so it is compared then: a
batch reads its excess over the target once and counts it down by one per
head, which removes one standard monomial of degree d, itself.  The
numerator of in(G) is kept incrementally, N(M + m) = N(M) - t^e N(M : m)
for a new head m of weight e, and a run without ``eliminate`` hands it to
the returned basis.
The reduced basis is canonical for the (ideal, order) pair, so
recomputation from any generating set of the same ideal, driven or not,
yields identical output.
An elimination run (``eliminate`` = the first block of a block order)
minimalizes, tail-reduces and decodes only the elements free of that
block: the reduced basis of the elimination ideal, at the cost of that
part alone.  A driven elimination whose ideal the caller knows to be
principal (``principal``) stops at its first element free of the block.

Internally monomials are the packed integers of ``poly._Codec``, whose
integer comparison is the monomial order: the terms of a ``Polynomial``
are already in packed order, and a reducer's head is its first term.
Each term is divided by the first reducer whose head divides it, found
through one divisor cache per reduction context, keyed by exponent word.
A Buchberger run shares one cache per degree batch, among all its
reductions in flight, which is exact because its basis only grows by
append: the first divisor of a word never changes, and a cached miss
rescans only the elements appended since.  Clearing it when the batch
changes bounds its memory at no cost in divisions.  An interreduction
shares one too, since its list of minimal elements is fixed.  The
Gebauer-Moller update and the one Hilbert numerator kernel
(``_numerator``, behind ``GroebnerBasis.hilbert_numerator``) work on the
exponent fields alone, the exponent words, where lcm, colon, coprimality
and degree are a few integer operations each; a pair's lcm is read off
the colon word of the Hilbert count.  A narrow layout (8-bit
exponents) is tried first and transparently restarted with a wide layout
when any total degree reaches the narrow capacity; degree checks at encode
and reduction time keep both layouts exact.

Every run is capped by one S-pair budget, a context value: the pairs it
starts to reduce may not exceed it, else it raises :class:`ResourceLimit`.
It is ``DEFAULT_PAIR_BUDGET`` unless a caller sets it for a block of work
with ``with pair_budget(n):``, which covers every Groebner basis computed
in the block, each run counted on its own.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from functools import reduce
from operator import mul, or_
from typing import NamedTuple

from .poly import (MonomialOrder, PolyRing, Polynomial, RingMismatch, _Codec,
                   _NeedWide)

DEFAULT_PAIR_BUDGET = 2_000_000
_PAIR_BUDGET = ContextVar("pair_budget", default=DEFAULT_PAIR_BUDGET)


@contextmanager
def pair_budget(n: int):
    """Cap each Groebner basis run inside the block at ``n`` S-pairs.  The
    budget is a context value: it is restored when the block ends, and a
    new thread, or a process started by spawn or forkserver, does not
    inherit it."""
    token = _PAIR_BUDGET.set(n)
    try:
        yield
    finally:
        _PAIR_BUDGET.reset(token)


class InternalIdentityError(RuntimeError):
    """A computed result broke an identity that holds by theorem
    (beta_{i,j} >= 0, Betti numerator = Hilbert numerator, a driven basis
    meets its exact Hilbert target and never undercuts a lower bound, a
    secant join is prime and so passes the last-variable saturation
    criterion): the result is wrong, not the prediction."""


class ResourceLimit(RuntimeError):
    """The configurable S-pair budget was exhausted."""

    def __init__(self, pairs_processed: int, max_pairs: int):
        super().__init__(
            f"pair budget exhausted: processed {pairs_processed} of {max_pairs}")
        self.pairs_processed = pairs_processed
        self.max_pairs = max_pairs

    def __reduce__(self):
        # args holds the message alone: rebuild from the counts instead, so
        # the exception survives a pickle round trip (a Pool worker's result)
        return type(self), (self.pairs_processed, self.max_pairs)


class _Reducer:
    """Monic basis element prepared for division: packed head plus tail."""

    __slots__ = ("lm", "lm_full", "lmdeg", "tail", "alive", "index")

    def __init__(self, lm_full, tail, index, codec: _Codec):
        self.lm_full = lm_full    # packed monomial, order key included
        self.lm = lm_full & codec.pmask    # exponent word: division, lcms
        self.lmdeg = codec.deg(lm_full)
        self.tail = tail          # tuple of (packed, coeff), head stripped
        self.alive = True         # False once head-redundant (still a reducer)
        self.index = index


# Divisions per turn of a round-robin head reduction.  On the elliptic
# sextic join, steps of 1, 2, 4, 8, 16 and 32 merged 24.5, 23.8, 26.9,
# 24.2, 25.8 and 41.6 thousand stream terms in 37, 36, 37, 34, 35 and 41
# ms.  On genus 3 d=9 step 8 was fastest too; on genus 2 d=8 and d=10
# step 16 was 2-4 % faster, and steps 1 to 32 stayed within 8 %.
_STEP = 8


def _reduction(streams, reducers, codec: _Codec, p: int,
               head_only: bool = False, cache: dict | None = None):
    """The one reducer, resumable: a generator that divides the sum of the
    streams by the reducer list, pauses after every division, yielding the
    reducer it applied, and returns the normal form as a tuple of terms
    sorted descending as packed ints.  A stream (terms, shift, k) is k
    times the terms, sorted descending, each with the packed shift added.
    A heap holds each stream's next term (Monagan and Pearce, CASC 2007);
    a popped monomial's coefficients are summed mod p, so streams that
    cancel return () with no division, and a division adds the reducer's
    tail as a stream.

    Reducers must be monic; each term is divided by the first reducer
    whose head divides it.  With ``head_only`` the division stops at the
    first term no head divides, and the rest of the streams is drained
    unreduced.  Every returned term is checked against the degree cap,
    divided or not: under a block or weighted order a tail term can
    outweigh its head in total degree.

    ``cache`` maps a popped term's exponent word to (its first dividing
    reducer or None, the number of reducers scanned): a hit skips the
    scan, and a cached miss scans only the reducers appended since.  One
    cache may serve several reductions, in flight together or in turn, as
    long as the reducer list only grows by append, for then the first
    divisor of a word never changes.  A term is looked up when it is
    popped, so a reducer appended while the reduction is paused divides
    every term popped after.
    """
    if cache is None:
        cache = {}
    guard = codec.guard
    pmask = codec.pmask
    deg_shift = codec.deg_shift
    deg_mask = codec.deg_mask
    deg_cap = codec.deg_cap
    heap = []                  # -m for each monomial some stream is at
    fronts: dict = {}          # m -> [coefficient sum, streams at m...]
    get = fronts.get
    push = heapq.heappush
    pop = heapq.heappop
    remainder = []
    pending = [(iter(terms), shift, k) for terms, shift, k in streams]
    while True:
        for stream in pending:     # read each pending stream's next term
            it, shift, k = stream
            for m, c in it:
                m += shift
                front = get(m)
                if front is None:
                    fronts[m] = [c * k, stream]
                    push(heap, -m)
                else:
                    front[0] += c * k
                    front.append(stream)
                break
        if not heap:
            return tuple(remainder)
        m = -pop(heap)
        c, *pending = fronts.pop(m)
        if not (c := c % p):
            continue               # the streams cancel at m
        dm = (m >> deg_shift) & deg_mask
        if dm >= deg_cap:
            codec.too_large()
        red = None
        if not (head_only and remainder):
            mp = (m & pmask) | guard
            red, scanned = cache.get(mp, (None, 0))
            if red is None and scanned < len(reducers):
                for g in reducers[scanned:] if scanned else reducers:
                    if g.lmdeg <= dm and (mp - g.lm) & guard == guard:
                        red = g
                        break
                cache[mp] = (red, len(reducers))
        if red is None:
            remainder.append((m, c))
            continue
        pending.append((iter(red.tail), m - red.lm_full, -c))
        yield red


def _reduce_full(streams, reducers, codec: _Codec, p: int,
                 cache: dict | None = None) -> tuple:
    """:func:`_reduction` run to completion: the normal form."""
    run = _reduction(streams, reducers, codec, p, cache=cache)
    while True:
        try:
            next(run)
        except StopIteration as finished:
            return finished.value


class GroebnerBasis:
    """Reduced Groebner basis: monic, mutually reduced, sorted by leading
    monomial ascending under the order."""

    __slots__ = ("elements", "ring", "order", "_codec", "_reducers",
                 "_hilbert")

    def __init__(self, elements, ring: PolyRing, codec: _Codec | None = None):
        self.elements = tuple(elements)
        if any(f.ring != ring for f in self.elements):
            raise RingMismatch("element not over the basis ring")
        self.ring = ring
        self.order = ring.order
        self._codec = codec if codec is not None else _Codec(ring)
        self._reducers = None
        self._hilbert = None      # (weights, numerator) once counted

    def _prepared(self):
        if self._reducers is None:
            codec = self._codec
            enc = codec.encode
            self._reducers = [
                _Reducer(enc(f.terms[0][0]),
                         tuple((enc(m), c) for m, c in f.terms[1:]), i, codec)
                for i, f in enumerate(self.elements)]
        return self._reducers

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring.variables != self.ring.variables or f.ring.field != self.ring.field:
            raise RingMismatch("polynomial not over the basis ring")

        def reduce(codec):
            terms = [(codec.encode(m), c) for m, c in f.terms]
            terms = _reduce_full([(terms, 0, 1)], self._prepared(), codec,
                                 self.ring.field.p)
            return tuple((codec.decode(m), c) for m, c in terms)

        return Polynomial(self.ring, self._narrow_or_wide(reduce))

    def hilbert_numerator(self, weights) -> dict:
        """Numerator N(t), a dict degree -> coefficient, of the Hilbert
        series N(t) / prod_v (1 - t^{w_v}) of S/I = S/in(I), with variable v
        of weight w_v, counted on the heads of the basis.  A driven run
        hands over the count it kept, for its own weights."""
        weights = tuple(weights)
        if self._hilbert is None or self._hilbert[0] != weights:
            self._hilbert = (weights, self._narrow_or_wide(lambda codec:
                _numerator(self._head_words(), codec, weights, {})))
        return dict(self._hilbert[1])

    def _narrow_or_wide(self, run):
        """run(codec) with the basis's codec; if a narrow codec overflows,
        switch the basis to a wide one, drop its reducers, run again."""
        try:
            return run(self._codec)
        except _NeedWide:
            self._codec = _Codec(self.ring, wide=True)
            self._reducers = None
            return run(self._codec)

    def _head_words(self) -> list:
        codec = self._codec
        return [codec.encode(f.terms[0][0]) & codec.pmask
                for f in self.elements]

    def last_variable_regular(self) -> bool:
        """Whether this reduced grevlex basis of I certifies the last
        variable x a nonzerodivisor on S/I: x divides none of its heads.
        For grevlex, in(I : x) = in(I) : x (Bayer and Stillman, Invent.
        Math. 87, 1987), so that holds iff I : x = I.  False for any other
        order."""
        return (self.order == MonomialOrder.grevlex()
                and not any(f.lm[-1] for f in self.elements))

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


class HilbertTarget(NamedTuple):
    """Weighted Hilbert series numerator(t) / prod_v (1 - t^{w_v}) for S
    graded by ``weights`` (one positive weight per variable), with
    ``numerator`` a dict degree -> coefficient.  With ``exact`` it is the
    series of S/I; without, a coefficient-wise lower bound on it."""

    weights: tuple
    numerator: dict
    exact: bool = True


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _numerator(words, codec: _Codec, weights, memo: dict) -> dict:
    """Numerator N(t) of the Hilbert series N(t) / prod_v (1 - t^{w_v}) of
    S/M, for M spanned by the exponent words ``words`` of ``codec`` and
    variable v of weight w_v; all-ones ``weights`` give the standard
    N(t)/(1-t)^n.  ``memo`` maps minimal generators to their numerator,
    and may serve every call for one codec and weights.

    Bigatti's pivot recursion (J. Pure Appl. Algebra 119, 1997):
    N(M) = N(M + x_v) + t^{w_v} N(M : x_v) for the variable x_v in the most
    minimal generators, down to pairwise coprime generators, whose N is the
    product of the 1 - t^{deg g}.  Minimal generators are found in
    ascending word order, which meets every divisor of a word first.
    """
    guard = codec.guard
    nonzero_of = codec.exp_nonzero
    fmask = codec._exp_mask
    shifts = codec._shifts
    to_one = codec.exp_bits - 1        # guard bit -> lowest bit of a field
    wdeg = codec.weigher(weights)

    def rec(gens):
        mins = []
        for g in sorted(set(gens)):
            gg = g | guard
            for h in mins:
                if (gg - h) & guard == guard:
                    break
            else:
                mins.append(g)
        key = frozenset(mins)
        res = memo.get(key)
        if res is not None:
            return res
        if not mins:
            res = {0: 1}
        elif mins[0] == 0:
            res = {}                   # the unit ideal
        else:
            nonzero = [nonzero_of(g) for g in mins]
            if sum(nonzero) == reduce(or_, nonzero):
                # no variable in two generators (two guard bits in one
                # field would carry): pairwise coprime, product formula
                res = {0: 1}
                for g in mins:
                    res = _poly_mul(res, {0: 1, wdeg(g): -1})
            else:
                # pivot on the most shared variable: sum the nonzero bits
                # field by field, at most fmask generators per sum
                counts = [0] * len(shifts)
                for at in range(0, len(nonzero), fmask):
                    acc = sum(z >> to_one for z in nonzero[at:at + fmask])
                    for v, s in enumerate(shifts):
                        counts[v] += (acc >> s) & fmask
                v = max(range(len(shifts)), key=counts.__getitem__)
                xv = 1 << shifts[v]
                fv = fmask << shifts[v]
                res = dict(rec([xv] + [g for g in mins if not g & fv]))
                w = weights[v]
                for d, c in rec([g - xv if g & fv else g
                                 for g in mins]).items():
                    res[d + w] = res.get(d + w, 0) + c
                res = {d: c for d, c in res.items() if c}
        memo[key] = res
        return res

    return rec(words)


def _weighted_degree(weights, exps) -> int:
    return sum(map(mul, weights, exps))


def _series_of_denominator(weights, length: int) -> list:
    """Coefficients of 1 / prod_v (1 - t^{w_v}) in degrees < length."""
    c = [1] + [0] * (length - 1)
    for w in weights:
        for i in range(w, length):
            c[i] += c[i - w]
    return c


def buchberger(generators, ring: PolyRing,
               target: HilbertTarget | None = None,
               eliminate: int = 0, principal: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``, for
    the ring's order.  New elements are only head-reduced while the loop
    runs; the tails of the returned elements are reduced at the end.

    The loop takes one weighted degree d at a time: all generators and
    pairs of degree d, the lowest left.  On homogeneous input no element
    added meanwhile forms a pair of degree d: its head has degree d and is
    irreducible, so it is no lcm of itself with another head.  The batch's
    head reductions advance in turn, ``_STEP`` divisions each, and an
    element whose head comes out irreducible is added at once, so the
    reductions still in flight divide by it too.  An S-pair counts against
    the current ``pair_budget`` when its reduction starts, and a run that
    would start more pairs than the budget raises ResourceLimit.

    With ``eliminate`` = m > 0, which must be the size of the first block
    of the ring's order (else ValueError), only the elements free of the
    variables 0..m-1 are tail-reduced and returned: the reduced basis of
    I ∩ k[x_m, ...], still over ``ring``.  The first block is an
    elimination block, so an element whose head is free of it is free of
    it throughout, and only such heads divide its terms: the kept
    elements come out exactly as in the full reduced basis.

    With ``target``, the weighted Hilbert series of S/I or a lower bound
    on it, every generator must be weighted-homogeneous for
    ``target.weights`` (else ValueError), and once the leading-term count
    of the batch's degree is complete, at its start or after an element is
    added, the rest of the batch is dropped: the reductions in flight and
    those not yet started, which would all reduce to zero.  A pair dropped
    in flight has counted against the pair budget; one dropped before it
    started has not.  The
    finished basis is checked against the target in every degree the run
    reached: an exact target must be met, and a lower bound must not be
    undercut, else InternalIdentityError.

    With ``principal``, valid only with ``eliminate`` and ``target`` (else
    ValueError), the caller asserts that I ∩ k[x_m, ...] is a principal
    ideal (F).  The run then stops right after it adds its first element
    q free of the eliminated block, checks the target in every degree
    below q's, and returns q alone, interreduced: the reduced basis (F).
    Proof: degrees are taken in ascending order, and a generator or pair
    is dropped only where in(G) is complete, so once the run is in degree
    D, in(G) equals in(I) in every degree below D.  A block-free monomial
    is divisible only by block-free heads, and an element with a
    block-free head is block-free.  So the elimination ideal has no
    element of degree below D, the degree of q: that element's head would
    be divisible by the head of a block-free element added before q.
    Hence deg F >= D, and F divides q, so q = c·F.  The run cannot check
    that the ideal is principal: if it is not, the result generates a
    proper subideal.
    """
    if any(f.ring != ring for f in generators):
        raise RingMismatch("generator not over the basis ring")
    if target is not None:
        for f in generators:
            if len({_weighted_degree(target.weights, m)
                    for m, _ in f.terms}) > 1:
                raise ValueError(
                    f"generator {f} is not weighted-homogeneous for the "
                    f"weights {target.weights}")
    if principal and not (eliminate and target is not None):
        raise ValueError("principal needs both eliminate and a target")
    if eliminate:
        first = ring.order.blocks[0]
        if len(ring.order.blocks) < 2 or first[2] != eliminate:
            raise ValueError(
                f"eliminate={eliminate} is not the first block of the "
                f"order {ring.order.name}")
    try:
        return _buchberger(generators, ring, _Codec(ring), target, eliminate,
                           principal)
    except _NeedWide:
        return _buchberger(generators, ring, _Codec(ring, wide=True), target,
                           eliminate, principal)


def _buchberger(generators, ring, codec: _Codec,
                target: HilbertTarget | None,
                eliminate: int, principal: bool = False) -> GroebnerBasis:
    budget = _PAIR_BUDGET.get()
    pmask = codec.pmask
    guard = codec.guard
    exp_lcm = codec.exp_lcm
    exp_colon = codec.exp_colon
    p = ring.field.p

    packed_gens = []
    for f in generators:
        if not f or not f.terms:
            continue
        # f.terms descend under the ring's order, which the packed ints embed
        items = [(codec.encode(m), c) for m, c in f.terms]
        lc = items[0][1]
        if lc != 1:
            inv = ring.field.inv(lc)
            items = [(m, c * inv % p) for m, c in items]
        packed_gens.append(items)
    # deterministic seed order: ascending leading monomial
    packed_gens.sort(key=lambda it: it[0][0])

    basis: list[_Reducer] = []
    # generators and S-pairs share one queue of (priority, i, j), taken by
    # the weighted degree of their head or lcm, generators first within a
    # degree: a generator is ((wdeg, -1, index into packed_gens), -1,
    # index), a pair (i, j) is ((wdeg, lcm, j, i), i, j) and live while it
    # is in pair_set.  The weights are the target's, else the order's.
    weights = codec.order_weights if target is None else tuple(target.weights)
    wdeg = codec.weigher(weights)
    queue = [((wdeg(items[0][0] & pmask), -1, g), -1, g)
             for g, items in enumerate(packed_gens)]
    heapq.heapify(queue)
    pair_set: dict = {}        # (i, j) -> packed lcm

    if target is not None:
        # Hilbert-driven: excess(d) is HF_{S/in(G)}(d) - target(d), read
        # off the numerator difference ``excess_num`` over the common
        # denominator
        excess_num = {d: -c for d, c in target.numerator.items()}
        excess_num[0] = excess_num.get(0, 0) + 1
        series = []

        def excess(d):
            nonlocal series
            if d >= len(series):
                series = _series_of_denominator(weights, 2 * d + 1)
            return sum(c * series[d - e]
                       for e, c in excess_num.items() if e <= d)

    live: list[_Reducer] = []  # the elements still generating pairs
    memo: dict = {}            # one _numerator memo for the run

    def add_element(terms):
        """Gebauer-Moller update with the new monic element, on exponent
        words: each live head g gives the colon word g : lm, and the pair's
        lcm is colon + lm."""
        t = len(basis)
        red = _Reducer(terms[0][0], terms[1:], t, codec)
        lm = red.lm
        # candidate new pairs by ascending lcm word, then index: a proper
        # divisor of an lcm is a smaller word, so it is examined first
        cand = sorted([(exp_colon(g.lm, lm), g.index) for g in live])
        kept: list = []        # the minimal colon words, M : m
        for colon, i in cand:
            cg = colon | guard
            for colon2, _ in kept:
                if (cg - colon2) & guard == guard:
                    break
            else:
                kept.append((colon, i))
        if target is not None:
            # N(M + m) = N(M) - t^e N(M : m) for the minimal generators M
            # of in(G), which are the heads of the live elements
            e = wdeg(lm)
            for d, c in _numerator([w for w, _ in kept], codec, weights,
                                   memo).items():
                c = excess_num.get(d + e, 0) - c
                if c:
                    excess_num[d + e] = c
                else:
                    excess_num.pop(d + e, None)
        basis.append(red)
        # chain criterion against existing pairs
        for (i, j), lcm in list(pair_set.items()):
            w = lcm & pmask
            if ((w | guard) - lm) & guard == guard \
                    and exp_lcm(basis[i].lm, lm) != w \
                    and exp_lcm(basis[j].lm, lm) != w:
                del pair_set[(i, j)]
        # product criterion on the survivors: coprime iff colon = head
        for colon, i in kept:
            if colon == basis[i].lm:
                continue
            pair_set[(i, t)] = lcm = codec.times(red.lm_full, colon)
            heapq.heappush(queue, ((wdeg(lcm & pmask), lcm, t, i), i, t))
        # head-redundant old elements stop generating pairs
        for g in live:
            g.alive = ((g.lm | guard) - lm) & guard != guard
        live[:] = [g for g in live if g.alive] + [red]

    processed = 0
    divisors: dict = {}        # the reducer cache, one per degree batch

    def reduction(i, j, lcm):
        """Head reduction of generator j (i < 0) or of the S-polynomial of
        the pair (i, j), which counts against the budget when it starts."""
        nonlocal processed
        if i < 0:
            streams = [(packed_gens[j], 0, 1)]
        else:
            processed += 1
            if processed > budget:
                raise ResourceLimit(processed, budget)
            # the S-polynomial is the two shifted tails, the heads cancel
            gi, gj = basis[i], basis[j]
            streams = [(gi.tail, lcm - gi.lm_full, 1),
                       (gj.tail, lcm - gj.lm_full, -1)]
        return (yield from _reduction(streams, basis, codec, p, True,
                                      divisors))

    top = 0                    # largest weighted degree taken from the queue
    stopped = False            # by ``principal``, in degree top
    block = (1 << (codec.exp_bits * eliminate)) - 1   # fields 0..m-1
    while queue and not stopped:
        # take the whole lowest degree d.  On homogeneous input no element
        # added below forms a pair of degree d, whose lcm would be its
        # head, then reducible; elsewhere such a pair waits for a later
        # batch
        d = queue[0][0][0]
        turns = deque()
        while queue and queue[0][0][0] == d:
            _, i, j = heapq.heappop(queue)
            lcm = pair_set.pop((i, j), None) if i >= 0 else None
            if i < 0 or lcm is not None:
                turns.append(reduction(i, j, lcm))
        if not turns:
            continue
        # on homogeneous input a reduction meets terms of degree d only
        divisors.clear()
        if target is not None:
            top = d
            left = excess(d)
            if left == 0:
                continue       # in(G) is complete in this degree
        while turns:
            run = turns.popleft()
            try:
                for _ in range(_STEP):
                    next(run)
            except StopIteration as finished:
                terms = finished.value
            else:
                turns.append(run)
                continue
            if not terms:
                continue
            if terms[0][1] != 1:
                inv = ring.field.inv(terms[0][1])
                terms = tuple((m, c * inv % p) for m, c in terms)
            add_element(terms)
            if principal and not terms[0][0] & block:
                stopped = True     # in(G) may be incomplete in degree top
                break
            if target is not None:
                # a new head of degree d removes exactly one standard
                # monomial of degree d, itself
                left -= 1
                if left == 0:
                    break      # the rest would reduce to zero: drop them

    numerator = None
    if target is not None:
        # a lower bound may stay below HF_{S/I}: only a deficit is wrong
        excesses = [excess(d) for d in range(top + (not stopped))]
        wrong = [d for d, e in enumerate(excesses)
                 if e < 0 or target.exact and e]
        if wrong:
            raise InternalIdentityError(
                f"the basis's initial ideal misses the Hilbert target in "
                f"degrees {wrong}")
        # N(S/in(G)) = excess_num + the target's numerator, the basis's
        # own Hilbert numerator unless only a block of it is kept
        if not eliminate:
            numerator = dict(excess_num)
            for d, c in target.numerator.items():
                numerator[d] = numerator.get(d, 0) + c
            numerator = {d: c for d, c in numerator.items() if c}
    out = _interreduce(basis, ring, codec, block)
    if numerator is not None:
        out._hilbert = (weights, numerator)
    return out


def _interreduce(basis, ring, codec, block) -> GroebnerBasis:
    """Tail-reduce the minimal elements: the reduced GB.  Only the elements
    whose heads are free of the exponent fields in ``block`` take part
    (all of them for block 0).

    The minimal heads are those of the ``alive`` elements: a head is
    irreducible by every earlier head, and ``add_element`` marks it dead
    exactly when a later head divides it.  A head free of ``block`` is
    divisible only by heads free of it."""
    # ascending packed heads ascend under the ring's order, as the
    # returned basis must
    minimal = sorted((g for g in basis if g.alive and not g.lm & block),
                     key=lambda g: g.lm_full)
    p = ring.field.p
    out = []
    dec = codec.decode
    divisors: dict = {}        # the reducer cache: minimal is fixed
    for g in minimal:
        # every term met while reducing g's tail is below g.lm, so g's own
        # head divides none of them and one shared list serves every g
        tail = _reduce_full([(g.tail, 0, 1)], minimal, codec, p, divisors)
        terms = ((dec(g.lm_full), 1),) + tuple((dec(m), c) for m, c in tail)
        out.append(Polynomial(ring, terms))
    return GroebnerBasis(out, ring, codec)


class Ideal:
    """Generator list with a cached reduced Groebner basis for the ring's
    order."""

    def __init__(self, ring: PolyRing, generators):
        if any(g.ring != ring for g in generators):
            raise RingMismatch("generator not over the ideal's ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if g.terms)
        self._gb = None

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(self.generators, self.ring)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().contains(f)

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators in {self.ring!r})"


def _ideal_with_gb(ring: PolyRing, gens,
                   basis: GroebnerBasis | None = None) -> Ideal:
    """Ideal generated by ``gens`` with its reduced Groebner basis for the
    ring's order cached: ``basis``, or else ``gens`` themselves, which must
    then be that basis."""
    I = Ideal(ring, gens)
    I._gb = basis if basis is not None else GroebnerBasis(gens, ring)
    return I
