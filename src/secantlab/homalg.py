"""Graded homological algebra over F_p.

Hilbert series (read off the initial ideal by ``gb``'s numerator kernel),
minimal graded Betti numbers (via Koszul homology: beta_{i,j} is the rank of
Tor_i(S/I, k)_j, computed as linear algebra on the Koszul strands), and the
derived invariants: regularity, projective dimension, ACM-ness, the N_{d,p}
syzygy properties, and Koszul cohomology dimensions.

Before any strand is built, I is cut by linear forms, one chain of cuts
down to Krull dimension 0: by the last variable, read off the reduced
grevlex basis at no cost, whenever it divides no head of that basis, and
otherwise by a seeded generic form.  Each seeded cut's Groebner basis is
driven by the Hilbert series of the ideal it cuts, a lower bound on its
own that is exact for a nonzerodivisor.  Hilbert data certify every form:
the prefix of cuts that leave the Hilbert numerator unchanged are
nonzerodivisors, and the last ideal J of that prefix has the Betti table of
I (Artinian reduction).  The strand window is the Bayer-Stillman criterion
read off the Hilbert functions of the rest of the chain, bounded by the
Taylor resolution of in(J); for an ACM input it is the top degree of the
h-vector.  One pass over the standard monomials of in(J) builds the
strands.  No free resolution is ever built; each degree's standard
monomials are counted against the Hilbert function, and every table is
checked against the Hilbert numerator, in the one form ``gb`` counts it:
a dict degree -> nonzero coefficient.  The results, :class:`HilbertData`
and :class:`BettiTable`, are ``NamedTuple`` records.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import NamedTuple

from .gb import (GroebnerBasis, HilbertTarget, Ideal, InternalIdentityError,
                 _ideal_with_gb, _series_of_denominator, buchberger)
from .poly import MonomialOrder, PolyRing, Polynomial


class ZeroIdeal(ValueError):
    """Operation undefined for the zero ideal, or for a degree-truncated
    table that lists no generator."""


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

class HilbertData(NamedTuple):
    """Hilbert series data of a graded quotient S/I.

    ``numerator`` is N(t) with HS = N(t)/(1-t)^nvars, a dict degree ->
    coefficient of its nonzero coefficients, as ``gb`` counts it;
    ``dimension`` is the Krull dimension of S/I; ``degree`` is h(1) after
    full cancellation.
    """

    nvars: int
    numerator: dict
    dimension: int
    degree: int

    @property
    def projective_dimension_of_variety(self) -> int:
        return self.dimension - 1

    @property
    def h_degree(self) -> int:
        """Top degree of the h-vector N(t)/(1-t)^codim; for an Artinian
        S/I it is the regularity."""
        return max(self.numerator, default=0) - (self.nvars - self.dimension)

    def hilbert_function(self, d: int) -> int:
        """dim_k (S/I)_d, expanded from the series (0 for d < 0)."""
        series = _series_of_denominator((1,) * self.nvars, d + 1)
        return sum(c * series[d - e]
                   for e, c in self.numerator.items() if e <= d)


def hilbert_data(I: Ideal) -> HilbertData:
    """Hilbert series, Krull dimension, and degree of S/I.

    Works from the initial ideal of I's cached Groebner basis, whose
    ``hilbert_numerator`` is counted once per basis, independent of any
    resolution machinery.  N(t) = (1-t)^m h(t) with h(1) != 0 for m the
    order of the first nonzero Hasse derivative of N at t = 1,
    N^[m](1) = sum_d C(d, m) c_d = (-1)^m h(1): the dimension is
    nvars - m and the degree is h(1).
    """
    n = I.ring.nvars
    if I.is_zero():
        return HilbertData(n, {0: 1}, n, 1)
    num = I.groebner().hilbert_numerator((1,) * n)
    if not num:
        # unit ideal: S/I = 0
        return HilbertData(n, {}, -1, 0)
    # a nonzero N of degree D has N^[D](1), its top coefficient, nonzero
    for m in range(max(num) + 1):
        if h1 := sum(comb(d, m) * c for d, c in num.items()):
            return HilbertData(n, num, n - m, (-1) ** m * h1)


# ---------------------------------------------------------------------------
# rank over F_p (exact sparse Gaussian elimination)
# ---------------------------------------------------------------------------

def _rank_mod(vectors, p: int) -> int:
    """Rank modulo p of a list of sparse integer vectors ``{index: coeff}``.

    Each vector is reduced against the pivots found so far, keyed by their
    leading (largest) index; a nonzero remainder becomes a new monic pivot.
    On the Koszul strands the largest index fills in less than the smallest.
    """
    pivots = {}
    for vec in vectors:
        v = {i: c % p for i, c in vec.items() if c % p}
        while v:
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], p - 2, p)
                pivots[lead] = {i: c * inv % p for i, c in v.items()}
                break
            c = v[lead]
            for i, a in piv.items():
                x = (v.get(i, 0) - c * a) % p
                if x:
                    v[i] = x
                else:
                    del v[i]
    return len(pivots)


# ---------------------------------------------------------------------------
# Betti tables
# ---------------------------------------------------------------------------

class BettiTable(NamedTuple):
    """Graded Betti numbers beta_{i,j} of S/I; nvars = r + 1 ambient vars.

    ``truncated_at`` marks a degree-truncated computation: entries with
    j > truncated_at are unknown, not zero.
    """

    nvars: int
    entries: tuple          # sorted ((i, j), beta) pairs, beta > 0
    truncated_at: int | None = None

    def beta(self, i: int, j: int) -> int:
        for (a, b), v in self.entries:
            if (a, b) == (i, j):
                return v
        return 0

    def to_json_dict(self) -> dict:
        return {"r": self.nvars - 1,
                "entries": [[i, j, v] for (i, j), v in self.entries]}

    def display(self) -> str:
        """Two-axis text table: rows are j - i, columns are i."""
        if not self.entries:
            return "(zero module)"
        imax = max(i for (i, _), _ in self.entries)
        qs = sorted({j - i for (i, j), _ in self.entries})
        width = max(6, max(len(str(v)) for _, v in self.entries) + 1)
        lines = ["".join(f"{i:>{width}}" for i in range(imax + 1)) + "   (i)"]
        for q in range(qs[0], qs[-1] + 1):
            cells = []
            for i in range(imax + 1):
                v = self.beta(i, i + q)
                cells.append(f"{v if v else '.':>{width}}")
            lines.append("".join(cells) + f"   j-i={q}")
        return "\n".join(lines)


def regularity(B: BettiTable) -> int:
    """Castelnuovo-Mumford regularity of S/I: max(j - i) over nonzero
    entries."""
    if not B.entries:
        return 0
    return max(j - i for (i, j), _ in B.entries)


def projective_dimension(B: BettiTable) -> int:
    if not B.entries:
        return 0
    return max(i for (i, _), _ in B.entries)


def koszul_dim(B: BettiTable, p: int, q: int) -> int:
    """dim K_{p,q} = beta_{p, p+q}."""
    return B.beta(p, p + q)


def check_ndp(B: BettiTable, d: int, p: int) -> bool:
    """Property N_{d,p}: beta_{i, i+j} = 0 for all 0 <= i <= p and j >= d."""
    if d < 2 or p < 0:
        raise ValueError("need d >= 2 and p >= 0")
    return all(v == 0 or i > p or j - i < d for (i, j), v in B.entries)


def max_ndp_steps(B: BettiTable, d: int) -> int:
    """Largest p <= the projective dimension with N_{d,p}: one less than
    the smallest i of a nonzero beta_{i,j} with j - i >= d, else the
    projective dimension; -1 if even N_{d,0} fails."""
    if d < 2:
        raise ValueError("need d >= 2")
    return min((i - 1 for (i, j), v in B.entries if v and j - i >= d),
               default=projective_dimension(B))


def is_acm(B: BettiTable, hd: HilbertData) -> bool:
    """Arithmetically Cohen-Macaulay test via Auslander-Buchsbaum:
    projective dimension equals the codimension."""
    return projective_dimension(B) == B.nvars - hd.dimension


def min_generator_degree(B: BettiTable) -> int:
    """Smallest degree of a minimal generator of I.  Raises ZeroIdeal when
    the table lists no generator: I is zero, or for a truncated table, no
    generator has degree <= the bound."""
    degs = [j for (i, j), _ in B.entries if i == 1]
    if not degs:
        if B.truncated_at is not None:
            raise ZeroIdeal(f"no generator has degree <= {B.truncated_at}")
        raise ZeroIdeal("the ideal has no generators")
    return min(degs)


# ---------------------------------------------------------------------------
# cut chain (Artinian reduction) and certified regularity window
# ---------------------------------------------------------------------------

def _cut(I: Ideal, hd: HilbertData, h: Polynomial):
    """(I + (h))/(h) and its Hilbert data, as an ideal of the grevlex ring
    without the leading variable of the linear form h.  ``hd`` is the
    Hilbert data of I.

    The Groebner basis of the cut is driven by a lower bound on its Hilbert
    function.  For A = S/I, HF_{A/hA}(d) = HF_A(d) - HF_A(d-1) +
    HF_{0:h}(d-1) >= HF_A(d) - HF_A(d-1), so the Hilbert numerator of I
    over (1-t)^{n-1} is a sound target, and it is exact exactly when h is a
    nonzerodivisor on A.
    """
    ring = I.ring
    h = h.monic()
    v = h.lm.index(1)
    reduce_h = GroebnerBasis([h], ring).normal_form
    cut_ring = PolyRing(ring.variables[:v] + ring.variables[v + 1:],
                        ring.field, MonomialOrder.grevlex())
    gens = [cut_ring.from_dict({m[:v] + m[v + 1:]: c
                                for m, c in reduce_h(f).terms})
            for f in I.generators]
    bound = HilbertTarget((1,) * cut_ring.nvars, hd.numerator, exact=False)
    J = _ideal_with_gb(cut_ring, gens,
                       buchberger(gens, cut_ring, target=bound))
    return J, hilbert_data(J)


def _free_cut(J: Ideal, hd: HilbertData):
    """(J + (x))/(x) and its Hilbert data for the last variable x, read off
    J's reduced grevlex basis when x divides none of its heads; else None,
    and None for a ring of another order (the cut ring keeps J's order).

    Then x is a nonzerodivisor on S/J (``last_variable_regular``), and
    every head survives x = 0 while every surviving tail term stays
    standard: the basis restricted to x = 0 is the reduced basis of the
    cut, with the same heads and so the same Hilbert numerator, one
    variable fewer.
    """
    gb = J.groebner()
    if not gb.last_variable_regular():
        return None
    ring = J.ring
    last = ring.nvars - 1
    cut_ring = PolyRing(ring.variables[:last], ring.field, ring.order)
    basis = [Polynomial(cut_ring, tuple(
        (m[:last], c) for m, c in f.terms if not m[last])) for f in gb]
    return (_ideal_with_gb(cut_ring, basis),
            HilbertData(last, hd.numerator, hd.dimension - 1, hd.degree))


def regular_cut(I: Ideal, hd: HilbertData, seed: int = 0):
    """The cut chain of I: yields (J, hilbert_data(J), certified), first for
    J = I, then for I cut by one linear form at a time, until Krull
    dimension 0 (so at most nvars cuts).  ``hd`` is the Hilbert data of I.

    Each step is a free cut by the last variable when that variable
    divides no head of the current reduced grevlex basis (``_free_cut``:
    no Groebner run, no substitution), and otherwise a cut by the next
    seeded generic linear form h (``_cut``).  A certified ``secant_join``
    output always starts with a free cut, by the very test that certified
    its saturation.

    ``certified`` holds while every cut so far is a nonzerodivisor: since
    HS(S/(A,h)) = (1-t) HS(S/A) + t HS(0:h), the Hilbert numerator is
    unchanged exactly when h is one, as it always is for a free cut.  The
    last certified J has the Betti table of I in fewer variables; an ACM
    S/I is certified all the way down to Krull dimension 0.  (1-t) HS(S/A)
    is also the lower bound that drives each seeded cut's Groebner basis:
    a zero-divisor cut gets the same basis, with fewer pairs dropped.
    """
    rng = random.Random(seed)
    numerator = hd.numerator
    J, certified = I, True
    yield J, hd, certified
    while hd.dimension > 0:
        cut = _free_cut(J, hd)
        if cut is None:
            ring = J.ring
            h = ring.from_dict({ring.gen(v).lm: rng.randrange(1, ring.field.p)
                                for v in range(ring.nvars)})
            cut = _cut(J, hd, h)
        J, hd = cut
        certified = certified and hd.numerator == numerator
        yield J, hd, certified


def _bayer_stillman(chain, m: int) -> bool:
    """Bayer-Stillman criterion in degree m, read off the Hilbert functions
    of a cut chain A_0 = S/J, A_{i+1} = A_i/h_i A_i.  By the exact sequence
    0 -> (0:h)_m -> A_m -> A_{m+1} -> (A/hA)_{m+1} -> 0, h_i is injective
    on (A_i)_m iff HF_{i+1}(m+1) = HF_i(m+1) - HF_i(m); the criterion asks
    this of h_0, h_1, ... until some (A_j)_m = 0.  If J is generated in
    degrees <= m, passing certifies that J is m-regular, whatever the forms
    (Bayer and Stillman, Invent. Math. 87, 1987)."""
    for a, b in zip(chain, chain[1:]):
        if a.hilbert_function(m) == 0:
            return True
        if (b.hilbert_function(m + 1)
                != a.hilbert_function(m + 1) - a.hilbert_function(m)):
            return False
    return chain[-1].hilbert_function(m) == 0


def _regularity_window(gb: GroebnerBasis, chain) -> int:
    """An m with reg(J) <= m, hence beta_{i,j}(S/J) = 0 whenever
    j - i > m - 1.  ``gb`` is the reduced grevlex basis of J and ``chain``
    the Hilbert data of J and of its further cuts.

    m is the first degree in m0..T that passes ``_bayer_stillman``, else T,
    the degree of the lcm of the minimal generators of in(J): by the Taylor
    resolution reg(S/J) <= reg(S/in J) <= T - 1, so T needs no
    certificate.  For an Artinian S/J the window is its socle degree + 1.
    """
    lms = [f.lm for f in gb]
    T = sum(max(e) for e in zip(*lms))
    m0 = max(max(sum(mon) for mon in lms), chain[0].h_degree + 1, 1)
    return next((m for m in range(m0, T) if _bayer_stillman(chain, m)), T)


# ---------------------------------------------------------------------------
# minimal Betti numbers via Koszul homology
# ---------------------------------------------------------------------------

def minimal_free_resolution(I: Ideal, degree_bound=None,
                            seed: int = 0) -> BettiTable:
    """Graded Betti table of S/I for a homogeneous ideal I.

    beta_{i,j} = dim Tor_i(S/I, k)_j, computed as the homology rank of the
    degree-j strand of the Koszul complex tensored with S'/J, where J is
    the last certified ideal of the ``regular_cut`` chain (same Betti
    table, fewer variables).  A step of the chain is a free cut by the
    last variable, read off the basis at hand, whenever that variable
    divides none of its heads, and a seeded generic form otherwise; the
    table does not depend on which cuts were free.  The strand window is
    ``_regularity_window`` on the rest of the chain; entries outside it
    are provably zero.  With ``degree_bound`` set, only entries with
    j <= degree_bound are computed (table marked truncated), no window is
    needed and the chain stops at its first uncertified cut.  Raises
    InternalIdentityError if the table breaks an identity that holds by
    theorem.
    """
    n = I.ring.nvars
    if not I.is_homogeneous():
        raise ValueError("Betti tables require a homogeneous ideal")
    if I.is_zero():
        return BettiTable(n, (((0, 0), 1),))
    hd = hilbert_data(I)
    if hd.dimension < 0:
        raise ValueError("unit ideal has no graded Betti table")

    for K, hd_K, certified in regular_cut(I, hd, seed):
        if certified:
            J, chain = K, [hd_K]
        elif degree_bound is None:
            chain.append(hd_K)
        else:
            break
    gb = J.groebner()
    if degree_bound is not None:
        qmax_for = lambda i: degree_bound - i
    else:
        m = _regularity_window(gb, chain)
        qmax_for = lambda i: m - 1
    B = BettiTable(n, _koszul_betti(gb, chain[0], qmax_for), degree_bound)
    _check_identities(B, hd)
    return B


def _check_identities(B: BettiTable, hd: HilbertData) -> None:
    """Every beta_{i,j} >= 0, and the Betti numerator equals the Hilbert
    numerator (in degrees j <= truncated_at for a truncated table)."""
    negative = [e for e in B.entries if e[1] < 0]
    if negative:
        raise InternalIdentityError(f"negative Betti numbers {negative}")
    bn, hn = betti_numerator(B), hd.numerator
    if B.truncated_at is not None:
        bn, hn = ({j: c for j, c in num.items() if j <= B.truncated_at}
                  for num in (bn, hn))
    if bn != hn:
        raise InternalIdentityError(
            f"Betti numerator {bn} differs from Hilbert numerator {hn}")


def _koszul_betti(gb: GroebnerBasis, hd: HilbertData, qmax_for) -> tuple:
    """Entries of the Betti table of S/(gb): beta_{i,i+q} for the Koszul
    strands with q <= qmax_for(i), as ranks of the strand matrices.

    The standard monomials form an order ideal, so one pass builds the
    sorted bases std[q] and the tables mult[v, q] (row m: x_v * m over
    std[q + 1]): std[q + 1] is the products x_v * m, m in std[q], that no
    head divides, and only the other products are reduced by ``gb``.
    Raises InternalIdentityError if std[q] does not have HF(q) elements,
    counted by ``hd``, the Hilbert data of S/(gb).
    """
    ring = gb.ring
    n = ring.nvars
    p = ring.field.p
    lms = [f.lm for f in gb]
    mingen = min(f.total_degree() for f in gb)
    std = [[(0,) * n]]
    mult = {}
    for q in range(max(qmax_for(1), 0) + 1):
        ups = [[m[:v] + (m[v] + 1,) + m[v + 1:] for m in std[q]]
               for v in range(n)]
        free = {up: not any(all(x <= y for x, y in zip(g, up)) for g in lms)
                for row in ups for up in row}
        std.append(sorted(up for up, ok in free.items() if ok))
        hf = hd.hilbert_function(q + 1)
        if len(std[q + 1]) != hf:
            raise InternalIdentityError(
                f"{len(std[q + 1])} standard monomials in degree {q + 1}, "
                f"but the Hilbert function is {hf}")
        if not hf:      # (S/I)_{q+1} = 0: no strand reads these tables
            continue
        target = {mon: i for i, mon in enumerate(std[q + 1])}
        for v, row in enumerate(ups):
            mult[v, q] = [{target[up]: 1} if free[up] else
                          {target[mo]: c for mo, c in
                           gb.normal_form(ring.monomial(up)).terms}
                          for up in row]

    def strand_columns(i, q):
        """Columns of the Koszul differential Λ^i ⊗ R_q → Λ^{i-1} ⊗ R_{q+1},
        as sparse vectors {row: coeff}."""
        if not (1 <= i <= n and q >= 0 and std[q] and std[q + 1]):
            return []
        cod_sets = {s: a for a, s in enumerate(combinations(range(n), i - 1))}
        sz = len(std[q + 1])
        cols = []
        for S in combinations(range(n), i):
            tabs = [(cod_sets[S[:k] + S[k + 1:]] * sz,
                     1 if k % 2 == 0 else p - 1, mult[t, q])
                    for k, t in enumerate(S)]
            for b in range(len(std[q])):
                col = {}
                for base, sign, tab in tabs:
                    for tgt, c in tab[b].items():
                        col[base + tgt] = (col.get(base + tgt, 0)
                                           + sign * c) % p
                cols.append(col)
        return cols

    ranks = {}

    def rank_of(i, q):
        key = (i, q)
        if key not in ranks:
            ranks[key] = _rank_mod(strand_columns(i, q), p)
        return ranks[key]

    entries = {(0, 0): 1}
    for i in range(1, n + 1):
        for q in range(max(mingen - 1, 0), qmax_for(i) + 1):
            b = (comb(n, i) * len(std[q])
                 - rank_of(i, q) - rank_of(i + 1, q - 1))
            if b:
                entries[(i, i + q)] = b
    return tuple(sorted(entries.items()))


def betti_numerator(B: BettiTable) -> dict:
    """Alternating sum sum_i (-1)^i sum_j beta_{i,j} t^j, a dict degree ->
    coefficient of its nonzero coefficients."""
    coeffs = {}
    for (i, j), v in B.entries:
        coeffs[j] = coeffs.get(j, 0) + (v if i % 2 == 0 else -v)
    return {j: c for j, c in coeffs.items() if c}
