"""Graded homological algebra over F_p.

Hilbert series (via the pivot recursion on the monomial initial ideal),
minimal graded Betti numbers (via Koszul homology: beta_{i,j} is the rank of
Tor_i(S/I, k)_j, computed as linear algebra on the Koszul strands), and the
derived invariants: regularity, projective dimension, ACM-ness, the N_{d,p}
syzygy properties, and Koszul cohomology dimensions.

Before any strand is built, I is cut by seeded generic linear forms, one
chain of cuts down to Krull dimension 0.  Hilbert data certify every form:
the prefix of cuts that leave the Hilbert numerator unchanged are
nonzerodivisors, and the last ideal J of that prefix has the Betti table of
I (Artinian reduction).  The strand window is the Bayer-Stillman criterion
read off the Hilbert functions of the rest of the chain, bounded by the
Taylor resolution of in(J); for an ACM input it is the top degree of the
h-vector.  No free resolution is ever built, and every table is checked
against the Hilbert numerator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

# perfbench/traced.py hooks homalg.buchberger, so the name stays bound
# here although homalg reaches Buchberger only through Ideal.groebner
from .gb import GroebnerBasis, Ideal, buchberger  # noqa: F401
from .poly import MonomialOrder, PolyRing, Polynomial


class ZeroIdeal(ValueError):
    """Operation undefined for the zero ideal."""


class InternalIdentityError(RuntimeError):
    """A computed Betti table broke an identity that holds by theorem
    (beta_{i,j} >= 0, Betti numerator = Hilbert numerator): the table is
    wrong, not the prediction."""


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

def _minimalize(gens):
    """Minimal generators of the monomial ideal spanned by ``gens``."""
    gens = sorted(set(gens), key=sum)
    out = []
    for g in gens:
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _numerator(gens, memo) -> dict:
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^n of S/(gens)."""
    gens = _minimalize(gens)
    key = frozenset(gens)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not gens:
        res = {0: 1}
    elif any(sum(g) == 0 for g in gens):
        res = {}
    elif all(not any(x and y for x, y in zip(a, b))
             for a, b in combinations(gens, 2)):
        # pairwise coprime generators: product formula
        res = {0: 1}
        for g in gens:
            res = _poly_mul(res, {0: 1, sum(g): -1})
    else:
        # pivot on the most shared variable
        n = len(gens[0])
        counts = [sum(1 for g in gens if g[v]) for v in range(n)]
        v = max(range(n), key=lambda i: counts[i])
        piv = tuple(1 if i == v else 0 for i in range(n))
        plus = [piv] + [g for g in gens if g[v] == 0]
        colon = [tuple(max(e - 1, 0) if i == v else e
                       for i, e in enumerate(g)) for g in gens]
        np_ = _numerator(plus, memo)
        nc = _numerator(colon, memo)
        res = dict(np_)
        for d, c in nc.items():
            res[d + 1] = res.get(d + 1, 0) + c
        res = {d: c for d, c in res.items() if c}
    memo[key] = res
    return res


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series data of a graded quotient S/I.

    ``numerator`` is N(t) with HS = N(t)/(1-t)^nvars; ``dimension`` is the
    Krull dimension of S/I; ``degree`` is h(1) after full cancellation.
    """

    nvars: int
    numerator: tuple
    dimension: int
    degree: int

    @property
    def projective_dimension_of_variety(self) -> int:
        return self.dimension - 1

    @property
    def h_degree(self) -> int:
        """Top degree of the h-vector N(t)/(1-t)^codim; for an Artinian
        S/I it is the regularity."""
        return len(self.numerator) - 1 - (self.nvars - self.dimension)

    def hilbert_function(self, d: int) -> int:
        """dim_k (S/I)_d, expanded from the series."""
        if d < 0:
            return 0
        n = self.nvars
        if n == 0:
            # S = k: the series is the numerator itself
            return self.numerator[d] if d < len(self.numerator) else 0
        total = 0
        for e, c in enumerate(self.numerator):
            if e > d:
                break
            k = d - e
            b = 1
            for i in range(n - 1):
                b = b * (k + 1 + i) // (i + 1)
            total += c * b
        return total


def hilbert_data(I: Ideal, pair_budget=None) -> HilbertData:
    """Hilbert series, Krull dimension, and degree of S/I.

    Works from the initial ideal of a Groebner basis, independent of any
    resolution machinery.  The result is cached on I.
    """
    if I._hilbert_cache is None:
        I._hilbert_cache = _hilbert_data(I, pair_budget)
    return I._hilbert_cache


def _hilbert_data(I: Ideal, pair_budget) -> HilbertData:
    ring = I.ring
    n = ring.nvars
    if I.is_zero():
        return HilbertData(n, (1,), n, 1)
    gb = I.groebner(pair_budget=pair_budget)
    lms = [f.lm for f in gb]
    num = _numerator(lms, {})
    if not num:
        # unit ideal: S/I = 0
        return HilbertData(n, (0,), -1, 0)
    maxd = max(num)
    coeffs = [num.get(d, 0) for d in range(maxd + 1)]
    # cancel factors of (1 - t)
    h = list(coeffs)
    cancels = 0
    while sum(h) == 0 and cancels < n:
        acc = 0
        q = []
        for a in h[:-1]:
            acc += a
            q.append(acc)
        h = q if q else [0]
        while len(h) > 1 and h[-1] == 0:
            h.pop()
        cancels += 1
    return HilbertData(n, tuple(coeffs), n - cancels, sum(h))


# ---------------------------------------------------------------------------
# rank over F_p (exact sparse Gaussian elimination)
# ---------------------------------------------------------------------------

def _rank_mod(vectors, p: int) -> int:
    """Rank modulo p of a list of sparse integer vectors ``{index: coeff}``.

    Each vector is reduced against the pivots found so far, keyed by their
    leading (smallest) index; a nonzero remainder becomes a new monic pivot.
    """
    pivots = {}
    for vec in vectors:
        v = {i: c % p for i, c in vec.items() if c % p}
        while v:
            lead = min(v)
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

@dataclass(frozen=True)
class BettiTable:
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
    """Largest p with N_{d,p}; -1 if even N_{d,0} fails."""
    p = -1
    while p + 1 <= max((i for (i, _), _ in B.entries), default=0):
        if not check_ndp(B, d, p + 1):
            break
        p += 1
    return p


def is_acm(B: BettiTable, hd: HilbertData) -> bool:
    """Arithmetically Cohen-Macaulay test via Auslander-Buchsbaum:
    projective dimension equals the codimension."""
    return projective_dimension(B) == B.nvars - hd.dimension


def min_generator_degree(B: BettiTable) -> int:
    """Smallest degree of a minimal generator of I."""
    degs = [j for (i, j), _ in B.entries if i == 1]
    if not degs:
        raise ZeroIdeal("the ideal has no generators")
    return min(degs)


# ---------------------------------------------------------------------------
# cut chain (Artinian reduction) and certified regularity window
# ---------------------------------------------------------------------------

def _standard_monomials(lms, q: int, n: int):
    """Monomials of degree q outside the monomial ideal given by lms."""
    out = []

    def rec(prefix, i, left):
        if i == n - 1:
            mon = prefix + (left,)
            if not any(all(x <= y for x, y in zip(g, mon)) for g in lms):
                out.append(mon)
            return
        for e in range(left + 1):
            rec(prefix + (e,), i + 1, left - e)

    rec((), 0, q)
    return out


def _strip(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _cut(I: Ideal, h: Polynomial, pair_budget):
    """(I + (h))/(h) and its Hilbert data, as an ideal of the grevlex ring
    without the leading variable of the linear form h."""
    ring = I.ring
    h = h.monic()
    v = h.lm.index(1)
    reduce_h = GroebnerBasis([h], ring).normal_form
    cut_ring = PolyRing(ring.variables[:v] + ring.variables[v + 1:],
                        ring.field, MonomialOrder.grevlex())
    J = Ideal(cut_ring, [
        cut_ring.from_dict({m[:v] + m[v + 1:]: c
                            for m, c in reduce_h(f).terms})
        for f in I.generators])
    return J, hilbert_data(J, pair_budget=pair_budget)


def regular_cut(I: Ideal, hd: HilbertData, seed: int = 0, pair_budget=None):
    """The cut chain of I: yields (J, hilbert_data(J), certified), first for
    J = I, then for I cut by seeded generic linear forms h_1, h_2, ... one
    at a time, until Krull dimension 0 (so at most nvars cuts).  ``hd`` is
    the Hilbert data of I.

    ``certified`` holds while every cut so far is a nonzerodivisor: since
    HS(S/(A,h)) = (1-t) HS(S/A) + t HS(0:h), the Hilbert numerator is
    unchanged exactly when h is one.  The last certified J has the Betti
    table of I in fewer variables; an ACM S/I is certified all the way
    down to Krull dimension 0.
    """
    rng = random.Random(seed)
    numerator = _strip(hd.numerator)
    J, certified = I, True
    yield J, hd, certified
    while hd.dimension > 0:
        ring = J.ring
        h = ring.from_dict({ring.gen(v).lm: rng.randrange(1, ring.field.p)
                            for v in range(ring.nvars)})
        J, hd = _cut(J, h, pair_budget)
        certified = certified and _strip(hd.numerator) == numerator
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

def minimal_free_resolution(I: Ideal, degree_bound=None, pair_budget=None,
                            seed: int = 0) -> BettiTable:
    """Graded Betti table of S/I for a homogeneous ideal I.

    beta_{i,j} = dim Tor_i(S/I, k)_j, computed as the homology rank of the
    degree-j strand of the Koszul complex tensored with S'/J, where J is
    the last certified ideal of the ``regular_cut`` chain (same Betti
    table, fewer variables).  The strand window is ``_regularity_window``
    on the rest of the chain; entries outside it are provably zero.  With
    ``degree_bound`` set, only entries with j <= degree_bound are computed
    (table marked truncated), no window is needed and the chain stops at
    its first uncertified cut.  Raises InternalIdentityError if the table
    breaks an identity that holds by theorem.
    """
    n = I.ring.nvars
    if not I.is_homogeneous():
        raise ValueError("Betti tables require a homogeneous ideal")
    if I.is_zero():
        return BettiTable(n, (((0, 0), 1),))
    hd = I._hilbert_cache   # the callers have usually computed it already
    if hd is None:
        hd = hilbert_data(I, pair_budget=pair_budget)
    if hd.dimension < 0:
        raise ValueError("unit ideal has no graded Betti table")

    for K, hd_K, certified in regular_cut(I, hd, seed, pair_budget):
        if certified:
            J, chain = K, [hd_K]
        elif degree_bound is None:
            chain.append(hd_K)
        else:
            break
    gb = J.groebner(pair_budget=pair_budget)
    if degree_bound is not None:
        qmax_for = lambda i: degree_bound - i
    else:
        m = _regularity_window(gb, chain)
        qmax_for = lambda i: m - 1
    B = BettiTable(n, _koszul_betti(gb, qmax_for), degree_bound)
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
        pad = (0,) * (B.truncated_at + 1)
        bn, hn = (bn + pad)[:len(pad)], (hn + pad)[:len(pad)]
    bn, hn = _strip(bn), _strip(hn)
    if bn != hn:
        raise InternalIdentityError(
            f"Betti numerator {bn} differs from Hilbert numerator {hn}")


def _koszul_betti(gb: GroebnerBasis, qmax_for) -> tuple:
    """Entries of the Betti table of S/(gb): beta_{i,i+q} for the Koszul
    strands with q <= qmax_for(i), as ranks of the strand matrices."""
    ring = gb.ring
    n = ring.nvars
    p = ring.field.p
    lms = [f.lm for f in gb]
    mingen = min(f.total_degree() for f in gb)
    qmax = max(qmax_for(0), 0)

    # standard monomial bases of (S/I)_q and multiplication tables
    std = {q: _standard_monomials(lms, q, n) for q in range(qmax + 2)}
    idx = {q: {mon: i for i, mon in enumerate(std[q])} for q in std}
    mult = {}   # (var, q) -> list over std[q] of dict target_index -> coeff

    def mult_table(v, q):
        tab = mult.get((v, q))
        if tab is not None:
            return tab
        tab = []
        target = idx[q + 1]
        for mon in std[q]:
            up = tuple(e + 1 if i == v else e for i, e in enumerate(mon))
            hit = target.get(up)
            if hit is not None:
                tab.append({hit: 1})
            else:
                f = ring.monomial(up)
                nf = gb.normal_form(f)
                tab.append({target[mo]: c for mo, c in nf.terms})
        mult[(v, q)] = tab
        return tab

    def strand_columns(i, q):
        """Columns of the Koszul differential Λ^i ⊗ R_q → Λ^{i-1} ⊗ R_{q+1},
        as sparse vectors {row: coeff}."""
        if not (1 <= i <= n and q >= 0 and std.get(q) and std.get(q + 1)):
            return []
        cod_sets = {s: a for a, s in enumerate(combinations(range(n), i - 1))}
        sz = len(std[q + 1])
        cols = []
        for S in combinations(range(n), i):
            tabs = [(cod_sets[S[:k] + S[k + 1:]] * sz,
                     1 if k % 2 == 0 else p - 1, mult_table(t, q))
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
            if q + 1 not in std:
                continue
            dom = _comb(n, i) * len(std[q])
            if dom == 0:
                continue
            b = dom - rank_of(i, q) - rank_of(i + 1, q - 1)
            if b:
                entries[(i, i + q)] = b
    return tuple(sorted(entries.items()))


def _comb(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def betti_numerator(B: BettiTable):
    """Alternating sum sum_i (-1)^i sum_j beta_{i,j} t^j as coefficients."""
    if not B.entries:
        return (0,)
    maxj = max(j for (_, j), _ in B.entries)
    coeffs = [0] * (maxj + 1)
    for (i, j), v in B.entries:
        coeffs[j] += v if i % 2 == 0 else -v
    return tuple(coeffs)
