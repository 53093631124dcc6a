import random
import types
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reduction_spy import ReductionSpy

from secantlab import gb as gb_module
from secantlab import homalg
from secantlab.arith import MAX_PRIME, PrimeField
from secantlab.curves import (CurveModel, embed, parse_curve_file,
                              rational_normal_curve)
from secantlab.gb import Ideal, buchberger
from secantlab.homalg import (BettiTable, InternalIdentityError, ZeroIdeal,
                              _bayer_stillman, _cut, _koszul_betti,
                              _rank_mod, betti_numerator,
                              check_ndp, hilbert_data, is_acm, koszul_dim,
                              max_ndp_steps, min_generator_degree,
                              minimal_free_resolution, projective_dimension,
                              regular_cut, regularity)
from secantlab.ideal_ops import secant_join
from secantlab.poly import MonomialOrder, PolyRing

F = PrimeField(32003)
GOLDEN = Path(__file__).parent / "golden"


def twisted_cubic():
    R = PolyRing(["x0", "x1", "x2", "x3"], F)
    gens = [R.gen(i) * R.gen(j + 1) - R.gen(i + 1) * R.gen(j)
            for i in range(3) for j in range(i, 3)]
    return Ideal(R, gens)


# -- Hilbert data -----------------------------------------------------------

def test_hilbert_twisted_cubic():
    hd = hilbert_data(twisted_cubic())
    assert hd.numerator == {0: 1, 2: -3, 3: 2}
    assert hd.dimension == 2 and hd.degree == 3
    assert hd.projective_dimension_of_variety == 1
    with pytest.raises(AttributeError):
        hd.degree = 4
    # h(d) = 3d + 1 for the twisted cubic
    for d in range(6):
        assert hd.hilbert_function(d) == 3 * d + 1


def test_resolution_reuses_callers_hilbert_data(monkeypatch):
    # cli.cmd_betti and oracle.verify compute hilbert_data(I) first; the
    # resolution reads it off the numerator cached on I's basis instead of
    # counting the heads of that basis again
    I = twisted_cubic()
    hd = hilbert_data(I)
    asked, counted = [], []
    real_data = homalg.hilbert_data
    real_count = gb_module.GroebnerBasis._head_words
    monkeypatch.setattr(homalg, "hilbert_data",
                        lambda J, **kw: asked.append(J) or real_data(J, **kw))
    monkeypatch.setattr(gb_module.GroebnerBasis, "_head_words",
                        lambda self: counted.append(self) or real_count(self))
    minimal_free_resolution(I)
    assert any(J is I for J in asked)
    assert all(basis is not I.groebner() for basis in counted)
    assert hilbert_data(I) == hd


def test_hilbert_zero_and_unit():
    R = PolyRing(["x", "y"], F)
    hd0 = hilbert_data(Ideal(R, []))
    assert hd0.numerator == {0: 1} and hd0.dimension == 2
    hd1 = hilbert_data(Ideal(R, [R.constant(1)]))
    assert hd1.numerator == {} and hd1.dimension == -1 and hd1.degree == 0


def test_hilbert_function_without_variables():
    # S = k: S/0 is k in degree 0 and nothing above
    hd = hilbert_data(Ideal(PolyRing([], F), []))
    assert [hd.hilbert_function(d) for d in range(4)] == [1, 0, 0, 0]
    # the chain of I = (x+y+z)(x, y) cut by x+y+z, y+z, z ends there
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2 + x*y + x*z"), R.parse("x*y + y^2 + y*z")])
    J, hd_J = I, hilbert_data(I)
    for h in ("x + y + z", "y + z", "z"):
        J, hd_J = _cut(J, hd_J, J.ring.parse(h))
    assert J.ring.nvars == 0 and J.is_zero()
    assert [hd_J.hilbert_function(d) for d in range(4)] == [1, 0, 0, 0]


def _brute_force_hf(lms, n, d):
    """dim_k (S/M)_d for M spanned by the exponents ``lms``: the degree-d
    monomials outside M, counted one by one."""
    return sum(1 for mon in product(range(d + 1), repeat=n)
               if sum(mon) == d and not any(
                   all(x <= y for x, y in zip(g, mon)) for g in lms))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hilbert_function_counts_standard_monomials(n):
    # HF(d) of S/M for a monomial ideal M is the number of degree-d
    # monomials outside M
    R = PolyRing([f"x{i}" for i in range(n)], F)
    rng = random.Random(n)
    for _ in range(12):
        lms = [tuple(rng.randint(0, 3) for _ in range(n))
               for _ in range(rng.randint(0, 4))]
        hd = hilbert_data(Ideal(R, [R.monomial(m) for m in lms]))
        for d in range(9):
            assert hd.hilbert_function(d) == _brute_force_hf(lms, n, d), \
                (lms, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n).filter(any), max_size=4)
    .map(lambda lms: (n, lms))))
def test_dimension_and_degree_settle_the_hilbert_function(case):
    # HF of S/M, counted by brute force, is a polynomial of degree dim - 1
    # and leading coefficient deg/(dim - 1)! past the degree T of the lcm
    # of the generators (which bounds the numerator's degree): its
    # (dim - 1)-st difference settles at deg, and for dim = 0 the sum of
    # HF is deg
    n, lms = case
    R = PolyRing([f"x{i}" for i in range(n)], F)
    hd = hilbert_data(Ideal(R, [R.monomial(m) for m in lms]))
    assert all(hd.numerator.values())
    assert 0 <= hd.dimension <= n and hd.degree > 0
    T = sum(max(e, default=0) for e in zip(*lms))
    seq = [_brute_force_hf(lms, n, d) for d in range(T + n + 3)]
    if hd.dimension == 0:
        seq = [sum(seq[:d + 1]) for d in range(len(seq))]
    for _ in range(hd.dimension - 1):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    assert seq[-3:] == [hd.degree] * 3, (lms, hd)


def test_hilbert_hypersurface():
    R = PolyRing(["x", "y", "z"], F)
    hd = hilbert_data(Ideal(R, [R.parse("x^3 + y^3 + z^3")]))
    assert hd.numerator == {0: 1, 3: -1}
    assert hd.dimension == 2 and hd.degree == 3


def test_hilbert_nonhomogeneous_uses_initial_ideal():
    R = PolyRing(["x", "y"], F)
    hd = hilbert_data(Ideal(R, [R.parse("x^2 - y")]))
    assert hd.dimension == 1


# -- exact rank mod p -------------------------------------------------------

def _naive_rank(rows, ncols, p):
    rows = [r[:] for r in rows]
    rank = 0
    col = 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        inv = pow(rows[0][col] % p, p - 2, p)
        head = rows.pop(0)
        for r in rows:
            c = r[col] * inv % p
            if c:
                for j in range(col, ncols):
                    r[j] = (r[j] - c * head[j]) % p
        rank += 1
        col += 1
    return rank


def _sparse(rows):
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rank_matches_naive_gaussian(m, n, seed):
    # half the entries zero, so pivots fill in and ranks fall short
    rng = random.Random(seed)
    rows = [[rng.randrange(32003) if rng.random() < 0.5 else 0
             for _ in range(n)] for _ in range(m)]
    assert _rank_mod(_sparse(rows), 32003) == _naive_rank(rows, n, 32003)


def test_rank_handles_blocked_path():
    # 40 dense vectors of length 300, wider than any strand after the cut;
    # each of the 20 dependent ones must reduce to exactly zero
    rng = random.Random(5)
    n = 300
    base = [[rng.randrange(32003) for _ in range(n)] for _ in range(20)]
    rows = base + [[(2 * r[j] + base[0][j]) % 32003 for j in range(n)]
                   for r in base]
    assert _rank_mod(_sparse(rows), 32003) == 20


def test_rank_exact_at_largest_supported_prime():
    # 260 vectors, triangular under a hidden column order (so independent)
    # with entries near MAX_PRIME, and 40 combinations of them, shuffled
    p = MAX_PRIME
    rng = random.Random(7)
    cols = list(range(300))
    rng.shuffle(cols)
    base = [{cols[j]: rng.randrange(p - 1000, p) for j in range(k, 300)}
            for k in range(260)]
    extra = []
    for _ in range(40):
        u, v = rng.sample(base, 2)
        c = rng.randrange(1, p)
        extra.append({j: (c * u.get(j, 0) + v.get(j, 0)) % p
                      for j in u.keys() | v.keys()})
    vectors = base + extra
    rng.shuffle(vectors)
    assert _rank_mod(vectors, p) == 260


# -- Betti tables -----------------------------------------------------------

def test_resolution_twisted_cubic():
    B = minimal_free_resolution(twisted_cubic())
    assert B.beta(0, 0) == 1 and B.beta(1, 2) == 3 and B.beta(2, 3) == 2
    assert regularity(B) == 1
    assert projective_dimension(B) == 2
    assert min_generator_degree(B) == 2
    assert koszul_dim(B, 1, 1) == 3


def test_resolution_complete_intersection():
    R = PolyRing(["x", "y", "z", "w"], F)
    I = Ideal(R, [R.parse("x^3 + y^3 + z^3 + w^3"),
                  R.parse("x*y*z + y*z*w + x^2*w")])
    B = minimal_free_resolution(I)
    assert B.to_json_dict()["entries"] == [[0, 0, 1], [1, 3, 2], [2, 6, 1]]
    hd = hilbert_data(I)
    assert is_acm(B, hd)
    assert check_ndp(B, 3, 1) and not check_ndp(B, 3, 2)
    assert max_ndp_steps(B, 3) == 1


def test_resolution_rejects_nonhomogeneous():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError):
        minimal_free_resolution(Ideal(R, [R.parse("x^2 - y")]))


def test_resolution_zero_ideal():
    R = PolyRing(["x", "y"], F)
    B = minimal_free_resolution(Ideal(R, []))
    assert B.to_json_dict()["entries"] == [[0, 0, 1]]
    with pytest.raises(ZeroIdeal, match="the ideal has no generators"):
        min_generator_degree(B)


def test_min_generator_degree_of_a_table_truncated_below_it():
    # Σ_1 of the rational normal quintic: four cubic generators, none of
    # degree <= 2, so the truncated table has no generator to report
    S = secant_join(rational_normal_curve(5, F).secant_spec(1))
    assert minimal_free_resolution(S).beta(1, 3) == 4
    B = minimal_free_resolution(S, degree_bound=2)
    assert B.truncated_at == 2
    with pytest.raises(ZeroIdeal, match="no generator has degree <= 2"):
        min_generator_degree(B)


def test_non_acm_detected():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    B = minimal_free_resolution(I)
    assert not is_acm(B, hilbert_data(I))


def test_betti_numerator_identity():
    I = twisted_cubic()
    B = minimal_free_resolution(I)
    hd = hilbert_data(I)
    assert betti_numerator(B) == hd.numerator == {0: 1, 2: -3, 3: 2}


def test_identity_check_reads_a_truncated_table_up_to_its_bound():
    # the twisted cubic: 1 - 3t^2 + 2t^3, beta_{1,2} = 3 and beta_{2,3} = 2
    hd = hilbert_data(twisted_cubic())
    head = (((0, 0), 1), ((1, 2), 3))
    homalg._check_identities(BettiTable(4, head, 2), hd)
    homalg._check_identities(BettiTable(4, head + (((2, 3), 2),), 3), hd)
    # an entry past the bound is unknown, not checked
    homalg._check_identities(BettiTable(4, head + (((3, 4), 7),), 2), hd)
    for wrong in (BettiTable(4, head + (((2, 3), 1),), 3),
                  BettiTable(4, head, 3),
                  BettiTable(4, (((0, 0), 1), ((1, 2), 2)), 2)):
        with pytest.raises(InternalIdentityError, match="Hilbert numerator"):
            homalg._check_identities(wrong, hd)


def test_truncated_resolution_matches_full_below_bound():
    I = twisted_cubic()
    full = minimal_free_resolution(I)
    trunc = minimal_free_resolution(I, degree_bound=3)
    assert trunc.truncated_at == 3
    for i, j, v in full.to_json_dict()["entries"]:
        if j <= 3:
            assert trunc.beta(i, j) == v


def test_check_ndp_argument_validation():
    B = minimal_free_resolution(twisted_cubic())
    with pytest.raises(ValueError):
        check_ndp(B, 1, 1)
    with pytest.raises(ValueError):
        check_ndp(B, 3, -1)


def _max_ndp_steps_by_search(B, d):
    """Test oracle: the largest p with N_{d,p}, searched p = 0, 1, ...
    up to the projective dimension with check_ndp; -1 if N_{d,0} fails."""
    p = -1
    while p + 1 <= max((i for (i, _), _ in B.entries), default=0):
        if not check_ndp(B, d, p + 1):
            break
        p += 1
    return p


def test_max_ndp_steps_is_the_search_in_closed_form():
    R = PolyRing(["x", "y", "z", "w"], F)
    complete_intersection = Ideal(R, [R.parse("x^3 + y^3 + z^3 + w^3"),
                                      R.parse("x*y*z + y*z*w + x^2*w")])
    R3 = PolyRing(["x", "y", "z"], F)
    non_acm = Ideal(R3, [R3.parse("x^2"), R3.parse("x*y")])
    ideals = [twisted_cubic(), complete_intersection, non_acm,
              _rational_quartic(), _hankel_minors(6), Ideal(R, [])]
    tables = [BettiTable(4, ())]
    for I in ideals:
        tables.append(minimal_free_resolution(I))
        tables += [minimal_free_resolution(I, degree_bound=b)
                   for b in (2, 3)]
    for B in tables:
        for d in range(2, 6):
            assert max_ndp_steps(B, d) == _max_ndp_steps_by_search(B, d)
    # every N_{d,p} needs d >= 2, whatever the table
    for B in tables[:2]:
        for d in (0, 1):
            with pytest.raises(ValueError, match="d >= 2"):
                max_ndp_steps(B, d)


def test_display_renders_dots_for_zeros():
    out = minimal_free_resolution(twisted_cubic()).display()
    assert "." in out and "3" in out and "2" in out


# -- regular-sequence cut ---------------------------------------------------

def _uncut_table(I, degree_bound=None):
    """Test oracle: the Koszul strands of I itself, without any cut,
    windowed by the truncation bound or else by the Taylor bound T - 1 on
    reg(S/I), T the degree of the lcm of the minimal generators of in(I)."""
    gb, hd = I.groebner(), hilbert_data(I)
    if degree_bound is not None:
        return _koszul_betti(gb, hd, lambda i: degree_bound - i)
    T = sum(max(e) for e in zip(*(f.lm for f in gb)))
    return _koszul_betti(gb, hd, lambda i: T - 1)


def _certified_cut(I, hd, seed=0):
    """(J, hilbert_data(J), cuts) for the last certified ideal of the cut
    chain of I."""
    chain = [(J, hd_J) for J, hd_J, ok in regular_cut(I, hd, seed) if ok]
    return chain[-1] + (len(chain) - 1,)


def test_cut_certificate_rejects_zero_divisor():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x*y")])
    hd = hilbert_data(I)
    _, hd_x = _cut(I, hd, R.var("x"))
    assert hd_x.numerator != hd.numerator
    J, hd_J = _cut(I, hd, R.var("z"))
    assert J.ring.variables == ("x", "y")
    assert hd_J.numerator == hd.numerator and hd_J.dimension == 1


def test_cut_stops_at_depth_on_non_acm():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    hd = hilbert_data(I)
    J, hd_J, cuts = _certified_cut(I, hd)
    assert hd.dimension == 2 and cuts == 1 == hd_J.dimension
    assert J.ring.nvars == 2
    # the chain goes on past the certified prefix, down to dimension 0
    chain = list(regular_cut(I, hd))
    assert [hd_K.dimension for _, hd_K, _ in chain] == [2, 1, 0]
    assert [ok for _, _, ok in chain] == [True, True, False]
    B = minimal_free_resolution(I)
    assert B.entries == _uncut_table(I)
    assert not is_acm(B, hd)


def _rational_quartic():
    R = PolyRing(["a", "b", "c", "d"], F)
    return Ideal(R, [R.parse(g) for g in (
        "b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")])


def test_rational_quartic_window_from_the_cut_chain(monkeypatch):
    # non-ACM (depth 1, dimension 2): one certified cut, one more to reach
    # dimension 0, and the window read off their Hilbert functions; the
    # Bayer-Stillman loop it replaces ran Buchberger twice more
    I = _rational_quartic()
    hd = hilbert_data(I)
    runs, windows = [], []
    real_buchberger = gb_module.buchberger
    real_window = homalg._regularity_window

    def spy(*a, **kw):
        runs.append(a[1])
        return real_buchberger(*a, **kw)

    monkeypatch.setattr(gb_module, "buchberger", spy)
    monkeypatch.setattr(homalg, "buchberger", spy)
    monkeypatch.setattr(homalg, "_regularity_window", lambda gb, chain:
                        windows.append((gb, real_window(gb, chain)))
                        or windows[-1][1])
    B = minimal_free_resolution(I)
    assert dict(B.entries) == {(0, 0): 1, (1, 2): 1, (1, 3): 3, (2, 4): 4,
                               (3, 5): 1}
    assert len(runs) <= 2
    # the certificate passed below the Taylor fallback
    (gb, m), = windows
    taylor = sum(max(e) for e in zip(*(f.lm for f in gb)))
    assert regularity(B) + 1 <= m < taylor


def test_window_is_h_degree_on_artinian_reduction(monkeypatch):
    windows = []
    real_window = homalg._regularity_window
    monkeypatch.setattr(homalg, "_regularity_window", lambda gb, chain:
                        windows.append(real_window(gb, chain))
                        or windows[-1])
    B = minimal_free_resolution(twisted_cubic())
    assert windows == [2] and regularity(B) == 1


def test_bayer_stillman_needs_injectivity():
    # reg(x^2, xy) = 2.  Cut by x, y, z the chain ends in k, but x kills
    # y^m on S/(x^2, xy), so the criterion fails in every degree; a seeded
    # generic chain passes from m = 2 on
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    chain = [hilbert_data(I)]
    J = I
    for h in ("x", "y", "z"):
        J, hd_J = _cut(J, chain[-1], J.ring.parse(h))
        chain.append(hd_J)
    assert chain[-1].hilbert_function(1) == 0
    assert not any(_bayer_stillman(chain, m) for m in range(1, 6))
    generic = [hd_K for _, hd_K, _ in regular_cut(I, chain[0])]
    assert [m for m in range(1, 6) if _bayer_stillman(generic, m)] \
        == [2, 3, 4, 5]


class _OnesRandom:
    """Stand-in for random.Random whose draws are all 1."""

    def __init__(self, seed):
        pass

    def randrange(self, a, b):
        return 1


def test_non_regular_chain_falls_back_to_taylor_window(monkeypatch):
    # z lies in the associated prime (y, z) of S/(x+y+z)(y, z) and divides
    # the head xz, so the first cut is seeded; the form drawn is x+y+z,
    # which kills y and z, and the zero ideal left is cut freely twice.  No
    # cut is certified and Bayer-Stillman fails in every degree, so the
    # window is the Taylor bound T = deg lcm(xy, xz)
    monkeypatch.setattr(homalg, "random", types.SimpleNamespace(
        Random=_OnesRandom))
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x*y + y^2 + y*z"), R.parse("x*z + y*z + z^2")])
    hd = hilbert_data(I)
    seeded = _count_seeded_cuts(monkeypatch)
    chain = list(regular_cut(I, hd))
    assert [ok for _, _, ok in chain] == [True, False, False, False]
    assert len(seeded) == 1 and chain[1][0].is_zero()
    assert chain[-1][0].ring.nvars == 0
    windows = []
    real_window = homalg._regularity_window
    monkeypatch.setattr(homalg, "_regularity_window", lambda gb, chain:
                        windows.append(real_window(gb, chain))
                        or windows[-1])
    B = minimal_free_resolution(I)
    assert windows == [3]
    assert B.entries == _uncut_table(I)
    assert dict(B.entries) == {(0, 0): 1, (1, 2): 2, (2, 3): 1}


@st.composite
def small_homogeneous_ideals(draw):
    R = PolyRing(["x", "y", "z"], F)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        terms = {}
        for a, b, c in draw(st.lists(
                st.tuples(st.integers(0, d), st.integers(0, d),
                          st.integers(1, 32002)), min_size=1, max_size=3)):
            b = min(b, d - a)
            terms[(a, b, d - a - b)] = c
        gens.append(R.from_dict(terms))
    return Ideal(R, gens)


@given(small_homogeneous_ideals(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_cut_table_equals_uncut_strands(I, seed):
    assert minimal_free_resolution(I, seed=seed).entries == _uncut_table(I)
    assert (minimal_free_resolution(I, degree_bound=3, seed=seed).entries
            == _uncut_table(I, degree_bound=3))


def _hankel_minors(d):
    """3x3 minors of the 3 x (d-1) Hankel matrix in x0..xd."""
    R = PolyRing([f"x{i}" for i in range(d + 1)], F)
    x = R.gens()
    gens = []
    for a in range(d - 1):
        for b in range(a + 1, d - 1):
            for c in range(b + 1, d - 1):
                m = [[x[i + j] for j in (a, b, c)] for i in range(3)]
                gens.append(
                    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return Ideal(R, gens)


def _count_seeded_cuts(monkeypatch):
    """Record the ideal each seeded ``_cut`` of a cut chain cuts."""
    seeded = []
    real = homalg._cut
    monkeypatch.setattr(homalg, "_cut",
                        lambda J, hd, h: seeded.append(J) or real(J, hd, h))
    return seeded


def _all_seeded(monkeypatch):
    """Force every step of a cut chain to a seeded ``_cut``: the reference
    chain without free cuts."""
    monkeypatch.setattr(homalg, "_free_cut", lambda J, hd: None)


def _check_driven_cuts(monkeypatch):
    """Make every cut's driven basis also compute the untargeted basis and
    assert the two equal term for term; returns the list of checked cut
    rings."""
    checked = []

    def spy(gens, ring, *args, target=None, **kwargs):
        driven = buchberger(gens, ring, *args, target=target, **kwargs)
        ref = buchberger(gens, ring, *args, **kwargs)
        assert not target.exact
        assert [f.terms for f in driven] == [f.terms for f in ref]
        checked.append(ring)
        return driven

    monkeypatch.setattr(homalg, "buchberger", spy)
    return checked


def _acm_fixtures():
    """Secant varieties of the RNC d=5, 6, 7 and the elliptic sextic, and
    the Hankel d=8 minors: all ACM of Krull dimension 4."""
    R2 = PolyRing(["x", "y"], F)
    elliptic = CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1"))
    fixtures = [secant_join(rational_normal_curve(d, F).secant_spec(1))
                for d in (5, 6, 7)]
    fixtures.append(secant_join(embed(elliptic, 6).secant_spec(1)))
    fixtures.append(_hankel_minors(8))
    return fixtures


def test_cut_reaches_dimension_zero_on_acm_fixtures(monkeypatch):
    # Deterministic speed gate: without the full cut the strands are built
    # over the whole ring, about 50 times slower, with the same tables.
    # Each chain cuts by its last two variables freely, then by two seeded
    # forms, and every seeded cut's driven basis is the untargeted one.
    fixtures = _acm_fixtures()
    checked = _check_driven_cuts(monkeypatch)
    for I in fixtures:
        hd = hilbert_data(I)
        _, hd_J, cuts = _certified_cut(I, hd)
        assert cuts == hd.dimension == 4 and hd_J.dimension == 0
    assert len(checked) == 2 * len(fixtures)


def test_free_cuts_keep_the_acm_betti_tables(monkeypatch):
    # the Betti table is invariant under a regular-sequence cut, so the
    # chain with free cuts gives the table of the all-seeded chain
    fixtures = _acm_fixtures()
    tables = [minimal_free_resolution(I) for I in fixtures]
    _all_seeded(monkeypatch)
    assert tables == [minimal_free_resolution(I) for I in fixtures]


def _curve_file_secant(name, k):
    model, d = parse_curve_file((GOLDEN / name).read_text())
    return secant_join(embed(model, d).secant_spec(k))


@pytest.mark.parametrize("make,free", [
    (lambda: secant_join(rational_normal_curve(7, F).secant_spec(1)), 2),
    (lambda: _curve_file_secant("elliptic5.curve", 1), 3),
    (lambda: _curve_file_secant("genus2_6.curve", 1), 3),
], ids=["rnc7", "ell5", "g2_6"])
def test_free_cut_is_the_reduced_basis_of_the_cut(make, free, monkeypatch):
    # oracle: at every free cut the restricted basis is, term for term,
    # buchberger's reduced basis of the cut (the generators with the last
    # variable set to 0), and it carries the parent's Hilbert numerator
    cuts = []
    real = homalg._free_cut

    def spy(J, hd):
        out = real(J, hd)
        if out is not None:
            K, hd_K = out
            last = J.ring.nvars - 1
            ref = buchberger([K.ring.from_dict(
                {m[:last]: c for m, c in g.terms if not m[last]})
                for g in J.generators], K.ring)
            assert [f.terms for f in K.groebner()] == [f.terms for f in ref]
            assert hd_K == hilbert_data(Ideal(K.ring, K.generators))
            cuts.append(K.ring.nvars)
        return out

    monkeypatch.setattr(homalg, "_free_cut", spy)
    I = make()
    chain = list(regular_cut(I, hilbert_data(I)))
    assert all(ok for _, _, ok in chain)
    n = I.ring.nvars
    assert cuts == list(range(n - 1, n - 1 - free, -1))


def test_head_on_the_last_variable_falls_through_to_a_seeded_cut(
        monkeypatch):
    # z divides the head xz of S/x(x, z), which has depth 1: z is a zero
    # divisor, so no step is free, and the chain is the all-seeded one
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2"), R.parse("x*z")])
    hd = hilbert_data(I)
    seeded = _count_seeded_cuts(monkeypatch)
    chain = list(regular_cut(I, hd))
    assert [ok for _, _, ok in chain] == [True, True, False]
    assert seeded == [J for J, _, _ in chain[:-1]]
    assert any(f.lm[-1] for f in I.groebner())
    _all_seeded(monkeypatch)
    old = list(regular_cut(I, hd))
    assert [ok for _, _, ok in old] == [True, True, False]
    assert [hd_K for _, hd_K, _ in old] == [hd_K for _, hd_K, _ in chain]


def test_only_a_grevlex_basis_is_cut_freely(monkeypatch):
    # only a grevlex basis is cut freely: z divides no head of the lex
    # basis of (x^2 - yz), yet the lex ideal takes a seeded cut first; that
    # cut lands in a grevlex ring, where the next cut is free
    R = PolyRing(["x", "y", "z"], F, MonomialOrder.lex())
    I = Ideal(R, [R.parse("x^2 - y*z")])
    assert not any(f.lm[-1] for f in I.groebner())
    seeded = _count_seeded_cuts(monkeypatch)
    chain = list(regular_cut(I, hilbert_data(I)))
    assert [ok for _, _, ok in chain] == [True, True, True]
    assert seeded == [I]


def test_zero_divisor_cut_keeps_its_exact_basis(monkeypatch):
    # the rational quartic has depth 1: its first cut, by the last
    # variable d, is free, and its second, seeded, is a zero divisor, so
    # the lower bound stays strictly below the Hilbert function of the
    # cut, and the driven run must neither raise nor change the basis
    checked = _check_driven_cuts(monkeypatch)
    I = _rational_quartic()
    chain = list(regular_cut(I, hilbert_data(I)))
    assert [ok for _, _, ok in chain] == [True, True, False]
    assert len(checked) == 1
    prev, last = chain[1][1], chain[2][1]
    assert any(last.hilbert_function(d) > prev.hilbert_function(d)
               - prev.hilbert_function(d - 1) for d in range(6))


def test_driven_cut_reduction_gate(monkeypatch):
    # Deterministic work counter: on the secant variety of the rational
    # normal sextic (the 3x3 minors of the 3 x 5 Hankel matrix) the first
    # two cuts are free and run nothing; each of the two driven cut runs
    # head-reduces its 10 generators and nothing else, none to zero;
    # untargeted, each made 25 reductions, 15 of them to zero.  The
    # interreduction and the substitution's normal forms are not counted.
    cut_runs = []       # remainders of each cut run's main-loop reductions
    work = ReductionSpy(monkeypatch)
    work.watching = False
    real_run = gb_module._buchberger
    real_interreduce = gb_module._interreduce

    def run_spy(gens, ring, *args):
        if ring.nvars >= 7:         # not a cut ring: I itself lives in 7
            return real_run(gens, ring, *args)
        work.heads = []
        work.watching = True
        try:
            return real_run(gens, ring, *args)
        finally:
            work.watching = False
            cut_runs.append(work.heads)

    def interreduce_spy(*args):
        work.watching = False
        return real_interreduce(*args)

    monkeypatch.setattr(gb_module, "_buchberger", run_spy)
    monkeypatch.setattr(gb_module, "_interreduce", interreduce_spy)
    I = _hankel_minors(6)
    assert len(list(regular_cut(I, hilbert_data(I)))) == 5
    assert len(cut_runs) == 2
    for remainders in cut_runs:
        assert 0 < len(remainders) <= 10 and all(remainders)


def test_cut_chain_reads_each_numerator_off_its_driven_run(monkeypatch):
    # each driven cut run hands its Hilbert numerator to hilbert_data, so
    # the chain never counts the heads of a cut's basis a second time
    I = _hankel_minors(6)
    hd = hilbert_data(I)
    counted = []
    real = gb_module.GroebnerBasis._head_words

    def spy(self):
        counted.append(self)
        return real(self)

    monkeypatch.setattr(gb_module.GroebnerBasis, "_head_words", spy)
    chain = list(regular_cut(I, hd))
    assert len(chain) == 5 and all(ok for _, _, ok in chain)
    assert counted == []


def test_identity_check_catches_a_basis_that_lost_a_head():
    # without one element of its basis the twisted cubic has more standard
    # monomials in degree 2 than its Hilbert function counts
    I = twisted_cubic()
    gb = I.groebner()
    short = gb_module.GroebnerBasis(list(gb)[:-1], I.ring)
    with pytest.raises(InternalIdentityError,
                       match="standard monomials in degree 2"):
        _koszul_betti(short, hilbert_data(I), lambda i: 3 - i)
    assert _koszul_betti(gb, hilbert_data(I), lambda i: 3 - i)


def test_identity_check_catches_wrong_ranks(monkeypatch):
    I = twisted_cubic()
    monkeypatch.setattr(homalg, "_rank_mod", lambda A, p: 0)
    with pytest.raises(InternalIdentityError):
        minimal_free_resolution(I)
    with pytest.raises(InternalIdentityError):
        minimal_free_resolution(I, degree_bound=3)
    # a rank above the number of vectors is impossible; this one drives
    # beta_{1,2} of the twisted cubic below zero
    monkeypatch.setattr(homalg, "_rank_mod", lambda A, p: len(A) + 2)
    with pytest.raises(InternalIdentityError, match="negative"):
        minimal_free_resolution(I)
