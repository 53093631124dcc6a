import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantlab import gb as gb_module
from secantlab import homalg
from secantlab.arith import MAX_PRIME, PrimeField
from secantlab.curves import CurveModel, embed, rational_normal_curve
from secantlab.gb import Ideal
from secantlab.homalg import (InternalIdentityError, ZeroIdeal,
                              _bayer_stillman, _cut, _koszul_betti,
                              _rank_mod, betti_numerator,
                              check_ndp, hilbert_data, is_acm, koszul_dim,
                              max_ndp_steps, min_generator_degree,
                              minimal_free_resolution, projective_dimension,
                              regular_cut, regularity)
from secantlab.ideal_ops import secant_join
from secantlab.poly import PolyRing

F = PrimeField(32003)


def twisted_cubic():
    R = PolyRing(["x0", "x1", "x2", "x3"], F)
    gens = [R.gen(i) * R.gen(j + 1) - R.gen(i + 1) * R.gen(j)
            for i in range(3) for j in range(i, 3)]
    return Ideal(R, gens)


# -- Hilbert data -----------------------------------------------------------

def test_hilbert_twisted_cubic():
    hd = hilbert_data(twisted_cubic())
    assert hd.numerator == (1, 0, -3, 2)
    assert hd.dimension == 2 and hd.degree == 3
    assert hd.projective_dimension_of_variety == 1
    # h(d) = 3d + 1 for the twisted cubic
    for d in range(6):
        assert hd.hilbert_function(d) == 3 * d + 1


def test_resolution_reuses_callers_hilbert_data(monkeypatch):
    # cli.cmd_betti and oracle.verify compute hilbert_data(I) first; the
    # resolution reads it from I instead of asking for it again
    I = twisted_cubic()
    hd = hilbert_data(I)
    asked = []
    real = homalg.hilbert_data
    monkeypatch.setattr(homalg, "hilbert_data",
                        lambda J, **kw: asked.append(J) or real(J, **kw))
    minimal_free_resolution(I)
    assert asked and all(J is not I for J in asked)   # only the cut ideals
    assert hilbert_data(I) is hd


def test_hilbert_zero_and_unit():
    R = PolyRing(["x", "y"], F)
    hd0 = hilbert_data(Ideal(R, []))
    assert hd0.numerator == (1,) and hd0.dimension == 2
    hd1 = hilbert_data(Ideal(R, [R.constant(1)]))
    assert hd1.dimension == -1 and hd1.degree == 0


def test_hilbert_function_without_variables():
    # S = k: S/0 is k in degree 0 and nothing above
    hd = hilbert_data(Ideal(PolyRing([], F), []))
    assert [hd.hilbert_function(d) for d in range(4)] == [1, 0, 0, 0]
    # the chain of I = (x+y+z)(x, y) cut by x+y+z, y+z, z ends there
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2 + x*y + x*z"), R.parse("x*y + y^2 + y*z")])
    J = I
    for h in ("x + y + z", "y + z", "z"):
        J, hd_J = _cut(J, J.ring.parse(h), None)
    assert J.ring.nvars == 0 and J.is_zero()
    assert [hd_J.hilbert_function(d) for d in range(4)] == [1, 0, 0, 0]


def test_hilbert_hypersurface():
    R = PolyRing(["x", "y", "z"], F)
    hd = hilbert_data(Ideal(R, [R.parse("x^3 + y^3 + z^3")]))
    assert hd.numerator == (1, -1, -1, 1, 1, -1) or hd.degree == 3
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
    with pytest.raises(ZeroIdeal):
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
    bn = betti_numerator(B)
    padded = tuple(hd.numerator) + (0,) * len(bn)
    assert all(bn[i] == padded[i] for i in range(len(bn)))


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


def test_display_renders_dots_for_zeros():
    out = minimal_free_resolution(twisted_cubic()).display()
    assert "." in out and "3" in out and "2" in out


# -- regular-sequence cut ---------------------------------------------------

def _uncut_table(I, degree_bound=None):
    """Test oracle: the Koszul strands of I itself, without any cut,
    windowed by the truncation bound or else by the Taylor bound T - 1 on
    reg(S/I), T the degree of the lcm of the minimal generators of in(I)."""
    gb = I.groebner()
    if degree_bound is not None:
        return _koszul_betti(gb, lambda i: degree_bound - i)
    T = sum(max(e) for e in zip(*(f.lm for f in gb)))
    return _koszul_betti(gb, lambda i: T - 1)


def _certified_cut(I, hd, seed=0):
    """(J, hilbert_data(J), cuts) for the last certified ideal of the cut
    chain of I."""
    chain = [(J, hd_J) for J, hd_J, ok in regular_cut(I, hd, seed) if ok]
    return chain[-1] + (len(chain) - 1,)


def test_cut_certificate_rejects_zero_divisor():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x*y")])
    hd = hilbert_data(I)
    _, hd_x = _cut(I, R.var("x"), None)
    assert hd_x.numerator != hd.numerator
    J, hd_J = _cut(I, R.var("z"), None)
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
    monkeypatch.setattr(gb_module, "buchberger", lambda *a, **kw:
                        runs.append(a[1]) or real_buchberger(*a, **kw))
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
        J, hd_J = _cut(J, J.ring.parse(h), None)
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
    # every form drawn is x+y+z (then y+z, z), which kills x and y on
    # S/(x+y+z)(x, y): no cut is certified and Bayer-Stillman fails in
    # every degree, so the window is the Taylor bound T = deg lcm(x^2, xy)
    monkeypatch.setattr(homalg, "random", types.SimpleNamespace(
        Random=_OnesRandom))
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2 + x*y + x*z"), R.parse("x*y + y^2 + y*z")])
    hd = hilbert_data(I)
    chain = list(regular_cut(I, hd))
    assert [ok for _, _, ok in chain] == [True, False, False, False]
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


def test_cut_reaches_dimension_zero_on_acm_fixtures():
    # Deterministic speed gate: without the full cut the strands are built
    # over the whole ring, about 50 times slower, with the same tables.
    R2 = PolyRing(["x", "y"], F)
    elliptic = CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1"))
    fixtures = [secant_join(rational_normal_curve(d, F).secant_spec(1))
                for d in (5, 6, 7)]
    fixtures.append(secant_join(embed(elliptic, 6).secant_spec(1)))
    fixtures.append(_hankel_minors(8))
    for I in fixtures:
        hd = hilbert_data(I)
        _, hd_J, cuts = _certified_cut(I, hd)
        assert cuts == hd.dimension == 4 and hd_J.dimension == 0


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
