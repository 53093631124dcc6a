import pickle
import random
from itertools import product
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reduction_spy import ReductionSpy

from secantlab import gb as gb_module
from secantlab import ideal_ops
from secantlab.arith import PrimeField
from secantlab.curves import CurveModel, embed, rational_normal_curve
from secantlab.gb import (GroebnerBasis, HilbertTarget, Ideal,
                          InternalIdentityError, ResourceLimit,
                          _ideal_with_gb, _poly_mul, buchberger, pair_budget)
from secantlab.homalg import minimal_free_resolution
from secantlab.ideal_ops import secant_join
from secantlab.poly import (DegreeTooLarge, MonomialOrder, PolyRing,
                            Polynomial, RingMismatch, _NeedWide)

F = PrimeField(32003)
R = PolyRing(["x", "y", "z"], F)


def test_reduced_basis_is_monic_and_interreduced():
    gb = buchberger([R.parse("x^2 + y"), R.parse("2*x^2 + x")], R)
    for f in gb:
        assert f.lc == 1
        for g in gb:
            if f is not g:
                # no leading monomial divides a monomial of another element
                assert all(not all(a <= b for a, b in zip(f.lm, mon))
                           for mon, _ in g.terms)


def test_last_variable_regular_reads_the_grevlex_heads():
    # z divides no head of (x^2 - y^2, xy), so it is a nonzerodivisor; it
    # divides both heads of (xz, yz), on which it is a zero divisor; a basis
    # of another order certifies nothing
    regular = buchberger([R.parse("x^2 - y^2"), R.parse("x*y")], R)
    assert regular.last_variable_regular()
    zero_divisor = buchberger([R.parse("x*z"), R.parse("y*z")], R)
    assert not zero_divisor.last_variable_regular()
    lex = PolyRing(["x", "y", "z"], F, MonomialOrder.lex())
    assert not buchberger([lex.parse("x^2")], lex).last_variable_regular()


def test_katsura_like_system_membership():
    gens = [R.parse("x + 2*y + 2*z - 1"),
            R.parse("x^2 + 2*y^2 + 2*z^2 - x"),
            R.parse("2*x*y + 2*y*z - y")]
    gb = buchberger(gens, R)
    for g in gens:
        assert gb.normal_form(g).is_zero()
    assert not gb.contains(R.parse("x"))


def test_unit_ideal_detected():
    gb = buchberger([R.parse("x"), R.parse("x + 1")], R)
    assert gb.is_unit_ideal()
    assert len(gb) == 1


def test_zero_input():
    gb = buchberger([R.constant(0)], R)
    assert len(gb) == 0


def test_canonicity_under_shuffles():
    gens = [R.parse("x*y - z^2"), R.parse("x^2 - y*z"),
            R.parse("y^2 - x*z"), R.parse("x^3 - y^3")]
    reference = [f.terms for f in buchberger(gens, R)]
    rng = random.Random(11)
    for _ in range(20):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = [g * R.constant(rng.randrange(1, 32003)) for g in shuffled]
        assert [f.terms for f in buchberger(scaled, R)] == reference


def test_elimination_order_projects_twisted_cubic():
    Rt = PolyRing(["t", "x", "y", "z"], F, MonomialOrder.block_elim(1))
    gens = [Rt.parse("x - t"), Rt.parse("y - t^2"), Rt.parse("z - t^3")]
    gb = buchberger(gens, Rt)
    poly_only = [f for f in gb
                 if all(m[0] == 0 for m, _ in f.terms)]
    assert len(poly_only) == 3  # the twisted cubic quadrics


def test_normal_form_is_linear():
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^2 - z")], R)
    f = R.parse("x^4 + x^2*y + 3")
    g = R.parse("x^2*y^2 - 7*z")
    nf = gb.normal_form(f + g)
    assert nf == gb.normal_form(f) + gb.normal_form(g)
    # idempotent
    assert gb.normal_form(nf) == nf


def test_pair_budget_enforced():
    # the one budget stops a bare basis, the secant join, a genus-1
    # embedding, and a Betti table of an ideal with no cached basis
    gens = [R.parse("x^4*y - z^2"), R.parse("y^4*z - x^2"),
            R.parse("z^4*x - y^2")]
    spec = rational_normal_curve(5, F).secant_spec(1)
    elliptic = CurveModel(1, F, PolyRing(["x", "y"], F).parse(
        "y^2 - x^3 - 4*x - 1"))
    cubic = rational_normal_curve(3, F).ideal
    runs = [lambda: buchberger(gens, R),
            lambda: secant_join(spec),
            lambda: embed(elliptic, 5),
            lambda: minimal_free_resolution(Ideal(cubic.ring,
                                                  cubic.generators))]
    for run in runs:
        with pytest.raises(ResourceLimit) as info:
            with pair_budget(1):
                run()
        assert info.value.max_pairs == 1
        # the block restores the default budget, even when it raises
        run()


def test_driven_join_counts_a_pair_when_it_starts(monkeypatch):
    # a degree's pairs are reduced round-robin: the budget is spent when
    # a pair's reduction starts, so the join stops at pair n + 1, and the
    # pairs it would drop unstarted at its Hilbert count are not spent
    runs = []

    def spy(*args, target=None, **kwargs):
        runs.append(target is not None)
        return buchberger(*args, target=target, **kwargs)

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    elliptic = CurveModel(1, F, PolyRing(["x", "y"], F).parse(
        "y^2 - x^3 - 4*x - 1"))
    spec = embed(elliptic, 6).secant_spec(1)
    for n in (30, 60):
        runs.clear()
        with pair_budget(n), pytest.raises(ResourceLimit) as info:
            secant_join(spec)
        assert runs[-1]
        assert (info.value.pairs_processed, info.value.max_pairs) == (n + 1, n)


def test_resource_limit_survives_pickle():
    # a verify --jobs worker returns its exception to the parent by pickle
    e = pickle.loads(pickle.dumps(ResourceLimit(2, 1)))
    assert type(e) is ResourceLimit
    assert (e.pairs_processed, e.max_pairs) == (2, 1)
    assert str(e) == "pair budget exhausted: processed 2 of 1"
    assert e.args == ResourceLimit(2, 1).args


def test_wide_exponent_fallback():
    # total degree beyond the narrow packing capacity of 8-bit fields
    Ru = PolyRing(["u", "v"], F)
    gb = buchberger([Ru.parse("u^200 - v"), Ru.parse("u*v - 1")], Ru)
    # u is the inverse of v, so u^200 = v forces v^201 = 1
    assert gb.contains(Ru.parse("v^201 - 1"))


def test_ideal_equal_and_cache():
    I = Ideal(R, [R.parse("x^2 - y"), R.parse("y^2 - z")])
    J = Ideal(R, [R.parse("y^2 - z"), R.parse("x^2 - y + y^2 - z")])
    assert [f.terms for f in I.groebner()] == [f.terms for f in J.groebner()]
    assert I.groebner() is I.groebner()  # cached
    K = Ideal(R, [R.parse("x")])
    assert [f.terms for f in I.groebner()] != [f.terms for f in K.groebner()]


def test_homogeneous_flag():
    assert Ideal(R, [R.parse("x^2 - y*z")]).is_homogeneous()
    assert not Ideal(R, [R.parse("x^2 - y")]).is_homogeneous()


@given(st.lists(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(1, 32002), min_size=1, max_size=3).map(R.from_dict),
    min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_generators_always_reduce_to_zero(gens):
    with pair_budget(200000):
        gb = buchberger(gens, R)
    for g in gens:
        assert gb.normal_form(g).is_zero()


def _free_of(f, m):
    """f involves none of the variables 0..m-1."""
    return not any(any(mon[:m]) for mon, _ in f.terms)


def _exact_target(basis, weights):
    """The weighted Hilbert series of S/I read off a reduced basis of I."""
    return HilbertTarget(weights, basis.hilbert_numerator(weights))


@st.composite
def weighted_homogeneous_ideals(draw):
    weights = draw(st.tuples(*[st.integers(1, 3)] * 3))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 6))
        mons = [e for e in product(range(d + 1), repeat=3)
                if sum(map(mul, weights, e)) == d]
        if mons:
            chosen = draw(st.lists(st.sampled_from(mons), min_size=1,
                                   max_size=3, unique=True))
            gens.append({e: draw(st.integers(1, 32002)) for e in chosen})
    return weights, gens


@given(weighted_homogeneous_ideals(), st.booleans(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_driven_basis_equals_untargeted(ideal, eliminate, loss):
    # the reduced basis is canonical: dropping pairs in degrees whose
    # leading-term count is complete must not change it.  loss > 0 drives
    # by the lower bound (1 - t^loss) HS(S/I), tight below degree loss.
    # Eliminating x keeps exactly the elements of that basis free of x
    weights, terms = ideal
    order = (MonomialOrder.block_elim(1, weights) if eliminate
             else MonomialOrder.grevlex())
    Rw = PolyRing(["x", "y", "z"], F, order)
    gens = [Rw.from_dict(t) for t in terms]
    with pair_budget(200000):
        ref = buchberger(gens, Rw)
        target = _exact_target(ref, weights)
        if loss:
            target = HilbertTarget(
                weights, _poly_mul(target.numerator, {0: 1, loss: -1}),
                exact=False)
        driven = buchberger(gens, Rw, target=target)
        assert [f.terms for f in driven] == [f.terms for f in ref]
        if eliminate:
            kept = buchberger(gens, Rw, target=target, eliminate=1)
            assert [f.terms for f in kept] == [f.terms for f in ref
                                               if _free_of(f, 1)]


def test_elimination_on_the_wide_layout():
    # degree 70 is past the narrow layout's cap of 64: both runs restart
    # wide, and the elimination keeps the parameter-free part
    Rt = PolyRing(["t", "u", "v"], F, MonomialOrder.block_elim(1))
    gens = [Rt.parse("t*u - v^2"), Rt.parse("t^2 - u^68*v^2"),
            Rt.parse("u^70 - t*v^69")]
    full = buchberger(gens, Rt)
    kept = buchberger(gens, Rt, eliminate=1)
    assert full._codec.wide and kept._codec.wide
    expected = [f.terms for f in full if _free_of(f, 1)]
    assert 0 < len(expected) < len(full)
    assert [f.terms for f in kept] == expected


def _s_polynomial(f, g):
    ring = f.ring
    lcm = tuple(max(a, b) for a, b in zip(f.lm, g.lm))
    return (ring.monomial(tuple(a - b for a, b in zip(lcm, f.lm))) * f
            - ring.monomial(tuple(a - b for a, b in zip(lcm, g.lm))) * g)


@given(weighted_homogeneous_ideals(), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_result_is_a_reduced_basis(ideal, block, wide):
    # certificate independent of how the loop reduces: the result is monic
    # and interreduced, and under full reduction every generator and every
    # S-pair of the result goes to zero
    weights, terms = ideal
    order = (MonomialOrder.block_elim(1, weights) if block
             else MonomialOrder.grevlex())
    Rw = PolyRing(["x", "y", "z"], F, order)
    gens = [Rw.from_dict(t) for t in terms]
    with pair_budget(200000):
        basis = gb_module._buchberger(gens, Rw,
                                      gb_module._Codec(Rw, wide=wide), None, 0)
    assert basis._codec.wide == wide
    for f in basis:
        assert f.lc == 1
        for g in basis:
            for mon, _ in g.terms:
                if f is not g or mon != f.lm:
                    # f's head divides no other term of the basis
                    assert not all(map(int.__le__, f.lm, mon))
    for g in gens:
        assert basis.normal_form(g).is_zero()
    for i, f in enumerate(basis):
        for g in basis.elements[i + 1:]:
            assert basis.normal_form(_s_polynomial(f, g)).is_zero()


def test_untargeted_run_adds_heads_by_order_weighted_degree(monkeypatch):
    # without a target the queue is graded by the order's own weights, so
    # on weighted-homogeneous input every new head has a weighted degree at
    # least the one before.  Taking every generator first adds the head t*x
    # of degree 2 after the degree-6 head of y^3 - z^2, which the block
    # order puts below it
    w = (1, 1, 2, 3)
    Rb = PolyRing(["t", "x", "y", "z"], F, MonomialOrder.block_elim(1, w))
    gens = [Rb.parse(s) for s in ("y^3 - z^2", "t*x - y", "x^3 - z",
                                  "t^2*y - x*z")]
    heads = []
    real_reducer = gb_module._Reducer

    class SpyReducer(real_reducer):
        __slots__ = ()

        def __init__(self, lm_full, *args):
            super().__init__(lm_full, *args)
            heads.append(args[-1].decode(lm_full))

    monkeypatch.setattr(gb_module, "_Reducer", SpyReducer)
    buchberger(gens, Rb)
    degrees = [sum(map(mul, w, e)) for e in heads]
    assert len(degrees) > len(gens) and degrees == sorted(degrees)


def test_unreduced_tails_respect_the_narrow_cap(monkeypatch):
    # the loop leaves tails unreduced, so a tail term is never popped; under
    # a block order t*y^10 becomes x^60*y^10 of degree 70 below a head of
    # degree 2, past the narrow cap of 64.  It must force the wide restart
    # rather than be stored narrow
    Rb = PolyRing(["t", "u", "x", "y", "z"], F, MonomialOrder.block_elim(2))
    gens = [Rb.parse("t - x^60"), Rb.parse("t*y^10 + u*z"),
            Rb.parse("u^2 - y")]
    stored = []
    real_reducer = gb_module._Reducer

    class SpyReducer(real_reducer):
        __slots__ = ()

        def __init__(self, lm_full, tail, index, codec):
            super().__init__(lm_full, tail, index, codec)
            if not codec.wide:
                stored.append(codec.deg(lm_full))
                stored.extend(codec.deg(m) for m, _ in tail)

    monkeypatch.setattr(gb_module, "_Reducer", SpyReducer)
    kept = buchberger(gens, Rb, eliminate=2)
    cap = gb_module._Codec(Rb).deg_cap
    assert stored and max(stored) < cap
    monkeypatch.setattr(gb_module, "_Reducer", real_reducer)
    with pair_budget(200000):
        wide = gb_module._buchberger(gens, Rb,
                                     gb_module._Codec(Rb, wide=True), None, 2)
    assert kept._codec.wide
    assert [f.terms for f in kept] == [f.terms for f in wide]


def _run_to_end(run):
    """(the value a ``gb._reduction`` run returns, its number of pauses)."""
    pauses = 0
    while True:
        try:
            next(run)
        except StopIteration as finished:
            return finished.value, pauses
        pauses += 1


def _reduce(items, reducers, codec, head_only, cache=None):
    """Remainder of the items, one stream, or with ``head_only`` their head
    reduction, by the reducer run to its end."""
    return _run_to_end(gb_module._reduction([(items, 0, 1)], reducers, codec,
                                            F.p, head_only, cache))[0]


def test_shared_divisor_cache_keeps_the_first_divisor():
    # one cache serves several reductions while the reducer list grows by
    # append, as in a Buchberger run.  These reducers are no Groebner
    # basis, so a remainder shows which divisor each word took: it must be
    # the first in the list, as a fresh scan finds it
    codec = gb_module._Codec(R)
    polys = []
    cache = {}

    def remainder(text, head_only=False):
        reducers = GroebnerBasis(polys, R, codec)._prepared()
        items = [(codec.encode(m), c) for m, c in R.parse(text).terms]
        shared = _reduce(items, reducers, codec, head_only, cache)
        assert shared == _reduce(items, reducers, codec, head_only)
        return Polynomial(R, tuple((codec.decode(m), c) for m, c in shared))

    polys.append(R.parse("x*y - z^2"))
    assert remainder("y^2 + x*z + x*y") == R.parse("y^2 + x*z + z^2")
    # a reducer appended later resolves the cached miss of y^2
    polys.append(R.parse("y^2 - x*z"))
    assert remainder("y^2") == R.parse("x*z")
    # x*y keeps its cached first divisor when a later head divides it too
    polys.append(R.parse("x*y - y*z"))
    assert remainder("x*y") == R.parse("z^2")
    # two appended heads divide the cached miss x*z: the first one wins
    polys.extend([R.parse("x*z - y*z"), R.parse("x*z - z^2")])
    assert remainder("x*z") == R.parse("y*z")
    # y^3 -> x*y*z -> z^3, whose head is irreducible: x*z stays unreduced
    assert remainder("y^3 + x*z", head_only=True) == R.parse("z^3 + x*z")


def test_shared_divisor_cache_on_a_growing_list():
    # random monic reducers, appended one at a time; after each append a
    # few random polynomials are reduced with the shared cache and afresh
    rng = random.Random(23)
    codec = gb_module._Codec(R)
    monomials = [e for e in product(range(4), repeat=3) if sum(e) <= 3]

    def random_poly():
        terms = {m: rng.randrange(1, F.p) for m in rng.sample(monomials, 4)}
        return R.from_dict(terms)

    polys = []
    cache = {}
    for _ in range(12):
        polys.append(random_poly().monic())
        reducers = GroebnerBasis(polys, R, codec)._prepared()
        for _ in range(6):
            items = [(codec.encode(m), c) for m, c in random_poly().terms]
            for head_only in (False, True):
                assert _reduce(items, reducers, codec, head_only, cache) \
                    == _reduce(items, reducers, codec, head_only)


def _divide(f, divisors, head_only):
    """(remainder, number of divisions) of f by the list of monic
    divisors, on Polynomials: the largest remaining term is divided by
    the first divisor whose head divides it.  With ``head_only``, stop at
    the first term no head divides and keep the rest of f as it is."""
    remainder = R.constant(0)
    divisions = 0
    while f:
        m, c = f.terms[0]
        for g in divisors:
            q = tuple(a - b for a, b in zip(m, g.lm))
            if min(q) >= 0:
                f = f - g * R.from_dict({q: c})
                divisions += 1
                break
        else:
            if head_only:
                return f, divisions
            remainder = remainder + R.from_dict({m: c})
            f = f - R.from_dict({m: c})
    return remainder, divisions


@pytest.mark.parametrize("wide", [False, True])
def test_stepped_reducer_divides_as_in_turn(wide):
    # random monic reducers, appended one at a time, as in a Buchberger
    # run; the resumable reducer, run to completion with a shared or a
    # fresh cache, gives the remainder of division in turn of the sum of
    # its streams and pauses once per division.  The streams are one
    # polynomial, two shifted polynomials with opposite multipliers (an
    # S-polynomial's two halves) and a pair that cancels completely
    rng = random.Random(29)
    codec = gb_module._Codec(R, wide=wide)
    monomials = [e for e in product(range(4), repeat=3) if sum(e) <= 3]
    one = (0, 0, 0)

    def random_poly():
        terms = {m: rng.randrange(1, F.p) for m in rng.sample(monomials, 4)}
        return R.from_dict(terms)

    def stream(f, shift, k):
        """k * x^shift * f as a stream, and as a Polynomial."""
        terms = tuple((codec.encode(m), c) for m, c in f.terms)
        packed = codec.encode(shift) - codec.encode(one)
        return (terms, packed, k), f * R.from_dict({shift: k % F.p})

    polys = []
    shared = {}
    for _ in range(12):
        polys.append(random_poly().monic())
        reducers = GroebnerBasis(polys, R, codec)._prepared()
        for _ in range(6):
            f, g = random_poly(), random_poly()
            a, b = rng.sample(monomials[:10], 2)
            k = rng.randrange(1, F.p)
            cases = [[stream(f, one, 1)],
                     [stream(f, a, k), stream(g, b, -k)],
                     [stream(f, a, k), stream(f, a, F.p - k)]]
            for case in cases:
                streams = [s for s, _ in case]
                total = sum((poly for _, poly in case), R.constant(0))
                for head_only in (False, True):
                    expected, divisions = _divide(total, polys, head_only)
                    if not head_only:
                        assert gb_module._reduce_full(
                            streams, reducers, codec, F.p, cache=shared) \
                            == tuple((codec.encode(m), c)
                                     for m, c in expected.terms)
                    for cache in (shared, None):
                        out, pauses = _run_to_end(gb_module._reduction(
                            streams, reducers, codec, F.p, head_only, cache))
                        assert Polynomial(R, tuple(
                            (codec.decode(m), c) for m, c in out)) == expected
                        assert pauses == divisions

    # under a block order a drained term can outweigh the irreducible head
    # in total degree: t*x is drained with x^cap, which must raise as a
    # divided term would
    Rb = PolyRing(["t", "x"], F, MonomialOrder.block_elim(1))
    codec = gb_module._Codec(Rb, wide=wide)
    for top, fails in ((codec.deg_cap - 2, False), (codec.deg_cap - 1, True)):
        terms = ((codec.encode((1, 0)), 1), (codec.encode((0, top)), 2))
        run = gb_module._reduction(
            [(terms, codec.encode((0, 1)) - codec.encode((0, 0)), 3)], [],
            codec, F.p, True)
        if fails:
            with pytest.raises(DegreeTooLarge if wide else _NeedWide):
                _run_to_end(run)
        else:
            assert [(codec.decode(m), c) for m, c in _run_to_end(run)[0]] \
                == [((1, 1), 3), ((0, top + 1), 6)]


def test_zero_s_polynomial_is_not_divided(monkeypatch):
    # x*f and y*f with f = y + z: the S-polynomial of their one pair
    # reaches the reducer as two shifted tails, which cancel on the heap,
    # so it comes out () without a division.  The run reads 8 stream
    # terms: the generators' 4, the two tails and, when it interreduces,
    # the two tails once more
    work = ReductionSpy(monkeypatch)
    basis = buchberger([R.parse("x*y + x*z"), R.parse("y^2 + y*z")], R)
    assert work.steps == 0 and work.merged == 8
    assert len(work.heads) == 3 and all(work.heads[:2])
    assert work.heads[2] == ()
    assert list(basis) == [R.parse("y^2 + y*z"), R.parse("x*y + x*z")]


def test_eliminate_must_be_the_first_block():
    gens = [R.parse("x*y - z^2"), R.parse("x^2 - y*z")]
    with pytest.raises(ValueError, match="first block"):
        buchberger(gens, R, eliminate=1)
    Rb = PolyRing(["x", "y", "z"], F, MonomialOrder.block_elim(1))
    gens = [Rb.from_dict(dict(f.terms)) for f in gens]
    for m in (2, -1):
        with pytest.raises(ValueError, match="first block"):
            buchberger(gens, Rb, eliminate=m)
    assert len(buchberger(gens, Rb, eliminate=1)) == 1


def test_generators_must_be_over_the_ring():
    # a generator's first term is taken as its head, so its terms must be
    # sorted by the ring's own order: under lex the head of x - y^2 is x
    Rl = R.with_order(MonomialOrder.lex())
    with pytest.raises(RingMismatch):
        buchberger([R.parse("x - y^2")], Rl)
    assert buchberger([Rl.parse("x - y^2")], Rl).elements[0].lm == (1, 0, 0)
    # same variables and field, another order: a basis or ideal built
    # from such elements would reduce x by the grevlex head y^2
    with pytest.raises(RingMismatch):
        GroebnerBasis([R.parse("x - y^2")], Rl)
    with pytest.raises(RingMismatch):
        _ideal_with_gb(Rl, [R.parse("x - y^2")])
    with pytest.raises(RingMismatch):
        Ideal(Rl, [R.parse("x - y^2")])
    basis = GroebnerBasis([Rl.parse("x - y^2")], Rl)
    assert basis.normal_form(Rl.parse("x")) == Rl.parse("y^2")


def test_hilbert_target_guards():
    w = (1, 1, 1)
    with pytest.raises(ValueError, match="weighted-homogeneous"):
        buchberger([R.parse("x^2 - y")], R,
                   target=HilbertTarget(w, {0: 1, 2: -1}))
    gens = [R.parse("x*y - z^2"), R.parse("x^2 - y*z")]
    exact = _exact_target(buchberger(gens, R), w)
    assert buchberger(gens, R, target=exact) == buchberger(gens, R)
    # one standard monomial too few in degree 2: the count there is never
    # met, and the finished basis disagrees with the target
    short = HilbertTarget(w, {**exact.numerator, 2: exact.numerator[2] - 1})
    with pytest.raises(InternalIdentityError, match="degrees"):
        buchberger(gens, R, target=short)


def test_principal_needs_eliminate_and_a_target():
    w = (1, 1, 1)
    Rb = PolyRing(["x", "y", "z"], F, MonomialOrder.block_elim(1))
    gens = [Rb.parse("x*y - z^2"), Rb.parse("x^2 - y*z")]
    exact = _exact_target(buchberger(gens, Rb), w)
    for kwargs in ({}, {"target": exact}, {"eliminate": 1}):
        with pytest.raises(ValueError, match="principal"):
            buchberger(gens, Rb, principal=True, **kwargs)


def _image_of_binary_cubics(monomials):
    """Generators v_i - m_i(s, t) of the graph of (s, t) -> (m_i), with
    their exact target, in k[s, t, v] eliminating s and t (weights 1 on
    s and t, 3 on the v_i)."""
    names = ["s", "t"] + [f"v{i}" for i in range(len(monomials))]
    w = (1, 1) + (3,) * len(monomials)
    Rs = PolyRing(names, F, MonomialOrder.block_elim(2, w))
    gens = [Rs.parse(f"v{i} - {m}") for i, m in enumerate(monomials)]
    return gens, Rs, _exact_target(buchberger(gens, Rs), w)


def test_principal_elimination_is_the_full_one():
    # the image of (s^3, s^2 t, t^3) is the plane cuspidal cubic, so its
    # elimination ideal is principal: stopping at the first form loses
    # nothing
    gens, Rs, target = _image_of_binary_cubics(["s^3", "s^2*t", "t^3"])
    full = buchberger(gens, Rs, target=target, eliminate=2)
    early = buchberger(gens, Rs, target=target, eliminate=2, principal=True)
    assert [f.terms for f in early] == [f.terms for f in full]
    assert list(early) == [Rs.parse("v1^3 - v0^2*v2")]
    # the twisted cubic's ideal is not principal: the same stop keeps only
    # the first of its three quadrics, as the caller was warned
    gens, Rs, target = _image_of_binary_cubics(
        ["s^3", "s^2*t", "s*t^2", "t^3"])
    full = buchberger(gens, Rs, target=target, eliminate=2)
    early = buchberger(gens, Rs, target=target, eliminate=2, principal=True)
    assert len(full) == 3 and list(early) == [full.elements[0]]


def test_lower_bound_target_guard():
    # a lower bound one above the truth in degree 0 (numerator plus
    # (1-t)^3) cannot hold, and the finished basis undercuts it there
    gens = [R.parse("x*y - z^2"), R.parse("x^2 - y*z")]
    num = dict(_exact_target(buchberger(gens, R), (1, 1, 1)).numerator)
    for d, c in enumerate((1, -3, 3, -1)):
        num[d] = num.get(d, 0) + c
    with pytest.raises(InternalIdentityError, match=r"degrees \[0\]"):
        buchberger(gens, R, target=HilbertTarget((1, 1, 1), num,
                                                 exact=False))


@st.composite
def exponent_pairs(draw):
    """A codec, narrow or wide, and two exponent vectors whose total
    degrees stay below its cap, as every stored monomial's does."""
    n = draw(st.integers(1, 6))
    codec = gb_module._Codec(PolyRing([f"x{i}" for i in range(n)], F),
                             wide=draw(st.booleans()))
    vectors = []
    for _ in range(2):
        left = draw(st.integers(0, codec.deg_cap - 1))
        e = []
        for _ in range(n):
            e.append(draw(st.integers(0, left)))
            left -= e[-1]
        vectors.append(tuple(draw(st.permutations(e))))
    weights = draw(st.tuples(*[st.integers(1, 12)] * n))
    return codec, vectors[0], vectors[1], weights


def _word(codec, exps):
    return sum(e << (codec.exp_bits * i) for i, e in enumerate(exps))


@given(exponent_pairs())
@settings(max_examples=200, deadline=None)
def test_word_arithmetic_matches_tuples(case):
    codec, ea, eb, weights = case
    a, b = _word(codec, ea), _word(codec, eb)
    assert codec.encode(ea) & codec.pmask == a
    lcm = tuple(map(max, ea, eb))
    assert codec.exp_colon(a, b) == _word(
        codec, tuple(max(x - y, 0) for x, y in zip(ea, eb)))
    assert codec.exp_lcm(a, b) == _word(codec, lcm)
    coprime = all(x == 0 or y == 0 for x, y in zip(ea, eb))
    assert (codec.exp_lcm(a, b) == a + b) == coprime
    assert codec.exp_deg(a) == sum(ea)
    assert codec.exp_deg(_word(codec, lcm)) == sum(lcm)
    guard_bit = 1 << (codec.exp_bits - 1)
    assert codec.exp_nonzero(a) == _word(
        codec, tuple(guard_bit if x else 0 for x in ea))
    assert codec.weigher(weights)(a) == sum(map(mul, weights, ea))
    eab = tuple(map(add, ea, eb))
    if sum(eab) < codec.deg_cap:
        assert codec.times(codec.encode(eb), a) == codec.encode(eab)
    else:
        with pytest.raises(DegreeTooLarge if codec.wide else _NeedWide):
            codec.times(codec.encode(eb), a)


@pytest.mark.parametrize("wide", [False, True])
def test_times_checks_the_degree_cap(wide):
    # a pair's packed lcm is its head times a colon word; a product that
    # reaches the cap must raise, as encoding it would
    codec = gb_module._Codec(R, wide=wide)
    cap = codec.deg_cap
    x = _word(codec, (1, 0, 0))
    assert codec.times(codec.encode((cap - 2, 0, 0)), x) \
        == codec.encode((cap - 1, 0, 0))
    with pytest.raises(DegreeTooLarge if wide else _NeedWide):
        codec.times(codec.encode((cap - 1, 0, 0)), x)


def _standard_count(gens, weights, d):
    """Monomials of weighted degree d divisible by no generator."""
    return sum(
        1 for e in product(*(range(d // w + 1) for w in weights))
        if sum(map(mul, weights, e)) == d
        and not any(all(map(int.__le__, g, e)) for g in gens))


def _kernel_hilbert_function(gens, weights, wide, degrees):
    codec = gb_module._Codec(
        PolyRing([f"x{i}" for i in range(len(weights))], F), wide=wide)
    num = gb_module._numerator([_word(codec, g) for g in gens], codec,
                               weights, {})
    series = gb_module._series_of_denominator(weights, max(degrees) + 1)
    return [sum(c * series[d - e] for e, c in num.items() if e <= d)
            for d in degrees]


@given(st.tuples(*[st.integers(1, 3)] * 3),
       st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=6),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_numerator_kernel_counts_standard_monomials(weights, gens, wide):
    degrees = range(13)
    assert _kernel_hilbert_function(gens, weights, wide, degrees) == [
        _standard_count(gens, weights, d) for d in degrees]


def test_numerator_kernel_counts_past_one_field():
    # (x, y, z)^23 has 300 minimal generators and x is in 276 of them,
    # more than one narrow field counts at once
    gens = [(a, b, 23 - a - b) for a in range(24) for b in range(24 - a)]
    degrees = range(26)
    expected = [(d + 1) * (d + 2) // 2 if d < 23 else 0 for d in degrees]
    assert _kernel_hilbert_function(gens, (1, 1, 1), False,
                                    degrees) == expected


@given(weighted_homogeneous_ideals())
@settings(max_examples=40, deadline=None)
def test_driven_run_hands_over_its_numerator(ideal):
    # a driven run keeps N(in G) and stores it on the basis; counting the
    # heads of the same basis afresh gives the same numerator
    weights, terms = ideal
    gens = [R.from_dict(t) for t in terms]
    target = _exact_target(buchberger(gens, R), weights)
    driven = buchberger(gens, R, target=target)
    assert driven._hilbert is not None
    assert driven.hilbert_numerator(weights) == gb_module.GroebnerBasis(
        driven.elements, R).hilbert_numerator(weights)


def test_hilbert_numerator_restarts_wide():
    # a head of degree 70 is past the narrow cap of 64
    Ru = PolyRing(["u", "v"], F)
    basis = gb_module.GroebnerBasis([Ru.parse("u^70"), Ru.parse("v^2")], Ru)
    assert basis.hilbert_numerator((1, 1)) == {0: 1, 2: -1, 70: -1, 72: 1}
    assert basis._codec.wide


def test_normal_form_restarts_wide():
    # the basis is prepared narrow; a monomial of degree 70 is past the
    # narrow cap of 64, so the reduction restarts on the wide layout
    Ru = PolyRing(["u", "v"], F)
    basis = gb_module.GroebnerBasis([Ru.parse("u^2 - v^2")], Ru)
    assert basis.normal_form(Ru.parse("u^3")) == Ru.parse("u*v^2")
    assert not basis._codec.wide
    assert basis.normal_form(Ru.parse("u^70 + u*v")) == Ru.parse(
        "v^70 + u*v")
    assert basis._codec.wide
