import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantlab.arith import PrimeField
from secantlab.poly import (ArityMismatch, DegreeTooLarge, MonomialOrder,
                            ParseError, PolyRing, RingMismatch,
                            UnknownVariable, _Codec)

F = PrimeField(32003)
R = PolyRing(["x", "y", "z"], F)

monomials = st.tuples(st.integers(0, 6), st.integers(0, 6),
                      st.integers(0, 6))
polys = st.dictionaries(monomials, st.integers(1, 32002), min_size=0,
                        max_size=8).map(R.from_dict)


# -- monomial orders --------------------------------------------------------

def test_grevlex_known_comparisons():
    key = R._key
    # same degree: grevlex prefers smaller exponent on the last variable
    assert key((1, 1, 0)) > key((0, 0, 2))
    assert key((2, 0, 0)) > key((1, 1, 0)) > key((0, 2, 0)) > key((1, 0, 1))
    # degree dominates
    assert key((0, 0, 3)) > key((2, 0, 0))


def test_rings_from_equal_orders_are_equal():
    # orders are immutable values: rings built from two equal orders are
    # equal and hash equal, and another order gives another ring
    a = MonomialOrder.block_elim(1, (1, 2, 3))
    b = MonomialOrder.block_elim(1, (1, 2, 3))
    assert a is not b and a == b and hash(a) == hash(b)
    Ra, Rb = R.with_order(a), R.with_order(b)
    assert Ra == Rb and hash(Ra) == hash(Rb)
    assert Ra != R.with_order(MonomialOrder.block_elim(1))
    with pytest.raises(AttributeError):
        a.name = "grevlex"


def test_lex_order():
    Rl = R.with_order(MonomialOrder.lex())
    key = Rl._key
    assert key((1, 0, 0)) > key((0, 5, 5))
    assert key((1, 1, 0)) > key((1, 0, 5))


def test_block_order_eliminates_first_block():
    Rb = R.with_order(MonomialOrder.block_elim(1))
    key = Rb._key
    # any monomial involving x beats any monomial free of x
    assert key((1, 0, 0)) > key((0, 9, 9))
    assert key((2, 0, 0)) > key((1, 3, 3))


ORDERS = {"grevlex": MonomialOrder.grevlex(), "lex": MonomialOrder.lex(),
          "weighted_block": MonomialOrder.block_elim(2, (1, 3, 1, 2, 2))}


@pytest.mark.parametrize("order", ORDERS.values(), ids=list(ORDERS))
@given(st.lists(st.tuples(*[st.integers(0, 12)] * 5), min_size=2,
                max_size=30, unique=True))
@settings(max_examples=40, deadline=None)
def test_codecs_order_monomials_as_the_ring(order, mons):
    # below the narrow cap both layouts sort exactly as the ring's key
    # does: the engine's reducers take a polynomial's first term as head
    Ro = PolyRing(["a", "b", "c", "d", "e"], F, order)
    by_ring = sorted(mons, key=Ro._key)
    for wide in (False, True):
        codec = _Codec(Ro, wide=wide)
        assert max(map(sum, mons)) < codec.deg_cap
        assert sorted(mons, key=codec.encode) == by_ring


def test_degree_too_large_to_pack():
    # the ring's key is the wide layout's: total degree 16384 is past it
    assert R.parse("x^16383").lm == (16383, 0, 0)
    with pytest.raises(DegreeTooLarge):
        R.parse("x^16384")
    with pytest.raises(DegreeTooLarge):
        R.from_dict({(0, 9000, 9000): 1})
    with pytest.raises(DegreeTooLarge):
        R.parse("x^9000") * R.parse("y^9000 + z")


# -- arithmetic -------------------------------------------------------------

@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_commutativity(f, g):
    assert f * g == g * f
    assert f + g == g + f


@given(polys)
@settings(max_examples=60, deadline=None)
def test_additive_inverse(f):
    assert (f - f).is_zero()
    assert (f + (-f)).is_zero()


@given(polys, st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_product(f, n):
    acc = R.constant(1)
    for _ in range(n):
        acc = acc * f
    assert f ** n == acc


@given(polys, st.tuples(st.integers(0, 32002), st.integers(0, 32002),
                        st.integers(0, 32002)))
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_map(f, pt):
    g = R.parse("x*y - z + 2")
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) % 32003
    assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % 32003


def test_leading_term_and_degree():
    f = R.parse("3*x^2*y + z^4 + 1")
    assert f.lm == (0, 0, 4)
    assert f.total_degree() == 4
    assert not f.is_homogeneous()
    assert R.parse("x^2 - y*z").is_homogeneous()


def test_compose_substitution():
    Rt = PolyRing(["t"], F)
    f = R.parse("y^2 - x^3")
    img = [Rt.parse("t^2"), Rt.parse("t^3"), Rt.constant(0)]
    assert f.compose(img, Rt).is_zero()


# images in a ring whose order is not grevlex, so the result's term order
# is checked too
Rst = PolyRing(["s", "t"], F, MonomialOrder.block_elim(1))
images = st.lists(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 32002),
    max_size=3).map(Rst.from_dict), min_size=3, max_size=3)


@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(1, 32002), max_size=5).map(R.from_dict),
       images)
@settings(max_examples=60, deadline=None)
def test_compose_equals_termwise_product(f, imgs):
    naive = Rst.zero
    for m, c in f.terms:
        term = Rst.constant(c)
        for img, e in zip(imgs, m):
            term = term * img ** e
        naive = naive + term
    assert f.compose(imgs, Rst) == naive


# -- parsing ----------------------------------------------------------------

@given(polys)
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(f):
    assert R.parse(str(f)) == f


def test_parse_examples():
    square = R.parse("x - y") * R.parse("x - y")
    assert R.parse("x^2 - 2*x*y + y^2") == square
    assert R.parse("-x + x").is_zero()
    assert R.parse("32003*x").is_zero()


def test_parse_errors():
    with pytest.raises(UnknownVariable):
        R.parse("x + w")
    with pytest.raises(ParseError):
        R.parse("x + ")
    with pytest.raises(ParseError):
        R.parse("x ** 2")


def test_compose_arity_checked():
    Rt = PolyRing(["t"], F)
    with pytest.raises(ArityMismatch):
        R.parse("x").compose([Rt.parse("t")], Rt)


def test_compose_ring_checked():
    Rt = PolyRing(["t"], F)
    Ru = PolyRing(["u"], F)
    with pytest.raises(RingMismatch):
        R.parse("x*y").compose([Rt.gen(0), Ru.gen(0), Rt.gen(0)], Rt)
