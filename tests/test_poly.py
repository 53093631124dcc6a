import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantlab.arith import PrimeField
from secantlab.poly import (ArityMismatch, MonomialOrder, ParseError,
                            PolyRing, RingMismatch, UnknownVariable)

F = PrimeField(32003)
R = PolyRing(["x", "y", "z"], F)

monomials = st.tuples(st.integers(0, 6), st.integers(0, 6),
                      st.integers(0, 6))
polys = st.dictionaries(monomials, st.integers(1, 32002), min_size=0,
                        max_size=8).map(R.from_dict)


# -- monomial orders --------------------------------------------------------

def test_grevlex_known_comparisons():
    key = R.order.key_function(R.nvars)
    # same degree: grevlex prefers smaller exponent on the last variable
    assert key((1, 1, 0)) > key((0, 0, 2))
    assert key((2, 0, 0)) > key((1, 1, 0)) > key((0, 2, 0)) > key((1, 0, 1))
    # degree dominates
    assert key((0, 0, 3)) > key((2, 0, 0))


def test_lex_order():
    Rl = R.with_order(MonomialOrder.lex())
    key = Rl.order.key_function(Rl.nvars)
    assert key((1, 0, 0)) > key((0, 5, 5))
    assert key((1, 1, 0)) > key((1, 0, 5))


def test_block_order_eliminates_first_block():
    Rb = R.with_order(MonomialOrder.block_elim(1))
    key = Rb.order.key_function(Rb.nvars)
    # any monomial involving x beats any monomial free of x
    assert key((1, 0, 0)) > key((0, 9, 9))
    assert key((2, 0, 0)) > key((1, 3, 3))


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
