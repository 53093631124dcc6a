import pytest

from secantlab.arith import PrimeField
from secantlab.curves import (CurveModel, DegreeTooSmall, DuplicatePoints,
                              embed, parse_curve_file, point_on_secant,
                              rational_normal_curve, rr_basis,
                              sample_affine_points)
from secantlab.gb import buchberger, pair_budget
from secantlab.homalg import hilbert_data
from secantlab.ideal_ops import secant_join
from secantlab.oracle import predicted_degree
from secantlab.poly import PolyRing

F = PrimeField(32003)
F101 = PrimeField(101)


# a1, a3 != 0: the chart constraint has the odd-weight terms x*y and y
GENERAL_WEIERSTRASS = "y^2 + x*y + 3*y - x^3 - 2*x^2 - 4*x - 1"
GENUS2_SEXTIC = "y^2 - x^5 - 3*x^3 - x - 7"
# h(x) = x^2 + 3 != 0: the y-linear terms x^2*y and y
GENUS2_MIXED = "y^2 + x^2*y + 3*y - x^5 - 3*x^3 - x - 7"


def elliptic(field=F101, equation="y^2 - x^3 - 4*x - 1"):
    R = PolyRing(["x", "y"], field)
    return CurveModel(1, field, R.parse(equation))


def genus2(equation="y^2 - x^5 - x - 1"):
    R = PolyRing(["x", "y"], F)
    return CurveModel(2, F, R.parse(equation))


def genus3(equation="y^2 - x^7 - 3*x^3 - x - 7"):
    R = PolyRing(["x", "y"], F)
    return CurveModel(3, F, R.parse(equation))


# -- model validation -------------------------------------------------------

def test_genus0_needs_no_equation():
    m = CurveModel(0, F)
    assert m.genus == 0 and m.equation is None


def test_singular_weierstrass_rejected():
    R = PolyRing(["x", "y"], F101)
    # h^2 + 4f = 4x^3 is not squarefree: the discriminant vanishes
    with pytest.raises(ValueError, match="f must be squarefree"):
        CurveModel(1, F101, R.parse("y^2 - x^3"))
    with pytest.raises(ValueError, match="f must be squarefree"):
        CurveModel(genus=1, field=F101, equation=R.parse("y^2 - x^3"))
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        CurveModel(genus=-1, field=F101)
    m = CurveModel(field=F101, genus=0)
    assert m == CurveModel(0, F101) and m.equation is None
    with pytest.raises(AttributeError):
        m.genus = 1


def test_even_degree_hyperelliptic_rejected():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError, match="even-degree"):
        CurveModel(2, F, R.parse("y^2 - x^6 - x - 1"))


def test_non_squarefree_hyperelliptic_rejected():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError, match="squarefree"):
        CurveModel(2, F, R.parse("y^2 - x^5 - 2*x^4 - x^3"))
    with pytest.raises(ValueError, match="squarefree"):
        CurveModel(3, F, R.parse("y^2 - x^7 - 2*x^6 - x^5"))
    # validation is not budgeted: an invalid equation stays a ValueError
    with pair_budget(1), pytest.raises(ValueError, match="squarefree"):
        CurveModel(2, F, R.parse("y^2 - x^5 - x^3"))


@pytest.mark.parametrize("p,equation,squarefree", [
    (5, "y^2 - x^5 - 1", False),         # f' = 0: f = (x + 1)^5
    (5, "y^2 - x^5 - x - 1", True),      # f' = 1
    (5, "y^2 - x^5 - 4*x", True),        # f' = 4
    (3, "y^2 - x^5 - x^3", False),       # f' = 2x^4: x^3 divides f
    (7, "y^2 - x^5 - 1", True),
])
def test_squarefree_check_when_the_derivative_loses_degree(p, equation,
                                                           squarefree):
    field = PrimeField(p)
    eq = PolyRing(["x", "y"], field).parse(equation)
    if squarefree:
        assert CurveModel(2, field, eq).genus == 2
    else:
        with pytest.raises(ValueError, match="squarefree"):
            CurveModel(2, field, eq)


def test_char2_rejected():
    # hyperelliptic models need odd characteristic; the field refuses p=2
    with pytest.raises(ValueError):
        PrimeField(2)


# -- Riemann-Roch bases -----------------------------------------------------

def test_rr_basis_sizes_and_poles():
    # dim H^0(dP) = d + 1 - g once d >= 2g+1; pole orders avoid the gaps
    m1 = elliptic()
    b = rr_basis(m1, 5)
    assert [pole for _, pole in b] == [0, 2, 3, 4, 5]
    m2 = genus2()
    b12 = rr_basis(m2, 12)
    assert len(b12) == 11
    poles = [pole for _, pole in b12]
    assert poles == sorted(poles)
    assert 1 not in poles and 3 not in poles  # Weierstrass gaps at infinity
    b9 = rr_basis(genus3(), 9)
    assert [pole for _, pole in b9] == [0, 2, 4, 6, 7, 8, 9]  # gaps 1, 3, 5


def test_rr_basis_degree_floor():
    with pytest.raises(DegreeTooSmall):
        rr_basis(genus2(), 4)
    with pytest.raises(DegreeTooSmall):
        rr_basis(elliptic(), 2)


# -- embeddings -------------------------------------------------------------

def test_rational_normal_curve_quartic():
    E = rational_normal_curve(4, F)
    assert E.r == 4 and len(E.ideal.generators) == 6
    hd = hilbert_data(E.ideal)
    assert hd.degree == 4 and hd.dimension == 2


def test_elliptic_quintic_is_five_quadrics():
    E = embed(elliptic(), 5)
    assert E.r == 4
    assert sorted(f.total_degree() for f in E.ideal.generators) == [2] * 5
    hd = hilbert_data(E.ideal)
    assert hd.degree == 5 and hd.dimension == 2


def test_genus2_degree7_embedding():
    E = embed(genus2(), 7)
    hd = hilbert_data(E.ideal)
    assert E.r == 5 and hd.degree == 7 and hd.dimension == 2


@pytest.mark.parametrize("model,d", [
    (elliptic(F), 5), (elliptic(F), 6), (genus2(), 7)])
def test_embedding_generators_are_grevlex_polynomials(model, d):
    # the elimination weighs z_i by 1 + pole, but the curve ideal lives in
    # grevlex: each generator keeps grevlex term order, so it re-parses
    # from its printed form, and the ideal's basis is its reduced grevlex
    # basis (11 elements on the elliptic sextic, not the 9 generators)
    E = embed(model, d)
    ring = E.ideal.ring
    for f in E.ideal.generators:
        keys = [ring._key(mon) for mon, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert ring.parse(str(f)) == f
    assert [f.terms for f in E.ideal.groebner()] \
        == [f.terms for f in buchberger(E.ideal.generators, ring)]


def _weight(mon, weights):
    return sum(w * e for w, e in zip(weights, mon))


@pytest.mark.parametrize("model,d", [
    (elliptic(F), 5), (elliptic(F), 6), (elliptic(F, GENERAL_WEIERSTRASS), 5),
    (genus2(GENUS2_SEXTIC), 6), (genus2(), 7), (genus3(), 7), (genus3(), 9)])
def test_cone_chart_is_weighted_homogeneous(model, d):
    # x, y, t weigh 2, w_y, 1; every image t^(d - pole) m(x, y) weighs d and
    # the curve equation, homogenised by t, weighs 2 w_y
    wy = 2 * model.genus + 1
    param = embed(model, d).parametrization
    assert param.weights == (2, wy, 1) and param.image_weight == d
    assert len(param.images) == d + 1 - model.genus
    for f in param.images:
        assert {_weight(mon, param.weights) for mon, _ in f.terms} == {d}
    (curve,) = param.constraints
    assert {_weight(mon, param.weights) for mon, _ in curve.terms} \
        == {2 * wy}
    # at t = 1 the constraint is the curve equation itself
    assert {(mon[:2], c) for mon, c in curve.terms} \
        == set(model.equation.terms)


def test_sampled_points_satisfy_ideal():
    for emb, npts in ((embed(elliptic(), 5), 40),
                      (embed(genus2(GENUS2_MIXED), 7), 40),
                      (embed(genus3(), 9), 40),
                      (rational_normal_curve(4, F), 60)):
        for prm in sample_affine_points(emb.model, npts, seed=7):
            v = emb.evaluate(prm)
            assert all(f.evaluate(v) == 0 for f in emb.ideal.generators)


def test_genus2_sample_is_pinned():
    pts = sample_affine_points(genus2(GENUS2_SEXTIC), 6, seed=0)
    assert pts == [(12236, 10893), (12236, 21110), (10227, 27001),
                   (10227, 5002), (25230, 27798), (25230, 4205)]


def test_sample_too_many_points():
    with pytest.raises(ValueError):
        sample_affine_points(elliptic(), 5000, seed=0)


# -- secant witness points --------------------------------------------------

def test_point_on_secant_and_duplicates():
    E = rational_normal_curve(4, F)
    S = secant_join(E.secant_spec(1))
    P = point_on_secant(E, 1, [0, 1], [1, 1], S)
    assert all(f.evaluate(P.point) == 0 for f in S.generators)
    with pytest.raises(DuplicatePoints):
        point_on_secant(E, 1, [3, 3], [1, 1], S)
    with pytest.raises(ValueError):
        point_on_secant(E, 1, [0, 1], [1, 0], S)


@pytest.mark.filterwarnings("ignore::secantlab.oracle.HypothesisViolated")
@pytest.mark.parametrize("model,d", [
    (elliptic(F, GENERAL_WEIERSTRASS), 5), (genus2(GENUS2_SEXTIC), 6)])
def test_secant_hypersurface_certificate(model, d):
    # Σ_1 is an irreducible hypersurface of degree predicted_degree(g, d, 1)
    # here (5 and 8, both in P^4; genus 2 at d = 6 is below the theorem's
    # range, the degree formula still holds): one generator of that degree
    # vanishing at seeded secant points is its whole ideal
    E = embed(model, d)
    S = secant_join(E.secant_spec(1))
    gb = list(S.groebner())
    assert E.r == 4 and len(gb) == 1
    assert gb[0].total_degree() == predicted_degree(model.genus, d, 1)
    pts = sample_affine_points(model, 8, seed=5)
    for i in range(0, 8, 2):
        point_on_secant(E, 1, pts[i:i + 2], [1 + i, 7 + 3 * i], S)


def test_elliptic_septic_secant_plane_hypersurface():
    # k = 2 for genus 1: Σ_2 of the elliptic normal septic is a hypersurface
    # in P^6, one septic (the degree formula gives 7), which vanishes at 10
    # seeded points Σ c_j ν(P_j) of three curve points each
    model = elliptic(F)
    E = embed(model, 7)
    S = secant_join(E.secant_spec(2))
    (f,) = S.groebner()
    assert E.r == 6 and f.total_degree() == predicted_degree(1, 7, 2) == 7
    pts = sample_affine_points(model, 30, seed=7)
    for i in range(0, 30, 3):
        point_on_secant(E, 2, pts[i:i + 3], [1 + i, 2 + 5 * i, 3 + 7 * i], S)


# -- curve files ------------------------------------------------------------

def test_curve_file_parsing_and_errors():
    m, d = parse_curve_file(
        "# comment\ngenus: 2\nfield: 32003\n"
        "equation: y^2 - x^5 - x - 1\ndegree: 7\n")
    assert m.genus == 2 and d == 7
    # non-monic f on genus 1, h != 0 on genus 2
    for g, equation in ((1, "y^2 - 2*x^3 - 4*x - 1"), (2, GENUS2_MIXED)):
        m, _ = parse_curve_file(f"genus: {g}\nfield: 32003\n"
                                f"equation: {equation}\ndegree: 7\n")
        assert m.genus == g
    for g, equation, message in (
            (1, "y^2 + x^2*y - x^3 - 1", "deg h <= 1"),
            (1, "y^3 + y^2 - x^3 - 1", "needs an equation"),
            (3, "y^2 - x^5 - x - 1", "deg f = 7")):
        with pytest.raises(ValueError, match=message):
            parse_curve_file(f"genus: {g}\nfield: 32003\n"
                             f"equation: {equation}\ndegree: 9\n")
    with pytest.raises(ValueError):
        parse_curve_file("genus: 1\nfield: 10\n"
                         "equation: y^2 - x^3 - 1\ndegree: 5\n")
    with pytest.raises(ValueError):
        parse_curve_file("genus: 0\n")
