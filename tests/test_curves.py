import pytest

from secantlab.arith import PrimeField
from secantlab.curves import (CurveModel, DegreeTooSmall, DuplicatePoints,
                              embed, format_curve_file, parse_curve_file,
                              point_on_secant, rational_normal_curve,
                              rr_basis, sample_affine_points)
from secantlab.homalg import hilbert_data
from secantlab.ideal_ops import secant_join
from secantlab.oracle import predicted_degree
from secantlab.poly import PolyRing

F = PrimeField(32003)
F101 = PrimeField(101)


# a1, a3 != 0: the chart constraint has the odd-weight terms x*y and y
GENERAL_WEIERSTRASS = "y^2 + x*y + 3*y - x^3 - 2*x^2 - 4*x - 1"
GENUS2_SEXTIC = "y^2 - x^5 - 3*x^3 - x - 7"


def elliptic(field=F101, equation="y^2 - x^3 - 4*x - 1"):
    R = PolyRing(["x", "y"], field)
    return CurveModel(1, field, R.parse(equation))


def genus2(equation="y^2 - x^5 - x - 1"):
    R = PolyRing(["x", "y"], F)
    return CurveModel(2, F, R.parse(equation))


# -- model validation -------------------------------------------------------

def test_genus0_needs_no_equation():
    m = CurveModel(0, F)
    assert m.genus == 0 and m.equation is None


def test_singular_weierstrass_rejected():
    R = PolyRing(["x", "y"], F101)
    with pytest.raises(ValueError):
        CurveModel(1, F101, R.parse("y^2 - x^3"))


def test_even_degree_hyperelliptic_rejected():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError, match="even-degree"):
        CurveModel(2, F, R.parse("y^2 - x^6 - x - 1"))


def test_non_squarefree_hyperelliptic_rejected():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError, match="squarefree"):
        CurveModel(2, F, R.parse("y^2 - x^5 - 2*x^4 - x^3"))


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


def _weight(mon, weights):
    return sum(w * e for w, e in zip(weights, mon))


@pytest.mark.parametrize("model,d", [
    (elliptic(F), 5), (elliptic(F), 6), (elliptic(F, GENERAL_WEIERSTRASS), 5),
    (genus2(GENUS2_SEXTIC), 6), (genus2(), 7)])
def test_cone_chart_is_weighted_homogeneous(model, d):
    # x, y, t weigh 2, w_y, 1; every image t^(d - pole) m(x, y) weighs d and
    # the curve equation, homogenised by t, weighs 2 w_y
    wy = 3 if model.genus == 1 else 5
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
                      (rational_normal_curve(4, F), 60)):
        for prm in sample_affine_points(emb.model, npts, seed=7):
            v = emb.evaluate(prm)
            assert all(f.evaluate(v) == 0 for f in emb.ideal.generators)


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


# -- curve files ------------------------------------------------------------

def test_curve_file_round_trip():
    m = elliptic()
    txt = format_curve_file(m, 5)
    m2, d2 = parse_curve_file(txt)
    assert d2 == 5 and m2.genus == 1 and m2.equation == m.equation


def test_curve_file_parsing_and_errors():
    m, d = parse_curve_file(
        "# comment\ngenus: 2\nfield: 32003\n"
        "equation: y^2 - x^5 - x - 1\ndegree: 7\n")
    assert m.genus == 2 and d == 7
    with pytest.raises(ValueError):
        parse_curve_file("genus: 1\nfield: 10\n"
                         "equation: y^2 - x^3 - 1\ndegree: 5\n")
    with pytest.raises(ValueError):
        parse_curve_file("genus: 0\n")
