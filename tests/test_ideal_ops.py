import pytest

from secantlab import ideal_ops
from secantlab.arith import PrimeField
from secantlab.curves import CurveModel, embed
from secantlab.gb import Ideal, buchberger, ideal_equal
from secantlab.homalg import hilbert_data
from secantlab.ideal_ops import (PointNotOnVariety, PointedIdeal, SecantSpec,
                                 _is_saturation, _join_literal,
                                 _join_with_ideal, _saturate_wrt_linear,
                                 eliminate, intersect, jacobian_minors,
                                 radical_membership, saturate,
                                 saturate_irrelevant, secant_join,
                                 tangent_cone_multiplicity)
from secantlab.poly import PolyRing

F = PrimeField(32003)


def rnc_ideal(d):
    names = [f"x{i}" for i in range(d + 1)]
    R = PolyRing(names, F)
    gens = [R.gen(i) * R.gen(j + 1) - R.gen(i + 1) * R.gen(j)
            for i in range(d) for j in range(i, d)]
    return Ideal(R, gens)


def test_eliminate_parametrized_cusp():
    R = PolyRing(["t", "x", "y"], F)
    I = Ideal(R, [R.parse("x - t^2"), R.parse("y - t^3")])
    E = eliminate(I, {"t"})
    assert [str(f) for f in E.groebner()] == ["x^3 - y^2"]


def test_eliminate_unknown_variable():
    R = PolyRing(["x", "y"], F)
    with pytest.raises(ValueError):
        eliminate(Ideal(R, [R.parse("x")]), {"w"})


def test_saturate_strips_embedded_component():
    R = PolyRing(["x", "y"], F)
    I = Ideal(R, [R.parse("x^2"), R.parse("x*y")])
    assert [str(f) for f in saturate(I, R.parse("y")).groebner()] == ["x"]


def test_saturate_by_member_is_unit():
    R = PolyRing(["x", "y"], F)
    S = saturate(Ideal(R, [R.parse("x")]), R.parse("x"))
    assert S.groebner().is_unit_ideal()


def test_intersect_principal():
    R = PolyRing(["x", "y"], F)
    J = intersect(Ideal(R, [R.parse("x")]), Ideal(R, [R.parse("y")]))
    assert [str(f) for f in J.groebner()] == ["x*y"]
    K = intersect(Ideal(R, [R.parse("x + y")]), Ideal(R, [R.parse("x - y")]))
    assert ideal_equal(K, Ideal(R, [R.parse("x^2 - y^2")]))


def test_radical_membership():
    R = PolyRing(["x", "y"], F)
    assert radical_membership(R.parse("x"), Ideal(R, [R.parse("x^2")]))
    assert radical_membership(R.parse("x + y"),
                              Ideal(R, [R.parse("x^2"), R.parse("y^2")]))
    assert not radical_membership(R.parse("y"), Ideal(R, [R.parse("x")]))


def test_secant_of_twisted_cubic_fills_space():
    C = rnc_ideal(3)
    S = secant_join(SecantSpec(k=1, ambient_dim=3, base_ideal=C))
    assert S.is_zero()


def test_secant_of_quartic_is_catalecticant_cubic():
    C = rnc_ideal(4)
    S = secant_join(SecantSpec(k=1, ambient_dim=4, base_ideal=C))
    gb = list(S.groebner())
    assert len(gb) == 1 and gb[0].total_degree() == 3


def test_secant_contained_in_curve_ideal():
    C = rnc_ideal(5)
    S = secant_join(SecantSpec(k=1, ambient_dim=5, base_ideal=C))
    assert all(C.contains(f) for f in S.generators)
    assert not ideal_equal(S, C)


def test_construction_strategies_agree():
    # the iterated join against the literal (k+1)-block oracle
    C = rnc_ideal(5)
    spec = SecantSpec(k=1, ambient_dim=5, base_ideal=C)
    A = secant_join(spec)
    B = saturate_irrelevant(Ideal(C.ring, _join_literal(spec, None)))
    assert ideal_equal(A, B)


def test_saturation_strategies_agree():
    # one certified linear-form saturation against the full one
    C = rnc_ideal(5)
    spec = SecantSpec(k=1, ambient_dim=5, base_ideal=C)
    A = secant_join(spec, seed=3)
    raw = Ideal(C.ring, _join_with_ideal(C.generators, C.generators,
                                         C.ring, None))
    B = saturate_irrelevant(raw)
    assert ideal_equal(A, B)


def test_saturation_certificate_needs_the_hilbert_polynomial():
    # (xy, xz) = (x) ∩ (y, z) is saturated: a line and a point in P^2.
    # Saturating by z drops the point; (x) has the same dimension and
    # degree, but not the same Hilbert polynomial, and is rejected.
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x*y"), R.parse("x*z")])
    by_z = _saturate_wrt_linear(I, [0, 0, 1], None)
    assert [str(f) for f in by_z.groebner()] == ["x"]
    assert hilbert_data(by_z).dimension == hilbert_data(I).dimension
    assert hilbert_data(by_z).degree == hilbert_data(I).degree
    assert not _is_saturation(I, by_z)
    generic = _saturate_wrt_linear(I, [5, 7, 11], None)
    assert _is_saturation(I, generic)
    assert ideal_equal(generic, I)


def test_secant_join_deterministic_per_seed():
    C = rnc_ideal(5)
    spec = SecantSpec(k=1, ambient_dim=5, base_ideal=C)
    A = secant_join(spec, seed=12)
    B = secant_join(spec, seed=12)
    assert [f.terms for f in A.groebner()] == [f.terms for f in B.groebner()]


def test_jacobian_minors_cut_out_singular_locus():
    # cuspidal cubic: singular exactly at (0:0:1)
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("y^2*z - x^3")])
    J = jacobian_minors(I, 1)
    assert radical_membership(R.parse("x"), J)
    assert radical_membership(R.parse("y"), J)
    assert not radical_membership(R.parse("z"), J)


def test_pointed_ideal_validates_point():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("y^2*z - x^3")])
    with pytest.raises(PointNotOnVariety):
        PointedIdeal(I, (1, 1, 2))
    P = PointedIdeal(I, (0, 0, 5))
    assert P.point == (0, 0, 1)  # normalized


def test_tangent_cone_multiplicity():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("y^2*z - x^3")])
    cone, mult = tangent_cone_multiplicity(PointedIdeal(I, (0, 0, 1)))
    assert mult == 2
    assert [str(f) for f in cone.groebner()] == ["y^2"]
    _, smooth = tangent_cone_multiplicity(PointedIdeal(I, (1, 1, 1)))
    assert smooth == 1


def test_invalid_spec_rejected():
    C = rnc_ideal(4)
    with pytest.raises(ValueError):
        SecantSpec(k=-1, ambient_dim=4, base_ideal=C)
    with pytest.raises(ValueError):
        SecantSpec(k=1, ambient_dim=7, base_ideal=C)


def test_elliptic_sextic_join_basis_gate(monkeypatch):
    # Deterministic work counter: the weighted-homogeneous chart keeps the
    # block_elim(3) elimination basis of the elliptic sextic at 99 elements
    # (131 with the unweighted chart t*m_i(x, y)).
    sizes = []

    def spy(gens, ring, *args, **kwargs):
        gb = buchberger(gens, ring, *args, **kwargs)
        sizes.append((ring.order.name, len(gb)))
        return gb

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    R2 = PolyRing(["x", "y"], F)
    E = embed(CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1")), 6)
    secant_join(E.secant_spec(1))
    elim = [n for name, n in sizes if name == "block_elim(3)"]
    assert len(elim) == 1 and elim[0] <= 99
