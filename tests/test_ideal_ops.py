import pytest

import join_oracles
from join_oracles import intersect, join_literal, saturate_irrelevant
from reduction_spy import ReductionSpy
from secantlab import curves, ideal_ops
from secantlab import gb as gb_module
from secantlab.arith import PrimeField
from secantlab.curves import CurveModel, embed, rational_normal_curve
from secantlab.gb import (Ideal, InternalIdentityError, _ideal_with_gb,
                          buchberger)
from secantlab.homalg import hilbert_data
from secantlab.ideal_ops import (PointNotOnVariety, PointedIdeal, SecantSpec,
                                 _join_with_parametrization, secant_join,
                                 tangent_cone_multiplicity)
from secantlab.oracle import predicted_multiplicity
from secantlab.poly import MonomialOrder, PolyRing

F = PrimeField(32003)


def basis_terms(I):
    return [f.terms for f in I.groebner()]


def test_intersect_principal():
    R = PolyRing(["x", "y"], F)
    J = intersect(Ideal(R, [R.parse("x")]), Ideal(R, [R.parse("y")]))
    assert [str(f) for f in J.groebner()] == ["x*y"]
    K = intersect(Ideal(R, [R.parse("x + y")]), Ideal(R, [R.parse("x - y")]))
    assert basis_terms(K) == basis_terms(Ideal(R, [R.parse("x^2 - y^2")]))


def test_intersect_with_a_variable_named_like_its_fresh_one():
    # the eliminated variable's stem clashes with the ring's own t_cap0
    def meet(names):
        R = PolyRing(names, F)
        x = names[0]
        I = Ideal(R, [R.parse(f"{x} + y")])
        J = Ideal(R, [R.parse(f"{x} - y"), R.parse("y^2")])
        return basis_terms(intersect(I, J))

    assert meet(["t_cap0", "y"]) == meet(["x", "y"])
    assert len(meet(["x", "y"])) == 2


def test_secant_of_twisted_cubic_fills_space(monkeypatch):
    # 2k + 1 >= r: Σ_k fills P^r, and secant_join answers the zero ideal
    # with no join step and no Groebner run.  The rational normal quartic
    # fills at k = 2 (at k = 1 it is the catalecticant cubic, below).
    cases = [(0, None, 3, 1), (0, None, 4, 2), (0, None, 5, 2),
             (1, "y^2 - x^3 - 4*x - 1", 4, 1),
             (2, "y^2 - x^5 - 3*x^3 - x - 7", 5, 1),
             (1, "y^2 - x^3 - 4*x - 1", 6, 2)]
    specs = [_ladder_curve(g, eq, d).secant_spec(k) for g, eq, d, k in cases]
    steps = []

    def count(*args, **kwargs):
        steps.append(args)
        raise AssertionError("join step on a filling secant")

    monkeypatch.setattr(ideal_ops, "_join_with_parametrization", count)
    monkeypatch.setattr(ideal_ops, "buchberger", count)
    for spec in specs:
        S = secant_join(spec)
        assert S.is_zero() and S.ring == spec.base_ideal.ring
    assert steps == []


def test_secant_of_quartic_is_catalecticant_cubic():
    S = secant_join(rational_normal_curve(4, F).secant_spec(1))
    gb = list(S.groebner())
    assert len(gb) == 1 and gb[0].total_degree() == 3


def test_secant_contained_in_curve_ideal():
    E = rational_normal_curve(5, F)
    C = E.ideal
    S = secant_join(E.secant_spec(1))
    assert all(C.contains(f) for f in S.generators)
    assert basis_terms(S) != basis_terms(C)


def test_construction_strategies_agree():
    # the Hankel minors against the literal (k+1)-block oracle
    spec = rational_normal_curve(5, F).secant_spec(1)
    A = secant_join(spec)
    B = saturate_irrelevant(Ideal(spec.base_ideal.ring,
                                  join_literal(spec)))
    assert basis_terms(A) == basis_terms(B)


def test_saturation_strategies_agree():
    # the join certified saturated by the last-variable criterion against
    # the full saturation
    E = rational_normal_curve(5, F)
    C = E.ideal
    A = secant_join(E.secant_spec(1))
    raw = Ideal(C.ring, _join_with_parametrization(E.parametrization, C))
    B = saturate_irrelevant(raw)
    assert basis_terms(A) == basis_terms(B)


def test_saturation_certificate_needs_the_hilbert_polynomial(monkeypatch):
    # A join of z0·(z0, ..., z4) is not saturated: its saturation is (z0),
    # with the same dimension and degree, so the Hilbert polynomial cannot
    # tell them apart.  The last variable z4 divides the leading monomial
    # z0·z4 of its basis, so the criterion rejects the join, which is not
    # prime and cannot come from a curve.  The elliptic quintic's Σ_1 is
    # a join, in P^4 like the rational normal quartic's.
    E = _ladder_curve(1, "y^2 - x^3 - 4*x - 1", 5)
    R = E.ideal.ring
    unsaturated = list(buchberger([R.gen(0) * z for z in R.gens()], R))
    monkeypatch.setattr(ideal_ops, "_join_with_parametrization",
                        lambda *args: unsaturated)
    with pytest.raises(InternalIdentityError, match="saturation criterion"):
        secant_join(E.secant_spec(1))
    raw = Ideal(R, unsaturated)
    S = saturate_irrelevant(raw)
    assert [str(f) for f in S.groebner()] == ["z0"]
    assert (hilbert_data(raw).dimension, hilbert_data(raw).degree) == (
        hilbert_data(S).dimension, hilbert_data(S).degree)
    assert hilbert_data(raw).numerator != hilbert_data(S).numerator


def test_secant_join_deterministic_per_seed():
    spec = rational_normal_curve(5, F).secant_spec(1)
    A = secant_join(spec)
    B = secant_join(spec)
    assert [f.terms for f in A.groebner()] == [f.terms for f in B.groebner()]


def test_saturated_join_with_a_zero_divisor_last_variable(monkeypatch):
    # (z0·z4) is saturated, but z4 is a zero divisor on S/(z0·z4): the
    # criterion is sufficient, not necessary, so it rejects this join.  A
    # join of a curve is prime, so this one is an error, although the
    # full saturation returns the same ideal.
    E = _ladder_curve(1, "y^2 - x^3 - 4*x - 1", 5)
    R = E.ideal.ring
    monkeypatch.setattr(ideal_ops, "_join_with_parametrization",
                        lambda *args: [R.gen(0) * R.gen(4)])
    with pytest.raises(InternalIdentityError, match="saturation criterion"):
        secant_join(E.secant_spec(1))
    S = saturate_irrelevant(Ideal(R, [R.gen(0) * R.gen(4)]))
    assert [str(f) for f in S.groebner()] == ["z0*z4"]


def _no_join(*args):
    raise AssertionError("join step on the rational normal curve")


@pytest.mark.parametrize("minors", [
    lambda R, t: [R.gen(0) * z for z in R.gens()],
    lambda R, t: [R.gen(0) * R.gen(4)],
], ids=["z0_all", "z0z4"])
def test_hankel_minors_that_fail_the_criterion(minors, monkeypatch):
    # the minors path is certified by the same criterion as the join: a
    # basis of z0·(z0, ..., z4) or of (z0·z4) in place of the rational
    # normal quartic's cubic fails it, and no join runs instead
    monkeypatch.setattr(ideal_ops, "_hankel_minors", minors)
    monkeypatch.setattr(ideal_ops, "_join_with_parametrization", _no_join)
    with pytest.raises(InternalIdentityError, match="saturation criterion"):
        secant_join(rational_normal_curve(4, F).secant_spec(1))


def test_pointed_ideal_validates_point():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("y^2*z - x^3")])
    with pytest.raises(PointNotOnVariety):
        PointedIdeal(I, (1, 1, 2))
    with pytest.raises(PointNotOnVariety):
        PointedIdeal(ideal=I, point=(1, 1, 2))
    for chart in (0, 1):
        with pytest.raises(ValueError, match="chart coordinate"):
            PointedIdeal(I, (0, 0, 5), chart)
        with pytest.raises(ValueError, match="chart coordinate"):
            PointedIdeal(I, point=(0, 0, 5), chart=chart)
    with pytest.raises(ValueError, match="cannot be zero"):
        PointedIdeal(I, (0, 0, 0))
    with pytest.raises(ValueError, match="point length"):
        PointedIdeal(ideal=I, point=(0, 1))
    for chart in (3, 5, -2):
        with pytest.raises(ValueError, match="chart must be"):
            PointedIdeal(I, (0, 0, 1), chart)
    P = PointedIdeal(I, (0, 0, 5))
    assert P.point == (0, 0, 1) and P.chart == 2  # normalized, chart chosen
    Q = PointedIdeal(I, (2, 2, 2), chart=1)
    assert Q.point == (1, 1, 1) and Q.chart == 1
    with pytest.raises(AttributeError):
        P.point = (0, 0, 5)


def test_tangent_cone_multiplicity():
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("y^2*z - x^3")])
    cone, mult = tangent_cone_multiplicity(PointedIdeal(I, (0, 0, 1)))
    assert mult == 2
    assert [str(f) for f in cone.groebner()] == ["y^2"]
    _, smooth = tangent_cone_multiplicity(PointedIdeal(I, (1, 1, 1)))
    assert smooth == 1


def test_tangent_cone_with_a_variable_named_like_its_fresh_one():
    # the homogenizing variable's stem clashes with the ring's own h_cone0
    def cone_at_node(names):
        R = PolyRing(names, F)
        x = names[0]
        I = Ideal(R, [R.parse(f"y^2*z - {x}^3 - {x}^2*z")])
        cone, mult = tangent_cone_multiplicity(PointedIdeal(I, (0, 0, 1)))
        return basis_terms(cone), mult

    assert cone_at_node(["h_cone0", "y", "z"]) == cone_at_node(["x", "y",
                                                                "z"])
    assert cone_at_node(["x", "y", "z"])[1] == 2


def _cone_in_one_run(P, monkeypatch):
    """tangent_cone_multiplicity(P), gated on one Buchberger run: the cone
    comes from a single basis of the homogenized ideal."""
    runs = []
    real = ideal_ops.buchberger

    def spy(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    out = tangent_cone_multiplicity(P)
    monkeypatch.setattr(ideal_ops, "buchberger", real)
    assert len(runs) == 1
    return out


@pytest.mark.parametrize("gens,cone_basis,mult", [
    (["x*z", "y*z"], ["y", "x"], 1),
    (["x*z^2 - y^3", "x*y*z"], ["x", "y^4"], 4),
    (["x^2*z - y^2*z", "x*y^2"], ["x^2 - y^2", "x*y^2", "y^4"], 6),
], ids=["xz_yz", "cusp_xyz", "lines_xy2"])
def test_tangent_cone_where_the_chart_variable_is_a_zero_divisor(
        gens, cone_basis, mult, monkeypatch):
    # z divides a generator, so the homogenized ideal is not saturated by
    # h; the top h-slices of its basis still generate the cone
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse(g) for g in gens])
    cone, m = _cone_in_one_run(PointedIdeal(I, (0, 0, 1)), monkeypatch)
    assert [str(f) for f in cone.groebner()] == cone_basis
    assert m == mult


def test_invalid_spec_rejected():
    E = rational_normal_curve(4, F)
    C, chart = E.ideal, E.parametrization
    for args, kwargs in (((-1, C, chart), {}),
                         ((), dict(k=-1, base_ideal=C, parametrization=chart))):
        with pytest.raises(ValueError, match="secant index"):
            SecantSpec(*args, **kwargs)
    # the saturation criterion reads a grevlex basis
    Rl = C.ring.with_order(MonomialOrder.lex())
    Cl = Ideal(Rl, [Rl.from_dict(dict(f.terms)) for f in C.generators])
    with pytest.raises(ValueError, match="grevlex"):
        SecantSpec(k=1, base_ideal=Cl, parametrization=chart)
    with pytest.raises(ValueError, match="grevlex"):
        SecantSpec(1, Cl, chart)
    spec = SecantSpec(1, C, chart)
    assert spec == E.secant_spec(1)
    with pytest.raises(AttributeError):
        spec.k = 2


def test_spec_requires_a_cone_chart():
    # secant_join has one join path, through the cone chart
    C = rational_normal_curve(4, F).ideal
    with pytest.raises(TypeError):
        SecantSpec(k=1, base_ideal=C)
    with pytest.raises(TypeError, match="ConeParametrization"):
        SecantSpec(k=1, base_ideal=C, parametrization=None)
    with pytest.raises(TypeError, match="ConeParametrization"):
        SecantSpec(1, C, None)


def test_elliptic_sextic_join_basis_gate(monkeypatch):
    # Deterministic work counter: the weighted-homogeneous chart keeps the
    # block_elim(3) elimination basis of the elliptic sextic at 99 elements
    # (131 with the unweighted chart t*m_i(x, y)).  The join asks only for
    # the parameter-free part, so the full basis is counted on the side.
    sizes = []

    def spy(gens, ring, *args, eliminate=0, **kwargs):
        full = buchberger(gens, ring, *args, **kwargs)
        sizes.append((ring.order.name, len(full)))
        return buchberger(gens, ring, *args, eliminate=eliminate, **kwargs)

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    R2 = PolyRing(["x", "y"], F)
    E = embed(CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1")), 6)
    secant_join(E.secant_spec(1))
    elim = [n for name, n in sizes if name == "block_elim(3)"]
    assert len(elim) == 1 and elim[0] <= 99


def _join_steps(spec):
    """Σ_k by spec.k join steps through the cone chart, as secant_join
    computes it for genus >= 1: for the rational normal curve, the oracle
    of its Hankel minors."""
    cur = spec.base_ideal
    for _ in range(spec.k):
        cur = _ideal_with_gb(cur.ring, _join_with_parametrization(
            spec.parametrization, cur))
    return cur


def _driven_join_work(monkeypatch, spec):
    """The reducer's work in the Hilbert-driven runs of spec's join steps,
    their interreductions included: a ReductionSpy that watched only
    them."""
    work = ReductionSpy(monkeypatch)
    work.watching = False

    def spy(*args, target=None, **kwargs):
        if target is None:
            return buchberger(*args, **kwargs)
        seen = len(work.heads)
        work.watching = True
        try:
            basis = buchberger(*args, target=target, **kwargs)
        finally:
            work.watching = False
        # a spy that no head reduction passes through counts nothing
        assert len(work.heads) > seen
        return basis

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    _join_steps(spec)
    return work


def test_elliptic_sextic_join_reduction_gate(monkeypatch):
    # Deterministic work counter: the Hilbert-driven elimination makes
    # 1,818 division steps and merges 24,227 stream terms, interreduction
    # included.  Before the heap merge it copied every reducer's whole
    # tail, 46,931 tail-term updates, most of them in reductions the
    # Hilbert count then dropped.  Reducing one S-polynomial at a time to
    # its end, before each degree was reduced round-robin and cut at its
    # Hilbert count, took 4,319 steps and 105,784 updates; the untargeted
    # loop made 600 reductions, 381 to zero
    R2 = PolyRing(["x", "y"], F)
    E = embed(CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1")), 6)
    work = _driven_join_work(monkeypatch, E.secant_spec(1))
    assert work.steps <= 1818
    assert work.merged <= 24227


def test_rnc6_k2_join_reduction_gate(monkeypatch):
    # Deterministic work counter: the two driven joins of the secant plane
    # variety of the rational normal sextic make 423 division steps and
    # merge 5,571 stream terms.  That is more than the 3,077 tail-term
    # updates of the copying reducer, which did not count the generators'
    # and S-polynomials' own terms: most reductions here run to their end.
    # One S-polynomial at a time took 453 steps.  The second join is a
    # hypersurface and stops at its first parameter-free form; run to the
    # end, the two made 352 reductions, 164 to zero
    spec = rational_normal_curve(6, F).secant_spec(2)
    work = _driven_join_work(monkeypatch, spec)
    assert work.steps <= 423
    assert work.merged <= 5571


def test_elliptic_quintic_join_reduction_gate(monkeypatch):
    # Deterministic work counter: the secant variety of the elliptic
    # quintic is a hypersurface, and its driven join stops at the quintic
    # after 317 division steps and 3,558 merged stream terms (3,044
    # tail-term updates by the copying reducer).  That is more than the
    # 144 steps of one S-polynomial at a time, which reached the quintic
    # sooner: round-robin advances every reduction of the quintic's degree
    # in turn.  Run to the end, without the stop, the join makes 2,595
    # steps and merges 116,526 stream terms (231,476 updates)
    R2 = PolyRing(["x", "y"], F)
    E = embed(CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1")), 5)
    work = _driven_join_work(monkeypatch, E.secant_spec(1))
    assert work.steps <= 317
    assert work.merged <= 3558


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    terms = [a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
             for j, a in enumerate(rows[0])]
    # even columns enter with sign +, odd ones with sign -
    return sum(terms[2::2], terms[0]) - sum(terms[3::2], terms[1])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rnc_hypersurface_join_is_the_hankel_determinant(k):
    # Groebner-free oracle: Σ_k of the rational normal curve of degree
    # 2k + 2 is the hypersurface of the (k+2) x (k+2) Hankel determinant
    # det(z_{i+j}), and both the early-stopped join and secant_join's
    # minors return exactly that form
    spec = rational_normal_curve(2 * k + 2, F).secant_spec(k)
    z = spec.base_ideal.ring.gens()
    hankel = [[z[i + j] for j in range(k + 2)] for i in range(k + 2)]
    det = (_det(hankel).monic(),)
    assert _join_steps(spec).generators == det
    assert secant_join(spec).generators == det


@pytest.mark.parametrize("d,k", [(5, 1), (6, 1), (6, 2), (7, 1), (7, 2),
                                 (8, 1), (8, 2), (8, 3)])
def test_rnc_hankel_minors_basis_equals_the_join(d, k, monkeypatch):
    # secant_join reads Σ_k of the rational normal curve off the Hankel
    # (k+2)-minors, with no join step; the join steps, which genus >= 1
    # still takes, give the same reduced grevlex basis term for term
    spec = rational_normal_curve(d, F).secant_spec(k)
    joined = [f.terms for f in _join_steps(spec).generators]
    monkeypatch.setattr(ideal_ops, "_join_with_parametrization", _no_join)
    S = secant_join(spec)
    assert [f.terms for f in S.generators] == joined
    assert list(S.groebner()) == list(S.generators)


def _head_reduction_remainders(monkeypatch, run):
    """Remainders of every head reduction of the Buchberger main loop that
    finishes, one per generator or S-pair taken, while ``run()`` runs."""
    work = ReductionSpy(monkeypatch)
    run()
    # a spy that no head reduction passes through counts nothing
    assert work.heads
    return work.heads


def test_genus2_octic_embedding_reduction_gate(monkeypatch):
    # Deterministic work counter for an untargeted run, graded by the
    # elimination order's weights: embedding the genus 2 curve by degree 8
    # head-reduces 106 generators and S-pairs, 79 of them to zero (sugar
    # pair selection took 113, 85 to zero)
    R2 = PolyRing(["x", "y"], F)
    model = CurveModel(2, F, R2.parse("y^2 - x^5 - x - 1"))
    remainders = _head_reduction_remainders(monkeypatch,
                                            lambda: embed(model, 8))
    assert len(remainders) <= 106
    assert sum(1 for r in remainders if not r) <= 79


def test_intersect_reduction_gate(monkeypatch):
    # Deterministic work counter for an untargeted run: the elimination of
    # test_intersect_elimination_is_the_parameter_free_part head-reduces
    # 17 generators and S-pairs, 8 of them to zero (sugar: 16, 8 to zero)
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2 - y*z"), R.parse("x*y - z^2")])
    J = Ideal(R, [R.parse("x + y - z"), R.parse("y^3 - x*z^2")])
    remainders = _head_reduction_remainders(monkeypatch,
                                            lambda: intersect(I, J))
    assert len(remainders) <= 17
    assert sum(1 for r in remainders if not r) <= 8


def _free_of(f, m):
    """f involves none of the variables 0..m-1."""
    return not any(any(mon[:m]) for mon, _ in f.terms)


def _elimination_runs(monkeypatch, module, run):
    """(generators, ring, eliminate) of every elimination Buchberger run
    that ``run()`` makes through ``module``'s binding."""
    runs = []
    real = module.buchberger

    def spy(gens, ring, *args, eliminate=0, **kwargs):
        if eliminate:
            runs.append((list(gens), ring, eliminate))
        return real(gens, ring, *args, eliminate=eliminate, **kwargs)

    monkeypatch.setattr(module, "buchberger", spy)
    run()
    monkeypatch.setattr(module, "buchberger", real)
    return runs


def _assert_parameter_free_part(runs):
    for gens, ring, m in runs:
        full = buchberger(gens, ring)
        kept = [f.terms for f in full if _free_of(f, m)]
        assert 0 < len(kept) < len(full)
        assert [f.terms for f in buchberger(gens, ring, eliminate=m)] == kept


@pytest.mark.parametrize("genus,equation,d", [
    (1, "y^2 - x^3 - 4*x - 1", 6), (2, "y^2 - x^5 - x - 1", 7)],
    ids=["ell6", "g2_7"])
def test_embed_elimination_is_the_parameter_free_part(genus, equation, d,
                                                      monkeypatch):
    R2 = PolyRing(["x", "y"], F)
    model = CurveModel(genus, F, R2.parse(equation))
    runs = _elimination_runs(monkeypatch, curves,
                             lambda: embed(model, d))
    assert [m for _, _, m in runs] == [3]
    _assert_parameter_free_part(runs)


def test_intersect_elimination_is_the_parameter_free_part(monkeypatch):
    R = PolyRing(["x", "y", "z"], F)
    I = Ideal(R, [R.parse("x^2 - y*z"), R.parse("x*y - z^2")])
    J = Ideal(R, [R.parse("x + y - z"), R.parse("y^3 - x*z^2")])
    runs = _elimination_runs(monkeypatch, join_oracles,
                             lambda: intersect(I, J))
    assert [m for _, _, m in runs] == [1]
    _assert_parameter_free_part(runs)


def test_literal_join_elimination_is_the_parameter_free_part(monkeypatch):
    spec = rational_normal_curve(4, F).secant_spec(1)
    runs = _elimination_runs(monkeypatch, join_oracles,
                             lambda: join_literal(spec))
    assert [m for _, _, m in runs] == [10]
    _assert_parameter_free_part(runs)


def _ladder_curve(genus, equation, d):
    if genus == 0:
        return rational_normal_curve(d, F)
    R2 = PolyRing(["x", "y"], F)
    return embed(CurveModel(genus, F, R2.parse(equation)), d)


LADDER = [
    (0, None, 5, 2), (0, None, 6, 2), (0, None, 7, 2),
    (1, "y^2 - x^3 - 4*x - 1", 5, 1), (1, "y^2 - x^3 - 4*x - 1", 6, 1),
    (2, "y^2 - x^5 - x - 1", 6, 1),
]


@pytest.mark.parametrize("genus,equation,d,k", LADDER,
                         ids=["rnc5", "rnc6", "rnc7", "ell5", "ell6", "g2_6"])
def test_driven_join_equals_untargeted(genus, equation, d, k, monkeypatch):
    # every join step (k = 2 covers k = 1): the driven elimination gives
    # the parameter-free part of the untargeted reduced basis term for
    # term, and its closed-form target is the weighted Hilbert series of
    # that full basis.  A hypersurface step (rnc6's second, ell5, g2_6)
    # stops at its first parameter-free form, and still gives that part
    steps = []

    def spy(gens, ring, *args, target=None, eliminate=0, principal=False,
            **kwargs):
        ref = buchberger(gens, ring, *args, **kwargs)
        if target is None:
            assert not eliminate
            return ref
        assert target.numerator == ref.hilbert_numerator(target.weights)
        driven = buchberger(gens, ring, *args, target=target,
                            eliminate=eliminate, principal=principal,
                            **kwargs)
        assert [f.terms for f in driven] == [
            f.terms for f in ref if _free_of(f, eliminate)]
        steps.append(len(ref))
        return driven

    monkeypatch.setattr(ideal_ops, "buchberger", spy)
    _join_steps(_ladder_curve(genus, equation, d).secant_spec(k))
    assert len(steps) == k


SPY_LADDER = [(0, None, 5, 1)] + LADDER[1:]


@pytest.mark.parametrize("genus,equation,d,k", SPY_LADDER,
                         ids=["rnc5", "rnc6", "rnc7", "ell5", "ell6", "g2_6"])
def test_ladder_joins_are_certified_saturated(genus, equation, d, k,
                                              monkeypatch):
    # the last-variable criterion certifies every ladder join, and Σ_k
    # comes back with its driven basis and Hilbert data: no further
    # Buchberger run is needed for either
    def refuse(*args, **kwargs):
        raise AssertionError("unexpected call")

    S = secant_join(_ladder_curve(genus, equation, d).secant_spec(k))
    monkeypatch.setattr(gb_module, "buchberger", refuse)
    assert hilbert_data(S).dimension == 2 * k + 2
    assert list(S.groebner()) == list(S.generators)


@pytest.mark.parametrize("genus,equation,d,k,ms", [
    (0, None, 7, 1, [0]), (0, None, 7, 2, [0, 1]),
    (1, "y^2 - x^3 - 4*x - 1", 5, 1, [0, 1]),
    (1, "y^2 - x^3 - 4*x - 1", 6, 1, [0, 1]),
    (2, "y^2 - x^5 - x - 1", 7, 1, [0]),
], ids=["rnc7_k1", "rnc7_k2", "ell5", "ell6", "g2_7"])
def test_tangent_cone_multiplicity_along_the_strata(genus, equation, d, k, ms,
                                                    monkeypatch):
    # the multiplicity of Σ_k at a witness point of Σ_m \ Σ_{m-1} is the
    # closed form, each from one Buchberger run
    E = _ladder_curve(genus, equation, d)
    S = secant_join(E.secant_spec(k))
    for m in ms:
        pts = curves.sample_affine_points(E.model, m + 1, seed=m + 1)
        P = curves.point_on_secant(E, m, pts, list(range(1, m + 2)), S)
        _, mult = _cone_in_one_run(P, monkeypatch)
        assert mult == predicted_multiplicity(genus, d, k, m)
