"""Acceptance suite: one test per numbered criterion, each printing a single
PASS line (pytest -v also reports one line per criterion).  Every check is
exact; each test asserts its stated wall-clock budget."""

import random
import time
import warnings
from pathlib import Path

from secantlab import oracle
from secantlab.arith import PrimeField
from secantlab.curves import (CurveModel, embed, parse_curve_file,
                              point_on_secant, rational_normal_curve,
                              sample_affine_points)
from secantlab.gb import Ideal, buchberger
from secantlab.homalg import (betti_numerator, check_ndp, hilbert_data,
                              is_acm, koszul_dim, min_generator_degree,
                              minimal_free_resolution, regularity)
from secantlab.ideal_ops import secant_join, tangent_cone_multiplicity
from secantlab.oracle import (HypothesisViolated, hypothesis_holds,
                              predicted_degree, predicted_multiplicity)
from secantlab.poly import MonomialOrder, PolyRing

F = PrimeField(32003)
GOLDEN = Path(__file__).resolve().parent / "golden"
R2 = PolyRing(["x", "y"], F)


def elliptic():
    return CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1"))


def secant_of_rnc(d, k):
    emb = rational_normal_curve(d, F)
    return secant_join(emb.secant_spec(k))


def _betti_hilbert_identity(I):
    B = minimal_free_resolution(I)
    hd = hilbert_data(I)
    bn = betti_numerator(B)
    assert bn == hd.numerator, (bn, hd.numerator)
    return B, hd


def test_ac1_genus0_degree_and_dimension():
    t0 = time.monotonic()
    for d in range(3, 9):
        for k in (1, 2):
            if 2 * k + 1 >= d:
                continue
            hd = hilbert_data(secant_of_rnc(d, k))
            assert hd.degree == predicted_degree(0, d, k), (d, k)
            assert hd.projective_dimension_of_variety == 2 * k + 1, (d, k)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\nAC-1 PASS: genus-0 secant degrees and dimensions match "
          f"for d=3..8, k=1,2 ({elapsed:.1f}s < 60s)")


def test_ac2_genus0_generation_acm_regularity():
    t0 = time.monotonic()
    k = 1
    for d in (5, 6, 7):
        S = secant_of_rnc(d, k)
        B = minimal_free_resolution(S)
        hd = hilbert_data(S)
        assert min_generator_degree(B) == k + 2 == 3, d
        assert is_acm(B, hd), d
        reg = regularity(B)
        assert (reg, reg + 1) == (k + 1, k + 2), d
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"\nAC-2 PASS: genus-0 k=1 min generator degree 3, ACM, "
          f"regularity pair (2,3) for d=5,6,7 ({elapsed:.1f}s < 120s)")


def test_ac3_elliptic_quintic():
    t0 = time.monotonic()
    m = elliptic()
    E5 = embed(m, 5)
    S = secant_join(E5.secant_spec(1))
    gb = list(S.groebner())
    assert len(gb) == 1 and gb[0].total_degree() == 5  # single quintic
    B = minimal_free_resolution(S)
    assert B.to_json_dict()["entries"] == [[0, 0, 1], [1, 5, 1]]
    assert regularity(B) == 4
    assert koszul_dim(B, 1, 4) == 1
    pt = sample_affine_points(m, 1, seed=3)
    P = point_on_secant(E5, 0, pt, [1], S)
    _, mult = tangent_cone_multiplicity(P)
    assert mult == 3 == predicted_multiplicity(1, 5, 1, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"\nAC-3 PASS: elliptic quintic secant is one quintic, Betti "
          f"{{1;1}}, reg 4, K_1,4=1, curve-point multiplicity 3 "
          f"({elapsed:.1f}s < 120s)")


def test_ac4_elliptic_sextic_complete_intersection():
    t0 = time.monotonic()
    S = secant_join(embed(elliptic(), 6).secant_spec(1))
    hd = hilbert_data(S)
    B = minimal_free_resolution(S)
    assert B.to_json_dict()["entries"] == [[0, 0, 1], [1, 3, 2], [2, 6, 1]]
    assert hd.degree == 9 == predicted_degree(1, 6, 1)
    assert check_ndp(B, 3, 1) and not check_ndp(B, 3, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\nAC-4 PASS: elliptic d=6 secant is a (3,3) complete "
          f"intersection of degree 9; N_3,1 holds, N_3,2 fails "
          f"({elapsed:.1f}s < 600s)")


def test_ac5_genus2_baseline():
    t0 = time.monotonic()
    m = CurveModel(2, F, R2.parse("y^2 - x^5 - x - 1"))
    S = secant_join(embed(m, 7).secant_spec(1))
    hd = hilbert_data(S)
    B = minimal_free_resolution(S)
    assert hd.degree == 13 == predicted_degree(2, 7, 1)
    assert is_acm(B, hd)
    reg = regularity(B)
    assert (reg, reg + 1) == (4, 5)
    assert koszul_dim(B, 2, 4) == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    print(f"\nAC-5 PASS: genus-2 d=7 secant has degree 13, ACM, reg pair "
          f"(4,5), K_2,4=3 ({elapsed:.1f}s < 1800s)")


def test_ac6_prediction_self_consistency():
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisViolated)
        for g in (0, 1, 2):
            for dL in range(1, 31):
                if dL >= 2 * g + 1:
                    assert predicted_degree(g, dL, 0) == dL, (g, dL)
                for k in range(5):
                    for m in range(k + 1):
                        assert predicted_multiplicity(g, dL, k, m) == \
                            predicted_degree(g, dL - 2 * (m + 1), k - m - 1)
                    if hypothesis_holds(g, dL, k):
                        assert predicted_multiplicity(g, dL, k, k) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print(f"\nAC-6 PASS: prediction identities hold for g<=2, dL<=30, "
          f"k<=4 ({elapsed:.2f}s < 1s)")


def test_ac7_property_suites():
    t0 = time.monotonic()
    R = PolyRing(["x", "y", "z"], F)
    # reduced-GB canonicity: 200 shuffled/rescaled generator lists
    pools = [
        [R.parse("x*y - z^2"), R.parse("x^2 - y*z"), R.parse("y^2 - x*z")],
        [R.parse("x^2 + y^2 + z^2"), R.parse("x*y + y*z"),
         R.parse("x^3 - z^3")],
        [R.parse("x^2 - y"), R.parse("y^2 - z"), R.parse("x*z - 1")],
        [R.parse("x^4 - y*z"), R.parse("x*y^2 - z^2")],
    ]
    rng = random.Random(2026)
    for pool in pools:
        reference = [f.terms for f in buchberger(pool, R)]
        for _ in range(50):
            gens = pool[:]
            rng.shuffle(gens)
            gens = [g * R.constant(rng.randrange(1, 32003)) for g in gens]
            assert [f.terms for f in buchberger(gens, R)] == reference

    # Betti/Hilbert numerator identity on every fixture
    tc = rational_normal_curve(3, F).ideal
    e5 = embed(elliptic(), 5)
    fixtures = [tc, rational_normal_curve(4, F).ideal, e5.ideal,
                secant_of_rnc(5, 1), secant_of_rnc(6, 1),
                secant_join(e5.secant_spec(1))]
    for I in fixtures:
        _betti_hilbert_identity(I)

    # Betti-table order-independence: grevlex vs lex
    for I in (tc, e5.ideal):
        ref = minimal_free_resolution(I).to_json_dict()["entries"]
        Rl = I.ring.with_order(MonomialOrder.lex())
        Il = Ideal(Rl, [Rl.parse(str(g)) for g in I.generators])
        assert minimal_free_resolution(Il).to_json_dict()["entries"] == ref

    # parse/print round trips: 1000 random polynomials
    for _ in range(1000):
        f = R.from_dict({
            (rng.randrange(6), rng.randrange(6), rng.randrange(6)):
            rng.randrange(1, 32003)
            for _ in range(rng.randrange(1, 7))})
        assert R.parse(str(f)) == f
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\nAC-7 PASS: GB canonicity (200 cases), Betti/Hilbert identity "
          f"(6 fixtures), order-independence, 1000 parse round trips "
          f"({elapsed:.1f}s < 60s)")


def test_ac8_stretch_genus2_d12(monkeypatch):
    # Stretch goal, not required for acceptance.  The three slots:
    #   genus 2, d=12, k=1 truncated resolution (N_3,5 vs N_3,6): computed
    #   genus 2, k=2: out of desk scale (the genus 2 d=8 k=2 join runs
    #   past 5 min), so it stays skipped and is reported as such.
    #   the genus 4 non-normal example, d=11, k=1: computed
    # Slot 1 is the secant join of the golden genus-2 equation in P^10 and
    # its full Betti table; slot 3 is `secantlab verify --k 1` on the
    # golden genus-4 curve in P^7, where min_gen_degree is outside the
    # hypothesis window at deg L = 2g + 3.  On a 2-core VM `secantlab
    # verify --k 1` takes 5.3 s on the first and 2.1 s on the second.
    t0 = time.monotonic()
    model, degree = parse_curve_file((GOLDEN / "genus2_12.curve").read_text())
    tables = []
    resolve = oracle.minimal_free_resolution

    def keep(*args, **kwargs):
        tables.append(resolve(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(oracle, "minimal_free_resolution", keep)
    rep = oracle.verify(embed(model, degree), 1)
    assert [r["verdict"] for r in rep["rows"]] == ["match"] * 9
    (B,) = tables
    assert (B.beta(1, 3), B.beta(6, 9), B.beta(7, 11)) == (70, 7, 3)
    model, degree = parse_curve_file((GOLDEN / "genus4_11.curve").read_text())
    assert (model.genus, degree) == (4, 2 * 4 + 3)
    rep = oracle.verify(embed(model, degree), 1)
    assert {r["name"]: r["verdict"] for r in rep["rows"]} == {
        "dim": "match", "degree": "match", "reg_structure_sheaf": "match",
        "reg_embedded": "match", "ndp_window": "match", "acm": "match",
        "min_gen_degree": "skipped(outside hypothesis window)",
        "canonical_h0": "match", "corner": "match"}
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\nAC-8 PASS: genus-2 d=12 k=1 slot computed, all nine rows "
          f"match; genus-4 d=11 k=1 slot computed, eight rows match and "
          f"min_gen_degree skipped (outside the hypothesis window); "
          f"genus-2 k=2 slot skipped (out of desk scale) "
          f"({elapsed:.1f}s < 60s)")
