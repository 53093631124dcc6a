import contextlib
import io
import json
import re
import warnings
from itertools import product
from math import comb
from pathlib import Path

import pytest

from secantlab import ideal_ops
from secantlab.arith import PrimeField
from secantlab.curves import CurveModel, embed, rational_normal_curve
from secantlab.oracle import (HypothesisViolated, hypothesis_holds,
                              predicted_canonical_h0, predicted_degree,
                              predicted_multiplicity, predicted_regularity,
                              predictions, verify)
from secantlab.poly import PolyRing

F = PrimeField(32003)
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_row_names():
    """The row names README lists after "prints nine rows per curve"."""
    m = re.search(r"prints nine rows per curve, in this order:(.*?)\.\s",
                  README, re.S)
    return re.findall(r"`(\w+)`", m.group(1))


def test_degree_spot_values():
    assert predicted_degree(0, 3, 1) == 1
    assert predicted_degree(0, 4, 1) == 3
    assert predicted_degree(1, 5, 1) == 5
    assert predicted_degree(1, 6, 1) == 9
    assert predicted_degree(2, 7, 1) == 13


def test_multiplicity_is_a_smaller_secant_degree():
    # the multiplicity formula, summed as written, against the degree of
    # Sigma_{k-m-1} re-embedded by deg_L - 2(m+1)
    def C(n, k):
        return comb(n, k) if 0 <= k <= n else 0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisViolated)
        for g, deg_L, k in product(range(6), range(30), range(5)):
            for m in range(k + 1):
                formula = sum(C(deg_L - g - m - 1 - k - i, k - m - i)
                              * C(g, i) for i in range(min(k - m, g) + 1))
                assert predicted_multiplicity(g, deg_L, k, m) == formula
                assert formula == predicted_degree(g, deg_L - 2 * (m + 1),
                                                   k - m - 1)


def test_multiplicity_spot_values():
    assert predicted_multiplicity(1, 5, 1, 0) == 3
    assert predicted_multiplicity(0, 4, 1, 0) == 2
    assert predicted_multiplicity(2, 7, 1, 1) == 1


def test_regularity_pairs():
    assert predicted_regularity(0, 0) == (1, 2)
    assert predicted_regularity(0, 2) == (3, 4)
    assert predicted_regularity(1, 1) == (4, 5)
    assert predicted_regularity(2, 1) == (4, 5)


def test_canonical_h0():
    assert predicted_canonical_h0(0, 3) == 0
    assert predicted_canonical_h0(1, 1) == 1
    assert predicted_canonical_h0(2, 1) == 3


def test_hypothesis_window_and_warning():
    assert hypothesis_holds(1, 5, 1)
    assert not hypothesis_holds(1, 4, 1)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        predicted_degree(1, 4, 1)
    assert any(issubclass(w.category, HypothesisViolated) for w in wlist)


def test_prediction_values():
    pred = predictions(1, 5, 1)
    # r = deg_L - g = 4 puts the corner at K_{r-2k-1, 2k+2} = K_{1, 4}
    assert hypothesis_holds(1, 5, 1) and pred["corner"] == [1, 4]
    assert pred["dim"] == 3
    assert pred["degree"] == 5
    assert pred["reg_embedded"] == 5
    assert pred["ndp_window"] == 0
    assert pred["acm"]
    assert pred["canonical_h0"] == 1
    pred6 = predictions(1, 6, 1)
    assert pred6["ndp_window"] == 1
    assert pred6["min_gen_degree"] == 3
    # the keys are the verify rows, in README's order
    names = readme_row_names()
    assert len(names) == 9
    rep = verify(rational_normal_curve(4, F), 1)
    assert list(predictions(0, 4, 1)) == names
    assert [r["name"] for r in rep["rows"]] == names


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    lines = out.getvalue().splitlines()
    skipped = "skipped(outside hypothesis window)"
    assert repr(["match"] * 6 + [skipped] + ["match"] * 2) in lines
    assert lines[-1].endswith("processed 6 of 5")


def test_min_gen_prediction_absent_outside_window():
    pred = predictions(1, 5, 1)  # p_max = 0, no positive-step window
    assert pred["min_gen_degree"] is None


def test_verify_elliptic_quintic_matches():
    R2 = PolyRing(["x", "y"], F)
    m1 = CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1"))
    rep = verify(embed(m1, 5), 1)
    assert not [r for r in rep["rows"] if r["verdict"] == "mismatch"]
    assert not [r for r in rep["rows"] if r["verdict"].startswith("skipped")
                and "resource" in r["verdict"]]
    verdicts = {r["name"]: r["verdict"] for r in rep["rows"]}
    assert verdicts["degree"] == "match"
    assert verdicts["reg_embedded"] == "match"
    assert verdicts["corner"] == "match"
    assert verdicts["min_gen_degree"].startswith("skipped")


def test_verify_genus0_rows():
    rep = verify(rational_normal_curve(5, F), 1)
    assert not [r for r in rep["rows"] if r["verdict"] == "mismatch"]
    rows = {r["name"]: r for r in rep["rows"]}
    assert rows["ndp_window"]["computed"] == 2
    assert rows["corner"]["verdict"] == "skipped(corner vanishes for genus 0)"
    assert rows["acm"]["computed"] is True


def test_verify_degenerate_secant_skips_all():
    rep = verify(rational_normal_curve(3, F), 1)
    assert all(r["verdict"] == "skipped(fills ambient)" for r in rep["rows"])


def test_verify_filling_k_skips_the_join(monkeypatch):
    # Σ_2 of the elliptic sextic fills P^5 (2k + 1 = r): secant_join
    # answers the zero ideal with no join step and no Groebner run
    def no_join(*args, **kwargs):
        raise AssertionError("join step for a filling k")
    R2 = PolyRing(["x", "y"], F)
    m1 = CurveModel(1, F, R2.parse("y^2 - x^3 - 4*x - 1"))
    emb = embed(m1, 6)
    for name in ("_join_with_parametrization", "buchberger"):
        monkeypatch.setattr(ideal_ops, name, no_join)
    rep = verify(emb, 2)
    assert [r["verdict"] for r in rep["rows"]] == ["skipped(fills ambient)"] * 9
    assert all(r["computed"] is None for r in rep["rows"])


def test_report_json_shape():
    rep = verify(rational_normal_curve(4, F), 1)
    assert json.loads(json.dumps(rep)) == rep  # plain JSON data
    assert list(rep) == ["instance", "rows", "seed", "prime"]
    assert rep["instance"]["genus"] == 0 and rep["instance"]["k"] == 1
    assert rep["seed"] == 0 and rep["prime"] == 32003
    assert len(rep["rows"]) == 9


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        predicted_degree(-1, 10, 1)
    with pytest.raises(ValueError):
        predicted_multiplicity(1, 10, 1, 2)
