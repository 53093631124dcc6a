"""Closed-form predictions for secant varieties and the verification
pipeline comparing them against computed invariants.

The predicted quantities for Σ_k of a genus-g curve embedded by a degree
deg_L line bundle: dimension 2k+1, the binomial degree formula, the
multiplicity formula on the singular strata, regularity, the N_{k+2,p}
window, ACM-ness, and the canonical corner Betti number.  The
prediction table and the verification report are plain dicts: the keys
of :func:`predictions` are the verify rows' names in row order, and
:func:`verify` returns its report ready for ``json.dumps``.
"""

from __future__ import annotations

import warnings
from math import comb

from .gb import ResourceLimit
from .homalg import (InternalIdentityError, ZeroIdeal, hilbert_data, is_acm,
                     koszul_dim, max_ndp_steps, min_generator_degree,
                     minimal_free_resolution, projective_dimension,
                     regularity)
from .ideal_ops import secant_join


class HypothesisViolated(UserWarning):
    """deg_L below 2g + 2k + 1: the formulas are evaluated anyway but no
    longer backed by the theorems."""


def binomial(n: int, k: int) -> int:
    """C(n, k), zero for k < 0 or n < k (boundary indices of the formulas
    rely on this)."""
    return comb(n, k) if 0 <= k <= n else 0


def hypothesis_holds(g: int, deg_L: int, k: int) -> bool:
    return deg_L >= 2 * g + 2 * k + 1


def _warn_hypothesis(g, deg_L, k):
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if not hypothesis_holds(g, deg_L, k):
        warnings.warn(
            f"deg_L = {deg_L} < {2 * g + 2 * k + 1} = 2g+2k+1: "
            "prediction outside the theorem's hypothesis",
            HypothesisViolated, stacklevel=3)


def _secant_degree(g: int, deg_L: int, k: int) -> int:
    return sum(binomial(deg_L - g - k - i, k + 1 - i) * binomial(g, i)
               for i in range(min(k + 1, g) + 1))


def predicted_degree(g: int, deg_L: int, k: int) -> int:
    """deg Σ_k = Σ_{i=0}^{min(k+1, g)} C(deg_L - g - k - i, k+1-i) C(g, i)."""
    _warn_hypothesis(g, deg_L, k)
    return _secant_degree(g, deg_L, k)


def predicted_multiplicity(g: int, deg_L: int, k: int, m: int) -> int:
    """Multiplicity of Σ_k at a point of Σ_m \\ Σ_{m-1}:
    Σ_{i=0}^{min(k-m, g)} C(deg_L - g - m - 1 - k - i, k-m-i) C(g, i).

    This is the degree of a smaller secant variety, Σ_{k-m-1} of the curve
    re-embedded with two base points removed per divisor point:
    predicted_degree(g, deg_L - 2(m+1), k-m-1), and computed so."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    _warn_hypothesis(g, deg_L, k)
    return _secant_degree(g, deg_L - 2 * (m + 1), k - m - 1)


def predicted_regularity(g: int, k: int) -> tuple:
    """(reg of the structure sheaf, reg of the embedded variety)."""
    if g == 0:
        return (k + 1, k + 2)
    return (2 * k + 2, 2 * k + 3)


def predicted_canonical_h0(g: int, k: int) -> int:
    """h^0 of the canonical module: C(g+k, k+1), also the corner Koszul
    dimension K_{r-2k-1, 2k+2}."""
    return binomial(g + k, k + 1)


def predictions(g: int, deg_L: int, k: int) -> dict:
    """The predicted value of every verify row for (g, deg_L, k), keyed by
    row name in row order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisViolated)
        deg = predicted_degree(g, deg_L, k)
    reg_s, reg_e = predicted_regularity(g, k)
    p_max = deg_L - 2 * g - 2 * k - 1
    return {"dim": 2 * k + 1,
            "degree": deg,
            "reg_structure_sheaf": reg_s,
            "reg_embedded": reg_e,
            "ndp_window": p_max,
            "acm": p_max >= 0,
            "min_gen_degree": k + 2 if p_max >= 1 else None,
            "canonical_h0": predicted_canonical_h0(g, k),
            "corner": [deg_L - g - 2 * k - 1, 2 * k + 2]}


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------

def verify(emb, k: int, seed: int = 0, degree_bound=None) -> dict:
    """Run secant_join -> hilbert_data -> minimal_free_resolution on the
    embedding and compare every prediction.  Returns the JSON-ready report
    ``{"instance", "rows", "seed", "prime"}``: one row per entry of
    :func:`predictions`, each ``{"name", "predicted", "computed",
    "verdict"}``.  Failures downgrade rows to skipped instead of raising,
    and a zero secant ideal (Σ_k fills P^r) skips every row.  A join basis
    or Betti table that breaks a run-time identity gives every row the
    verdict "error(internal identity)" and puts the message in
    ``instance["error"]``."""
    g = emb.model.genus
    predicted = predictions(g, emb.d, k)
    instance = {"genus": g, "degree": emb.d, "k": k, "r": emb.r}

    def report(computed, rule):
        rows = [{"name": name, "predicted": p_,
                 "computed": computed.get(name),
                 "verdict": rule(name, p_, computed.get(name))}
                for name, p_ in predicted.items()]
        return {"instance": instance, "rows": rows, "seed": seed,
                "prime": emb.model.field.p}

    def all_rows(verdict):
        return report({}, lambda *_: verdict)

    stage = "secant_join"
    try:
        S = secant_join(emb.secant_spec(k))
        if S.is_zero():
            return all_rows("skipped(fills ambient)")
        stage = "resolution"
        hd = hilbert_data(S)
        B = minimal_free_resolution(S, degree_bound=degree_bound, seed=seed)
    except ResourceLimit:
        return all_rows(f"skipped(resource limit in {stage})")
    except InternalIdentityError as e:
        instance["error"] = str(e)
        return all_rows("error(internal identity)")

    # a row the Betti table cannot decide gets no computed value
    computed = {"dim": hd.projective_dimension_of_variety,
                "degree": hd.degree}
    try:
        # no generator of degree <= truncated_at leaves the minimum unknown
        computed["min_gen_degree"] = min_generator_degree(B)
    except ZeroIdeal:
        pass
    if B.truncated_at is None:
        reg = regularity(B)
        computed.update(reg_structure_sheaf=reg, reg_embedded=reg + 1,
                        ndp_window=max_ndp_steps(B, k + 2),
                        acm=is_acm(B, hd))
        # for g >= 1 the table ends exactly at the predicted corner; for
        # g = 0 the corner group vanishes and pins down nothing
        if g:
            computed["corner"] = [projective_dimension(B), reg]
    # canonical h^0 sits in the corner Koszul group K_{r-2k-1, 2k+2}
    ci, cq = predicted["corner"]
    if B.truncated_at is None or ci + cq <= B.truncated_at:
        computed["canonical_h0"] = koszul_dim(B, ci, cq)

    def verdict(name, p_, c_):
        if name == "corner" and g == 0:
            return "skipped(corner vanishes for genus 0)"
        if name == "min_gen_degree" and p_ is None:
            return "skipped(outside hypothesis window)"
        if c_ is None:
            return "skipped(degree-truncated table)"
        if name == "ndp_window":
            # N_{k+2, p} window: the theorem is a lower bound on the truth
            if c_ == max(p_, -1):
                return "match"
            if c_ > p_:
                return "match (prediction is a lower bound)"
        return "match" if p_ == c_ else "mismatch"

    return report(computed, verdict)
