"""Ideal-theoretic constructions on top of the Groebner engine.

Secant ideals and tangent cones with Hilbert-Samuel multiplicities.
``secant_join`` alone decides when Σ_k fills P^r (2k + 1 ≥ r), and
answers the zero ideal there without a join.  For the rational normal
curve it takes I(Σ_k) from the Hankel (k+2)-minors, which generate it by
theorem (Gruson–Peskine; Eisenbud 1988); for genus g ≥ 1 it joins the
curve onto the running secant through the curve's cone chart.  Either
ideal is prime, and is certified saturated by the last-variable
criterion on its reduced grevlex basis, so the criterion always holds:
an ideal that fails it is wrong, and raises ``InternalIdentityError``.
Everything here is pure: input ideals are never mutated beyond their own
write-once Groebner caches.
The records are immutable: :class:`ConeParametrization` is a
``NamedTuple``, and :class:`SecantSpec` and :class:`PointedIdeal` are built
on ``namedtuple`` with a ``__new__`` that validates before it constructs.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from typing import NamedTuple

from .gb import (GroebnerBasis, HilbertTarget, Ideal, InternalIdentityError,
                 _ideal_with_gb, _poly_mul, buchberger)
from .homalg import hilbert_data
from .poly import MonomialOrder, PolyRing, Polynomial


class PointNotOnVariety(ValueError):
    """The designated point fails to satisfy the ideal's generators."""


def _fresh_names(count: int, taken, stem: str) -> list:
    """Fresh variable names avoiding everything in ``taken``; on a clash
    the stem grows by a letter, so the names stay valid ring variables."""
    taken = set(taken)
    prefix = stem
    while any(f"{prefix}{i}" in taken for i in range(count)):
        prefix += "x"
    return [f"{prefix}{i}" for i in range(count)]


def _subring_part(gb: GroebnerBasis, keep_start: int, target: PolyRing):
    """An ``eliminate=keep_start`` basis, supported on variables >=
    keep_start, re-read in ``target``.  By the elimination theorem this is
    again a reduced Groebner basis, for the order restricted to the tail
    block.  Its terms are kept in place only where that order is
    ``target``'s grevlex: a grevlex tail block without weights or with
    uniform ones."""
    kind, _, _, weights = gb.order.blocks[-1]      # the tail block
    same_order = (target.order == MonomialOrder.grevlex() and kind == "grevlex"
                  and (weights is None or len(set(weights)) == 1))
    kept = []
    for f in gb:
        terms = tuple((mon[keep_start:], c) for mon, c in f.terms)
        if same_order:
            kept.append(Polynomial(target, terms))
        else:
            kept.append(target.from_dict(dict(terms)))
    return kept


def _hankel_minors(ring: PolyRing, t: int) -> list:
    """The t x t minors of the Hankel matrix (z_{i+j}) with t rows in the
    ring's n variables, hence n - t + 1 columns: one minor per column set,
    in lexicographic order, each expanded by the Leibniz formula straight
    into its terms."""
    n = ring.nvars
    signed = [(perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
              for perm in permutations(range(t))]
    minors = []
    for cols in combinations(range(n - t + 1), t):
        coeffs = {}
        for perm, sign in signed:
            exps = [0] * n
            for row, c in enumerate(perm):
                exps[row + cols[c]] += 1
            mon = tuple(exps)
            coeffs[mon] = coeffs.get(mon, 0) + sign
        minors.append(ring.from_dict(coeffs))
    return minors


# ---------------------------------------------------------------------------
# secant joins
# ---------------------------------------------------------------------------

class ConeParametrization(NamedTuple):
    """Weighted-homogeneous polynomial chart of the affine cone over the
    base curve.

    ``images`` live in a small parameter ring and map onto (a dense subset
    of) the cone; ``constraints`` cut out the chart (empty for a genuinely
    polynomial parametrization such as the rational normal curve, the curve
    equation homogenised by t for genus g >= 1).  ``weights`` grade the
    parameter variables, and every image is weighted-homogeneous of degree
    ``image_weight`` (every constraint of some degree), so the join ideal is
    homogeneous once each ambient variable gets weight ``image_weight``.
    """

    ring: PolyRing
    images: tuple
    weights: tuple
    image_weight: int
    constraints: tuple = ()


class SecantSpec(namedtuple("SecantSpec", "k base_ideal parametrization")):
    """Input bundle for secant_join: Σ_k of V(base_ideal) ⊆ P^r, with
    ``base_ideal`` over a grevlex ring in r + 1 variables (the order the
    saturation criterion reads) and ``parametrization`` a cone chart of
    V(base_ideal)."""

    __slots__ = ()

    def __new__(cls, k: int, base_ideal: Ideal,
                parametrization: ConeParametrization):
        if not isinstance(parametrization, ConeParametrization):
            raise TypeError("parametrization must be a ConeParametrization")
        if k < 0:
            raise ValueError("secant index must be nonnegative")
        if base_ideal.ring.order != MonomialOrder.grevlex():
            raise ValueError("base ideal must be over a grevlex ring")
        if not base_ideal.is_homogeneous():
            raise ValueError("base ideal must be homogeneous")
        return super().__new__(cls, k, base_ideal, parametrization)


def _join_with_parametrization(param: ConeParametrization, cur: Ideal):
    """One join step C * V(cur) using a cone chart of the base curve.

    Imposes cur(x − ν(params)) plus the chart constraints and eliminates the
    parameters under a block order graded by the chart weights, for which
    these generators are weighted-homogeneous; far fewer variables than
    the textbook join, which eliminates k + 1 copies of the ambient
    coordinates.

    The elimination is driven by the exact Hilbert series of its ideal J,
    which needs no extra Groebner basis.  J = φ(I₀) for I₀ = (constraints(p))
    + (cur(x)) and φ: x ↦ x − ν(p), p ↦ p, a ring automorphism of k[p, x]
    (inverse x ↦ x + ν(p)) that preserves the grading, because every ν_i
    has the weight ``image_weight`` of x_i.  So HS(k[p, x]/J) =
    HS(k[p]/constraints) · HS(k[x]/cur)(t^image_weight): the chart's
    factor, from a basis in its few variables, times the Hilbert numerator
    of ``cur``, whose grevlex basis is cached after the first step.

    When this step's join is a hypersurface, dim cur + 2 = n − 1 in Krull
    dimensions, the elimination runs with ``principal`` and stops at its
    first parameter-free element q, of degree D.  That is exact.  The raw
    join is prime (``secant_join`` proves it), of dimension dim cur + 2 =
    2k + 2 at the k-th step: the same non-defectivity that ``secant_join``
    relies on when it says Σ_k fills P^r.  A prime of height one in a
    polynomial ring is principal, say (F).  The join has no nonzero
    element of degree below D (``buchberger`` proves it), so deg F ≥ D,
    and F divides q, so q = c·F.
    """
    ring = cur.ring
    n = ring.nvars
    m = param.ring.nvars
    pnames = _fresh_names(m, ring.variables, "p_join")
    weights = tuple(param.weights) + (param.image_weight,) * n
    big = PolyRing(pnames + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(m, weights))
    ps = big.gens()[:m]
    imgs = [big.gen(m + i) - f.compose(ps, big)
            for i, f in enumerate(param.images)]
    gens = [f.compose(ps, big) for f in param.constraints]
    gens += [f.compose(imgs, big) for f in cur.generators]
    chart_num = buchberger(param.constraints, param.ring).hilbert_numerator(
        param.weights)
    cur_data = hilbert_data(cur)
    cur_num = {param.image_weight * d: c
               for d, c in cur_data.numerator.items()}
    target = HilbertTarget(weights, _poly_mul(chart_num, cur_num))
    gb = buchberger(gens, big, target=target, eliminate=m,
                    principal=cur_data.dimension + 2 == n - 1)
    return _subring_part(gb, m, ring)


def _is_rational_normal_chart(param: ConeParametrization, n: int) -> bool:
    """The chart is the rational normal curve's in P^(n-1): two parameters,
    no constraint, and the images s^(d-i) t^i, d = n - 1."""
    d = n - 1
    return (param.ring.nvars == 2 and not param.constraints
            and param.images == tuple(param.ring.monomial((d - i, i))
                                      for i in range(n)))


def secant_join(spec: SecantSpec) -> Ideal:
    """Homogeneous ideal of the k-th secant variety Σ_k of V(base_ideal).

    Precondition: ``base_ideal`` is I(C) for the curve C of the cone chart
    ``spec.parametrization``, as ``CurveEmbedding.secant_spec`` gives it.

    When 2k + 1 ≥ r, Σ_k fills P^r and the answer is the zero ideal, with
    no Groebner run: C spans P^r, so Σ_k has the expected dimension
    min(2k + 1, r).  For k = 0 the answer is ``base_ideal`` itself.

    When the chart is the rational normal curve's, (s, t) ↦ s^(d-i) t^i
    with no constraint, I(Σ_k) is known in closed form: it is generated
    by the (k+2)-minors of the (k+2) x (d−k) Hankel matrix (z_{i+j})
    (Gruson–Peskine 1982; Eisenbud, Amer. J. Math. 110, 1988).  Those
    minors get their reduced grevlex basis from one untargeted Groebner
    run, and no join is made.  Otherwise this joins the curve onto the
    running secant k times, each step through the cone chart and driven
    by the step's closed-form Hilbert series.

    Either way the ideal comes with its reduced grevlex basis, and it is
    certified saturated when the last variable divides no leading
    monomial of that basis.  This criterion
    (``GroebnerBasis.last_variable_regular``) holds iff x_last is a
    nonzerodivisor on S/I, and then I is saturated (f ∈ I^sat gives
    x_last^N f ∈ I, hence f ∈ I).

    The criterion always holds, because the ideal is prime.  The Hankel
    minors generate the prime I(Σ_k) by the theorem above.  For the join,
    a step joining C onto V(cur) contracts J = φ(I₀) to k[x], where I₀ =
    (constraints(p)) + (cur(x)) and φ is the graded automorphism of
    ``_join_with_parametrization``; so k[p, x]/J ≅ k[p]/(constraints) ⊗
    k[x]/cur.  The constraint is the weighted homogenization of the
    irreducible curve equation, which t does not divide, and cur is
    prime: I(C) at the first step, the previous step's join after it.
    Both stay prime over the algebraic closure of F_p, so the tensor
    product is a domain, and its contraction, the raw join, is prime.
    The prime vanishes on C, which spans P^r, so it contains no variable,
    and x_last is a nonzerodivisor on the domain S/I.  A basis that fails
    the criterion is therefore wrong, and raises
    ``InternalIdentityError``.
    """
    ring = spec.base_ideal.ring
    if 2 * spec.k + 1 >= ring.nvars - 1:
        return Ideal(ring, [])
    if spec.k == 0:
        return spec.base_ideal

    if _is_rational_normal_chart(spec.parametrization, ring.nvars):
        gb = buchberger(_hankel_minors(ring, spec.k + 2), ring)
        raw = _ideal_with_gb(ring, list(gb), gb)
    else:
        raw = spec.base_ideal
        for _ in range(spec.k):
            gens = _join_with_parametrization(spec.parametrization, raw)
            # the join output is already a reduced grevlex basis
            raw = _ideal_with_gb(ring, gens)
    if not raw.groebner().last_variable_regular():
        raise InternalIdentityError(
            "secant join fails the saturation criterion: the last variable "
            "divides a leading monomial of its grevlex basis, so the ideal "
            "is not prime")
    return raw


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------

class PointedIdeal(namedtuple("PointedIdeal", "ideal point chart",
                              defaults=(-1,))):
    """A homogeneous ideal together with a projective point on its variety.

    The point is normalized so the designated chart coordinate equals 1;
    ``chart`` is a coordinate index, or -1 for the last nonzero one.
    Membership is checked by evaluating every generator.
    """

    __slots__ = ()

    def __new__(cls, ideal: Ideal, point: tuple, chart: int = -1):
        ring = ideal.ring
        p = ring.field.p
        pt = [v % p for v in point]
        if len(pt) != ring.nvars:
            raise ValueError("point length does not match the ring")
        if chart not in range(-1, ring.nvars):
            raise ValueError(f"chart must be -1 or in 0..{ring.nvars - 1}")
        if chart == -1:
            nz = [i for i, v in enumerate(pt) if v]
            if not nz:
                raise ValueError("projective point cannot be zero")
            chart = nz[-1]
        if pt[chart] == 0:
            raise ValueError("chart coordinate must be nonzero")
        inv = ring.field.inv(pt[chart])
        pt = tuple(v * inv % p for v in pt)
        for g in ideal.generators:
            if g.evaluate(pt) != 0:
                raise PointNotOnVariety(
                    f"generator {g} does not vanish at {pt}")
        return super().__new__(cls, ideal, pt, chart)


def tangent_cone_multiplicity(P: PointedIdeal):
    """Tangent cone at the point and its Hilbert-Samuel multiplicity.

    One substitution moves the point to the origin of its affine chart
    and homogenizes there: in Rd = k[h, x] under the h-first block order,
    the chart variable goes to h and every other z_i to x_i + p_i·h.  The
    images of the generators span an ideal J of forms, and G(1, x) is the
    translated affine generator for each image G.  The cone is read off
    one Groebner basis of J, with no saturation by h (after Mora, EUROCAM
    1982):

    - For a form G in k[h, x], the slice of G of highest h-degree is
      h^A·L, with L the lowest-degree form of G(1, x).  A factor h^e
      changes A but not L.
    - Each f in the translated affine ideal has some h^a·f^h in J.  So the
      lowest forms of that ideal are exactly the top slices of J, whether
      or not J is saturated.
    - Under the h-first order, lt(G) lies in G's top slice.  A standard
      representation G = Σ q_i g_i with lt(q_i g_i) ≤ lt(G) therefore puts
      top(G) in (top(g_i)).

    So the top slices of the basis, read in the affine grevlex ring,
    generate the cone, and its degree is the multiplicity.
    """
    ring = P.ideal.ring
    chart = P.chart
    affine_names = [v for i, v in enumerate(ring.variables) if i != chart]
    aff = PolyRing(affine_names, ring.field, MonomialOrder.grevlex())
    h_name = _fresh_names(1, affine_names, "h_cone")[0]
    Rd = PolyRing([h_name] + affine_names, ring.field,
                  MonomialOrder.block_elim(1))
    h, *xs = Rd.gens()
    pt = P.point[:chart] + P.point[chart + 1:]
    images = [x + h * c for x, c in zip(xs, pt)]
    images.insert(chart, h)
    gb = buchberger([g.compose(images, Rd) for g in P.ideal.generators
                     if g.terms], Rd)
    cone_gens = []
    for g in gb:
        a = max(mon[0] for mon, _ in g.terms)
        cone_gens.append(aff.from_dict(
            {mon[1:]: c for mon, c in g.terms if mon[0] == a}))
    cone = Ideal(aff, cone_gens)
    return cone, hilbert_data(cone).degree
