"""Ideal-theoretic constructions on top of the Groebner engine.

Elimination, saturation, the secant join, Jacobian minor ideals, and tangent
cones with Hilbert-Samuel multiplicities.  Everything here is pure: input
ideals are never mutated beyond their own write-once Groebner caches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations, zip_longest

from .gb import GroebnerBasis, Ideal, buchberger
from .homalg import hilbert_data
from .poly import MonomialOrder, PolyRing, Polynomial


class PointNotOnVariety(ValueError):
    """The designated point fails to satisfy the ideal's generators."""


def _fresh_names(count: int, taken, stem: str) -> list:
    """Fresh variable names avoiding everything in ``taken``."""
    taken = set(taken)
    prefix = stem
    while any(f"{prefix}{i}" in taken for i in range(count)):
        prefix = "_" + prefix
    return [f"{prefix}{i}" for i in range(count)]


def _transplant(f: Polynomial, target: PolyRing, position) -> Polynomial:
    """Re-home f into ``target``, sending source variable i to index
    position[i].  The map must be injective on variables."""
    nt = target.nvars
    coeffs = {}
    for mon, c in f.terms:
        e = [0] * nt
        for i, ei in enumerate(mon):
            if ei:
                e[position[i]] = ei
        coeffs[tuple(e)] = c
    return target.from_dict(coeffs)


def _subring_part(gb: GroebnerBasis, keep_start: int, target: PolyRing):
    """Elements of an elimination GB supported on variables >= keep_start,
    re-read in ``target``.  By the elimination theorem this is again a
    reduced Groebner basis, for the order restricted to the tail block
    (grevlex, up to a uniform weight)."""
    grevlex_target = target.order == MonomialOrder.grevlex()
    kept = []
    for f in gb:
        if all(all(e == 0 for e in mon[:keep_start]) for mon, _ in f.terms):
            terms = tuple((mon[keep_start:], c) for mon, c in f.terms)
            if grevlex_target:
                kept.append(Polynomial(target, terms))
            else:
                kept.append(target.from_dict(dict(terms)))
    return kept


def _ideal_with_gb(target: PolyRing, gens) -> Ideal:
    """Ideal whose grevlex-GB cache is preseeded with ``gens`` (which must
    already be a reduced GB under the target ring's order)."""
    I = Ideal(target, gens)
    I._gb_cache[target.order] = GroebnerBasis(gens, target)
    return I


def eliminate(I: Ideal, drop_vars, pair_budget=None) -> Ideal:
    """The elimination ideal I ∩ k[remaining variables].

    ``drop_vars`` is a collection of variable names of I's ring.  The result
    lives in a grevlex ring on the remaining variables.
    """
    names = I.ring.variables
    drop = [v for v in names if v in set(drop_vars)]
    unknown = set(drop_vars) - set(names)
    if unknown:
        raise ValueError(f"not ring variables: {sorted(unknown)}")
    if not drop:
        return I
    keep = [v for v in names if v not in set(drop)]
    big = PolyRing(list(drop) + keep, I.ring.field,
                   MonomialOrder.block_elim(len(drop)))
    pos = [big._index[v] for v in names]
    gens = [_transplant(f, big, pos) for f in I.generators]
    gb = buchberger(gens, big, pair_budget=pair_budget)
    target = PolyRing(keep, I.ring.field, MonomialOrder.grevlex())
    return _ideal_with_gb(target, _subring_part(gb, len(drop), target))


def saturate(I: Ideal, f: Polynomial, pair_budget=None) -> Ideal:
    """(I : f^∞) via the Rabinowitsch trick: adjoin w, add w·f − 1,
    eliminate w."""
    if not f.terms:
        raise ValueError("cannot saturate with respect to zero")
    ring = I.ring
    if f.total_degree() == 0:
        return I
    w = _fresh_names(1, ring.variables, "w_sat")[0]
    big = PolyRing([w] + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(1))
    pos = list(range(1, big.nvars))
    gens = [_transplant(g, big, pos) for g in I.generators]
    fw = _transplant(f, big, pos) * big.gen(0) - big.constant(1)
    gb = buchberger(gens + [fw], big, pair_budget=pair_budget)
    kept = _subring_part(gb, 1, ring)
    return _ideal_with_gb(ring, kept) if ring.order == MonomialOrder.grevlex() \
        else Ideal(ring, kept)


def intersect(I: Ideal, J: Ideal, pair_budget=None) -> Ideal:
    """I ∩ J via t·I + (1−t)·J and elimination of t."""
    ring = I.ring
    t = _fresh_names(1, ring.variables, "t_cap")[0]
    big = PolyRing([t] + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(1))
    pos = list(range(1, big.nvars))
    tv = big.gen(0)
    gens = [tv * _transplant(g, big, pos) for g in I.generators]
    gens += [(big.constant(1) - tv) * _transplant(g, big, pos)
             for g in J.generators]
    gb = buchberger(gens, big, pair_budget=pair_budget)
    kept = _subring_part(gb, 1, ring)
    return Ideal(ring, kept)


def radical_membership(f: Polynomial, I: Ideal, pair_budget=None) -> bool:
    """True iff f lies in the radical of I: 1 ∈ I + (w·f − 1)."""
    if not f.terms:
        raise ValueError("zero polynomial")
    ring = I.ring
    w = _fresh_names(1, ring.variables, "w_rad")[0]
    big = PolyRing([w] + list(ring.variables), ring.field,
                   MonomialOrder.grevlex())
    pos = list(range(1, big.nvars))
    gens = [_transplant(g, big, pos) for g in I.generators]
    fw = _transplant(f, big, pos) * big.gen(0) - big.constant(1)
    gb = buchberger(gens + [fw], big, pair_budget=pair_budget)
    return gb.is_unit_ideal()


# ---------------------------------------------------------------------------
# secant joins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeParametrization:
    """Weighted-homogeneous polynomial chart of the affine cone over the
    base curve.

    ``images`` live in a small parameter ring and map onto (a dense subset
    of) the cone; ``constraints`` cut out the chart (empty for a genuinely
    polynomial parametrization such as the rational normal curve, the curve
    equation homogenised by t for genus 1 and 2).  ``weights`` grade the
    parameter variables, and every image is weighted-homogeneous of degree
    ``image_weight`` (every constraint of some degree), so the join ideal is
    homogeneous once each ambient variable gets weight ``image_weight``.
    """

    ring: PolyRing
    images: tuple
    weights: tuple
    image_weight: int
    constraints: tuple = ()


@dataclass(frozen=True)
class SecantSpec:
    """Input bundle for secant_join: Σ_k of V(base_ideal) ⊆ P^ambient_dim."""

    k: int
    ambient_dim: int
    base_ideal: Ideal
    parametrization: ConeParametrization | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("secant index must be nonnegative")
        if self.base_ideal.ring.nvars != self.ambient_dim + 1:
            raise ValueError("ambient dimension does not match the ring")
        if not self.base_ideal.is_homogeneous():
            raise ValueError("base ideal must be homogeneous")


def _join_with_ideal(base_gens, cur_gens, ring: PolyRing, pair_budget):
    """One join step V(base) * V(cur) with base in the eliminated block."""
    n = ring.nvars
    ynames = _fresh_names(n, ring.variables, "y_join")
    big = PolyRing(ynames + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(n))
    y = [big.gen(i) for i in range(n)]
    xmy = [big.gen(n + i) - y[i] for i in range(n)]
    pos_y = list(range(n))
    gens = [_transplant(f, big, pos_y) for f in base_gens]
    gens += [f.compose(xmy, big) for f in cur_gens]
    gb = buchberger(gens, big, pair_budget=pair_budget)
    return _subring_part(gb, n, ring)


def _join_with_parametrization(param: ConeParametrization, cur_gens,
                               ring: PolyRing, pair_budget):
    """One join step C * V(cur) using a cone chart of the base curve.

    Imposes cur(x − ν(params)) plus the chart constraints and eliminates the
    parameters under a block order graded by the chart weights, for which
    these generators are weighted-homogeneous; far fewer variables than the
    two-block construction.
    """
    n = ring.nvars
    m = param.ring.nvars
    pnames = _fresh_names(m, ring.variables, "p_join")
    weights = tuple(param.weights) + (param.image_weight,) * n
    big = PolyRing(pnames + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(m, weights))
    pos_p = list(range(m))
    nu = [_transplant(f, big, pos_p) for f in param.images]
    imgs = [big.gen(m + i) - nu[i] for i in range(n)]
    gens = [_transplant(f, big, pos_p) for f in param.constraints]
    gens += [f.compose(imgs, big) for f in cur_gens]
    gb = buchberger(gens, big, pair_budget=pair_budget)
    return _subring_part(gb, m, ring)


def _join_literal(spec: SecantSpec, pair_budget):
    """The (k+1)-block textbook construction: blocks y(1)..y(k+1) and x,
    relations base(y(j)) and x_i − Σ_j y_i(j), eliminate every y block."""
    ring = spec.base_ideal.ring
    n = ring.nvars
    k = spec.k
    nb = k + 1
    ynames = []
    for j in range(nb):
        ynames += _fresh_names(n, list(ring.variables) + ynames, f"y{j}_")
    big = PolyRing(ynames + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(nb * n))
    gens = []
    for j in range(nb):
        pos = list(range(j * n, (j + 1) * n))
        gens += [_transplant(f, big, pos) for f in spec.base_ideal.generators]
    for i in range(n):
        s = big.gen(nb * n + i)
        for j in range(nb):
            s = s - big.gen(j * n + i)
        gens.append(s)
    gb = buchberger(gens, big, pair_budget=pair_budget)
    return _subring_part(gb, nb * n, ring)


def _saturate_wrt_linear(I: Ideal, coeffs, pair_budget):
    """(I : ℓ^∞) for ℓ = Σ cᵢxᵢ with c_last ≠ 0, by a linear change of
    coordinates sending ℓ to the last variable followed by the grevlex
    last-variable trick (strip the highest dividing power from each reduced
    GB element)."""
    ring = I.ring
    n = ring.nvars
    p = ring.field.p
    last = n - 1
    if coeffs[last] % p == 0:
        raise ValueError("last coefficient of the linear form must be nonzero")
    inv = ring.field.inv(coeffs[last])
    R = ring if ring.order == MonomialOrder.grevlex() \
        else ring.with_order(MonomialOrder.grevlex())
    fwd = [R.gen(i) for i in range(n)]
    fwd[last] = R.from_dict({
        tuple(1 if j == i else 0 for j in range(n)):
            (inv if i == last else (-coeffs[i] * inv) % p)
        for i in range(n)})
    back = [R.gen(i) for i in range(n)]
    back[last] = R.from_dict({
        tuple(1 if j == i else 0 for j in range(n)): coeffs[i] % p
        for i in range(n)})
    gens = [g.compose(fwd, R) for g in I.generators]
    gb = buchberger(gens, R, pair_budget=pair_budget)
    stripped = []
    for g in gb:
        a = min(mon[last] for mon, _ in g.terms)
        if a:
            g = Polynomial(R, tuple(
                (mon[:last] + (mon[last] - a,), c) for mon, c in g.terms))
        stripped.append(g)
    out = [g.compose(back, R) for g in stripped]
    if ring.order == R.order:
        return Ideal(ring, [Polynomial(ring, f.terms) for f in out])
    return Ideal(ring, [ring.from_dict(dict(f.terms)) for f in out])


def saturate_irrelevant(I: Ideal, pair_budget=None) -> Ideal:
    """Full saturation with respect to the irrelevant ideal: intersect the
    saturations by every single variable.  Slow; reference implementation."""
    ring = I.ring
    n = ring.nvars
    out = None
    for i in range(n):
        # move variable i into the grevlex-cheapest slot and saturate by it
        perm = list(range(n))
        perm[i], perm[-1] = perm[-1], perm[i]
        R = PolyRing([ring.variables[j] for j in perm], ring.field,
                     MonomialOrder.grevlex())
        pos = [0] * n
        for newpos, old in enumerate(perm):
            pos[old] = newpos
        J = Ideal(R, [_transplant(g, R, pos) for g in I.generators])
        unit_last = [0] * (n - 1) + [1]
        Js = _saturate_wrt_linear(J, unit_last, pair_budget)
        # a swap is its own inverse
        Ji = Ideal(ring, [_transplant(g, ring, pos) for g in Js.generators])
        out = Ji if out is None else intersect(out, Ji, pair_budget)
    return out


def _is_saturation(I: Ideal, J: Ideal, pair_budget=None) -> bool:
    """True iff J = I : ℓ^∞ (ℓ a linear form) is the saturation of I.

    J is saturated and contains I^sat, so J = I^sat exactly when S/J and
    S/I have the same Hilbert polynomial: when (1 - t)^n divides N_I - N_J.
    """
    diff = [a - b for a, b in zip_longest(
        hilbert_data(I, pair_budget=pair_budget).numerator,
        hilbert_data(J, pair_budget=pair_budget).numerator, fillvalue=0)]
    for _ in range(I.ring.nvars):
        if sum(diff):
            return False
        diff = list(accumulate(diff))[:-1]   # divide by (1 - t)
    return True


def secant_join(spec: SecantSpec, seed: int = 0,
                pair_budget=None) -> Ideal:
    """Homogeneous ideal of the k-th secant variety Σ_k of V(base_ideal).

    Joins the curve onto the running secant one point block at a time
    (through the cone parametrization when there is one), then saturates
    the raw join by one seeded random linear form ℓ.  ``_is_saturation``
    certifies the result from Hilbert data; if the certificate fails, the
    full irrelevant-ideal saturation is computed instead.
    """
    ring = spec.base_ideal.ring
    if spec.k == 0 or spec.base_ideal.is_zero():
        return spec.base_ideal

    gens = list(spec.base_ideal.generators)
    for _ in range(spec.k):
        if spec.parametrization is not None:
            gens = _join_with_parametrization(
                spec.parametrization, gens, ring, pair_budget)
        else:
            gens = _join_with_ideal(
                spec.base_ideal.generators, gens, ring, pair_budget)
        if not gens:
            return Ideal(ring, [])

    # the join output is already a reduced grevlex basis
    raw = _ideal_with_gb(ring, gens) if ring.order == MonomialOrder.grevlex() \
        else Ideal(ring, gens)
    rng = random.Random(seed)
    ell = [rng.randrange(1, ring.field.p) for _ in range(ring.nvars)]
    sat = _saturate_wrt_linear(raw, ell, pair_budget)
    if _is_saturation(raw, sat, pair_budget):
        return sat
    return saturate_irrelevant(raw, pair_budget)


def jacobian_minors(I: Ideal, c: int) -> Ideal:
    """I plus all c×c minors of the Jacobian matrix of its generators."""
    if c < 1:
        raise ValueError("codimension must be >= 1")
    ring = I.ring
    gens = list(I.generators)
    jac = [[f.derivative(i) for i in range(ring.nvars)] for f in gens]

    def det(rows, cols):
        if len(rows) == 1:
            return jac[rows[0]][cols[0]]
        acc = ring.constant(0)
        for t, r in enumerate(rows):
            entry = jac[r][cols[0]]
            if not entry.terms:
                continue
            minor = det(rows[:t] + rows[t + 1:], cols[1:])
            acc = acc + entry * minor if t % 2 == 0 else acc - entry * minor
        return acc

    minors = []
    for rows in combinations(range(len(gens)), c):
        for cols in combinations(range(ring.nvars), c):
            m = det(list(rows), list(cols))
            if m.terms:
                minors.append(m)
    return Ideal(ring, gens + minors)


# ---------------------------------------------------------------------------
# tangent cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedIdeal:
    """A homogeneous ideal together with a projective point on its variety.

    The point is normalized so the designated chart coordinate equals 1;
    membership is checked by evaluating every generator.
    """

    ideal: Ideal
    point: tuple
    chart: int = -1

    def __post_init__(self):
        ring = self.ideal.ring
        p = ring.field.p
        pt = [v % p for v in self.point]
        if len(pt) != ring.nvars:
            raise ValueError("point length does not match the ring")
        chart = self.chart
        if chart < 0:
            nz = [i for i, v in enumerate(pt) if v]
            if not nz:
                raise ValueError("projective point cannot be zero")
            chart = nz[-1]
        if pt[chart] == 0:
            raise ValueError("chart coordinate must be nonzero")
        inv = ring.field.inv(pt[chart])
        pt = tuple(v * inv % p for v in pt)
        object.__setattr__(self, "point", pt)
        object.__setattr__(self, "chart", chart)
        for g in self.ideal.generators:
            if g.evaluate(pt) != 0:
                raise PointNotOnVariety(
                    f"generator {g} does not vanish at {pt}")


def tangent_cone_multiplicity(P: PointedIdeal, pair_budget=None):
    """Tangent cone at the point and its Hilbert-Samuel multiplicity.

    Moves the point to the origin of its affine chart, homogenizes with a
    fresh variable h, saturates by h (grevlex last-variable trick), then
    reads off lowest-degree forms from a Groebner basis under an h-dominant
    block order.  The multiplicity is the degree of the cone.
    """
    ring = P.ideal.ring
    p = ring.field.p
    chart = P.chart
    affine_names = [v for i, v in enumerate(ring.variables) if i != chart]
    aff = PolyRing(affine_names, ring.field, MonomialOrder.grevlex())
    # substitute chart -> 1 and translate the point to the origin
    images = []
    j = 0
    for i in range(ring.nvars):
        if i == chart:
            images.append(aff.constant(1))
        else:
            images.append(aff.gen(j) + aff.constant(P.point[i]))
            j += 1
    affine_gens = [g.compose(images, aff) for g in P.ideal.generators
                   if g.terms]
    affine_gens = [g for g in affine_gens if g.terms]

    # homogenize with h as the grevlex-last variable and saturate by h
    h_name = _fresh_names(1, affine_names, "h_cone")[0]
    Rh = PolyRing(affine_names + [h_name], ring.field,
                  MonomialOrder.grevlex())
    hpos = Rh.nvars - 1
    homog = []
    for g in affine_gens:
        d = g.total_degree()
        homog.append(Rh.from_dict({
            mon + (d - sum(mon),): c for mon, c in g.terms}))
    gb = buchberger(homog, Rh, pair_budget=pair_budget)
    sat = []
    for g in gb:
        a = min(mon[hpos] for mon, _ in g.terms)
        if a:
            g = Polynomial(Rh, tuple(
                (mon[:hpos] + (mon[hpos] - a,), c) for mon, c in g.terms))
        sat.append(g)

    # h-dominant order: the leading term of each basis element sits in the
    # maximal-h slice, which dehomogenizes to the lowest-degree form
    Rd = PolyRing([h_name] + affine_names, ring.field,
                  MonomialOrder.block_elim(1))
    pos = list(range(1, Rd.nvars)) + [0]
    gb2 = buchberger([_transplant(g, Rd, pos) for g in sat], Rd,
                     pair_budget=pair_budget)
    cone_gens = []
    for g in gb2:
        a = max(mon[0] for mon, _ in g.terms)
        low = {mon[1:]: c for mon, c in g.terms if mon[0] == a}
        cone_gens.append(aff.from_dict(low))
    cone = Ideal(aff, cone_gens)
    mult = hilbert_data(cone, pair_budget=pair_budget).degree
    return cone, mult
