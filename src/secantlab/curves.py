"""Curve models of genus g >= 0 over F_p and their projective embeddings.

A curve is embedded by the complete linear system of O(d * P_inf): genus 0
gives the rational normal curve directly, cut out by the 2 x 2 minors of
its Hankel matrix (``ideal_ops._hankel_minors``, whose (k+2)-minors give
secant_join I(Σ_k) of the same curve), genus g >= 1 (the model
y^2 + h(x) y = f(x), deg f = 2g + 1) uses an explicit monomial basis of
functions with bounded pole order at infinity and realizes the image ideal
by a weighted graph elimination.  An embedding hands
secant_join its input through ``CurveEmbedding.secant_spec``; secant_join
alone decides when Σ_k fills P^r.  The embedding carries a
weighted-homogeneous cone parametrization: (s, t) -> s^(d-i) t^i for
genus 0, by which secant_join knows to take the minors, and for genus
g >= 1 the images t^(d - pole) m(x, y) of weight d under the weights
(2, w_y, 1) of (x, y, t), w_y = 2g + 1, cut out by the curve equation
homogenised by t, through which it joins.
:class:`CurveModel` is an immutable record built on ``namedtuple`` whose
``__new__`` validates the model; :class:`CurveEmbedding` is an immutable
``NamedTuple`` record.
"""

from __future__ import annotations

import random
from collections import namedtuple
from contextvars import Context
from typing import NamedTuple

from .arith import DEFAULT_PRIME, MAX_PRIME, PrimeField, is_prime
from .gb import Ideal, buchberger
from .ideal_ops import (ConeParametrization, PointedIdeal, SecantSpec,
                        _hankel_minors, _subring_part)
from .poly import MonomialOrder, PolyRing, Polynomial


class DegreeTooSmall(ValueError):
    """The line bundle degree is below the very-ample range."""


class DuplicatePoints(ValueError):
    """Secant witness points must be pairwise distinct."""


# ---------------------------------------------------------------------------
# curve models
# ---------------------------------------------------------------------------

class CurveModel(namedtuple("CurveModel", "genus field equation",
                            defaults=(None,))):
    """Genus 0 (no equation), or genus g >= 1 as y^2 + h(x)*y - f(x) with
    deg h <= g and deg f = 2g + 1, over a prime field.

    Completing the square, (2y + h)^2 = h^2 + 4f (p is odd), so the model
    is smooth iff h^2 + 4f is squarefree; for g = 1 that is the
    discriminant test Δ != 0.  h^2 + 4f is squarefree iff it and its
    derivative generate the unit ideal of F_p[x], which one Groebner basis
    decides, outside any caller's pair budget.
    """

    __slots__ = ()

    def __new__(cls, genus: int, field: PrimeField,
                equation: Polynomial | None = None):
        self = super().__new__(cls, genus, field, equation)
        g = self.genus
        if g < 0:
            raise ValueError("genus must be nonnegative")
        if g == 0:
            if self.equation is not None:
                raise ValueError("genus 0 takes no equation")
            return self
        eq = self.equation
        if eq is None or eq.ring.variables != ("x", "y"):
            raise ValueError("equation must live in a ring with variables "
                             "(x, y)")
        if eq.ring.field != self.field:
            raise ValueError("equation field does not match the model field")
        coeffs = dict(eq.terms)
        if coeffs.get((0, 2)) != 1 or any(j > 2 or (j == 2 and i)
                                          for i, j in coeffs):
            raise ValueError(f"genus {g} needs an equation "
                             "y^2 + h(x)*y - f(x)")
        ring = PolyRing(["x"], self.field)
        h = ring.from_dict({(i,): c for (i, j), c in coeffs.items() if j == 1})
        f = ring.from_dict({(i,): -c for (i, j), c in coeffs.items()
                            if j == 0})
        if h and h.total_degree() > g:
            raise ValueError(f"genus {g} needs deg h <= {g}")
        deg = f.total_degree() if f else -1
        if deg >= 4 and deg % 2 == 0:
            raise ValueError("even-degree model rejected")
        if deg != 2 * g + 1:
            raise ValueError(f"genus {g} needs deg f = {2 * g + 1}")
        disc = h * h + f * 4
        dprime = ring.from_dict({(i - 1,): i * c for (i,), c in disc.terms})
        # a fresh context runs the check at the default budget, so an
        # invalid equation is a ValueError under any caller's budget
        if not Context().run(buchberger, [disc, dprime],
                             ring).is_unit_ideal():
            raise ValueError("h^2 + 4f must be squarefree "
                             "(gcd with its derivative = 1)")
        return self

    def contains_affine(self, pt) -> bool:
        return self.genus == 0 or self.equation.evaluate(pt) == 0


# ---------------------------------------------------------------------------
# Riemann-Roch bases and embeddings
# ---------------------------------------------------------------------------

def rr_basis(model: CurveModel, d: int):
    """Monomial basis of the functions with pole order <= d at infinity,
    as (exponent pair, pole order), sorted by pole order.

    Genus 0: all degree-d monomials in two parameters (s, t).  Genus
    g >= 1: x^i (pole 2i) and y*x^j (pole 2g+1+2j).
    """
    g = model.genus
    if d < 2 * g + 1:
        raise DegreeTooSmall(f"need degree >= {2 * g + 1} for genus {g}")
    if g == 0:
        return [((d - i, i), i) for i in range(d + 1)]
    ypole = 2 * g + 1
    basis = [((i, 0), 2 * i) for i in range(d // 2 + 1)]
    basis += [((j, 1), ypole + 2 * j) for j in range((d - ypole) // 2 + 1)]
    basis.sort(key=lambda b: b[1])
    expected = d + 1 - g
    assert len(basis) == expected, (len(basis), expected)
    return basis


class CurveEmbedding(NamedTuple):
    """A curve embedded in P^r by O(d * P_inf), with its homogeneous ideal
    and the cone parametrization used by secant_join."""

    model: CurveModel
    d: int
    basis: tuple
    r: int
    ideal: Ideal
    parametrization: ConeParametrization

    def secant_spec(self, k: int) -> SecantSpec:
        return SecantSpec(k=k, base_ideal=self.ideal,
                          parametrization=self.parametrization)

    def evaluate(self, param) -> tuple:
        """Embedded coordinates of an affine curve point.

        ``param`` is a scalar t for genus 0 and an affine point (x, y)
        otherwise.
        """
        p = self.model.field.p
        if self.model.genus == 0:
            t = param % p
            return tuple(pow(t, e[1], p) for e, _ in self.basis)
        x, y = param[0] % p, param[1] % p
        if not self.model.contains_affine((x, y)):
            raise ValueError(f"({x}, {y}) is not on the curve")
        return tuple(pow(x, e[0], p) * pow(y, e[1], p) % p
                     for e, _ in self.basis)


def rational_normal_curve(d: int, field: PrimeField | None = None
                          ) -> CurveEmbedding:
    """Degree-d rational normal curve in P^d: the 2x2 minors of the
    Hankel matrix [[z0..z_{d-1}], [z1..z_d]], with the cone chart
    (s, t) -> s^(d-i) t^i by which secant_join recognises it."""
    if d < 1:
        raise DegreeTooSmall("need degree >= 1")
    field = field if field is not None else PrimeField(DEFAULT_PRIME)
    model = CurveModel(0, field)
    ring = PolyRing([f"z{i}" for i in range(d + 1)], field)
    pring = PolyRing(["s", "t"], field)
    s, t = pring.gen(0), pring.gen(1)
    images = tuple(s ** (d - i) * t ** i for i in range(d + 1))
    param = ConeParametrization(ring=pring, images=images,
                                weights=(1, 1), image_weight=d)
    basis = tuple(rr_basis(model, d))
    return CurveEmbedding(model, d, basis, d,
                          Ideal(ring, _hankel_minors(ring, 2)), param)


def embed(model: CurveModel, d: int) -> CurveEmbedding:
    """Embed the curve in P^{d-g} by the degree-d one-point linear system.

    Builds the graph ideal z_i - t*m_i(x, y) alongside the curve equation
    and eliminates {x, y, t} under a pole-order-weighted block order; the
    result is the saturated homogeneous ideal of the embedded curve.

    The cone chart gives x, y, t the weights 2, w_y, 1 (w_y = 2g + 1, the
    pole order of y) and sends (x, y, t) to t^(d - pole_i) m_i(x, y), each
    of weight d.  Its constraint is the curve equation homogenised by t to
    weight 2 w_y (x^i y^j gets t^(2 w_y - 2i - w_y j)).  Where t != 0, the
    substitution x = t^2 X, y = t^w_y Y turns this into the unweighted cone
    t^d * m_i(X, Y) over the curve w(X, Y) = 0, so the chart covers the same
    cone, and the secant join becomes weighted-homogeneous.
    """
    if model.genus == 0:
        return rational_normal_curve(d, model.field)
    basis = rr_basis(model, d)
    r = d - model.genus
    field = model.field
    znames = [f"z{i}" for i in range(r + 1)]
    names = ["x", "y", "t"] + znames
    wy = 2 * model.genus + 1
    weights = (2, wy, 1) + tuple(1 + pole for _, pole in basis)
    big = PolyRing(names, field, MonomialOrder.block_elim(3, weights))
    gens = [model.equation.compose(big.gens()[:2], big)]
    for i, (exps, _) in enumerate(basis):
        mono = big.monomial((exps[0], exps[1], 1) + (0,) * (r + 1))
        gens.append(big.gen(3 + i) - mono)
    gb = buchberger(gens, big, eliminate=3)
    target = PolyRing(znames, field, MonomialOrder.grevlex())
    ideal = Ideal(target, _subring_part(gb, 3, target))
    pring = PolyRing(["x", "y", "t"], field)
    images = tuple(pring.monomial((exps[0], exps[1], d - pole))
                   for exps, pole in basis)
    curve = pring.from_dict({(i, j, 2 * wy - 2 * i - wy * j): c
                             for (i, j), c in model.equation.terms})
    param = ConeParametrization(ring=pring, images=images,
                                constraints=(curve,), weights=(2, wy, 1),
                                image_weight=d)
    return CurveEmbedding(model, d, tuple(basis), r, ideal, param)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def sample_affine_points(model: CurveModel, count: int, seed: int = 0):
    """Deterministic sample of distinct affine curve points.

    Genus 0 yields parameter scalars; genus >= 1 yields (x, y) for seeded
    x values, y = -h/2 +- sqrt(h^2/4 + f) solving y^2 + h(x) y = f(x)
    (square roots by Tonelli-Shanks in the field layer).  The equation w
    gives h(x) = w(x, 1) - w(x, 0) - 1 and f(x) = -w(x, 0).
    """
    p = model.field.p
    rng = random.Random(seed)
    if model.genus == 0:
        if count > p:
            raise ValueError("not enough field elements")
        return rng.sample(range(p), count)
    pts = []
    xs = list(range(p))
    rng.shuffle(xs)
    w = model.equation
    inv2 = model.field.inv(2)
    for x in xs:
        if len(pts) == count:
            break
        f = -w.evaluate((x, 0)) % p
        half_h = (w.evaluate((x, 1)) + f - 1) * inv2 % p
        s = model.field.sqrt(half_h * half_h + f)
        if s is None:
            continue
        pts.append((x, (s - half_h) % p))
        if len(pts) < count and s != 0:
            pts.append((x, (-s - half_h) % p))
    if len(pts) < count:
        raise ValueError("curve has too few affine points over this field")
    return pts


def point_on_secant(emb: CurveEmbedding, k: int, params, coeffs,
                    secant_ideal: Ideal) -> PointedIdeal:
    """A witness point of Σ_k: the combination Σ c_j ν(P_j) of k+1 embedded
    curve points, checked against the supplied secant ideal."""
    if len(params) != k + 1 or len(coeffs) != k + 1:
        raise ValueError(f"need exactly {k + 1} points and coefficients")
    p = emb.model.field.p
    norm = [(prm % p if emb.model.genus == 0
             else (prm[0] % p, prm[1] % p)) for prm in params]
    if len(set(norm)) != len(norm):
        raise DuplicatePoints("secant witness points must be distinct")
    if any(c % p == 0 for c in coeffs):
        raise ValueError("combination coefficients must be nonzero")
    coords = [0] * (emb.r + 1)
    for prm, c in zip(norm, coeffs):
        for i, v in enumerate(emb.evaluate(prm)):
            coords[i] = (coords[i] + c * v) % p
    return PointedIdeal(secant_ideal, tuple(coords))


# ---------------------------------------------------------------------------
# curve description files
# ---------------------------------------------------------------------------

def _key_values(text: str, keys, repeatable=()):
    """Lazy (lineno, lower-cased key, value) per "key: value" line, past
    blanks and "#" comments; ValueError on a bad line, key or repeat."""
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key = key.strip().lower()
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        if key not in repeatable:
            seen.add(key)
        yield lineno, key, value.strip()


def parse_curve_file(text: str):
    """Parse "genus:", "field:", "equation:", "degree:" lines into a
    (CurveModel, degree) pair.  Each key appears at most once, and
    "equation:" only for genus >= 1."""
    fields, linenos = {}, {}
    for lineno, key, value in _key_values(
            text, ("genus", "field", "equation", "degree")):
        fields[key], linenos[key] = value, lineno
    for key in ("genus", "field", "degree"):
        if key not in fields:
            raise ValueError(f"missing '{key}:' line")
    try:
        genus = int(fields["genus"])
        prime = int(fields["field"])
        degree = int(fields["degree"])
    except ValueError:
        raise ValueError("genus, field, and degree must be integers")
    if prime <= MAX_PRIME and not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    field = PrimeField(prime)
    equation = None
    if "equation" in fields:
        if genus == 0:
            raise ValueError(f"line {linenos['equation']}: genus 0 takes no "
                             "equation")
        equation = PolyRing(["x", "y"], field).parse(fields["equation"])
    elif genus > 0:
        raise ValueError("genus >= 1 requires an 'equation:' line")
    model = CurveModel(genus, field, equation)
    return model, degree
