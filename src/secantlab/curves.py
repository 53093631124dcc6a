"""Curve models of genus 0, 1, 2 over F_p and their projective embeddings.

A curve is embedded by the complete linear system of O(d * P_inf): genus 0
gives the rational normal curve directly, genus 1 and 2 use an explicit
monomial basis of functions with bounded pole order at infinity and realize
the image ideal by a weighted graph elimination.  The embeddings seed
secant_join and carry a weighted-homogeneous cone parametrization for its
fast path: (s, t) -> s^(d-i) t^i for genus 0, and for genus 1 and 2 the
images t^(d - pole) m(x, y) of weight d under the weights (2, w_y, 1) of
(x, y, t), w_y = 3 or 5, cut out by the curve equation homogenised by t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import DEFAULT_PRIME, PrimeField, is_prime
from .gb import Ideal, buchberger
from .ideal_ops import (ConeParametrization, PointedIdeal, SecantSpec,
                        _ideal_with_gb, _subring_part, _transplant)
from .poly import MonomialOrder, PolyRing, Polynomial


class DegreeTooSmall(ValueError):
    """The line bundle degree is below the very-ample range."""


class DuplicatePoints(ValueError):
    """Secant witness points must be pairwise distinct."""


# ---------------------------------------------------------------------------
# univariate helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _uni_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _uni_mod(f, g, p):
    f = list(f)
    while len(f) >= len(g):
        c = f[-1] * pow(g[-1], p - 2, p) % p
        off = len(f) - len(g)
        for i, gi in enumerate(g):
            f[off + i] = (f[off + i] - c * gi) % p
        _uni_trim(f)
        if not f:
            break
    return f


def _uni_gcd_degree(f, g, p):
    f = _uni_trim([c % p for c in f])
    g = _uni_trim([c % p for c in g])
    while g:
        f, g = g, _uni_mod(f, g, p)
    return len(f) - 1


def _uni_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# curve models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveModel:
    """Genus 0 (no equation), genus 1 (Weierstrass w(x, y)), or genus 2
    (y^2 - f(x), deg f = 5 squarefree) over a prime field."""

    genus: int
    field: PrimeField
    equation: Polynomial | None = None

    def __post_init__(self):
        g = self.genus
        if g not in (0, 1, 2):
            raise ValueError("genus must be 0, 1, or 2")
        if g == 0:
            if self.equation is not None:
                raise ValueError("genus 0 takes no equation")
            return
        if self.field.p == 2:
            raise ValueError("odd characteristic required for genus >= 1")
        eq = self.equation
        if eq is None or eq.ring.variables != ("x", "y"):
            raise ValueError("equation must live in a ring with variables "
                             "(x, y)")
        if eq.ring.field != self.field:
            raise ValueError("equation field does not match the model field")
        coeffs = dict(eq.terms)
        p = self.field.p
        if g == 1:
            allowed = {(0, 2), (1, 1), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}
            if set(coeffs) - allowed or coeffs.get((0, 2)) != 1 \
                    or coeffs.get((3, 0)) != p - 1:
                raise ValueError(
                    "genus 1 needs a Weierstrass equation "
                    "y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6")
            if self._weierstrass_discriminant() == 0:
                raise ValueError("singular Weierstrass model (discriminant 0)")
        else:
            if coeffs.get((0, 2)) != 1 or any(j not in (0, 2) or (j == 2 and i)
                                              for i, j in coeffs):
                raise ValueError("genus 2 needs an equation y^2 - f(x)")
            f = self._hyperelliptic_poly()
            deg = len(f) - 1
            if deg >= 0 and deg % 2 == 0 and deg >= 4:
                raise ValueError("even-degree model rejected")
            if deg != 5:
                raise ValueError("genus 2 needs deg f = 5")
            fprime = [(i * c) % p for i, c in enumerate(f)][1:]
            if _uni_gcd_degree(f, fprime, p) != 0:
                raise ValueError("f must be squarefree (gcd(f, f') = 1)")

    def _coeff(self, i, j):
        return dict(self.equation.terms).get((i, j), 0)

    def weierstrass_coefficients(self):
        """(a1, a2, a3, a4, a6) of w = y^2 + a1xy + a3y - x^3 - ..."""
        p = self.field.p
        return (self._coeff(1, 1), (-self._coeff(2, 0)) % p,
                self._coeff(0, 1), (-self._coeff(1, 0)) % p,
                (-self._coeff(0, 0)) % p)

    def _weierstrass_discriminant(self):
        p = self.field.p
        a1, a2, a3, a4, a6 = self.weierstrass_coefficients()
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (2 * a4 + a1 * a3) % p
        b6 = (a3 * a3 + 4 * a6) % p
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
              - a4 * a4) % p
        return (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6
                + 9 * b2 * b4 * b6) % p

    def _hyperelliptic_poly(self):
        """f with the model y^2 = f(x), low degree first."""
        p = self.field.p
        top = max((i for i, j in dict(self.equation.terms) if j == 0),
                  default=-1)
        return _uni_trim([(-self._coeff(i, 0)) % p for i in range(top + 1)])

    def contains_affine(self, pt) -> bool:
        return self.genus == 0 or self.equation.evaluate(pt) == 0


# ---------------------------------------------------------------------------
# Riemann-Roch bases and embeddings
# ---------------------------------------------------------------------------

def rr_basis(model: CurveModel, d: int):
    """Monomial basis of the functions with pole order <= d at infinity,
    as (exponent pair, pole order), sorted by pole order.

    Genus 0: all degree-d monomials in two parameters (s, t).  Genus 1: x^i
    (pole 2i) and y*x^j (pole 3+2j).  Genus 2: x^i (pole 2i) and y*x^j
    (pole 5+2j).
    """
    g = model.genus
    if d < 2 * g + 1:
        raise DegreeTooSmall(f"need degree >= {2 * g + 1} for genus {g}")
    if g == 0:
        return [((d - i, i), i) for i in range(d + 1)]
    ypole = 3 if g == 1 else 5
    basis = [((i, 0), 2 * i) for i in range(d // 2 + 1)]
    basis += [((j, 1), ypole + 2 * j) for j in range((d - ypole) // 2 + 1)]
    basis.sort(key=lambda b: b[1])
    expected = d + 1 - g
    assert len(basis) == expected, (len(basis), expected)
    return basis


@dataclass(frozen=True)
class CurveEmbedding:
    """A curve embedded in P^r by O(d * P_inf), with its homogeneous ideal
    and the cone parametrization used by secant_join."""

    model: CurveModel
    d: int
    basis: tuple
    r: int
    ideal: Ideal
    parametrization: ConeParametrization

    def secant_spec(self, k: int) -> SecantSpec:
        return SecantSpec(k=k, ambient_dim=self.r, base_ideal=self.ideal,
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
    """Degree-d rational normal curve: 2x2 minors of the Hankel matrix
    [[z0..z_{d-1}], [z1..z_d]] in P^d."""
    if d < 1:
        raise DegreeTooSmall("need degree >= 1")
    field = field if field is not None else PrimeField(DEFAULT_PRIME)
    model = CurveModel(0, field)
    names = [f"z{i}" for i in range(d + 1)]
    ring = PolyRing(names, field)
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            gens.append(ring.gen(i) * ring.gen(j + 1)
                        - ring.gen(i + 1) * ring.gen(j))
    pring = PolyRing(["s", "t"], field)
    s, t = pring.gen(0), pring.gen(1)
    images = tuple(s ** (d - i) * t ** i for i in range(d + 1))
    param = ConeParametrization(ring=pring, images=images,
                                weights=(1, 1), image_weight=d)
    basis = tuple(rr_basis(model, d))
    return CurveEmbedding(model, d, basis, d, Ideal(ring, gens), param)


def embed(model: CurveModel, d: int, pair_budget=None) -> CurveEmbedding:
    """Embed the curve in P^{d-g} by the degree-d one-point linear system.

    Builds the graph ideal z_i - t*m_i(x, y) alongside the curve equation
    and eliminates {x, y, t} under a pole-order-weighted block order; the
    result is the saturated homogeneous ideal of the embedded curve.

    The cone chart gives x, y, t the weights 2, w_y, 1 (w_y = 3 for genus
    1, 5 for genus 2) and sends (x, y, t) to t^(d - pole_i) m_i(x, y), each
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
    wy = 3 if model.genus == 1 else 5
    weights = (2, wy, 1) + tuple(1 + pole for _, pole in basis)
    big = PolyRing(names, field, MonomialOrder.block_elim(3, weights))
    w = _transplant(model.equation, big, [0, 1])
    gens = [w]
    for i, (exps, _) in enumerate(basis):
        mono = big.monomial((exps[0], exps[1], 1) + (0,) * (r + 1))
        gens.append(big.gen(3 + i) - mono)
    gb = buchberger(gens, big, pair_budget=pair_budget)
    target = PolyRing(znames, field, MonomialOrder.grevlex())
    ideal = _ideal_with_gb(target, _subring_part(gb, 3, target))
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

    Genus 0 yields parameter scalars; genus >= 1 yields (x, y) with y
    obtained from seeded x values via square roots (Tonelli-Shanks in the
    field layer).
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
    if model.genus == 1:
        a1, a2, a3, a4, a6 = model.weierstrass_coefficients()
        inv2 = model.field.inv(2)
        for x in xs:
            if len(pts) == count:
                break
            b = (a1 * x + a3) % p
            c = (x * x * x + a2 * x * x + a4 * x + a6) % p
            disc = (b * b + 4 * c) % p
            s = model.field.sqrt(disc)
            if s is None:
                continue
            y = (s - b) * inv2 % p
            pts.append((x, y))
            if len(pts) < count and s != 0:
                pts.append((x, (-s - b) * inv2 % p))
    else:
        f = model._hyperelliptic_poly()
        for x in xs:
            if len(pts) == count:
                break
            s = model.field.sqrt(_uni_eval(f, x, p))
            if s is None:
                continue
            pts.append((x, s))
            if len(pts) < count and s != 0:
                pts.append((x, p - s))
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

def parse_curve_file(text: str):
    """Parse "genus:", "field:", "equation:", "degree:" lines into a
    (CurveModel, degree) pair."""
    fields = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        fields[key.strip().lower()] = value.strip()
    for key in ("genus", "field", "degree"):
        if key not in fields:
            raise ValueError(f"missing '{key}:' line")
    try:
        genus = int(fields["genus"])
        prime = int(fields["field"])
        degree = int(fields["degree"])
    except ValueError:
        raise ValueError("genus, field, and degree must be integers")
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    field = PrimeField(prime)
    equation = None
    if genus != 0:
        if "equation" not in fields:
            raise ValueError("genus >= 1 requires an 'equation:' line")
        ring = PolyRing(["x", "y"], field)
        equation = ring.parse(fields["equation"])
    model = CurveModel(genus, field, equation)
    return model, degree


def format_curve_file(model: CurveModel, degree: int) -> str:
    lines = [f"genus: {model.genus}", f"field: {model.field.p}"]
    if model.equation is not None:
        lines.append(f"equation: {model.equation}")
    lines.append(f"degree: {degree}")
    return "\n".join(lines) + "\n"
