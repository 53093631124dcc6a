"""Reference constructions for the secant join, used only as test oracles.

``secant_join`` certifies its ideal, the rational normal curve's Hankel
minors or the join of any other curve, by the last-variable criterion,
which always holds because that ideal is prime.  These slower routes
check it from outside: the full irrelevant-ideal saturation (through
``intersect``) and the textbook (k+1)-block join.  ``buchberger`` is bound
here, at module level, so that a test can spy on the eliminations they
run.
"""

from secantlab.gb import Ideal, buchberger
from secantlab.ideal_ops import SecantSpec, _fresh_names, _subring_part
from secantlab.poly import MonomialOrder, PolyRing, Polynomial


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via t·I + (1−t)·J and elimination of t."""
    ring = I.ring
    t = _fresh_names(1, ring.variables, "t_cap")[0]
    big = PolyRing([t] + list(ring.variables), ring.field,
                   MonomialOrder.block_elim(1))
    tv, *xs = big.gens()
    gens = [tv * g.compose(xs, big) for g in I.generators]
    gens += [(big.constant(1) - tv) * g.compose(xs, big)
             for g in J.generators]
    gb = buchberger(gens, big, eliminate=1)
    kept = _subring_part(gb, 1, ring)
    return Ideal(ring, kept)


def _strip_last(gb, ring: PolyRing) -> list:
    """Each element of a grevlex basis divided by the highest power of the
    last variable dividing it: a basis of (I : x_last^∞)."""
    last = ring.nvars - 1
    out = []
    for g in gb:
        a = min(mon[last] for mon, _ in g.terms)
        out.append(Polynomial(ring, tuple(
            (mon[:last] + (mon[last] - a,), c) for mon, c in g.terms))
            if a else g)
    return out


def saturate_irrelevant(I: Ideal) -> Ideal:
    """Full saturation with respect to the irrelevant ideal: intersect the
    saturations by every single variable."""
    ring = I.ring
    n = ring.nvars
    out = None
    for i in range(n):
        # move variable i into the grevlex-cheapest slot and saturate by it
        perm = list(range(n))
        perm[i], perm[-1] = perm[-1], perm[i]
        R = PolyRing([ring.variables[j] for j in perm], ring.field,
                     MonomialOrder.grevlex())
        # a swap is its own inverse
        to_R = [R.gen(j) for j in perm]
        back = [ring.gen(j) for j in perm]
        gb = buchberger([g.compose(to_R, R) for g in I.generators], R)
        Ji = Ideal(ring, [g.compose(back, ring) for g in _strip_last(gb, R)])
        out = Ji if out is None else intersect(out, Ji)
    return out


def join_literal(spec: SecantSpec):
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
        ys = big.gens()[j * n:(j + 1) * n]
        gens += [f.compose(ys, big) for f in spec.base_ideal.generators]
    for i in range(n):
        s = big.gen(nb * n + i)
        for j in range(nb):
            s = s - big.gen(j * n + i)
        gens.append(s)
    gb = buchberger(gens, big, eliminate=nb * n)
    return _subring_part(gb, nb * n, ring)
