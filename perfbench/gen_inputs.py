"""Seeded inputs for the benchmark workloads: curve files and catalecticant
ideal files.

Deliberately imports nothing from secantlab: the program under test only
ever sees the files written here.  The same seed gives byte-identical files.

Seed 0 uses the acceptance-suite curve y^2 - x^3 - 4*x - 1 (genus 1) and
the catalecticant minors as they are.  Other seeds draw the two nonzero
coefficients a, b of y^2 - x^3 - a*x - b (same support, so the elimination
does the same work on every seed), redrawing until the curve is smooth, and
rescale the variables of the catalecticant ideals by nonzero constants.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

PRIME = 32003


def _short_weierstrass_smooth(a: int, b: int, p: int) -> bool:
    # discriminant of x^3 + a x + b is -(4 a^3 + 27 b^2)
    return (4 * a ** 3 + 27 * b * b) % p != 0


def _elliptic_coefficients(seed: int, p: int):
    if seed == 0:
        return 4, 1
    rng = random.Random(f"{seed}:genus1")
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if _short_weierstrass_smooth(a, b, p):
            return a, b


def curve_text(genus: int, degree: int, seed: int, p: int = PRIME) -> str:
    lines = [f"genus: {genus}", f"field: {p}"]
    if genus == 1:
        a, b = _elliptic_coefficients(seed, p)
        lines.append(f"equation: y^2 - x^3 - {a}*x - {b}")
    lines.append(f"degree: {degree}")
    return "\n".join(lines) + "\n"


def _det3(rows) -> dict:
    """3x3 determinant of a matrix of variable indices, as a dict
    sorted index tuple -> integer coefficient (Leibniz expansion)."""
    out = {}
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3)
                         for j in range(i + 1, 3))
        mon = tuple(sorted(rows[i][perm[i]] for i in range(3)))
        out[mon] = out.get(mon, 0) + (-1) ** inversions
    return {m: c for m, c in out.items() if c}


def _format(poly: dict, names) -> str:
    text = ""
    for mon, c in sorted(poly.items()):
        body = "*".join(names[v] if e == 1 else f"{names[v]}^{e}"
                        for v, e in sorted(Counter(mon).items()))
        term = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not text:
            text = term if c > 0 else f"-{term}"
        else:
            text += f" {'+' if c > 0 else '-'} {term}"
    return text


def _rescale(poly: dict, scale, p: int) -> dict:
    """poly with each variable v replaced by scale[v] * v; coefficients as
    signed residues mod p."""
    out = {}
    for mon, c in poly.items():
        for v in mon:
            c = c * scale[v] % p
        out[mon] = c - p if c > p // 2 else c
    return out


def hankel_minors_text(d: int, seed: int, p: int = PRIME) -> str:
    """Ideal file of the 3x3 minors of the 3 x (d-1) Hankel matrix
    (x_{i+j}): the ideal of the first secant variety of the rational
    normal curve of degree d in P^d, up to a seeded rescaling of the
    variables, which keeps the Betti table and the Groebner basis work."""
    names = [f"x{i}" for i in range(d + 1)]
    scale = [1] * (d + 1)
    if seed != 0:
        rng = random.Random(f"{seed}:hankel{d}")
        scale = [rng.randrange(1, p) for _ in names]
    lines = [f"field: {p}", f"variables: {', '.join(names)}"]
    for cols in combinations(range(d - 1), 3):
        rows = [[i + j for j in cols] for i in range(3)]
        minor = _rescale(_det3(rows), scale, p)
        lines.append(f"generator: {_format(minor, names)}")
    return "\n".join(lines) + "\n"
