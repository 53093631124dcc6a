"""Expected answers, from closed forms the program does not compute itself.

* Degree of the k-th secant variety of a curve of genus g and degree d
  (d >= 2g + 2k + 1):  sum_i C(d - g - k - i, k + 1 - i) C(g, i);
  dimension 2k + 1.
* The first secant variety of the rational normal curve of degree d is cut
  out by the 3x3 minors of a 3 x (d-1) Hankel matrix, resolved by the
  Eagon-Northcott complex: beta_{i,i+2} = C(d-1, i+2) C(i+1, 2) for
  1 <= i <= d-3 (Eagon & Northcott 1962; Eisenbud, The Geometry of
  Syzygies, ch. 6).  Regularity, N_{3,p} window, ACM-ness, generator degree
  and the corner Koszul group follow from that table.
* Sigma_k of the rational normal curve is generated by (k+2)-minors, so in
  degree k + 2.
* Elliptic sextic, k = 1 (acceptance AC-4): table {1; 2 cubics; 1}, so
  minimal generators in degree 3.

A verify row is expected as (computed, judged): judged rows must read
"match", the others "skipped(...)".
"""

from __future__ import annotations

from math import comb


def secant_degree(g: int, d: int, k: int) -> int:
    return sum(comb(d - g - k - i, k + 1 - i) * comb(g, i)
               for i in range(min(k + 1, g) + 1))


def eagon_northcott(d: int) -> dict:
    """Betti table {(i, j): beta} of S/I, I = 3x3 minors of the 3 x (d-1)
    Hankel matrix in d + 1 variables."""
    table = {(0, 0): 1}
    for i in range(1, d - 2):
        table[(i, i + 2)] = comb(d - 1, i + 2) * comb(i + 1, 2)
    return table


def rnc_secant_rows(d: int) -> dict:
    """Untruncated `verify --k 1` rows for the rational normal curve."""
    B = eagon_northcott(d)
    reg = max(j - i for i, j in B)
    pd = max(i for i, _ in B)
    ndp = -1
    while ndp < pd and all(j - i < 3 for i, j in B if 0 < i <= ndp + 1):
        ndp += 1
    return {
        "dim": (3, True),
        "degree": (secant_degree(0, d, 1), True),
        "reg_structure_sheaf": (reg, True),
        "reg_embedded": (reg + 1, True),
        "ndp_window": (ndp, True),
        "acm": (pd == d - 3, True),
        "min_gen_degree": (min(j for i, j in B if i == 1), True),
        # corner Koszul group K_{r-2k-1, 2k+2} with r = d, k = 1
        "canonical_h0": (B.get((d - 3, d + 1), 0), True),
        "corner": (None, False),
    }


_MIN_GEN_DEGREE = {  # (g, d, k) -> (degree, judged)
    (1, 6, 1): (3, True),
}


def truncated_rows(g: int, d: int, k: int) -> dict:
    """`verify --max-degree 4` rows: only dim, degree and the generator
    degree are computed; everything else is skipped as truncated."""
    mg = (k + 2, True) if g == 0 else _MIN_GEN_DEGREE[(g, d, k)]
    rows = {name: (None, False) for name in (
        "reg_structure_sheaf", "reg_embedded", "ndp_window", "acm",
        "canonical_h0", "corner")}
    rows.update({"dim": (2 * k + 1, True),
                 "degree": (secant_degree(g, d, k), True),
                 "min_gen_degree": mg})
    return rows


def hankel_truncated_betti(d: int, max_degree: int) -> dict:
    """`betti --ideal-file --max-degree` JSON fields for the Hankel minors."""
    table = eagon_northcott(d)
    return {
        "entries": [[i, j, b] for (i, j), b in sorted(table.items())
                    if j <= max_degree],
        "degree": secant_degree(0, d, 1),
        "dimension": 3,
        "r": d,
        "truncated_at": max_degree,
    }


def check_verify(report: dict, rows: dict) -> list:
    """Differences between a verify JSON report and the expected rows.
    Rows the table does not list are left to verify's own exit code."""
    got = {r["name"]: r for r in report["rows"]}
    errors = []
    for name, (value, judged) in rows.items():
        row = got.get(name)
        if row is None:
            errors.append(f"{name}: row missing")
            continue
        if row["computed"] != value:
            errors.append(f"{name}: computed {row['computed']!r}, "
                          f"expected {value!r}")
        verdict = row["verdict"]
        if (verdict != "match") if judged \
                else not verdict.startswith("skipped("):
            errors.append(f"{name}: verdict {verdict!r}")
    return errors


def check_betti(out: dict, fields: dict) -> list:
    return [f"{key}: {out.get(key)!r}, expected {value!r}"
            for key, value in fields.items() if out.get(key) != value]
