"""Byte-for-byte checks of the ``--format json`` output against stored files.

The inputs and the expected stdout live in ``tests/golden/``; each case
also names the exit code its run must return.  To rewrite the expected
files after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from secantlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name of the expected stdout -> (exit code, argv)
CASES = {
    "verify_rnc5_k1.json": (0, ["verify", "--file", "rnc5.curve", "--k", "1"]),
    "verify_elliptic5_k1.json": (0, ["verify", "--file", "elliptic5.curve",
                                     "--k", "1"]),
    "verify_rnc6_k2_max4.json": (0, ["verify", "--file", "rnc6.curve", "--k",
                                     "2", "--max-degree", "4"]),
    # k = 3 from the Hankel 5-minors; the join took over two minutes
    "verify_rnc10_k3.json": (0, ["verify", "--file", "rnc10.curve", "--k",
                                 "3"]),
    # genus 1, k = 2: Σ_2 is the hypersurface of one septic in P^6
    "verify_elliptic7_k2.json": (0, ["verify", "--file", "elliptic7.curve",
                                     "--k", "2"]),
    # mismatch rows and the ndp_window lower-bound match
    "verify_genus2_6_k1.json": (1, ["verify", "--file", "genus2_6.curve",
                                    "--k", "1"]),
    # genus 3: the degree term C(g, 2) = 3, which is 0 or 1 for genus <= 2,
    # and the corner C(g+k, k+1) = 6
    "verify_genus3_9_k1.json": (0, ["verify", "--file", "genus3_9.curve",
                                    "--k", "1"]),
    # genus 1 truncated: at 4 every table-read row is skipped, at 6 the
    # canonical corner degree 6 is inside the bound and computed
    "verify_elliptic6_k1_max4.json": (0, ["verify", "--file",
                                          "elliptic6.curve", "--k", "1",
                                          "--max-degree", "4"]),
    "verify_elliptic6_k1_max6.json": (0, ["verify", "--file",
                                          "elliptic6.curve", "--k", "1",
                                          "--max-degree", "6"]),
    # the basis of Σ_1's Hankel minors takes at most 5 S-pairs for d=5
    # and more for d=6, where every row is skipped
    "verify_rnc5_k1_budget5.json": (0, ["verify", "--file", "rnc5.curve",
                                        "--k", "1", "--pair-budget", "5"]),
    "verify_rnc6_k1_budget5.json": (3, ["verify", "--file", "rnc6.curve",
                                        "--k", "1", "--pair-budget", "5"]),
    "betti_twisted_cubic.json": (0, ["betti", "--ideal-file",
                                     "twisted_cubic.ideal"]),
    "betti_rational_quartic.json": (0, ["betti", "--ideal-file",
                                        "rational_quartic.ideal"]),
    "betti_rational_quartic_max4.json": (0, ["betti", "--ideal-file",
                                             "rational_quartic.ideal",
                                             "--max-degree", "4"]),
    # the 3x3 minors of the 3x7 Hankel matrix (Σ_1 of the RNC of degree
    # 8): the uncut strands of the truncated path
    "betti_hankel8_max4.json": (0, ["betti", "--ideal-file", "hankel8.ideal",
                                    "--max-degree", "4"]),
}


def _run(argv):
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    expected_code, argv = CASES[name]
    code, out = _run(argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, (expected_code, argv) in CASES.items():
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / name).write_text(out)
