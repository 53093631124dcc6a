"""Byte-for-byte checks of the ``--format json`` output against stored files.

The inputs and the expected stdout live in ``tests/golden/``.  To rewrite
the expected files after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from secantlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify_rnc5_k1.json": ["verify", "--file", "rnc5.curve", "--k", "1"],
    "verify_elliptic5_k1.json": ["verify", "--file", "elliptic5.curve",
                                 "--k", "1"],
    "verify_rnc6_k2_max4.json": ["verify", "--file", "rnc6.curve", "--k",
                                 "2", "--max-degree", "4"],
    "betti_twisted_cubic.json": ["betti", "--ideal-file",
                                 "twisted_cubic.ideal"],
    "betti_rational_quartic.json": ["betti", "--ideal-file",
                                    "rational_quartic.ideal"],
    "betti_rational_quartic_max4.json": ["betti", "--ideal-file",
                                         "rational_quartic.ideal",
                                         "--max-degree", "4"],
}


def _run(argv):
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "json"])
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out)
