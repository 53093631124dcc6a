"""Set-up probe: import the secantlab CLI and parse every input file given,
without computing anything.

    python3 setup_probe.py SRC_DIR FILE...

Fails if secantlab is not imported from SRC_DIR.
"""

import os
import sys

from secantlab import cli

src = os.path.realpath(sys.argv[1])
if not os.path.realpath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"secantlab imported from {cli.__file__}, not from {src}")
for path in sys.argv[2:]:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".ideal"):
        cli.parse_ideal_file(text)
    else:
        cli.parse_curve_file(text)
