"""Peak memory of the three-fold contour moment, in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import sympgt


def test_three_fold_contour_moment_peak_rss():
    # one 256^3 complex grid is 256 MiB; the moment needs two of them alive
    code = ("import resource\n"
            "from sympgt.spectral import contour_moment\n"
            "print(repr(contour_moment(1, 3, 0.25, (1.3,), 0.7)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    value, maxrss_kib = out.stdout.split()
    assert value == "2.533425787248702"
    assert int(maxrss_kib) / 1024 <= 640
