"""Peak memory of the three-fold contour moment, in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import sympgt


def test_three_fold_contour_moment_peak_rss():
    # the deformed circles hold 32^3 nodes per group at once: the call
    # peaked at 35 MB (30 MB of it the imports), the nested circles' 256^3
    # grids at 560 MB.  VmHWM is the peak of this process image alone;
    # ru_maxrss keeps the peak of the forking test process
    code = ("import re\n"
            "from sympgt.spectral import contour_moment\n"
            "print(repr(contour_moment(1, 3, 0.25, (1.3,), 0.7)))\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    value, peak_kib = out.stdout.split()
    # the operator route's value
    assert abs(float(value) - 2.5334257896846775) <= 1e-9 * 2.5334257896846775
    assert int(peak_kib) / 1024 <= 48
