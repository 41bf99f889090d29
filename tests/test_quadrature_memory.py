"""Peak memory of the Phi kernel quadrature and of the torus quadrature:
under tracemalloc, and of a rank-2 convergence table in a fresh interpreter."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sympgt
from sympgt.continuous import log_phi
from sympgt.spectral import TorusQuadrature


def _traced_peak_mib(f) -> float:
    """MiB that f holds at its peak over what is traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def _torus_spectrum():
    TorusQuadrature(3, 64, 0.4).weight_spectrum


@pytest.mark.parametrize("f, bound", [
    # the levels in row blocks of 256 grid points: 0.9 and 1.1 MiB, with
    # level 3 formed whole 23.2
    (lambda: log_phi(4, (0.9, 0.4), (0.5, -0.3)), 3),
    (lambda: log_phi(4, (0.7j, 0.3j), (0.5, -0.3)), 3),
    # 4.1 MiB, with level 2's 1000^2 kernel formed whole 15.4
    (lambda: log_phi(3, (0.9, 0.4), (0.5, -0.3)), 8),
    (lambda: log_phi(3, (0.7j, 0.3j), (0.5, -0.3)), 8),
    # the 64^3 weight and its spectrum transformed in place: 6.0 MiB, with
    # fftn's copies 10.0
    (_torus_spectrum, 7),
], ids=["phi4", "phi4-imaginary", "phi3", "phi3-imaginary", "torus-rank3"])
def test_traced_peak(f, bound):
    assert _traced_peak_mib(f) <= bound


def test_rank_two_convergence_table_peak_rss():
    # the table's so(5) target is one log_phi at N = 4: the call peaked at
    # 35 MB (about as much as the imports), with level 3 formed whole at
    # 58 MB.  VmHWM is the peak of this process image alone; ru_maxrss keeps
    # the peak of the forking test process
    code = ("import re\n"
            "from sympgt.limits import convergence_table\n"
            "print(len(convergence_table(2, (0.7, 0.3), [(0.0, -1.0)], [0.1])))\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    rows, peak_kib = out.stdout.split()
    assert rows == "1"
    assert int(peak_kib) / 1024 <= 40
