"""Peak memory of the batch simulator: the simulation-vs-law ledger check
in a fresh interpreter, and ``simulate`` alone under tracemalloc."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sympgt
from sympgt.dynamics import SimConfig, _Layout, simulate


def test_simulation_vs_law_check_peak_rss():
    # 1e5 replicas at N = 2: the check peaked at 49 MB, about 35 MB of it
    # the imports; when each round held (replicas, events) arrays of rates,
    # gathers and cumulative sums, at 68 MB.  VmHWM is the peak of this
    # process image alone; ru_maxrss keeps the peak of the forking test
    # process
    code = ("import re\n"
            "from sympgt.acceptance import check_simulation_vs_law\n"
            "print(check_simulation_vs_law()['passed'])\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    passed, peak_kib = out.stdout.split()
    assert passed == "True"
    assert int(peak_kib) / 1024 <= 60


def _simulate_peak(N: int, a: tuple, replicas: int) -> int:
    """Bytes simulate holds at its peak over what is traced before it."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    simulate(SimConfig("randomized", N, a, 0.5, 0.5, replicas, 1))
    return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("N, a", [(2, (1.0,)), (4, (1.1, 0.8)), (6, (1.2, 0.9, 1.1))])
def test_simulate_peak_per_replica(N, a):
    # the batch (P + 2 doubles a row), its clocks and waits and the
    # sampler's and the histogram's passes over it: 11, 17 and 22 doubles a
    # replica at N = 2, 4 and 6, against 27, 85 and 178 when each round held
    # (replicas, events) arrays
    P = _Layout(N).P
    tracemalloc.start()
    try:
        _simulate_peak(N, a, 100)  # numpy's first-call allocations
        grown = _simulate_peak(N, a, 100000) - _simulate_peak(N, a, 20000)
    finally:
        tracemalloc.stop()
    assert grown <= 8 * (4 * P + 16) * 80000
