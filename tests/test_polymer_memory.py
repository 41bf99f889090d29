"""Peak memory of the polymer identity check: in a fresh interpreter, and
of the sampler alone under tracemalloc."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sympgt
from sympgt.continuous import _BLOCK, _drift_ladder, _polymer_samples


def test_polymer_identity_check_peak_rss():
    # block-major, each sampler holds three (256, 513) buffers and its
    # output, and level 1 draws 256 paths of normals at a time: the check
    # peaked at 47 MB (35 MB of it the imports), at 52 MB with level 1's
    # (2000, 512) normals drawn at once, and with the level-major sampler's
    # (2e4, 513) running integral at 122 MB.
    # VmHWM is the peak of this process image alone; ru_maxrss keeps the
    # peak of the forking test process
    code = ("import re\n"
            "from sympgt.acceptance import check_polymer_identity\n"
            "print(check_polymer_identity()['passed'])\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))")
    src = str(Path(sympgt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    passed, peak_kib = out.stdout.split()
    assert passed == "True"
    assert int(peak_kib) / 1024 <= 50


def _sampler_peak(replicas: int, integrated: bool) -> int:
    """Bytes the sampler holds at its peak over what is traced before it."""
    rng = np.random.Generator(np.random.Philox(1))
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    _polymer_samples(rng, _drift_ladder((0.9, 0.4), 2), 2.0, replicas, integrated)
    return tracemalloc.get_traced_memory()[1] - base


@pytest.mark.parametrize("integrated", [False, True])
def test_sampler_peak_does_not_grow_with_the_replicas(integrated):
    # 3.2 MB at both sizes; the level-major sampler peaked at 5.4 and 11.7 MB
    small, large = 2 * _BLOCK + 17, 8 * _BLOCK + 17
    tracemalloc.start()
    try:
        _sampler_peak(17, integrated)  # numpy's first-call allocations
        grown = _sampler_peak(large, integrated) - _sampler_peak(small, integrated)
    finally:
        tracemalloc.stop()
    assert grown <= np.empty(large).nbytes
