"""Machine-speed references that the end-to-end timings are scaled by.

On a shared virtual machine a core's speed drifts by up to 1.7x over
seconds to minutes, and every wall-clock figure of a run moves with it:
one qcs trial re-run back to back took anywhere from 0.36 to 0.75 s.
The reference is a fixed loop of small numpy operations, the kind of
call the qcs engines spend their time in, and it touches no qcs code.
The harness runs it around every config it times and scales that
config's wall time by `NOMINAL_S / reference time`, so a timing reads
as it would on a machine where the reference takes `NOMINAL_S`.

On a 2-core virtual machine (Python 3.11, numpy 2.4), scaling by the
reference run next to each trial cut the spread of one-minute timings
of the same trials from 0.11-0.16 to about 0.01 of their median.  A
change to qcs moves the scaled figures exactly as it moves the wall
time, because the reference does not run qcs.

Set-up time, a fresh interpreter importing qcs, does not follow that
reference; it follows the start of a fresh interpreter that imports
numpy, `import_seconds`.  Scaling by it cut the range of four medians
of ten probes from 0.20 to 0.07 of their median on the same machine.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

NOMINAL_S = 0.008  # the reference's typical time on the machine above
IMPORT_NOMINAL_S = 0.18  # import_seconds' typical time there
_ROUNDS = 300


def seconds() -> float:
    """Run the reference once and return its wall time in seconds."""
    t0 = perf_counter()
    a = np.random.default_rng(1).integers(0, 100, 300)
    for i in range(_ROUNDS):
        c = np.cumsum(a[a > i % 50]) % 7
        int(c.sum()) + int(np.argmax(c))
        a = np.roll(a, 1)
    return perf_counter() - t0


def import_seconds(cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return perf_counter() - t0
