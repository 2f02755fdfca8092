"""Set-up probe: in a fresh interpreter, import qcs and build a workload's chunks.

run.py times this script end to end as the `setup_s` metric.  Usage:
    python3 bench/setup_probe.py WORKLOAD SEED SIZE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qcs  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_chunks(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "tiny")
