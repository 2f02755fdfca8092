"""qcs benchmark entry point.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

It checks that the checkout holds the qcs sources, caps BLAS threads at
the cores this process may use, puts `src/` first on the import path and
hands over to harness.py, which runs and reports the workload.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the sources it exits with code 2
and prints nothing to standard output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import envinfo

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcs" / "__init__.py").is_file():
        print(f"bench: no qcs sources at {SRC}", file=sys.stderr)
        return 2
    envinfo.cap_blas_threads()  # before numpy loads OpenBLAS
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
