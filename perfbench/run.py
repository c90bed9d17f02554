#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload desk2d --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.
The last line of standard output is the result JSON (see ``bench.py``).
Without the program beside it the script exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk2d", "hd8")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="offset of the solvers' seeds (>= 0)")
    ap.add_argument("--seconds", type=float, default=45.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one untraced and one traced pass, report per-layer metrics")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "maxcon" / "__init__.py").is_file():
        print(f"perfbench: program sources not found in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import bench  # imports maxcon, numpy and scipy
        import maxcon
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(maxcon.__file__).resolve().parent != (src / "maxcon").resolve():
        print(f"perfbench: maxcon imported from {maxcon.__file__}, not {src}", file=sys.stderr)
        return 2
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
