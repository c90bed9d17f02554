#!/usr/bin/env python3
"""Solver comparison on synthetic two-view instances (epipolar / homography).

Generates correspondences with controlled algebraic residuals against a
planted matrix (the two-view generators of ``maxcon.datagen``: inliers within
0.8 eps, outliers beyond 10 eps), linearises them, and compares the
influence-guided solver against the RANSAC baselines at matched evaluation
budgets.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from maxcon.datagen import synthetic_fm_instance, synthetic_h_instance
from maxcon.solvers import solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", choices=["fundamental", "homography"], default="fundamental")
    ap.add_argument("--matches", type=int, default=40)
    ap.add_argument("--outliers", type=int, default=12)
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--q", type=float, default=None, help="default: the solver's, clamped")
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--repetitions", type=int, default=20)
    ap.add_argument("--seed", type=int, default=3000)
    ap.add_argument("--out", default="two_view_trends.csv")
    args = ap.parse_args()

    make = synthetic_fm_instance if args.model == "fundamental" else synthetic_h_instance
    eps = args.eps if args.eps is not None else (0.02 if args.model == "fundamental" else 0.1)
    rows = []
    for rep in range(args.repetitions):
        dataset = make(args.seed + rep, args.matches, args.outliers, eps)
        opts = {"q": args.q, "samples": args.samples}
        wi = solve(dataset, "wi", eps, rep, **opts)
        opts["budget"] = {"iterations": wi.oracle_evaluations}
        for res in [wi] + [solve(dataset, m, eps, rep, **opts) for m in ("lo-ransac", "ransac")]:
            rows.append(
                {
                    "repetition": rep,
                    "method": res.method,
                    "consensus": res.consensus_size,
                    "runtime_ms": round(res.runtime * 1e3, 2),
                }
            )
        print(f"rep {rep}: " + " ".join(f"{r['method']}={r['consensus']}" for r in rows[-3:]))
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    means = {}
    for row in rows:
        means.setdefault(row["method"], []).append(row["consensus"])
    print({k: round(float(np.mean(v)), 2) for k, v in means.items()})
    print(f"wrote {len(rows)} rows to {Path(args.out)}")


if __name__ == "__main__":
    main()
