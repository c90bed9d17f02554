#!/usr/bin/env python3
"""Compare solvers on synthetic hyperplane data across outlier counts.

For each outlier count the script runs the influence-guided solvers and the
RANSAC baselines (at budgets matched to the wi run of the same repetition)
on fresh seeded instances, and reports consensus sizes, runtimes and, when
the instance is small enough to certify, the consensus error against the
exact enumeration oracle.
"""

import argparse
import csv
from pathlib import Path

from maxcon.datagen import GenSpec, gen_hyperplane_data
from maxcon.errors import BudgetError
from maxcon.solvers import solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--outliers", type=int, nargs="+", default=[10, 20, 30, 40])
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--q", type=float, default=0.1)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="regression_benchmark.csv")
    args = ap.parse_args()

    rows = []
    for n_out in args.outliers:
        for rep in range(args.repetitions):
            seed = args.seed + 1000 * n_out + rep
            data = gen_hyperplane_data(
                GenSpec(n=args.n, dim=args.dim, outlier_count=n_out, seed=seed)
            )
            try:
                truth = solve(data.dataset, "exact", args.eps).consensus_size
            except BudgetError:
                truth = None
            opts = {"q": args.q, "samples": args.samples}
            wi = solve(data.dataset, "wi", args.eps, seed, **opts)
            opts["budget"] = {"iterations": wi.oracle_evaluations}
            runs = [wi] + [
                solve(data.dataset, method, args.eps, seed, **opts)
                for method in ("mbf", "lo-ransac", "ransac")
            ]
            for res in runs:
                rows.append(
                    {
                        "outliers": n_out,
                        "repetition": rep,
                        "method": res.method,
                        "consensus": res.consensus_size,
                        "error": "" if truth is None else truth - res.consensus_size,
                        "runtime_ms": round(res.runtime * 1e3, 2),
                        "oracle_evaluations": res.oracle_evaluations,
                    }
                )
            print(
                f"outliers={n_out} rep={rep}: "
                + " ".join(f"{r.method}={r.consensus_size}" for r in runs)
            )
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
