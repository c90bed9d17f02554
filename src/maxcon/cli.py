"""Command-line interface.

Subcommands: gen, fit, influence, theory, experiment, ingest-fm, ingest-h.
Failures exit nonzero with a one-line JSON error object on stderr.  ``fit``
maps its flags onto ``solvers.solve``; every computation runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import cube, ingest, models, solvers, theory
from .datagen import GenSpec, gen_hyperplane_data
from .experiment import ExperimentConfig, run_experiment


class JsonArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": {"type": "usage", "message": message}}), file=sys.stderr)
        raise SystemExit(2)


def _write_json(payload, path=None) -> None:
    text = json.dumps(payload, indent=2, default=_jsonable)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return {"fraction": f"{obj.numerator}/{obj.denominator}", "value": float(obj)}
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _parse_q(text: str):
    if "/" in text:
        return Fraction(text)
    return float(text)


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        dim=args.dim,
        outlier_count=args.outliers,
        outlier_fraction=args.outlier_fraction,
        inlier_noise=args.inlier_noise,
        outlier_noise=tuple(args.outlier_noise),
        seed=args.seed,
        ground_truth_theta=tuple(args.theta) if args.theta else None,
    )
    data = gen_hyperplane_data(spec)
    models.save_dataset_csv(data.dataset, args.out)
    truth_path = args.truth or (args.out + ".truth.json")
    _write_json(
        {
            "theta": list(data.theta),
            "inliers": list(data.inliers),
            "n": spec.n,
            "dim": spec.dim,
            "seed": spec.seed,
            "inlier_noise": spec.inlier_noise,
        },
        truth_path,
    )
    return 0


def _cmd_fit(args) -> int:
    dataset = models.load_dataset_csv(args.data)
    if args.paired_rows and dataset.n % 2:
        raise ValueError("--paired-rows needs an even number of rows")
    budget = {
        "iterations": args.iterations,
        "time": args.time_budget,
        "confidence": None if args.iterations is not None else args.confidence,
    }
    result = solvers.solve(
        dataset, args.method, args.eps, args.seed, budget=budget,
        q=args.q, samples=args.samples, hamming_level_offset=args.level_offset,
        local_expansion=args.local_expansion, estimator_mode=args.mode,
        time_budget=args.time_budget, allow_extreme=args.allow_extreme,
    )
    payload = result.to_json_dict()
    if args.paired_rows:
        matched = ingest.match_consensus(result.inlier_set, dataset.n // 2)
        payload["match_consensus_size"] = len(matched)
        payload["match_consensus"] = list(matched)
    _write_json(payload, args.out)
    return 0


def _cmd_influence(args) -> int:
    dataset = models.load_dataset_csv(args.data)
    oracle = models.FeasibilityOracle(dataset, args.eps)
    if args.indices == "all":
        indices = list(range(dataset.n))
    else:
        indices = [int(t) for t in args.indices.split(",")]
    if args.estimator == "exact":
        report = cube.exact_influence_report(oracle, args.q, indices)
    elif args.estimator == "bernoulli":
        report = cube.estimate_influence_bernoulli(
            oracle, indices, args.q, args.samples, args.seed, mode=args.mode
        )
    else:
        report = cube.estimate_influence_hamming(
            oracle, indices, args.level, args.samples, args.seed
        )
    _write_json(report.to_json_dict(), args.out)
    return 0


def _cmd_theory(args) -> int:
    q = _parse_q(args.q)
    if args.spec:
        with open(args.spec) as fh:
            raw = json.load(fh)
        spec = theory.StructureSpec(
            n=raw["n"],
            p=raw["p"],
            upper_zeros=tuple(cube.mask_from_string(s, raw["n"]) for s in raw["zeros"]),
        )
        specs = [spec]
    else:
        specs = theory.default_verification_grid()
    rows = []
    for spec in specs:
        for row in theory.verify_spec(spec, q):
            rows.append(
                {
                    "spec": {
                        "n": spec.n,
                        "p": spec.p,
                        "zeros": [cube.mask_string(z, spec.n) for z in spec.upper_zeros],
                        "pseudo_zeros": [cube.mask_string(z, spec.n) for z in spec.pseudo_zeros],
                    },
                    "class": list(row["class"]),
                    "closed_form": row["closed_form"],
                    "brute_force": row["brute_force"],
                    "abs_diff": float(row["abs_diff"]),
                }
            )
    _write_json(rows, args.out)
    return 1 if any(_mismatch(r, q) for r in rows) else 0


def _mismatch(row: dict, q) -> bool:
    """A fraction q must match exactly; a float q within rounding of the larger value."""
    if isinstance(q, Fraction):
        return row["abs_diff"] > 0
    return row["abs_diff"] > 1e-12 * max(abs(row["closed_form"]), abs(row["brute_force"]))


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.load(args.config)
    report = run_experiment(config)
    _write_json({"rows": len(report.rows), "summary": report.summary, "paths": report.paths})
    return 0


def _cmd_ingest(args, kind: str) -> int:
    corr = ingest.load_correspondences_csv(args.matches)
    if kind == "fundamental":
        dataset = ingest.linearise_fundamental(corr, normalise=args.normalise)
    else:
        dataset = ingest.linearise_homography(corr, normalise=args.normalise)
    models.save_dataset_csv(dataset, args.out)
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> JsonArgumentParser:
    parser = JsonArgumentParser(prog="maxcon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset CSV plus ground-truth JSON")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--outliers", type=int, default=None)
    g.add_argument("--outlier-fraction", type=float, default=None)
    g.add_argument("--inlier-noise", type=float, default=0.1)
    g.add_argument("--outlier-noise", type=float, nargs=2, default=(0.1, 4.0))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--theta", type=float, nargs="+", default=None)
    g.add_argument("--out", required=True)
    g.add_argument("--truth", default=None)
    g.set_defaults(func=_cmd_gen)

    f = sub.add_parser("fit", help="solve one instance with a chosen method")
    f.add_argument("--data", required=True)
    f.add_argument("--eps", type=float, required=True)
    f.add_argument("--method", choices=solvers.METHODS, required=True)
    f.add_argument("--q", type=float, default=None)
    f.add_argument("--samples", type=int, default=300)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--mode", choices=["paper", "unbiased"], default="paper")
    f.add_argument("--local-expansion", choices=["post_loop", "off"], default="post_loop")
    f.add_argument("--level-offset", type=int, default=1)
    f.add_argument("--iterations", type=int, default=None)
    f.add_argument("--confidence", type=float, default=0.99)
    f.add_argument("--time-budget", type=float, default=None)
    f.add_argument("--allow-extreme", action="store_true")
    f.add_argument("--paired-rows", action="store_true",
                   help="also report per-match consensus for doubled homography rows")
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_fit)

    i = sub.add_parser("influence", help="report exact or estimated influences")
    i.add_argument("--data", required=True)
    i.add_argument("--eps", type=float, required=True)
    i.add_argument("--estimator", choices=["exact", "bernoulli", "hamming"], default="exact")
    i.add_argument("--q", type=float, default=0.5)
    i.add_argument("--level", type=int, default=None)
    i.add_argument("--samples", type=int, default=300)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--mode", choices=["paper", "unbiased"], default="paper")
    i.add_argument("--indices", default="all")
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_influence)

    t = sub.add_parser("theory", help="verify closed-form influences against brute force")
    t.add_argument("action", choices=["verify"])
    t.add_argument("--spec", default=None, help="JSON file with n, p and zeros bitstrings")
    t.add_argument("--q", default="1/2", help="bias, float or exact fraction like 1/2")
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_theory)

    e = sub.add_parser("experiment", help="run a config-driven batch")
    e.add_argument("--config", required=True)
    e.set_defaults(func=_cmd_experiment)

    fm = sub.add_parser("ingest-fm", help="linearise two-view matches for fundamental-matrix fitting")
    fm.add_argument("--matches", required=True)
    fm.add_argument("--out", required=True)
    fm.add_argument("--normalise", action="store_true")
    fm.set_defaults(func=lambda a: _cmd_ingest(a, "fundamental"))

    h = sub.add_parser("ingest-h", help="linearise two-view matches for homography fitting")
    h.add_argument("--matches", required=True)
    h.add_argument("--out", required=True)
    h.add_argument("--normalise", action="store_true")
    h.set_defaults(func=lambda a: _cmd_ingest(a, "homography"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "estimator", None) == "hamming" and args.level is None:
            parser.error("--estimator hamming requires --level")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except Exception as exc:  # noqa: BLE001 - uniform machine-readable failure
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
