"""Closed-loop benchmark of the maxcon solvers: one caller, one thread.

A run builds its workload's fixed instance set (set-up), then times passes
over it back to back: each instance runs ``exact_maxcon_bases`` where a
certified optimum is wanted, each influence-guided solver, and lo-RANSAC and
RANSAC at a solver's evaluation count as iteration budget.  Passes
repeat while another one fits in ``--seconds``; there is always at least one.
Every solve is checked outside its timed region, and a solve that raises or
fails a check counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs report
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of ``spans.py`` plus ``trace_overhead``.
Earlier lines carry machine information and per-run details.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from maxcon import datagen, models, solvers
from maxcon.solvers import SolveResult, SolverConfig

import workloads
from spans import ORACLE, Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 5
# what importing the program costs: numpy, scipy and the modules a run uses
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import maxcon.datagen, maxcon.models, maxcon.solvers; "
    "print(time.perf_counter() - t0)"
)
ENTRY = {
    "exact": ("models.exact_bases", models.exact_maxcon_bases),
    "wi": ("solvers.wi", solvers.wi_maxcon),
    "mbf": ("solvers.mbf", solvers.mbf_maxcon),
    "lo_ransac": ("solvers.lo_ransac", solvers.lo_ransac),
    "ransac": ("solvers.ransac", solvers.ransac),
}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MAXCON_WORKERS",
)


@dataclass
class Solve:
    """One timed call and what the checks made of it."""

    instance: str
    method: str
    seconds: float
    result: SolveResult | None = None  # None for exact and for failures
    consensus: int | None = None
    inliers: tuple[int, ...] | None = None
    optimum: int | None = None  # certified optimum size, where computed
    error: str | None = None

    def outcome(self):
        evals = self.result.oracle_evaluations if self.result else None
        return self.method, self.consensus, evals, self.inliers


def _untraced(name, fn):
    return fn


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a failing solve is a counted failure, not the end of the run
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, value, None


def _check(data, epsilon: float, inliers: tuple[int, ...]) -> str | None:
    if len(inliers) > data.p and models.minimax_fit(data, inliers).value > epsilon:
        return "inlier set does not re-verify feasible"
    return None


def run_instance(inst: workloads.Instance, data, wrap=_untraced) -> list[Solve]:
    """Time every solve of one instance; check each outside its timed region."""
    out: list[Solve] = []

    def call(method, *args):
        span, fn = ENTRY[method]
        seconds, value, error = _timed(wrap(span, fn), *args)
        rec = Solve(inst.label, method, seconds, error=error)
        out.append(rec)
        if value is None:
            return rec
        if method == "exact":
            rec.inliers = tuple(value[0])
        else:
            rec.result, rec.inliers = value, tuple(value.inlier_set)
            if value.consensus_size != len(value.inlier_set):
                rec.error = "consensus_size != len(inlier_set)"
        rec.consensus = len(rec.inliers)
        rec.error = rec.error or _check(data, inst.epsilon, rec.inliers)
        if optimum is not None and rec.error is None:
            rec.optimum = optimum
            if rec.consensus > optimum:
                rec.error = f"consensus {rec.consensus} above the certified optimum {optimum}"
        return rec

    optimum = None
    if inst.exact:
        rec = call("exact", data, inst.epsilon)
        optimum = rec.consensus if rec.error is None else None
    for method in ("wi", "mbf"):
        cfg = SolverConfig(
            epsilon=inst.epsilon, q=inst.q, samples=inst.samples,
            seed=inst.solver_seed, workers=1,
        )
        rec = call(method, data, cfg)
        if method in inst.baseline_budgets and rec.result is not None:
            budget = {"iterations": rec.result.oracle_evaluations}
            for seed in inst.baseline_seeds:
                for baseline in ("lo_ransac", "ransac"):
                    call(baseline, data, inst.epsilon, budget, seed)
    return out


def run_pass(insts, datasets, wrap=_untraced) -> list[Solve]:
    return [rec for inst, data in zip(insts, datasets) for rec in run_instance(inst, data, wrap)]


def _warm_up() -> None:
    data = datagen.gen_hyperplane_data(
        datagen.GenSpec(n=12, dim=2, outlier_fraction=0.25, seed=1)
    ).dataset
    cfg = SolverConfig(epsilon=0.1, q=0.3, samples=100, seed=0, workers=1)
    models.exact_maxcon_bases(data, 0.1)
    solvers.wi_maxcon(data, cfg)
    solvers.mbf_maxcon(data, cfg)
    solvers.lo_ransac(data, 0.1, {"iterations": 20}, 0)
    solvers.ransac(data, 0.1, {"iterations": 20}, 0)


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program, timed by itself."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC_DIR)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def set_up(insts) -> tuple[list, float]:
    """Import, build the datasets and warm up, several times; median seconds.

    This process has imported the program once already; each repetition
    times the import in a fresh interpreter, then builds and warms up here.
    """
    times = []
    for _ in range(SETUP_REPS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        datasets = [inst.make() for inst in insts]
        _warm_up()
        times.append(import_s + time.perf_counter() - t0)
    return datasets, statistics.median(times)


def _mark_differences(reference: list[Solve], other: list[Solve], why: str) -> None:
    for ref, rec in zip(reference, other, strict=True):
        if rec.error is None and rec.outcome() != ref.outcome():
            rec.error = why


def end_to_end(passes: list[list[Solve]], setup_s: float) -> dict:
    """End-to-end metrics of an untraced run.

    Each solve's time is its median over the passes.  Per-solve figures are
    means over the run's solves: the machine's speed switches between
    states up to 35% apart, every few seconds and for minutes at a time, and
    a median over a handful of short solves jumps between them where a mean
    averages the short switches.  The RANSAC
    baselines report time per hypothesis, because their budget is the
    solver's evaluation count and already shows in ``*_evals``.  The exact
    solver runs on ``desk2d`` only, so its time and the solvers' deficit
    against its optimum go to the ``details`` line, not here.
    """
    first = passes[0]
    out = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r.seconds for r in p) for p in passes), "s"),
    }
    for method in ("wi", "mbf", "lo_ransac", "ransac"):
        pos = [i for i, r in enumerate(first) if r.method == method and r.error is None]
        if not pos:
            continue
        seconds = [statistics.median(p[i].seconds for p in passes) for i in pos]
        if method in ("ransac", "lo_ransac"):
            hypotheses = sum(first[i].result.iterations for i in pos)
            out[f"{method}_us_per_hyp"] = (sum(seconds) / hypotheses * 1e6, "us")
        else:
            out[f"{method}_s"] = (statistics.fmean(seconds), "s")
        if method in ("wi", "mbf"):
            evals = statistics.fmean(first[i].result.oracle_evaluations for i in pos)
            out[f"{method}_evals"] = (evals, "count")
        out[f"{method}_consensus"] = (statistics.fmean(first[i].consensus for i in pos), "points")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _details(passes: list[list[Solve]]) -> dict:
    first = passes[0]
    exact = [statistics.median(p[i].seconds for p in passes)
             for i, r in enumerate(first) if r.method == "exact" and r.error is None]
    vs_exact = {"exact_s": statistics.fmean(exact)} if exact else {}
    for method in ("wi", "mbf"):
        certified = [r for r in first if r.method == method and r.optimum is not None]
        if certified:
            vs_exact[f"{method}_gap"] = statistics.fmean(r.optimum - r.consensus for r in certified)
    errors = [f"{r.instance}/{r.method}: {r.error}" for p in passes for r in p if r.error]
    solves = [[r.instance, r.method, round(r.seconds, 4), *r.outcome()[1:3]] for r in first]
    return {"passes": len(passes), "exact": vs_exact, "errors": errors[:20], "solves": solves}


def timed_passes(insts, datasets, seconds: float) -> list[list[Solve]]:
    """Passes back to back while another one fits in ``seconds``; at least one."""
    passes: list[list[Solve]] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(insts, datasets))
        if len(passes) > 1:
            _mark_differences(passes[0], passes[-1], "outcome differs from the first pass")
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def traced_run(insts, datasets, dump_path: Path):
    """One untraced pass, then one traced pass that must return the same outcomes.

    Returns both passes, the per-layer metrics and whether the spans nest and
    the oracle's own query counter agrees with the number of oracle spans.
    """
    base = run_pass(insts, datasets)
    tracer = Tracer()
    with tracer.instrument():
        traced = run_pass(insts, [inst.make() for inst in insts], tracer.wrap)
    tracer.dump(dump_path)
    _mark_differences(base, traced, "traced outcome differs from the untraced one")
    nesting = tracer.nesting_errors()
    queries = sum(o.evaluations for o in tracer.oracles)
    print(json.dumps({"trace": {"spans": len(tracer.names), "nesting_errors": nesting,
                                "oracle_counter_queries": queries}}), flush=True)
    metrics = tracer.layer_metrics(traced)
    walls = [sum(r.seconds for r in p) for p in (base, traced)]
    metrics["trace_overhead"] = (walls[1] / walls[0] - 1.0, "ratio")
    checks_ok = nesting == 0 and queries == tracer.names.count(ORACLE)
    return [base, traced], metrics, checks_ok


def main(args) -> int:
    insts = workloads.instances(args.workload, args.seed)
    datasets, setup_s = set_up(insts)
    print(json.dumps({"machine": machine_info()}), flush=True)
    if args.trace:
        dump_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        passes, metrics, checks_ok = traced_run(insts, datasets, dump_path)
    else:
        passes = timed_passes(insts, datasets, args.seconds)
        metrics, checks_ok = end_to_end(passes, setup_s), True
    print(json.dumps({"details": _details(passes)}), flush=True)
    attempted = sum(len(p) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p)
    print(json.dumps({
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0
