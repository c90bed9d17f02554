"""Config-driven experiment batches: solver comparisons and influence sweeps.

A config describes a data source, a threshold, and either a list of solver
methods to run for several repetitions (optionally at budgets matched to an
earlier method's oracle-evaluation count) or a grid of (q, h) estimator
settings whose sampled influence rankings are scored against the exact
ranking by Spearman-Footrule distance.

Repetitions own derived seeds and run in order, so re-running a config
reproduces identical consensus numbers (runtime fields excepted).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .cube import TabulatedFunction, estimate_influence_bernoulli, exact_influence_report
from .datagen import GenSpec, gen_hyperplane_data, synthetic_fm_instance, synthetic_h_instance
from .errors import ContractError
from .ingest import linearise_fundamental, linearise_homography, load_correspondences_csv
from .models import (
    FeasibilityOracle,
    LinearDataset,
    exact_maxcon_bases,
    exact_maxcon_enumerate,
    load_dataset_csv,
)
from .solvers import METHODS, SolveResult, solve

# the keys each dataset source reads besides "source"; a source that reads a
# seed regenerates its data from each repetition's seed when asked to
_SOURCE_KEYS = {
    "generated": (
        "n", "dim", "outlier_count", "outlier_fraction", "inlier_noise",
        "outlier_noise", "seed", "ground_truth_theta", "theta_range",
    ),
    "csv": ("path",),
    "correspondences": ("path", "model", "normalise"),
    "two_view": ("model", "matches", "outliers", "seed"),
}
_LINEARISE = {"fundamental": linearise_fundamental, "homography": linearise_homography}
_TWO_VIEW = {"fundamental": synthetic_fm_instance, "homography": synthetic_h_instance}

# method-spec keys of a config and the SolverConfig fields they set
_SPEC_OPTIONS = {
    "q": "q", "samples": "samples", "level_offset": "hamming_level_offset",
    "local_expansion": "local_expansion", "mode": "estimator_mode",
    "time_budget": "time_budget", "allow_extreme": "allow_extreme",
}
_SPEC_KEYS = {"name", "budget", "refinement_depth", *_SPEC_OPTIONS}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment batch.

    ``seeds`` has one seed per repetition (per trial in an influence sweep,
    which reads them only with fresh data from a seeded source).  A dataset
    key that its source does not read, a method spec whose name is not in
    ``solvers.METHODS`` or with a key outside ``_SPEC_KEYS``, an unknown
    ``ground_truth`` and an influence sweep of no trials, no q values or no
    h values are refused before the batch runs.
    """

    dataset: dict
    epsilon: float
    kind: str = "solver_comparison"
    methods: list = field(default_factory=list)
    repetitions: int = 1
    seed: int = 0
    seeds: list | None = None
    output: str | None = None
    fresh_data_per_repetition: bool = False
    ground_truth: str = "none"  # none | exact
    # influence-sweep settings
    q_values: list = field(default_factory=lambda: [0.3, 0.5, 0.7])
    h_values: list = field(default_factory=lambda: [300, 1000, 3000])
    trials: int = 50
    estimator_mode: str = "paper"

    def __post_init__(self) -> None:
        if self.kind not in ("solver_comparison", "influence_sweep"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.kind == "influence_sweep" and self.trials < 1:
            raise ValueError("trials must be at least 1")
        for grid in ("q_values", "h_values"):
            if self.kind == "influence_sweep" and not getattr(self, grid):
                raise ValueError(f"an influence sweep needs a nonempty {grid} list")
        if self.ground_truth not in ("none", "exact"):
            raise ValueError(f"unknown ground_truth {self.ground_truth!r}; expected none or exact")
        per = "trials" if self.kind == "influence_sweep" else "repetitions"
        if self.seeds is not None and len(self.seeds) != getattr(self, per):
            raise ValueError(f"seeds list must match {per}")
        if self.kind == "solver_comparison" and not self.methods:
            raise ValueError("solver_comparison needs a methods list")
        for spec in self.methods:
            if spec.get("name") not in METHODS:
                raise ValueError(
                    f"unknown method {spec.get('name')!r} in {spec!r}; "
                    f"expected one of {', '.join(METHODS)}"
                )
            unknown = sorted(set(spec) - _SPEC_KEYS)
            if unknown:
                raise ValueError(f"unknown method-spec keys {unknown} in {spec!r}")
        source = self.dataset.get("source")
        if source in _SOURCE_KEYS:
            unread = sorted(set(self.dataset) - {"source", *_SOURCE_KEYS[source]})
            if unread:
                raise ValueError(f"source {source!r} reads no dataset keys {unread}")
        fresh = self.fresh_data_per_repetition and _reads_seed(self.dataset)
        if self.kind == "influence_sweep" and self.seeds is not None and not fresh:
            raise ValueError(
                "an influence sweep reads seeds only with fresh_data_per_repetition "
                "on generated or two_view data"
            )

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class ExperimentReport:
    rows: list
    summary: list
    paths: dict


def build_dataset(
    dspec: dict, seed_override: int | None = None, epsilon: float | None = None
) -> LinearDataset:
    """Materialise the dataset described by a config's dataset block.

    A ``two_view`` source plants its residuals at the scale ``epsilon``,
    which an experiment sets to its own threshold.
    """
    source = dspec.get("source")
    if source not in _SOURCE_KEYS:
        raise ValueError(f"unknown dataset source {source!r}")
    kwargs = {k: dspec[k] for k in _SOURCE_KEYS[source] if k in dspec}
    if seed_override is not None and _reads_seed(dspec):
        kwargs["seed"] = seed_override
    if source == "generated":
        for key in ("outlier_noise", "theta_range", "ground_truth_theta"):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return gen_hyperplane_data(GenSpec(**kwargs)).dataset
    if source == "csv":
        return load_dataset_csv(kwargs["path"])
    model = kwargs.pop("model", "fundamental")
    if model not in _LINEARISE:
        raise ValueError(f"unknown correspondence model {model!r}")
    if source == "correspondences":
        corr = load_correspondences_csv(kwargs["path"])
        return _LINEARISE[model](corr, normalise=bool(kwargs.get("normalise", False)))
    if epsilon is None:
        raise ValueError("a two_view dataset needs epsilon, the scale of its residuals")
    return _TWO_VIEW[model](kwargs.pop("seed", 0), eps=epsilon, **kwargs)


def _reads_seed(dspec: dict) -> bool:
    """Whether the dataset block's source regenerates its data from a seed."""
    return "seed" in _SOURCE_KEYS.get(dspec.get("source"), ())


def _rep_seed(config: ExperimentConfig, rep: int) -> int:
    if config.seeds is not None:
        return int(config.seeds[rep])
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(rep,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_method(
    dataset: LinearDataset,
    epsilon: float,
    spec: dict,
    rep_seed: int,
    earlier: dict[str, SolveResult],
) -> SolveResult:
    budget = dict(spec.get("budget", {"confidence": 0.99}))
    match = budget.pop("match", None)
    if match is not None:
        ref = earlier.get(match)
        if ref is None:
            raise ContractError(
                f"budget matches {match!r} but no such method ran earlier in this repetition"
            )
        budget["iterations"] = ref.oracle_evaluations
    options = {_SPEC_OPTIONS[k]: v for k, v in spec.items() if k in _SPEC_OPTIONS}
    return solve(
        dataset, spec["name"], epsilon, rep_seed, budget=budget,
        refinement_depth=spec.get("refinement_depth", 2), **options,
    )


def _one_repetition(config: ExperimentConfig, rep: int) -> list[dict]:
    rep_seed = _rep_seed(config, rep)
    data_seed = rep_seed if config.fresh_data_per_repetition else None
    dataset = build_dataset(config.dataset, data_seed, config.epsilon)
    truth_size = None
    if config.ground_truth == "exact":
        truth_size = len(exact_maxcon_bases(dataset, config.epsilon)[0])
    rows = []
    earlier: dict[str, SolveResult] = {}
    for spec in config.methods:
        result = _run_method(dataset, config.epsilon, spec, rep_seed, earlier)
        earlier[spec["name"]] = result
        row = result.to_json_dict()
        row["repetition"] = rep
        if truth_size is not None:
            row["ground_truth_size"] = truth_size
            row["error"] = metrics.consensus_error(result, truth_size)
        rows.append(row)
    return rows


def _solver_comparison(config: ExperimentConfig) -> ExperimentReport:
    rows = [row for rep in range(config.repetitions) for row in _one_repetition(config, rep)]

    summary = []
    for name in dict.fromkeys(spec["name"] for spec in config.methods):
        sizes = [r["consensus_size"] for r in rows if r["method"] == name]
        times = [r["runtime_ms"] for r in rows if r["method"] == name]
        entry = {
            "method": name,
            "consensus_mean": float(np.mean(sizes)),
            "consensus_min": int(np.min(sizes)),
            "consensus_max": int(np.max(sizes)),
            "runtime_ms_mean": float(np.mean(times)),
        }
        errors = [r["error"] for r in rows if r["method"] == name and "error" in r]
        if errors:
            entry["error_mean"] = float(np.mean(errors))
            entry["error_max"] = int(np.max(errors))
        summary.append(entry)

    paths = {}
    if config.output:
        out = Path(config.output)
        out.mkdir(parents=True, exist_ok=True)
        runs_path = out / "runs.jsonl"
        with open(runs_path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        report_path = out / "report.csv"
        metrics.write_batch_report(
            [
                {
                    "run": r["repetition"],
                    "method": r["method"],
                    "consensus": r["consensus_size"],
                    "error": r.get("error", ""),
                    "runtime_ms": r["runtime_ms"],
                }
                for r in rows
            ],
            report_path,
        )
        summary_path = out / "summary.csv"
        fields = sorted({k for e in summary for k in e}, key=lambda k: (k != "method", k))
        with open(summary_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(summary)
        paths = {"runs": str(runs_path), "report": str(report_path), "summary": str(summary_path)}
    return ExperimentReport(rows=rows, summary=summary, paths=paths)


def influence_sweep_rows(config: ExperimentConfig) -> list[dict]:
    """SF distance of sampled vs exact influence rankings over a (q, h) grid.

    The feasibility function is tabulated once per dataset and the top k
    indices are ranked, where k is the certified outlier count.  By default
    all trials re-estimate on one fixed dataset (exact influences are
    exponential in n, so the instance is kept small and fixed); with
    fresh_data_per_repetition each trial regenerates the dataset from a
    derived seed.
    """
    rows = []
    exact_cache: dict = {}
    for trial in range(config.trials):
        fresh = config.fresh_data_per_repetition and _reads_seed(config.dataset)
        data_seed = _rep_seed(config, trial) if fresh else None
        dataset, f, k = exact_cache.get(data_seed, (None, None, None))
        if f is None:
            dataset = build_dataset(config.dataset, data_seed, config.epsilon)
            oracle = FeasibilityOracle(dataset, config.epsilon)
            f = TabulatedFunction(oracle.truth_table(), dataset.n)
            optimum = exact_maxcon_enumerate(f)
            k = dataset.n - len(optimum)
            if k < 1:
                raise ContractError("influence sweep needs at least one outlier to rank")
            exact_cache[data_seed] = (dataset, f, k)
        indices = range(dataset.n)
        for iq, q in enumerate(config.q_values):
            exact_key = (data_seed, q)
            if exact_key not in exact_cache:
                exact = exact_influence_report(f, q, indices)
                exact_cache[exact_key] = metrics.top_k_ranking(exact.scores, k)
            r_ex = exact_cache[exact_key]
            for ih, h in enumerate(config.h_values):
                seed = np.random.SeedSequence(
                    entropy=config.seed, spawn_key=(trial, iq, ih)
                )
                est = estimate_influence_bernoulli(
                    f, list(indices), q, h, seed, mode=config.estimator_mode
                )
                r_es = metrics.top_k_ranking(est.scores, k)
                rows.append(
                    {
                        "trial": trial,
                        "q": q,
                        "h": h,
                        "sf_distance": metrics.sf_distance(r_es, r_ex, k),
                    }
                )
    return rows


def _influence_sweep(config: ExperimentConfig) -> ExperimentReport:
    rows = influence_sweep_rows(config)
    paths = {}
    if config.output:
        out = Path(config.output)
        out.mkdir(parents=True, exist_ok=True)
        sweep_path = out / "sweep.csv"
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["trial", "q", "h", "sf_distance"])
            writer.writeheader()
            writer.writerows(rows)
        paths = {"sweep": str(sweep_path)}
    return ExperimentReport(rows=rows, summary=[], paths=paths)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run a configured batch and write its outputs, if an output dir is set."""
    if config.kind == "influence_sweep":
        return _influence_sweep(config)
    return _solver_comparison(config)
