import csv
import json

import numpy as np
import pytest

from maxcon import experiment
from maxcon.errors import ContractError
from maxcon.experiment import ExperimentConfig, build_dataset, run_experiment
from maxcon.models import save_dataset_csv


def small_comparison_config(tmp_path=None):
    return ExperimentConfig(
        dataset={"source": "generated", "n": 14, "dim": 2, "outlier_fraction": 0.3, "seed": 5},
        epsilon=0.1,
        methods=[
            {"name": "wi", "q": 0.3, "samples": 150},
            {"name": "ransac", "budget": {"match": "wi"}},
            {"name": "exact"},
        ],
        repetitions=3,
        seed=11,
        output=str(tmp_path) if tmp_path else None,
        ground_truth="exact",
    )


def test_build_dataset_sources(tmp_path):
    gen = build_dataset({"source": "generated", "n": 9, "dim": 2, "outlier_count": 2, "seed": 1})
    assert gen.n == 9
    csv_path = tmp_path / "d.csv"
    save_dataset_csv(gen, csv_path)
    loaded = build_dataset({"source": "csv", "path": str(csv_path)})
    np.testing.assert_allclose(loaded.features, gen.features)
    with pytest.raises(ValueError):
        build_dataset({"source": "nope"})


def test_solver_comparison_rows_and_files(tmp_path):
    report = run_experiment(small_comparison_config(tmp_path))
    assert len(report.rows) == 9  # 3 methods x 3 repetitions
    methods = {r["method"] for r in report.rows}
    assert methods == {"wi", "ransac", "exact"}
    for row in report.rows:
        assert row["error"] >= 0
        if row["method"] == "exact":
            assert row["error"] == 0
    # matched budget: ransac hypothesis count equals wi's oracle evaluations
    by_rep = {}
    for row in report.rows:
        by_rep.setdefault(row["repetition"], {})[row["method"]] = row
    for rep in by_rep.values():
        assert rep["ransac"]["iterations"] == rep["wi"]["oracle_evaluations"]
    assert set(report.paths) == {"runs", "report", "summary"}
    with open(report.paths["runs"]) as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == 9
    with open(report.paths["summary"]) as fh:
        summary = list(csv.DictReader(fh))
    assert {s["method"] for s in summary} == methods


def test_experiment_reproducible():
    cfg = small_comparison_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    key = lambda rows: [(r["method"], r["repetition"], r["consensus_size"]) for r in rows]
    assert key(a.rows) == key(b.rows)


def test_matched_budget_requires_earlier_method():
    cfg = ExperimentConfig(
        dataset={"source": "generated", "n": 10, "dim": 2, "outlier_count": 3, "seed": 1},
        epsilon=0.1,
        methods=[{"name": "ransac", "budget": {"match": "wi"}}],
        repetitions=1,
        seed=0,
    )
    with pytest.raises(ContractError):
        run_experiment(cfg)


def test_influence_sweep_rows_and_csv(tmp_path):
    cfg = ExperimentConfig(
        dataset={"source": "generated", "n": 10, "dim": 2, "outlier_fraction": 0.3, "seed": 3},
        epsilon=0.1,
        kind="influence_sweep",
        q_values=[0.3, 0.5],
        h_values=[100, 400],
        trials=2,
        seed=4,
        output=str(tmp_path),
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 2 * 2 * 2
    for row in report.rows:
        assert 0.0 <= row["sf_distance"] <= 1.0
    with open(report.paths["sweep"]) as fh:
        got = list(csv.DictReader(fh))
    assert [g["h"] for g in got[:2]] == ["100", "400"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset={}, epsilon=0.1, kind="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset={}, epsilon=0.1, methods=[], kind="solver_comparison")
    with pytest.raises(ValueError):
        ExperimentConfig(
            dataset={}, epsilon=0.1, methods=[{"name": "wi"}], repetitions=2, seeds=[1]
        )
    # a misspelt ground truth would run and silently drop the error columns
    with pytest.raises(ValueError, match="unknown ground_truth"):
        ExperimentConfig(dataset={}, epsilon=0.1, methods=[{"name": "wi"}], ground_truth="exakt")
    # a sweep of no trials would write an empty sweep.csv
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            ExperimentConfig(dataset={}, epsilon=0.1, kind="influence_sweep", trials=trials)
    # and so would a sweep over no q or no h values
    for grid in ("q_values", "h_values"):
        with pytest.raises(ValueError, match=f"nonempty {grid}"):
            ExperimentConfig(dataset={}, epsilon=0.1, kind="influence_sweep", **{grid: []})
    ExperimentConfig(dataset={}, epsilon=0.1, methods=[{"name": "wi"}], ground_truth="exact")
    ExperimentConfig(dataset={}, epsilon=0.1, kind="influence_sweep", trials=1)


def test_unknown_method_spec_key_is_refused_before_running():
    base = dict(dataset={"source": "generated", "n": 10, "dim": 2, "seed": 1}, epsilon=0.1)
    # a misspelt "samples" must not run the default 300 samples unnoticed
    for spec in ({"name": "wi", "q": 0.3, "sample": 100}, {"name": "wi", "workers": 2}):
        with pytest.raises(ValueError, match="unknown method-spec keys"):
            ExperimentConfig(methods=[{"name": "exact"}, spec], **base)
    ExperimentConfig(
        methods=[
            {"name": "wi", "q": 0.3, "samples": 150, "level_offset": 1, "mode": "paper",
             "local_expansion": "off", "time_budget": 5.0, "allow_extreme": False},
            {"name": "lo-ransac", "budget": {"match": "wi"}, "refinement_depth": 1},
        ],
        **base,
    )


def test_unknown_method_name_is_refused_before_running():
    base = dict(dataset={"source": "generated", "n": 10, "dim": 2, "seed": 1}, epsilon=0.1)
    # a misspelt name must not fail only after the methods before it have run
    for spec in ({"name": "lo_ransac"}, {"q": 0.3}):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(methods=[{"name": "wi"}, spec], **base)


def test_influence_sweep_takes_one_seed_per_trial(monkeypatch):
    cfg = dict(
        dataset={"source": "generated", "n": 10, "dim": 2, "outlier_fraction": 0.3, "seed": 3},
        epsilon=0.1,
        kind="influence_sweep",
        q_values=[0.3],
        h_values=[100],
        trials=3,
        fresh_data_per_repetition=True,
    )
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(seeds=[7], **cfg)
    built = []

    def recording_build(dspec, seed_override=None):
        built.append(seed_override)
        return build_dataset(dspec, seed_override)

    monkeypatch.setattr(experiment, "build_dataset", recording_build)
    rows = run_experiment(ExperimentConfig(seeds=[7, 8, 7], **cfg)).rows
    assert [r["trial"] for r in rows] == [0, 1, 2]
    # trial 2 reuses seed 7, so its dataset comes from the cache
    assert built == [7, 8]


def test_influence_sweep_refuses_seeds_it_would_ignore():
    cfg = dict(
        dataset={"source": "generated", "n": 10, "dim": 2, "outlier_fraction": 0.3, "seed": 3},
        epsilon=0.1, kind="influence_sweep", trials=2, seeds=[7, 8],
    )
    # the estimator streams come from seed alone, and the dataset is fixed
    with pytest.raises(ValueError, match="fresh_data_per_repetition"):
        ExperimentConfig(**cfg)
    with pytest.raises(ValueError, match="fresh_data_per_repetition"):
        ExperimentConfig(**{**cfg, "dataset": {"source": "csv", "path": "d.csv"}},
                         fresh_data_per_repetition=True)
    ExperimentConfig(**cfg, fresh_data_per_repetition=True)
