import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from maxcon import experiment
from maxcon.cli import main
from maxcon.datagen import synthetic_h_instance
from maxcon.errors import BudgetError, ContractError
from maxcon.experiment import ExperimentConfig, build_dataset, run_experiment
from maxcon.models import save_dataset_csv

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


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
    # the config's epsilon is the planted residual scale, and a repetition's
    # seed replaces the block's as it does for generated data
    two_view = {"source": "two_view", "model": "homography", "matches": 12, "outliers": 3,
                "seed": 4}
    for seed_override, seed in ((None, 4), (9, 9)):
        got = build_dataset(two_view, seed_override, 0.05)
        want = synthetic_h_instance(seed, 12, 3, 0.05)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.responses, want.responses)
    with pytest.raises(ValueError, match="epsilon"):
        build_dataset(two_view)


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
    # malformed specs and modes must not fail only once the batch is running
    with pytest.raises(ValueError, match=r"dataset must be an object, got \['generated'\]"):
        ExperimentConfig(dataset=["generated"], epsilon=0.1, methods=[{"name": "wi"}])
    with pytest.raises(ValueError, match="a method spec must be an object, got 'wi'"):
        ExperimentConfig(dataset={}, epsilon=0.1, methods=["wi"])
    for kind in ("influence_sweep", "solver_comparison"):
        with pytest.raises(ValueError, match="unknown estimator_mode 'papr'"):
            ExperimentConfig(
                dataset={}, epsilon=0.1, kind=kind, methods=[{"name": "wi"}], estimator_mode="papr"
            )
    ExperimentConfig(dataset={}, epsilon=0.1, methods=[{"name": "wi"}], ground_truth="exact")
    ExperimentConfig(dataset={}, epsilon=0.1, kind="influence_sweep", trials=1)
    ExperimentConfig(dataset={}, epsilon=0.1, kind="influence_sweep", estimator_mode="unbiased")


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

    def recording_build(dspec, seed_override=None, epsilon=None):
        built.append(seed_override)
        return build_dataset(dspec, seed_override, epsilon)

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


def test_dataset_keys_the_source_does_not_read_are_refused():
    base = dict(epsilon=0.1, methods=[{"name": "wi"}])
    # a misspelt inlier_noise would otherwise run at the default noise
    for dataset in (
        {"source": "generated", "n": 10, "dim": 2, "seed": 1, "inlier_nois": 0.5},
        {"source": "two_view", "model": "fundamental", "matches": 20, "n": 20},
        {"source": "csv", "path": "d.csv", "model": "homography"},
    ):
        with pytest.raises(ValueError, match="reads no dataset keys"):
            ExperimentConfig(dataset=dataset, **base)
    ExperimentConfig(dataset={"source": "two_view", "model": "homography", "matches": 20,
                              "outliers": 4, "seed": 1}, **base)


def test_exact_ground_truth_above_the_enumeration_cap_runs_no_solver(
    monkeypatch, tmp_path, capsys
):
    cfg = dict(
        dataset={"source": "generated", "n": 200, "dim": 8, "outlier_count": 10, "seed": 1},
        epsilon=0.1, methods=[{"name": "wi"}], ground_truth="exact",
    )
    calls = []
    monkeypatch.setattr(experiment, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(BudgetError):
        run_experiment(ExperimentConfig(**cfg))
    assert calls == []
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"]["type"] == "BudgetError"


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_checked_in_config_runs(path, tmp_path):
    cfg = ExperimentConfig.load(path)
    cfg = dataclasses.replace(
        cfg, repetitions=1, trials=1, seeds=cfg.seeds and cfg.seeds[:1], output=str(tmp_path)
    )
    report = run_experiment(cfg)
    if cfg.kind == "influence_sweep":
        assert len(report.rows) == len(cfg.q_values) * len(cfg.h_values)
    else:
        assert len(report.rows) == len(cfg.methods)
    assert report.paths
    assert all(Path(p).is_file() for p in report.paths.values())
