import json
import math
from unittest import mock

import numpy as np
import pytest

from maxcon import models, solvers
from maxcon.cli import main
from maxcon.datagen import GenSpec, gen_hyperplane_data, gen_multistructure_data
from maxcon.errors import ContractError
from maxcon.experiment import ExperimentConfig, run_experiment
from maxcon.models import (
    LinearDataset,
    exact_maxcon_bases,
    load_dataset_csv,
    minimax_fit,
    save_dataset_csv,
)
from maxcon.solvers import (
    CHUNK,
    METHODS,
    RansacBudget,
    SolverConfig,
    lo_ransac,
    local_expansion,
    mbf_maxcon,
    ransac,
    solve,
    wi_maxcon,
)


def line_instance(seed, n=15, fraction=0.3):
    return gen_hyperplane_data(GenSpec(n=n, dim=2, outlier_fraction=fraction, seed=seed))


def assert_result_feasible(dataset, result, eps):
    if result.consensus_size > dataset.p:
        fit = minimax_fit(dataset, result.inlier_set)
        assert fit.value <= eps


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_enforces_recommended_ranges():
    cfg = SolverConfig(epsilon=0.1, q=0.6)
    with pytest.raises(ValueError):
        cfg.validate(15, 2)
    SolverConfig(epsilon=0.1, q=0.6, allow_extreme=True).validate(15, 2)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.1, samples=50).validate(15, 2)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.1, local_expansion="sometimes").validate(15, 2)


def test_config_rejects_nonpositive_time_budget():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="time_budget"):
            SolverConfig(epsilon=0.1, time_budget=bad).validate(15, 2)


def test_config_default_q_clamped():
    cfg = SolverConfig(epsilon=0.1)
    assert cfg.resolved_q(15, 2) == pytest.approx(0.3)
    assert cfg.resolved_q(8, 5) == pytest.approx(0.4)  # (p+1)/n = 0.75 clamps down


# ---------------------------------------------------------------------------
# Influence-guided solvers
# ---------------------------------------------------------------------------


def test_all_inlier_returns_everything_without_removals():
    data = gen_hyperplane_data(GenSpec(n=12, dim=2, outlier_count=0, seed=0))
    for solver in (wi_maxcon, mbf_maxcon):
        res = solver(data.dataset, SolverConfig(epsilon=0.1, q=0.3, seed=1))
        assert res.inlier_set == tuple(range(12))
        assert res.iterations == 0


def test_wi_matches_exact_oracle_on_line_instance():
    data = line_instance(seed=3)
    res = wi_maxcon(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=300, seed=7))
    exact, _ = exact_maxcon_bases(data.dataset, 0.1)
    assert res.consensus_size == len(exact)
    assert_result_feasible(data.dataset, res, 0.1)


def test_wi_mbf_agree_within_one():
    sizes_wi, sizes_mbf = [], []
    for seed in range(4):
        data = line_instance(seed=seed)
        cfg = SolverConfig(epsilon=0.1, q=0.3, samples=300, seed=seed)
        sizes_wi.append(wi_maxcon(data.dataset, cfg).consensus_size)
        sizes_mbf.append(mbf_maxcon(data.dataset, cfg).consensus_size)
    for a, b in zip(sizes_wi, sizes_mbf):
        assert abs(a - b) <= 1


def test_mbf_keeps_clean_structure_intact():
    # one clean structure plus gross outliers: slice sampling above the
    # combinatorial dimension never accuses an inlier, so only outliers are
    # removed even with expansion disabled
    specs = [GenSpec(n=12, dim=2, outlier_count=0, seed=0, ground_truth_theta=(0.6, 1.5))]
    multi = gen_multistructure_data(specs, gross_outliers=4, seed=5)
    cfg = SolverConfig(epsilon=0.1, samples=150, seed=2, local_expansion="off")
    res = mbf_maxcon(multi.dataset, cfg)
    assert set(res.inlier_set) == set(multi.inlier_sets[0])


def test_solver_determinism_across_runs_and_workers():
    data = line_instance(seed=9)
    for solver in (wi_maxcon, mbf_maxcon):
        base = solver(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=5, workers=1))
        again = solver(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=5, workers=1))
        threaded = solver(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=5, workers=3))
        assert base.inlier_set == again.inlier_set == threaded.inlier_set
        assert base.iterations == threaded.iterations


def test_wi_removes_one_index_per_iteration():
    data = line_instance(seed=11)
    res = wi_maxcon(
        data.dataset,
        SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=3, local_expansion="off"),
    )
    assert res.iterations == data.dataset.n - res.consensus_size
    assert res.iterations <= data.dataset.n - data.dataset.p


@pytest.mark.parametrize("method", ["wi", "mbf"])
def test_general_position_solve_makes_no_lp_fit(method, monkeypatch):
    # the removal loop's fits run the exchange ascent to the optimum, and the
    # oracle answers every query from its certificates or the exchange
    data = gen_hyperplane_data(GenSpec(n=80, dim=8, seed=11, outlier_count=10))
    lp = mock.Mock(wraps=models._chebyshev_lp)
    monkeypatch.setattr(models, "_chebyshev_lp", lp)
    res = solve(data.dataset, method, 0.1, 0)
    assert res.iterations > 0
    assert lp.call_count == 0


@pytest.mark.parametrize("seed", [3, 8])
def test_estimator_modes_remove_the_same_points_at_half(seed):
    # at q = 1/2 with an even sample count a paper-mode score is the
    # unbiased score times 2**-|support| exactly, so both rank alike
    data = line_instance(seed=seed, n=20)
    results = [
        wi_maxcon(data.dataset, SolverConfig(
            epsilon=0.1, q=0.5, samples=120, seed=seed, estimator_mode=mode, allow_extreme=True,
        ))
        for mode in ("paper", "unbiased")
    ]
    paper, unbiased = results
    assert paper.iterations > 0
    assert paper.inlier_set == unbiased.inlier_set
    assert paper.iterations == unbiased.iterations
    assert paper.oracle_evaluations == unbiased.oracle_evaluations


def test_per_iteration_expansion_is_refused():
    # a pass while the survivors are still infeasible can add nothing
    # (monotonicity), so only the post-loop pass is offered
    data = line_instance(seed=13)
    cfg = SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=4, local_expansion="per_iteration")
    with pytest.raises(ValueError, match="unknown local_expansion"):
        wi_maxcon(data.dataset, cfg)
    with pytest.raises(ValueError, match="unknown local_expansion"):
        solve(data.dataset, "mbf", 0.1, 4, local_expansion="per_iteration")


def test_wi_time_budget_exhaustion_flag():
    data = gen_hyperplane_data(GenSpec(n=40, dim=2, outlier_fraction=0.3, seed=21))
    res = wi_maxcon(
        data.dataset,
        SolverConfig(epsilon=0.1, q=0.3, samples=300, seed=1, time_budget=1e-6),
    )
    assert res.budget_exhausted
    assert_result_feasible(data.dataset, res, 0.1)


def test_wi_requires_enough_points():
    data = gen_hyperplane_data(GenSpec(n=3, dim=3, outlier_count=0, seed=2))
    with pytest.raises(ContractError):
        wi_maxcon(data.dataset, SolverConfig(epsilon=0.1, allow_extreme=True))


def test_solve_result_json_contract():
    data = line_instance(seed=15)
    res = wi_maxcon(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=2))
    payload = res.to_json_dict()
    assert set(payload) >= {
        "method",
        "consensus_size",
        "inlier_indices",
        "theta",
        "iterations",
        "oracle_evaluations",
        "runtime_ms",
        "seed",
        "config",
    }
    assert payload["method"] == "wi"
    assert payload["consensus_size"] == len(payload["inlier_indices"])


# ---------------------------------------------------------------------------
# Local expansion
# ---------------------------------------------------------------------------


def test_local_expansion_recovers_dropped_inlier():
    data = line_instance(seed=17)
    optimum, _ = exact_maxcon_bases(data.dataset, 0.1)
    withheld = optimum[2]
    initial = tuple(i for i in optimum if i != withheld)
    grown = local_expansion(data.dataset, 0.1, initial)
    assert withheld in grown
    assert set(grown) >= set(initial)


def test_local_expansion_idempotent_and_stable():
    data = line_instance(seed=19)
    optimum, _ = exact_maxcon_bases(data.dataset, 0.1)
    grown = local_expansion(data.dataset, 0.1, optimum)
    again = local_expansion(data.dataset, 0.1, grown)
    assert grown == again == tuple(sorted(optimum))


def test_local_expansion_full_set_unchanged():
    data = gen_hyperplane_data(GenSpec(n=8, dim=2, outlier_count=0, seed=23))
    full = tuple(range(8))
    assert local_expansion(data.dataset, 0.1, full) == full


def test_local_expansion_rejects_infeasible_input():
    data = line_instance(seed=25)
    with pytest.raises(ContractError):
        local_expansion(data.dataset, 1e-6, range(data.dataset.n))


# ---------------------------------------------------------------------------
# RANSAC baselines
# ---------------------------------------------------------------------------


def test_ransac_noiseless_single_hypothesis():
    rng = np.random.default_rng(0)
    feats = np.column_stack([rng.uniform(-5, 5, 10), np.ones(10)])
    ds = LinearDataset(feats, feats @ np.array([0.4, -0.2]))
    res = ransac(ds, 0.01, {"confidence": 0.99}, 1)
    assert res.consensus_size == 10
    assert res.iterations == 1


def test_ransac_budget_validation():
    data = line_instance(seed=27)
    with pytest.raises(ValueError):
        ransac(data.dataset, 0.1, {}, 0)
    with pytest.raises(ValueError):
        RansacBudget(confidence=1.5)


def test_ransac_confidence_stopping_count():
    # expected trials for rho=0.99 at 30% outliers with p=2 samples:
    # log(0.01)/log(1 - 0.7^2) ~ 6.8
    counts = []
    for seed in range(40):
        data = gen_hyperplane_data(GenSpec(n=40, dim=2, outlier_fraction=0.3, seed=400 + seed))
        res = ransac(data.dataset, 0.1, {"confidence": 0.99}, seed)
        counts.append(res.iterations)
    mean = float(np.mean(counts))
    expected = math.log(0.01) / math.log(1 - 0.7**2)
    assert 0.5 * expected <= mean <= 2.5 * expected


def test_lo_ransac_depth_zero_is_plain_ransac():
    data = line_instance(seed=29)
    a = ransac(data.dataset, 0.1, {"iterations": 60}, 5)
    b = lo_ransac(data.dataset, 0.1, {"iterations": 60}, 5, refinement_depth=0)
    assert a.inlier_set == b.inlier_set
    assert a.iterations == b.iterations


def test_lo_ransac_not_worse_than_ransac_on_average():
    gains = []
    for seed in range(30):
        data = gen_hyperplane_data(GenSpec(n=25, dim=2, outlier_fraction=0.3, seed=700 + seed))
        plain = ransac(data.dataset, 0.1, {"iterations": 25}, seed)
        lo = lo_ransac(data.dataset, 0.1, {"iterations": 25}, seed)
        gains.append(lo.consensus_size - plain.consensus_size)
    assert np.mean(gains) >= 0.0


def test_ransac_results_verified_feasible():
    for seed in (0, 1):
        data = line_instance(seed=31 + seed)
        for solve in (
            lambda: ransac(data.dataset, 0.1, {"iterations": 40}, seed),
            lambda: lo_ransac(data.dataset, 0.1, {"iterations": 40}, seed),
        ):
            res = solve()
            assert_result_feasible(data.dataset, res, 0.1)


def test_ransac_time_budget():
    data = gen_hyperplane_data(GenSpec(n=60, dim=2, outlier_fraction=0.3, seed=33))
    res = ransac(data.dataset, 0.1, {"time": 1e-9, "max_iterations": 10**6}, 3)
    assert res.budget_exhausted
    # the clock is read once per chunk, so the budget stops the run within one
    res = ransac(data.dataset, 0.1, {"time": 0.05, "max_iterations": 10**6}, 3)
    assert res.budget_exhausted
    assert res.iterations < 10**5


def test_ransac_runs_explicit_iterations_beyond_max_iterations():
    data = gen_hyperplane_data(GenSpec(n=30, dim=2, outlier_fraction=0.3, seed=3))
    res = ransac(data.dataset, 0.1, RansacBudget(iterations=500, max_iterations=200), 0)
    assert res.iterations == res.oracle_evaluations == 500
    # the cap still bounds a confidence budget, which has no count of its own
    res = ransac(data.dataset, 0.1, RansacBudget(confidence=0.99999, max_iterations=5), 0)
    assert res.iterations == 5


@pytest.mark.parametrize(
    "bad",
    [{"iterations": -5}, {"confidence": 0.99, "max_iterations": 0}, {"time": 0.0}, {"time": -1.0}],
)
def test_ransac_budget_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        RansacBudget(**bad)
    with pytest.raises(ValueError):
        ransac(line_instance(seed=27).dataset, 0.1, bad, 0)


def reference_ransac(dataset, epsilon, budget, seed, refinement_depth):
    """One hypothesis at a time: the loop that chunked scoring replaced."""
    b = RansacBudget(**budget)
    gen = np.random.default_rng(seed)
    n, p = dataset.n, dataset.p
    feats, resp = dataset.features, dataset.responses
    best_count, best_theta = 0, None
    it = skipped = evals = 0
    target = b.iterations if b.iterations is not None else b.max_iterations
    adaptive = math.inf if b.confidence is not None else None
    while it < target and (adaptive is None or it < adaptive):
        pick = gen.choice(n, size=p, replace=False)
        it += 1
        evals += 1
        try:
            theta = np.linalg.solve(feats[pick], resp[pick])
        except np.linalg.LinAlgError:
            skipped += 1
            continue
        if not np.isfinite(theta).all():
            skipped += 1
            continue
        count = int((np.abs(feats @ theta - resp) <= epsilon).sum())
        if count > best_count:
            best_count, best_theta = count, theta
            for _ in range(refinement_depth):
                members = np.flatnonzero(np.abs(feats @ best_theta - resp) <= epsilon)
                fit = minimax_fit(dataset, (int(i) for i in members))
                evals += 1
                refined = int((np.abs(feats @ fit.theta.theta - resp) <= epsilon).sum())
                if refined > best_count:
                    best_count, best_theta = refined, fit.theta.theta
                else:
                    break
            if b.confidence is not None:
                w = best_count / n
                if w >= 1.0:
                    adaptive = it
                elif w > 0:
                    denom = math.log(1.0 - w**p) if w**p < 1.0 else -math.inf
                    if denom < 0:
                        adaptive = math.ceil(math.log(1.0 - b.confidence) / denom)
    inliers = tuple(int(i) for i in np.flatnonzero(np.abs(feats @ best_theta - resp) <= epsilon))
    return inliers, best_theta, it, evals, skipped, False


def duplicate_row_instance():
    rng = np.random.default_rng(0)
    feats = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)
    resp = feats @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.05, size=24)
    return LinearDataset(feats, resp)


@pytest.mark.parametrize("depth", [0, 2])
def test_ransac_matches_sequential_reference(depth):
    instances = [
        line_instance(seed=41, n=30).dataset,
        gen_hyperplane_data(GenSpec(n=60, dim=5, outlier_fraction=0.5, seed=43)).dataset,
        duplicate_row_instance(),
    ]
    budgets = [{"iterations": k} for k in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)]
    budgets.append({"confidence": 0.99})
    skipped = 0
    for ds in instances:
        for budget in budgets:
            for seed in (0, 1):
                got = ransac(ds, 0.1, budget, seed, refinement_depth=depth)
                want = reference_ransac(ds, 0.1, budget, seed, depth)
                assert got.inlier_set == want[0]
                assert np.array_equal(got.theta, want[1])
                assert got.iterations == want[2]
                assert got.oracle_evaluations == want[3]
                assert got.config["skipped_hypotheses"] == want[4]
                assert got.budget_exhausted == want[5]
                skipped += want[4]
    assert skipped > 0  # the duplicate rows make singular hypotheses


def test_ransac_solves_each_chunk_at_once(monkeypatch):
    calls = {"solve": 0, "inside_fit": 0}
    solve_fn, fit_fn = np.linalg.solve, solvers.minimax_fit

    def counting_solve(*args, **kwargs):
        if not calls["inside_fit"]:
            calls["solve"] += 1
        return solve_fn(*args, **kwargs)

    def fit_uncounted(*args, **kwargs):
        calls["inside_fit"] += 1
        try:
            return fit_fn(*args, **kwargs)
        finally:
            calls["inside_fit"] -= 1

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(solvers, "minimax_fit", fit_uncounted)
    data = gen_hyperplane_data(GenSpec(n=40, dim=3, outlier_fraction=0.3, seed=45))
    res = ransac(data.dataset, 0.1, {"iterations": 1000}, 0)
    assert res.iterations == 1000
    assert calls["solve"] <= math.ceil(1000 / CHUNK)


# ---------------------------------------------------------------------------
# One dispatch from method name to solver
# ---------------------------------------------------------------------------


def without_runtime(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "runtime_ms"}


@pytest.mark.parametrize("method", METHODS)
def test_solve_matches_direct_call_cli_and_experiment(method, tmp_path, capsys):
    path = tmp_path / "line.csv"
    save_dataset_csv(line_instance(8, n=12).dataset, path)
    ds = load_dataset_csv(path)
    eps, seed = 0.1, 3
    opts = {"q": 0.3, "samples": 150} if method in ("wi", "mbf") else {}
    got = solve(ds, method, eps, seed, **opts)
    want = without_runtime(got.to_json_dict())

    if method == "exact":
        inliers, theta = exact_maxcon_bases(ds, eps)
        assert (got.inlier_set, list(got.theta)) == (inliers, list(theta.theta))
    else:
        cfg = SolverConfig(epsilon=eps, seed=seed, **opts)
        budget = RansacBudget(confidence=0.99)
        direct = {
            "wi": lambda: wi_maxcon(ds, cfg),
            "mbf": lambda: mbf_maxcon(ds, cfg),
            "ransac": lambda: ransac(ds, eps, budget, seed),
            "lo-ransac": lambda: lo_ransac(ds, eps, budget, seed),
        }[method]()
        assert without_runtime(direct.to_json_dict()) == want

    flags = [f"--{k}={v}" for k, v in opts.items()]
    argv = ["fit", "--data", str(path), "--eps", str(eps), "--method", method, "--seed", str(seed)]
    assert main(argv + flags) == 0
    assert without_runtime(json.loads(capsys.readouterr().out)) == want

    report = run_experiment(
        ExperimentConfig(
            dataset={"source": "csv", "path": str(path)},
            epsilon=eps,
            methods=[{"name": method, **opts}],
            seeds=[seed],
        )
    )
    row = without_runtime(report.rows[0])
    assert row.pop("repetition") == 0
    assert row == want


def test_solve_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        solve(line_instance(0).dataset, "bogus", 0.1)
