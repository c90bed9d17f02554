"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6 and 7 solve hundreds of instances and take a few minutes.
"""

import math
from fractions import Fraction

import numpy as np

from maxcon import metrics, theory
from maxcon.cube import (
    as_mask,
    estimate_influence_bernoulli,
    estimate_influence_hamming,
    exact_fourier_first_order,
    exact_weighted_influence,
    flip_profile,
    level_table,
    level_weights,
    mask_from_string,
)
from maxcon.datagen import (
    GenSpec,
    gen_hyperplane_data,
    synthetic_fm_instance,
    synthetic_h_instance,
)
from maxcon.experiment import ExperimentConfig, influence_sweep_rows
from maxcon.models import FeasibilityOracle, exact_maxcon_bases, minimax_fit
from maxcon.solvers import SolverConfig, lo_ransac, local_expansion, ransac, wi_maxcon

from util import random_monotone_function

RATIONAL_QS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_influence_fourier_identity():
    """Influence equals the scaled first-order coefficient for monotone functions."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        f = random_monotone_function(n, rng)
        table = f.truth_table()
        for q in (0.1, 0.3, 0.5, 0.7):
            scale = math.sqrt(q * (1 - q))
            for i in range(n):
                inf = exact_weighted_influence(f, i, q, table)
                fc = exact_fourier_first_order(f, i, q, table)
                worst = max(worst, abs(inf + fc / scale))
    report(1, worst <= 1e-12, f"200 random monotone functions, worst identity gap {worst:.2e}")


def test_criterion_2_closed_forms_match_brute_force():
    """Closed-form influences equal exhaustive computation, in exact rationals."""
    landmark_in = theory.influence_ideal_single(8, 2, 6, Fraction(1, 2), "inlier")
    landmark_out = theory.influence_ideal_single(8, 2, 6, Fraction(1, 2), "outlier")
    spec = theory.StructureSpec(
        n=8,
        p=2,
        upper_zeros=(mask_from_string("10001101", 8), mask_from_string("00111111", 8)),
    )
    landmark_overlap = theory.class_influence(spec, (1, 1, 0), Fraction(1, 2))
    landmarks_ok = (
        landmark_in == Fraction(11, 128)
        and landmark_out == Fraction(63, 128)
        and landmark_overlap == Fraction(9, 128)
    )
    mismatches = 0
    classes = 0
    for grid_spec in theory.default_verification_grid():
        for q in RATIONAL_QS:
            for row in theory.verify_spec(grid_spec, q):
                classes += 1
                if row["abs_diff"] != 0:
                    mismatches += 1
    ok = landmarks_ok and mismatches == 0
    report(
        2,
        ok,
        f"landmarks 11/128, 63/128, 9/128 reproduced; {classes} class values "
        f"across the grid match brute force exactly ({mismatches} mismatches)",
    )


def test_criterion_3_ordering_corollary():
    """Dominating membership classes have strictly smaller influence."""
    comparisons = 0
    violations = 0
    ideal = [s for s in theory.default_verification_grid() if s.is_ideal]
    for spec in ideal:
        for q in (*RATIONAL_QS, 0.3):
            rep = theory.ordering_check(spec, q)
            comparisons += rep.comparisons
            violations += len(rep.violations)
    report(
        3,
        violations == 0 and comparisons > 0,
        f"{comparisons} comparable class pairs over {len(ideal)} ideal specs, "
        f"{violations} violations",
    )


def test_criterion_4_hamming_zero_inlier():
    """Slice sampling above the combinatorial dimension never charges an inlier."""
    configs = ((8, 2, 6), (10, 1, 7), (12, 2, 9), (14, 3, 11))
    checked_levels = 0
    for n, p, k1 in configs:
        spec = theory.StructureSpec(n=n, p=p, upper_zeros=(as_mask(range(k1), n),))
        f = theory.make_structured_bf(spec)
        table = f.truth_table()
        inliers = range(k1)
        outliers = range(k1, n)
        for k in range(p + 2, k1 + 1):
            checked_levels += 1
            for i in inliers:
                assert flip_profile(f, i, table)[k] == 0
            for i in outliers:
                assert flip_profile(f, i, table)[k] > 0
            for h in (1, 7, 64):
                rep = estimate_influence_hamming(f, list(inliers), k, h, seed=(n, k, h))
                assert all(v == 0.0 for v in rep.scores.values())
    # in the dense small setting the sampled outlier scores are positive too
    spec = theory.StructureSpec(n=8, p=2, upper_zeros=(as_mask(range(6), 8),))
    dense = theory.make_structured_bf(spec)
    rep = estimate_influence_hamming(dense, [6, 7], 4, 64, seed=14)
    assert all(v > 0.0 for v in rep.scores.values())
    report(
        4,
        checked_levels > 0,
        f"{checked_levels} (structure, level) combinations: inlier scores exactly 0 "
        "for every sample count, exhaustive outlier flip counts positive",
    )


def test_criterion_5_parameter_study_medians():
    """More samples and moderate bias improve the estimated influence ranking."""
    cfg = ExperimentConfig(
        dataset={"source": "generated", "n": 15, "dim": 2, "outlier_fraction": 0.3, "seed": 0},
        epsilon=0.1,
        kind="influence_sweep",
        q_values=[0.3, 0.5, 0.7],
        h_values=[300, 3000],
        trials=50,
        seed=2024,
    )
    rows = influence_sweep_rows(cfg)
    med = {}
    for q in cfg.q_values:
        for h in cfg.h_values:
            med[(q, h)] = float(
                np.median([r["sf_distance"] for r in rows if r["q"] == q and r["h"] == h])
            )
    ok_h = all(med[(q, 3000)] <= med[(q, 300)] for q in cfg.q_values)
    ok_q = med[(0.3, 3000)] <= med[(0.7, 3000)]
    detail = ", ".join(f"q={q}: {med[(q, 300)]:.3f}->{med[(q, 3000)]:.3f}" for q in cfg.q_values)
    report(5, ok_h and ok_q, f"medians over 50 trials ({detail})")


def test_criterion_6_solver_optimality():
    """Influence-guided removal recovers certified optima at desk scale."""
    hits = 0
    worst_deficit = 0
    for rep in range(50):
        n = 15 + (rep * 7) % 11  # cycles through 15..25
        data = gen_hyperplane_data(
            GenSpec(n=n, dim=2, outlier_fraction=0.3, seed=5000 + rep)
        )
        optimum, _ = exact_maxcon_bases(data.dataset, 0.1)
        res = wi_maxcon(data.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=300, seed=rep))
        deficit = metrics.consensus_error(res, len(optimum))
        worst_deficit = max(worst_deficit, deficit)
        hits += deficit == 0
    ok_2d = hits >= 45 and worst_deficit <= 1

    # uncertified high-dimensional smoke run at matched evaluation budgets
    wi_sizes, lo_sizes = [], []
    for rep in range(20):
        n_out = 10 + (rep * 30) // 19  # spans 10..40
        data = gen_hyperplane_data(
            GenSpec(n=200, dim=8, outlier_count=n_out, seed=6000 + rep)
        )
        res = wi_maxcon(data.dataset, SolverConfig(epsilon=0.1, q=0.1, samples=100, seed=rep))
        lo = lo_ransac(data.dataset, 0.1, {"iterations": res.oracle_evaluations}, rep)
        wi_sizes.append(res.consensus_size)
        lo_sizes.append(lo.consensus_size)
    ok_8d = float(np.mean(wi_sizes)) >= float(np.mean(lo_sizes))
    report(
        6,
        ok_2d and ok_8d,
        f"2d optimum in {hits}/50 runs (worst deficit {worst_deficit}); "
        f"8d smoke means wi={np.mean(wi_sizes):.2f} vs lo-ransac={np.mean(lo_sizes):.2f}",
    )


def test_criterion_7_baseline_ordering_trend():
    """At matched budgets: wi >= lo-ransac >= ransac in mean consensus (slack 1)."""
    details = []
    ok = True
    for name, make, eps, cfg_kwargs in (
        ("fundamental", synthetic_fm_instance, 0.02, dict(q=0.3, samples=100)),
        ("homography", synthetic_h_instance, 0.1, dict(q=0.3, samples=150)),
    ):
        wi_sizes, lo_sizes, ra_sizes = [], [], []
        for rep in range(20):
            dataset = make(seed=3000 + rep)
            res = wi_maxcon(dataset, SolverConfig(epsilon=eps, seed=rep, **cfg_kwargs))
            budget = {"iterations": res.oracle_evaluations}
            lo = lo_ransac(dataset, eps, budget, rep)
            ra = ransac(dataset, eps, budget, rep)
            wi_sizes.append(res.consensus_size)
            lo_sizes.append(lo.consensus_size)
            ra_sizes.append(ra.consensus_size)
        wi_m, lo_m, ra_m = (float(np.mean(s)) for s in (wi_sizes, lo_sizes, ra_sizes))
        ok = ok and wi_m >= lo_m - 1 and lo_m >= ra_m - 1
        details.append(f"{name}: wi={wi_m:.2f} lo={lo_m:.2f} ransac={ra_m:.2f}")
    report(7, ok, "; ".join(details))


def test_criterion_8_property_suites():
    """Bundled invariants: monotonicity, feasibility, idempotence, determinism."""
    # monotonicity of the feasibility function over sampled ordered pairs
    data = gen_hyperplane_data(GenSpec(n=14, dim=2, outlier_fraction=0.3, seed=8))
    table = FeasibilityOracle(data.dataset, 0.1).truth_table()
    rng = np.random.default_rng(0)
    masks = rng.integers(0, 1 << 14, size=10_000)
    supers = masks | rng.integers(0, 1 << 14, size=10_000)
    monotone_ok = bool(np.all(table[masks] <= table[supers]))

    # solver post-checks: every returned set verifies feasible independently
    posthoc_ok = True
    for seed in range(3):
        inst = gen_hyperplane_data(GenSpec(n=16, dim=2, outlier_fraction=0.3, seed=40 + seed))
        results = [
            wi_maxcon(inst.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=seed)),
            ransac(inst.dataset, 0.1, {"iterations": 40}, seed),
            lo_ransac(inst.dataset, 0.1, {"iterations": 40}, seed),
        ]
        for res in results:
            if res.consensus_size > inst.dataset.p:
                posthoc_ok &= minimax_fit(inst.dataset, res.inlier_set).value <= 0.1

    # local expansion is idempotent on its own output
    inst = gen_hyperplane_data(GenSpec(n=15, dim=2, outlier_fraction=0.3, seed=77))
    optimum, _ = exact_maxcon_bases(inst.dataset, 0.1)
    grown = local_expansion(inst.dataset, 0.1, optimum[:-1])
    idempotent_ok = local_expansion(inst.dataset, 0.1, grown) == grown

    # seed determinism across thread counts
    f = random_monotone_function(9, np.random.default_rng(3))
    est1 = estimate_influence_bernoulli(f, range(9), 0.3, 80, seed=5)
    est4 = estimate_influence_bernoulli(f, range(9), 0.3, 80, seed=5)
    solver1 = wi_maxcon(inst.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=9, workers=1))
    solver4 = wi_maxcon(inst.dataset, SolverConfig(epsilon=0.1, q=0.3, samples=150, seed=9, workers=4))
    determinism_ok = est1.scores == est4.scores and solver1.inlier_set == solver4.inlier_set

    # product-measure normalisation by enumeration
    norm_ok = True
    for n in (6, 13, 20):
        counts = np.bincount(level_table(n), minlength=n + 1)
        for q in (0.15, 0.5, 0.85):
            total = sum(int(c) * w for c, w in zip(counts, level_weights(n, q)))
            norm_ok &= abs(total - 1.0) <= 1e-12

    # rank-distance unit examples, exact
    sf_ok = (
        metrics.sf_distance(["a", "b", "c"], ["a", "b", "c"]) == 0.0
        and metrics.sf_distance(["a", "b", "c"], ["c", "b", "a"]) == 1 / 3
        and metrics.sf_distance(["a", "b", "c"], ["d", "e", "f"]) == 1.0
    )

    checks = {
        "monotonicity": monotone_ok,
        "posthoc feasibility": posthoc_ok,
        "expansion idempotence": idempotent_ok,
        "thread determinism": determinism_ok,
        "measure normalisation": norm_ok,
        "sf examples": sf_ok,
    }
    report(8, all(checks.values()), ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
