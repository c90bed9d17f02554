import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxcon import models
from maxcon.cube import (
    ENUMERATION_CAP,
    TabulatedFunction,
    as_mask,
    estimate_influence_bernoulli,
    flags_masks,
    mask_from_string,
    mask_rows,
    masks_flags,
    upward_closure_table,
)
from maxcon.datagen import GenSpec, gen_hyperplane_data, synthetic_h_instance
from maxcon.errors import BudgetError, ContractError
from maxcon.models import (
    FeasibilityOracle,
    LinearDataset,
    ModelParams,
    _chebyshev_combos,
    _chebyshev_lp,
    _exchange,
    basis,
    exact_maxcon_bases,
    exact_maxcon_enumerate,
    load_dataset_csv,
    minimax_fit,
    residual,
    save_dataset_csv,
)
from maxcon.solvers import solve
from maxcon.theory import StructureSpec, make_structured_bf

from util import chebyshev_probe_value


def three_point_dataset():
    """Points (0,0), (1,0), (0.5,1) under the model y = t1*x + t2."""
    return LinearDataset(
        features=np.array([[0.0, 1.0], [1.0, 1.0], [0.5, 1.0]]),
        responses=np.array([0.0, 0.0, 1.0]),
    )


# ---------------------------------------------------------------------------
# Dataset and residuals
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValueError):
        LinearDataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        LinearDataset(np.array([[1.0, np.inf]]), np.array([0.0]))
    with pytest.raises(ValueError):
        LinearDataset(np.ones((2, 2)), np.ones(3))


def test_residual_examples():
    # point x=0 of the three-point instance: row (0, 1), response 0
    ds = LinearDataset(np.array([[0.0, 1.0]]), np.array([0.0]))
    assert residual(ds, 0, np.array([0.0, 0.5])) == pytest.approx(0.5)

    ds2 = LinearDataset(np.array([[2.0, 1.0]]), np.array([2.0 * 3 + 1.0 * 4]))
    assert residual(ds2, 0, np.array([3.0, 4.0])) == 0.0

    ds3 = LinearDataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    assert residual(ds3, 0, np.array([12.0, -7.0])) == 1.0


def test_residual_errors():
    ds = three_point_dataset()
    with pytest.raises(IndexError):
        residual(ds, 3, np.zeros(2))
    with pytest.raises(ValueError):
        residual(ds, 0, np.zeros(3))
    with pytest.raises(ValueError):
        ModelParams(np.array([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# Minimax fitting
# ---------------------------------------------------------------------------


def test_minimax_three_point_example():
    fit = minimax_fit(three_point_dataset())
    assert fit.value == pytest.approx(0.5, abs=1e-9)
    assert fit.theta.theta == pytest.approx([0.0, 0.5], abs=1e-8)
    assert fit.active_set == (0, 1, 2)


def test_minimax_matches_dense_grid_search():
    # brute-force oracle: dense grid over the two parameters
    ds = three_point_dataset()
    t1 = np.linspace(-2, 2, 401)
    t2 = np.linspace(-2, 2, 401)
    grid = np.array(np.meshgrid(t1, t2)).reshape(2, -1).T
    best = chebyshev_probe_value(ds.features, ds.responses, grid)
    assert best == pytest.approx(0.5, abs=1e-6)
    assert minimax_fit(ds).value <= best + 1e-9


def test_minimax_interpolation_cases():
    rng = np.random.default_rng(0)
    feats = np.column_stack([rng.uniform(-5, 5, 4), np.ones(4)])
    theta = np.array([0.7, -0.3])
    ds = LinearDataset(feats, feats @ theta)
    fit = minimax_fit(ds)
    assert fit.value == pytest.approx(0.0, abs=1e-9)
    # <= p points in general position interpolate exactly
    two = minimax_fit(ds, [0, 2])
    assert two.value == pytest.approx(0.0, abs=1e-9)


def test_minimax_requires_nonempty_subset():
    with pytest.raises(ContractError):
        minimax_fit(three_point_dataset(), [])


def test_minimax_optimality_against_probes():
    rng = np.random.default_rng(42)
    for _ in range(6):
        n = int(rng.integers(4, 12))
        feats = np.column_stack([rng.uniform(-5, 5, n), np.ones(n)])
        resp = feats @ rng.uniform(-1, 1, 2) + rng.uniform(-1, 1, n)
        ds = LinearDataset(feats, resp)
        size = int(rng.integers(2, n + 1))
        subset = sorted(rng.choice(n, size, replace=False))
        fit = minimax_fit(ds, subset)
        probes = rng.uniform(-3, 3, size=(10_000, 2))
        best = chebyshev_probe_value(feats[subset], resp[np.array(subset)], probes)
        assert fit.value <= best + 1e-9


def lp_fit_counted(ds, rows):
    """minimax_fit of rows, the number of LP fits it made, and the LP's own
    value and active set by minimax_fit's rule."""
    with mock.patch.object(models, "_chebyshev_lp", wraps=_chebyshev_lp) as lp:
        fit = minimax_fit(ds, rows)
    value, _, resid = _chebyshev_lp(*ds.rows(rows))
    tau = models.ACTIVE_SET_RTOL * (1.0 + value)
    active = tuple(int(rows[j]) for j in np.flatnonzero(resid >= value - tau))
    return fit, lp.call_count, value, active


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8]))
@settings(max_examples=30, deadline=None)
def test_minimax_fit_matches_lp_in_general_position(seed, p):
    rng = np.random.default_rng(seed)
    n = 5 * p + 10
    spec = GenSpec(n=n, dim=p, outlier_count=n // 5, seed=int(rng.integers(2**31)))
    ds = gen_hyperplane_data(spec).dataset
    for _ in range(8):
        rows = np.sort(rng.choice(n, int(rng.integers(p + 1, n + 1)), replace=False))
        fit, _, value, active = lp_fit_counted(ds, rows)
        A, y = ds.rows(rows)
        assert abs(fit.value - value) <= models.TIE_RTOL * (value + np.abs(y).max())
        assert np.abs(A @ fit.theta.theta - y).max() == pytest.approx(fit.value, rel=1e-12)
        assert fit.active_set == active


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
@example(0, 2, False, True)  # rank-one features: every ascent falls back to the LP
def test_minimax_fit_matches_lp_on_degenerate_data(seed, p, duplicates, collinear):
    ds, _, rng = degenerate_dataset(seed, p, duplicates, collinear)
    fallbacks = 0
    for _ in range(15):
        rows = np.sort(rng.choice(ds.n, int(rng.integers(p + 1, ds.n + 1)), replace=False))
        fit, lp_calls, value, _ = lp_fit_counted(ds, rows)
        fallbacks += lp_calls
        assert fit.value == pytest.approx(value, abs=1e-9)
    if collinear and p == 2:
        assert fallbacks > 0


def assert_exchange_certificate(A, y, eps, verdict, evidence):
    """An infeasible reference must be infeasible on its own rows; a feasible
    theta must fit every row within eps."""
    if verdict == 1:
        value, _, _ = _chebyshev_lp(A[evidence], y[evidence])
        assert value > eps
    else:
        assert verdict == 0
        assert np.abs(A @ evidence - y).max() <= eps


def exchange_answers(*args):
    """_exchange's answers query by query, as (verdict, evidence): the core
    rows for a verdict 1, otherwise the theta row (zero for a give-up, -1)."""
    verdicts, thetas, cores = _exchange(*args)
    return [(v, cores[b] if v == 1 else thetas[b]) for b, v in enumerate(verdicts.tolist())]


def test_exchange_agrees_with_lp_on_random_subsets():
    rng = np.random.default_rng(7)
    for p, n in ((2, 30), (8, 120)):
        feats = np.column_stack([rng.uniform(-5, 5, (n, p - 1)), np.ones(n)])
        resp = feats @ rng.uniform(-1, 1, p) + rng.uniform(-0.3, 0.3, n)
        resp[: n // 5] += rng.uniform(1, 3, n // 5)  # plant conflicts
        for _ in range(120):
            m = int(rng.integers(p + 1, min(n, 4 * p + 10)))
            rows = rng.choice(n, m, replace=False)
            A, y = feats[rows], resp[rows]
            value, _, _ = _chebyshev_lp(A, y)
            start = np.linalg.lstsq(A, y, rcond=None)[0]
            verdict, evidence = exchange_answers(A, y, np.ones((1, len(y)), bool), 0.25, start)[0]
            assert verdict == int(value > 0.25)
            assert_exchange_certificate(A, y, 0.25, verdict, evidence)


def stacked_members(rng, n, p, count):
    """count random subsets of more than p of n rows, as a (count, n) flag stack."""
    members = np.zeros((count, n), dtype=bool)
    for row in members:
        row[rng.choice(n, int(rng.integers(p + 1, n + 1)), replace=False)] = True
    return members


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8]))
@settings(max_examples=30, deadline=None)
def test_exchange_without_eps_ends_stacked_queries_at_their_optimum(seed, p):
    # minimax_fit sends one query at a time; stacked queries with no eps
    # must each end at their own optimum too
    rng = np.random.default_rng(seed)
    n = 5 * p + 10
    spec = GenSpec(n=n, dim=p, outlier_count=n // 5, seed=int(rng.integers(2**31)))
    ds = gen_hyperplane_data(spec).dataset
    A, y = ds.features, ds.responses
    members = stacked_members(rng, n, p, 8)
    start = np.linalg.lstsq(A, y, rcond=None)[0]
    for row, (verdict, theta) in zip(members, exchange_answers(A, y, members, None, start)):
        assert verdict == 0
        value, _, _ = _chebyshev_lp(A[row], y[row])
        worst = np.abs(A[row] @ theta - y[row]).max()
        assert abs(worst - value) <= models.TIE_RTOL * (value + np.abs(y[row]).max())


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_exchange_without_eps_on_degenerate_data(seed, p, duplicates, collinear):
    ds, _, rng = degenerate_dataset(seed, p, duplicates, collinear)
    A, y = ds.features, ds.responses
    members = stacked_members(rng, ds.n, p, 15)
    start = np.linalg.lstsq(A, y, rcond=None)[0]
    for row, (verdict, theta) in zip(members, exchange_answers(A, y, members, None, start)):
        assert verdict != 1
        if verdict == 0:
            value, _, _ = _chebyshev_lp(A[row], y[row])
            assert np.abs(A[row] @ theta - y[row]).max() == pytest.approx(value, abs=1e-9)


def test_exchange_matches_lp_on_homography_subsets(monkeypatch):
    # a homography row spans only 5 of the 8 columns, so some references
    # have a zero multiplier; the ascent goes on through them
    eps = 0.1
    reference = models._reference
    zero_multipliers = 0

    def counting(a_ref, y_ref):
        nonlocal zero_multipliers
        lam, h, _, _, ok = out = reference(a_ref, y_ref)
        tie = eps + models.TIE_RTOL * (eps + np.abs(y_ref).max(axis=1))
        zero_multipliers += int((ok & (h <= tie) & (lam == 0).any(axis=1)).sum())
        return out

    monkeypatch.setattr(models, "_reference", counting)
    for seed in range(3000, 3010):
        ds = synthetic_h_instance(seed, eps=eps)
        A, y = ds.features, ds.responses
        members = stacked_members(np.random.default_rng(seed), ds.n, ds.p, 120)
        start = np.linalg.lstsq(A, y, rcond=None)[0]
        for row, (verdict, evidence) in zip(members, exchange_answers(A, y, members, eps, start)):
            if verdict < 0:
                continue
            rows = np.flatnonzero(row)
            value, _, _ = _chebyshev_lp(A[rows], y[rows])
            if abs(value - eps) > 1e-9:
                assert verdict == int(value > eps)
            if verdict == 1:
                assert row[evidence].all()
                evidence = np.searchsorted(rows, evidence)
            assert_exchange_certificate(A[rows], y[rows], eps, verdict, evidence)
    assert zero_multipliers > 0


def test_exchange_keeps_the_lp_off_the_oracle_hot_path():
    data = gen_hyperplane_data(GenSpec(n=80, dim=8, seed=11, outlier_count=10))
    oracle = FeasibilityOracle(data.dataset, 0.1)
    estimate_influence_bernoulli(oracle, range(80), 0.15, 100, 0)
    assert oracle.core_tests > 0
    assert oracle.lp_solves == 0


def test_exchange_stacks_the_oracle_hot_path(monkeypatch):
    # one stacked exchange per resolve that has misses: three solves per
    # pivot round of the stack, not three per pivot of every query
    data = gen_hyperplane_data(GenSpec(n=80, dim=8, seed=11, outlier_count=10))
    oracle = FeasibilityOracle(data.dataset, 0.1)
    solve, exchange, resolve = np.linalg.solve, models._exchange, oracle.resolve
    calls, stacks, with_misses = 0, 0, 0

    def counting_solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    def counting_exchange(*args):
        nonlocal stacks
        stacks += 1
        return exchange(*args)

    def counting_resolve(subsets):
        nonlocal with_misses
        before = oracle.core_tests
        verdicts = resolve(subsets)
        with_misses += oracle.core_tests > before
        return verdicts

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(models, "_exchange", counting_exchange)
    monkeypatch.setattr(oracle, "resolve", counting_resolve)
    estimate_influence_bernoulli(oracle, range(80), 0.15, 100, 0)
    assert oracle.core_tests > 0
    assert stacks == with_misses > 0
    assert calls <= oracle.core_tests // 4


def degenerate_dataset(seed: int, p: int, duplicates: bool, collinear: bool):
    """Small dataset with duplicate rows, dependent feature columns and
    responses at exactly +-eps from a planted theta, plus a few outliers."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(p + 3, 15))
    feats = np.column_stack([rng.uniform(-3, 3, (n, p - 1)), np.ones(n)])
    if collinear:
        feats[:, 0] = rng.uniform(-2, 2) * feats[:, 1]
    if duplicates:
        k = n // 3
        feats[n - k :] = feats[rng.integers(0, n - k, k)]
    eps = 0.1
    resp = feats @ rng.uniform(-1, 1, p) + eps * rng.choice([-1.0, 0.0, 1.0], n)
    outliers = np.flatnonzero(rng.random(n) < 0.25)
    resp[outliers] += rng.choice([-1.0, 1.0], len(outliers)) * rng.uniform(0.2, 1.0, len(outliers))
    return LinearDataset(feats, resp), eps, rng


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_oracle_and_exchange_on_degenerate_data(seed, p, duplicates, collinear):
    ds, eps, rng = degenerate_dataset(seed, p, duplicates, collinear)
    oracle = FeasibilityOracle(ds, eps)
    for _ in range(15):
        rows = np.sort(rng.choice(ds.n, int(rng.integers(p + 1, ds.n + 1)), replace=False))
        A, y = ds.rows(rows)
        value, _, _ = _chebyshev_lp(A, y)
        verdict = oracle(rows)
        if abs(value - eps) > 1e-9:
            assert verdict == int(value > eps)
        start = np.linalg.lstsq(A, y, rcond=None)[0]
        answer, evidence = exchange_answers(A, y, np.ones((1, len(y)), bool), eps, start)[0]
        if answer >= 0:
            assert_exchange_certificate(A, y, eps, answer, evidence)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
@example(1, 2, False, False)  # LP fallbacks at a tie
@example(1391, 3, False, True)  # an exchange whose worst point is in its reference
def test_resolve_matches_lp_and_caches_checked_certificates(seed, p, duplicates, collinear):
    ds, eps, rng = degenerate_dataset(seed, p, duplicates, collinear)
    oracle = FeasibilityOracle(ds, eps)
    subsets = [
        np.sort(rng.choice(ds.n, int(rng.integers(p + 1, ds.n + 1)), replace=False))
        for _ in range(150)
    ]
    verdicts = oracle.resolve([as_mask(rows, ds.n) for rows in subsets])
    assert oracle.evaluations == 0
    for rows, verdict in zip(subsets, verdicts):
        value, _, _ = _chebyshev_lp(*ds.rows(rows))
        if abs(value - eps) > 1e-9:
            assert verdict == int(value > eps)
        assert oracle(rows) == verdict
    for core in oracle._cores:
        assert len(set(core.tolist())) == p + 1
        assert 0 <= core.min() and core.max() < ds.n
        value, _, _ = _chebyshev_lp(*ds.rows(core))
        assert value > eps
    assert len(oracle._thetas) == len(oracle._outside)
    for (coverage, theta), outside, cover in zip(
        oracle._thetas, oracle._outside, cached_covers(oracle)
    ):
        inside = np.abs(ds.features @ theta - ds.responses) <= eps
        assert np.array_equal(outside, models._words(~inside[None])[0])
        assert coverage == inside.sum() == cover.bit_count()
        A, y = ds.rows(mask_rows(cover, ds.n))
        assert np.abs(A @ theta - y).max() <= eps


def sign_pattern_combos(A, y, combos):
    """Reference (p+1)-subset Chebyshev fits: solve [A | -s] x = y for every
    sign pattern s with s_0 = +1 and keep the smallest achieved residual."""
    S, m = combos.shape
    p = m - 1
    pats = np.arange(1 << p)
    signs = np.ones((len(pats), m))
    for i in range(1, m):
        signs[:, i] = 1.0 - 2.0 * ((pats >> (i - 1)) & 1)
    A_sub, y_sub = A[combos], y[combos]
    M = np.empty((S, len(pats), m, m))
    M[..., :p] = A_sub[:, None, :, :]
    M[..., p] = -signs[None, :, :]
    singular = np.linalg.slogdet(M)[0] == 0.0
    M[singular] = np.eye(m)
    x = np.linalg.solve(M, np.broadcast_to(y_sub[:, None, :, None], (S, len(pats), m, 1)))
    th = x[..., :p, 0]
    pred = np.einsum("smp,sKp->sKm", A_sub, th)
    achieved = np.abs(pred - y_sub[:, None, :]).max(axis=-1)
    achieved = np.where(np.isnan(achieved) | singular, np.inf, achieved)
    best = np.argmin(achieved, axis=1)
    rows = np.arange(S)
    values, thetas = achieved[rows, best], th[rows, best]
    for d in np.flatnonzero(singular.all(axis=1)):
        values[d], thetas[d], _ = _chebyshev_lp(A_sub[d], y_sub[d])
    return values, thetas


@pytest.mark.parametrize("p,n", [(2, 25), (3, 16), (4, 14), (5, 12), (6, 12), (7, 12), (8, 12)])
def test_chebyshev_combos_equal_sign_pattern_reference(p, n):
    # in general position the kernel's sigma is the winning sign pattern up to
    # a common sign, which LU solves to the same theta bit for bit
    for seed in range(2):
        ds = gen_hyperplane_data(GenSpec(n=n, dim=p, outlier_count=n // 4, seed=seed)).dataset
        combos = np.array(list(itertools.combinations(range(n), p + 1)))
        values, thetas = _chebyshev_combos(ds.features, ds.responses, combos)
        want_values, want_thetas = sign_pattern_combos(ds.features, ds.responses, combos)
        assert np.array_equal(values, want_values)
        assert np.array_equal(thetas, want_thetas)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_chebyshev_combos_match_lp_on_degenerate_data(seed, p, duplicates, collinear):
    ds, _, rng = degenerate_dataset(seed, p, duplicates, collinear)
    combos = np.array([np.sort(rng.choice(ds.n, p + 1, replace=False)) for _ in range(60)])
    values, thetas = _chebyshev_combos(ds.features, ds.responses, combos)
    for rows, value, theta in zip(combos, values, thetas):
        A, y = ds.rows(rows)
        assert value == pytest.approx(_chebyshev_lp(A, y)[0], abs=1e-9)
        assert np.abs(A @ theta - y).max() == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_chebyshev_combos_return_the_lp_rows_of_give_ups():
    # a subset the exchange gives up on takes the LP's own value and theta
    # bit for bit: a value recomputed from theta moves degenerate tables
    for p, duplicates, collinear in itertools.product((2, 3), (False, True), (False, True)):
        ds, _, _ = degenerate_dataset(1, p, duplicates, collinear)
        A, y = ds.features, ds.responses
        combos = np.array(list(itertools.combinations(range(ds.n), p + 1)))
        members = np.zeros((len(combos), ds.n), dtype=bool)
        members[np.arange(len(combos))[:, None], combos] = True
        gave_up = _exchange(A, y, members, None, np.zeros(p))[0] < 0
        if collinear and p == 2:
            assert gave_up.all()
        values, thetas = _chebyshev_combos(A, y, combos)
        for rows, value, theta in zip(combos[gave_up], values[gave_up], thetas[gave_up]):
            want_value, want_theta, _ = _chebyshev_lp(A[rows], y[rows])
            assert value == want_value
            assert np.array_equal(theta, want_theta)


def test_truth_table_matches_lp_on_collinear_features():
    ds, eps, _ = degenerate_dataset(0, 3, False, True)
    table = FeasibilityOracle(ds, eps).truth_table()
    for rows in itertools.combinations(range(ds.n), 4):
        value, _, _ = _chebyshev_lp(*ds.rows(rows))
        if abs(value - eps) > 1e-9:
            assert table[as_mask(rows, ds.n)] == int(value > eps)


def test_exact_solve_on_collinear_features_is_verified():
    ds, eps, _ = degenerate_dataset(1, 3, False, True)
    result = solve(ds, "exact", eps)
    assert result.consensus_size == len(result.inlier_set) > 0
    assert minimax_fit(ds, result.inlier_set).value <= eps


def test_chebyshev_combos_match_lp():
    rng = np.random.default_rng(3)
    n, p = 12, 2
    feats = np.column_stack([rng.uniform(-5, 5, n), np.ones(n)])
    resp = feats @ np.array([0.4, 0.1]) + rng.uniform(-0.5, 0.5, n)
    combos = np.array(list(itertools.combinations(range(n), p + 1)))
    values, thetas = _chebyshev_combos(feats, resp, combos)
    for k in range(0, len(combos), 37):
        rows = combos[k]
        ref, _, _ = _chebyshev_lp(feats[rows], resp[rows])
        assert values[k] == pytest.approx(ref, abs=1e-9)
        achieved = np.abs(feats[rows] @ thetas[k] - resp[rows]).max()
        assert achieved == pytest.approx(values[k], abs=1e-9)


def test_chebyshev_combos_underflowing_determinant():
    # the determinants of both reference solves underflow to 0.0, but
    # neither system is singular, and the levelled fit is within 0.0342
    rng = np.random.default_rng(0)
    A = np.column_stack([rng.uniform(-1, 1, (5, 3)) * 1e-120, np.ones(5)])
    y = rng.uniform(-1, 1, 5)
    values, thetas = _chebyshev_combos(A, y, np.arange(5)[None])
    assert values[0] <= 0.0342
    assert np.abs(A @ thetas[0] - y).max() == values[0]


def test_chebyshev_combos_degenerate_rows():
    # duplicated feature rows with conflicting responses force the fallback
    feats = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
    resp = np.array([0.0, 1.0, 0.3, 0.2])
    combos = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3]])
    values, _ = _chebyshev_combos(feats, resp, combos)
    for k, rows in enumerate(combos):
        ref, _, _ = _chebyshev_lp(feats[rows], resp[rows])
        assert values[k] == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# Basis extraction
# ---------------------------------------------------------------------------


def test_basis_three_point_example():
    assert basis(three_point_dataset(), [0, 1, 2], 0.4) == (0, 1, 2)


def test_basis_rejects_feasible_subset():
    with pytest.raises(ContractError):
        basis(three_point_dataset(), [0, 1, 2], 0.6)


def test_basis_contains_planted_outlier():
    rng = np.random.default_rng(8)
    x = rng.uniform(-5, 5, 11)
    feats = np.column_stack([x, np.ones(11)])
    resp = feats @ np.array([0.5, 1.0])
    resp[10] += 3.0  # the outlier
    ds = LinearDataset(feats, resp)
    b = basis(ds, range(11), 0.01)
    assert 10 in b
    # removing the outlier leaves a feasible set
    rest_fit = minimax_fit(ds, [i for i in range(11) if i != 10])
    assert rest_fit.value <= 0.01


# ---------------------------------------------------------------------------
# Feasibility oracle
# ---------------------------------------------------------------------------


def test_feasibility_examples():
    ds = three_point_dataset()
    assert FeasibilityOracle(ds, 0.6)(0b111) == 0
    assert FeasibilityOracle(ds, 0.4)(0b111) == 1
    assert FeasibilityOracle(ds, 0.4)(0) == 0


def test_oracle_accepts_numpy_indices_beyond_int64():
    # every point on the line y = 0 except point 150
    x = np.linspace(0.0, 1.0, 200)
    ds = LinearDataset(np.column_stack([x, np.ones(200)]), (np.arange(200) == 150).astype(float))
    oracle = FeasibilityOracle(ds, 0.1)
    assert oracle(np.array([3, 5, 70, 150])) == 1
    assert oracle(np.array([3, 5, 70, 149])) == 0


def test_oracle_all_masks_match_truth_table_and_cover_masks():
    data = gen_hyperplane_data(GenSpec(n=12, dim=2, outlier_count=4, seed=9))
    ds = data.dataset
    oracle = FeasibilityOracle(ds, 0.1)
    masks = np.random.default_rng(3).permutation(1 << 12)
    got = np.array([oracle(int(m)) for m in masks], dtype=np.uint8)
    assert np.array_equal(got, oracle.truth_table()[masks])
    assert oracle._thetas and len(oracle._thetas) == len(oracle._outside)
    for (coverage, theta), cover in zip(oracle._thetas, cached_covers(oracle)):
        within = np.flatnonzero(np.abs(ds.features @ theta - ds.responses) <= 0.1)
        assert cover == as_mask(within, 12)
        assert coverage == cover.bit_count()


def test_oracle_counts_and_counter_reset():
    ds = three_point_dataset()
    oracle = FeasibilityOracle(ds, 0.4)
    oracle(0b111)
    oracle(0b011)
    assert oracle.evaluations == 2
    oracle.reset_counters()
    assert oracle.evaluations == 0


def test_oracle_shortcut_soundness():
    data = gen_hyperplane_data(GenSpec(n=10, dim=2, outlier_count=3, seed=2))
    oracle = FeasibilityOracle(data.dataset, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(200):
        size = int(rng.integers(0, 3))
        rows = rng.choice(10, size, replace=False)
        mask = sum(1 << int(i) for i in rows)
        assert oracle(mask) == 0
        if size:
            value, _, _ = _chebyshev_lp(data.dataset.features[rows], data.dataset.responses[rows])
            assert value <= 0.1 + 1e-9


def test_oracle_truth_table_matches_direct_lp():
    data = gen_hyperplane_data(GenSpec(n=10, dim=2, outlier_count=3, seed=5))
    ds = data.dataset
    table = FeasibilityOracle(ds, 0.1).truth_table()
    for mask in range(1 << 10):
        rows = mask_rows(mask, 10)
        if len(rows) <= 2:
            want = 0
        else:
            value, _, _ = _chebyshev_lp(ds.features[rows], ds.responses[rows])
            want = int(value > 0.1)
        assert table[mask] == want


def test_oracle_monotonicity_sampled_pairs():
    data = gen_hyperplane_data(GenSpec(n=14, dim=2, outlier_count=4, seed=6))
    oracle = FeasibilityOracle(data.dataset, 0.1)
    table = oracle.truth_table()
    rng = np.random.default_rng(1)
    masks = rng.integers(0, 1 << 14, size=10_000)
    supers = masks | rng.integers(0, 1 << 14, size=10_000)
    assert np.all(table[masks] <= table[supers])


def test_oracle_determinism_across_call_and_resolve():
    data = gen_hyperplane_data(GenSpec(n=12, dim=2, outlier_count=4, seed=7))
    ds = data.dataset
    masks = [int(m) for m in np.random.default_rng(2).integers(0, 1 << 12, size=600)]
    want = [FeasibilityOracle(ds, 0.1)(m) for m in masks]
    assert [FeasibilityOracle(ds, 0.1)(m) for m in masks] == want
    batched = FeasibilityOracle(ds, 0.1)
    assert batched.resolve(masks) == want
    assert batched.evaluations == 0
    assert [batched(m) for m in masks] == want
    assert batched.evaluations == len(masks)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 200])
def test_words_layout(width):
    # bit j of word w is flag 64 w + j, and the bits past the last flag are 0
    flags = np.random.default_rng(width).random((5, width)) < 0.5
    flags[0], flags[1] = False, True
    words = models._words(flags)
    assert words.dtype == np.uint64 and words.shape == (5, -(-width // 64))
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(5, -1).astype(bool)
    assert np.array_equal(bits[:, :width], flags)
    assert not bits[:, width:].any()
    assert models._words(flags[:0]).shape == (0, words.shape[1])


def cached_covers(oracle):
    """The covers of the oracle's cached fits as masks, best fit first."""
    full = (1 << oracle.n) - 1
    return [full & ~int.from_bytes(row.tobytes(), "little") for row in oracle._outside]


def cached_cores(oracle):
    """The oracle's cached cores as masks, newest first."""
    return [sum(1 << i for i in core) for core in oracle._cores.tolist()]


def oracle_state(o):
    """Counters, memo and both certificate caches of an oracle, as a copy."""
    return (o.core_tests, o.lp_solves, o.evaluations, dict(o._memo), o._cores.tolist(),
            o._outside.tolist(), [(coverage, list(theta)) for coverage, theta in o._thetas])


def sequential_resolve(oracle, masks):
    """``resolve`` one mask at a time: every distinct mask the trivial and
    memo layers leave open is tested against the theta-cover and core layers,
    the leading misses whose stack, masks x the widest mask's points, fits
    ``EXCHANGE_CELLS`` are settled by one exchange, and the rest are tested
    again against the caches it updated."""
    out, pending = [], {}
    for mask in masks:
        verdict = 0 if mask.bit_count() <= oracle.p else oracle._memo.get(mask)
        if verdict is None:
            pending.setdefault(mask, []).append(len(out))
        out.append(verdict)
    while pending:
        covers, cores, misses = cached_covers(oracle), cached_cores(oracle), []
        for mask, positions in pending.items():
            if any(mask & ~cover == 0 for cover in covers):
                verdict = oracle._memo[mask] = 0
            elif any(core & mask == core for core in cores):
                verdict = oracle._memo[mask] = 1
            else:
                misses.append(mask)
                continue
            for pos in positions:
                out[pos] = verdict
        lead = misses[:1]
        for mask in misses[1:]:
            widest = max(m.bit_count() for m in lead + [mask])
            if (len(lead) + 1) * widest > models.EXCHANGE_CELLS:
                break
            lead.append(mask)
        for mask, verdict in zip(lead, oracle._settle(lead, masks_flags(lead, oracle.n))):
            for pos in pending[mask]:
                out[pos] = verdict
        pending = {mask: pending[mask] for mask in misses[len(lead) :]}
    return out


def test_resolve_matches_sequential_reference(monkeypatch):
    # enough certificates to overflow both caches, so that answers from
    # evicted ones would show in the counts; at the default bound each
    # resolve settles its misses in one stack, at the small one in several
    data = gen_hyperplane_data(GenSpec(n=80, dim=8, outlier_count=20, seed=2))
    inliers = np.isin(np.arange(80), data.inliers)
    exchange, stacks = models._exchange, []

    def counting(*args):
        stacks[-1] += 1
        return exchange(*args)

    def inside(theta):
        return np.abs(data.dataset.features @ theta - data.dataset.responses) <= 0.05

    monkeypatch.setattr(models, "_exchange", counting)
    for cells in (models.EXCHANGE_CELLS, 1 << 11):
        monkeypatch.setattr(models, "EXCHANGE_CELLS", cells)
        rng = np.random.default_rng(2)
        oracle, ref = FeasibilityOracle(data.dataset, 0.05), FeasibilityOracle(data.dataset, 0.05)

        def consider_theta(theta, ref=ref):
            # append, stable sort by coverage, cut to size, rebuild the words
            coverage = int(inside(theta).sum())
            if len(ref._thetas) < models.THETA_CACHE_SIZE or coverage > ref._thetas[-1][0]:
                ref._thetas.append((coverage, theta))
                ref._thetas.sort(key=lambda e: -e[0])
                del ref._thetas[models.THETA_CACHE_SIZE :]
                ref._outside = models._words(np.array([~inside(th) for _, th in ref._thetas]))

        ref._consider_theta = consider_theta
        thetas, cores, per_resolve = set(), set(), []
        for _ in range(6):
            flags = rng.random((800, 80)) < rng.uniform(0.05, 0.6, size=(800, 1))
            flags &= inliers | (rng.random((800, 1)) < 0.5)
            masks = flags_masks(flags)
            masks += masks[:50]
            stacks.append(0)
            verdicts = oracle.resolve(masks)
            per_resolve.append(stacks[-1])
            assert verdicts == sequential_resolve(ref, masks)
            for mask in masks[::40]:
                ref._evals += 1
                assert oracle(mask) == sequential_resolve(ref, [mask])[0]
            assert oracle_state(oracle) == oracle_state(ref)
            thetas |= set(cached_covers(oracle))
            cores |= set(cached_cores(oracle))
        assert len(thetas) > models.THETA_CACHE_SIZE and len(cores) > models.WITNESS_CACHE_SIZE
        if cells == 1 << 11:
            assert min(per_resolve) > 1
        else:
            assert max(per_resolve) == 1


def test_resolve_of_no_masks_or_only_trivial_masks_changes_nothing():
    data = gen_hyperplane_data(GenSpec(n=30, dim=3, outlier_count=6, seed=4))
    rng = np.random.default_rng(4)
    trivial = [0] + [
        as_mask(rng.choice(30, k, replace=False), 30) for k in rng.integers(1, 4, size=200)
    ]
    for warm in (False, True):
        oracle = FeasibilityOracle(data.dataset, 0.1)
        if warm:
            oracle.resolve(flags_masks(rng.random((300, 30)) < 0.5))
            oracle(rng.choice(30, 12, replace=False))
            assert oracle._thetas and len(oracle._cores)
        before = oracle_state(oracle)
        assert oracle.resolve([]) == []
        assert oracle_state(oracle) == before
        assert oracle.resolve(trivial) == [0] * len(trivial)
        assert oracle_state(oracle) == before


# ---------------------------------------------------------------------------
# Exact MaxCon oracles
# ---------------------------------------------------------------------------


def test_exact_maxcon_all_inliers():
    data = gen_hyperplane_data(GenSpec(n=9, dim=2, outlier_count=0, seed=3))
    inliers, theta = exact_maxcon_bases(data.dataset, 0.1)
    assert inliers == tuple(range(9))


def test_exact_maxcon_minimal_n():
    data = gen_hyperplane_data(GenSpec(n=3, dim=3, outlier_count=0, seed=4))
    inliers, _ = exact_maxcon_bases(data.dataset, 0.05)
    assert inliers == (0, 1, 2)


def test_exact_maxcon_budget_refusal(monkeypatch):
    # 110 choose 3 = 215,820 triples exceed the cap; a fit would call None
    data = gen_hyperplane_data(GenSpec(n=110, dim=2, outlier_count=5, seed=5))
    monkeypatch.setattr(models, "_chebyshev_combos", None)
    with pytest.raises(BudgetError, match="215820"):
        exact_maxcon_bases(data.dataset, 0.1)


def test_exact_maxcon_tie_break_first_enumeration():
    # two parallel two-point groups, equal consensus; the first wins
    feats = np.ones((4, 1))
    resp = np.array([0.0, 0.0, 1.0, 1.0])
    ds = LinearDataset(feats, resp)
    inliers, theta = exact_maxcon_bases(ds, 0.05)
    assert inliers == (0, 1)


def test_exact_maxcon_without_feasible_basis_keeps_p_points():
    # no three of these points fit a line within eps, so the optimum has two:
    # first with n = p + 1 (the full set is infeasible), then with n > p + 1
    for ys in ([0.0, 5.0, 0.0], [0.0, 5.0, 0.0, 5.0]):
        ds = LinearDataset(np.column_stack([np.ones(len(ys)), np.arange(len(ys))]), np.array(ys))
        inliers, theta = exact_maxcon_bases(ds, 0.1)
        assert len(inliers) == len(exact_maxcon_enumerate(FeasibilityOracle(ds, 0.1))) == 2
        resid = np.abs(ds.features[list(inliers)] @ theta.theta - ds.responses[list(inliers)])
        assert np.all(resid <= 0.1)


def test_exact_maxcon_on_rank_deficient_features_keeps_one_point():
    # three copies of one row: every pair is singular and its least-squares fit
    # averages two responses, so only a single-point fit reaches a response
    for ys in ([0.0, 5.0, 11.0], [0.0, 5.0, 10.0]):
        ds = LinearDataset(np.tile([1.0, 0.0], (3, 1)), np.array(ys))
        inliers, _ = exact_maxcon_bases(ds, 0.1)
        assert len(inliers) == 1
        assert minimax_fit(ds, inliers).value <= 0.1


def test_exact_maxcon_counts_every_fallback_subset_against_the_cap(monkeypatch):
    ds = LinearDataset(np.column_stack([np.ones(4), np.arange(4.0)]), np.array([0.0, 5.0, 0.0, 5.0]))
    # 4 triples pass the cap, then 6 pairs and 4 singletons do not
    monkeypatch.setattr(models, "DEFAULT_MAX_BASES", 9)
    with pytest.raises(BudgetError):
        exact_maxcon_bases(ds, 0.1)
    monkeypatch.setattr(models, "DEFAULT_MAX_BASES", 10)
    assert len(exact_maxcon_bases(ds, 0.1)[0]) == 2


def test_enumerate_structured_toy():
    zeros = tuple(
        mask_from_string(s, 8) for s in ("00111111", "10001101", "01100010", "11010000")
    )
    spec = StructureSpec(n=8, p=2, upper_zeros=zeros)
    f = make_structured_bf(spec)
    assert exact_maxcon_enumerate(f) == (2, 3, 4, 5, 6, 7)


class AboveTheCap:
    """A function over more points than the enumeration cap; never evaluated."""

    n = ENUMERATION_CAP + 1

    def __call__(self, bits):
        raise AssertionError("evaluated above the enumeration cap")

    def truth_table(self):
        raise AssertionError("tabulated above the enumeration cap")


def test_enumerate_trivial_cases():
    assert exact_maxcon_enumerate(TabulatedFunction(np.zeros(1 << 6, dtype=np.uint8), 6)) == tuple(
        range(6)
    )
    spec = StructureSpec(n=6, p=2, upper_zeros=())
    f = make_structured_bf(spec)
    assert exact_maxcon_enumerate(f) == (0, 1)
    with pytest.raises(BudgetError):
        exact_maxcon_enumerate(AboveTheCap())
    # f(empty set) = 1: monotone, so every vertex is infeasible
    with pytest.raises(ValueError, match="no subset is feasible"):
        exact_maxcon_enumerate(TabulatedFunction(upward_closure_table(4, [0]), 4))


def test_oracle_truth_table_refused_above_the_cap():
    n = ENUMERATION_CAP + 1
    oracle = FeasibilityOracle(LinearDataset(np.ones((n, 1)), np.zeros(n)), 0.1)
    with pytest.raises(BudgetError):
        oracle.truth_table()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_oracle_agreement_bases_vs_enumerate(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(8, 15))
    data = gen_hyperplane_data(
        GenSpec(n=n, dim=2, outlier_fraction=0.3, seed=200 + seed)
    )
    inliers, _ = exact_maxcon_bases(data.dataset, 0.1)
    oracle = FeasibilityOracle(data.dataset, 0.1)
    enumerated = exact_maxcon_enumerate(oracle)
    assert len(inliers) == len(enumerated)


def test_oracle_agreement_larger_instance():
    data = gen_hyperplane_data(GenSpec(n=18, dim=2, outlier_fraction=0.3, seed=77))
    inliers, _ = exact_maxcon_bases(data.dataset, 0.1)
    enumerated = exact_maxcon_enumerate(FeasibilityOracle(data.dataset, 0.1))
    assert len(inliers) == len(enumerated)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_dataset_csv_roundtrip(tmp_path):
    data = gen_hyperplane_data(GenSpec(n=7, dim=3, outlier_count=2, seed=11))
    path = tmp_path / "data.csv"
    save_dataset_csv(data.dataset, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,y"
    back = load_dataset_csv(path)
    np.testing.assert_allclose(back.features, data.dataset.features)
    np.testing.assert_allclose(back.responses, data.dataset.responses)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)
