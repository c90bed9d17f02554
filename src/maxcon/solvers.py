"""Consensus-maximisation solvers.

The influence-guided solvers start from the full dataset, fit a minimax
model, estimate the influence of every basis (active-set) point on the
infeasibility indicator restricted to the surviving points, and remove the
point with the largest influence until the survivors are feasible.  A greedy
local-expansion pass then adds back any point whose inclusion keeps the set
feasible.  The two variants differ only in the sampling measure used for the
influence estimates: biased product sampling ("wi") or uniform sampling on a
fixed Hamming level slightly above the combinatorial dimension ("mbf").

RANSAC and its locally-optimised variant serve as baselines, with
iteration-, wall-clock- and confidence-based stopping.  ``solve`` maps a
method name to its solver; the exact baseline enumerates bases.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .cube import (
    _as_generator,
    as_mask,
    estimate_influence_bernoulli,
    estimate_influence_hamming,
    flags_mask,
    mask_rows,
    sample_level_rows,
)
from .errors import ContractError, SolverError
from .models import (
    FeasibilityOracle,
    LinearDataset,
    _stacked_solve,
    consensus_counts,
    exact_maxcon_bases,
    minimax_fit,
    residuals,
)

RECOMMENDED_Q_MAX = 0.4
RECOMMENDED_SAMPLES = (100, 500)
METHODS = ("wi", "mbf", "ransac", "lo-ransac", "exact")
# RANSAC hypotheses drawn, solved and counted together
CHUNK = 128


@dataclass
class SolverConfig:
    """Knobs for the influence-guided solvers.

    The recommended operating ranges ((p+1)/n <= q <= 0.4 and
    100 <= samples <= 500) are enforced unless ``allow_extreme`` is set.
    ``q=None`` picks 0.3 clamped into the recommended range.  ``workers``
    changes nothing; it is kept only because the benchmark harness builds
    ``SolverConfig(..., workers=1)``.
    """

    epsilon: float
    q: float | None = None
    samples: int = 300
    hamming_level_offset: int = 1
    local_expansion: str = "post_loop"  # post_loop (one pass after the loop) | off
    estimator_mode: str = "paper"  # paper | unbiased
    seed: int = 0
    time_budget: float | None = None
    workers: int | None = None
    allow_extreme: bool = False

    def validate(self, n: int, p: int) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.local_expansion not in ("post_loop", "off"):
            raise ValueError(f"unknown local_expansion {self.local_expansion!r}")
        if self.estimator_mode not in ("paper", "unbiased"):
            raise ValueError(f"unknown estimator_mode {self.estimator_mode!r}")
        if self.hamming_level_offset < 0:
            raise ValueError("hamming_level_offset must be nonnegative")
        if self.q is not None and not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time_budget must be positive")
        if self.allow_extreme:
            return
        lo, hi = self.recommended_q_range(n, p)
        if self.q is not None and not lo <= self.q <= hi:
            raise ValueError(
                f"q={self.q} outside the recommended range [{lo:.4g}, {hi:.4g}]; "
                "set allow_extreme=True to override"
            )
        if not RECOMMENDED_SAMPLES[0] <= self.samples <= RECOMMENDED_SAMPLES[1]:
            raise ValueError(
                f"samples={self.samples} outside the recommended range "
                f"{RECOMMENDED_SAMPLES}; set allow_extreme=True to override"
            )

    @staticmethod
    def recommended_q_range(n: int, p: int) -> tuple[float, float]:
        lo = min((p + 1) / n, RECOMMENDED_Q_MAX)
        return lo, RECOMMENDED_Q_MAX

    def resolved_q(self, n: int, p: int) -> float:
        if self.q is not None:
            return self.q
        lo, hi = self.recommended_q_range(n, p)
        return min(max(0.3, lo), hi)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveResult:
    """A solver outcome; the inlier set is always verified feasible."""

    method: str
    inlier_set: tuple[int, ...]
    theta: np.ndarray
    consensus_size: int
    iterations: int
    oracle_evaluations: int
    runtime: float
    seed: int | None
    config: dict
    budget_exhausted: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "consensus_size": self.consensus_size,
            "inlier_indices": [int(i) for i in self.inlier_set],
            "theta": [float(t) for t in self.theta],
            "iterations": self.iterations,
            "oracle_evaluations": self.oracle_evaluations,
            "runtime_ms": self.runtime * 1e3,
            "seed": self.seed,
            "config": self.config,
        }
        if self.budget_exhausted:
            out["budget_exhausted"] = True
        return out


def _expand_pass(oracle: FeasibilityOracle, mask: int) -> int:
    """One candidate scan in index order, keeping each addition that stays feasible."""
    for c in range(oracle.n):
        if not (mask >> c) & 1:
            cand = mask | (1 << c)
            if oracle(cand) == 0:
                mask = cand
    return mask


def local_expansion(
    dataset: LinearDataset, epsilon: float, inliers: Iterable[int]
) -> tuple[int, ...]:
    """Greedily add points that keep the set feasible; one pass in index order.

    The input set must be feasible.  The output is a feasible superset and a
    fixed point of the pass itself, which the solvers run once after removal.
    """
    oracle = FeasibilityOracle(dataset, epsilon)
    mask = as_mask(inliers, oracle.n)
    if oracle(mask) != 0:
        raise ContractError("local_expansion requires a feasible inlier set")
    mask = _expand_pass(oracle, mask)
    return tuple(int(i) for i in mask_rows(mask, oracle.n))


def _verify_feasible(dataset: LinearDataset, inliers: tuple[int, ...], epsilon: float):
    """Independent post-hoc feasibility check; returns the verifying fit."""
    fit = minimax_fit(dataset, inliers)
    if len(inliers) > dataset.p and fit.value > epsilon:
        raise SolverError(
            f"solver returned an infeasible set (minimax {fit.value} > {epsilon})"
        )
    return fit


def _influence_loop(dataset: LinearDataset, config: SolverConfig, kind: str) -> SolveResult:
    n, p = dataset.n, dataset.p
    if n <= p:
        raise ContractError(f"need n > p, got n={n}, p={p}")
    config.validate(n, p)
    eps = config.epsilon
    oracle = FeasibilityOracle(dataset, eps)
    q = config.resolved_q(n, p)
    t0 = time.perf_counter()
    mask = (1 << n) - 1
    iterations = 0
    fits = 0
    exhausted = False
    while mask.bit_count() > p:
        idx = tuple(int(i) for i in mask_rows(mask, n))
        fit = minimax_fit(dataset, idx)
        fits += 1
        if fit.value <= eps:
            break
        if config.time_budget is not None and time.perf_counter() - t0 > config.time_budget:
            # out of time: fall back to the consensus of the current fit
            exhausted = True
            mask = flags_mask(residuals(dataset, fit.theta) <= eps)
            break
        iter_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(iterations,))
        if kind == "wi":
            report = estimate_influence_bernoulli(
                oracle, fit.active_set, q, config.samples, iter_seed,
                mode=config.estimator_mode, support=idx,
            )
            scores = report.scores
        else:
            level = min(p + 1 + config.hamming_level_offset, len(idx) - 1)
            if level < p + 1:
                scores = {i: 0.0 for i in fit.active_set}
            else:
                report = estimate_influence_hamming(
                    oracle, fit.active_set, level, config.samples, iter_seed, support=idx
                )
                scores = report.scores
        victim = min(fit.active_set, key=lambda t: (-scores[t], t))
        mask &= ~(1 << victim)
        iterations += 1
    if config.local_expansion != "off" and not exhausted:
        mask = _expand_pass(oracle, mask)
    inliers = tuple(int(i) for i in mask_rows(mask, n))
    fit = _verify_feasible(dataset, inliers, eps)
    runtime = time.perf_counter() - t0
    return SolveResult(
        method=kind,
        inlier_set=inliers,
        theta=fit.theta.theta,
        consensus_size=len(inliers),
        iterations=iterations,
        oracle_evaluations=oracle.evaluations + fits,
        runtime=runtime,
        seed=config.seed,
        config=config.to_dict(),
        budget_exhausted=exhausted,
    )


def wi_maxcon(dataset: LinearDataset, config: SolverConfig) -> SolveResult:
    """Influence-guided consensus maximisation with biased product sampling."""
    return _influence_loop(dataset, config, "wi")


def mbf_maxcon(dataset: LinearDataset, config: SolverConfig) -> SolveResult:
    """Influence-guided consensus maximisation with fixed-Hamming-level sampling.

    The sampling level is p + 1 + hamming_level_offset, clamped below the
    size of the surviving set.
    """
    return _influence_loop(dataset, config, "mbf")


# --------------------------------------------------------------------------
# RANSAC baselines
# --------------------------------------------------------------------------


@dataclass
class RansacBudget:
    """Stopping rule: fixed iterations, wall clock, or confidence-adaptive.

    ``max_iterations`` caps only the time and confidence rules, not ``iterations``.
    """

    iterations: int | None = None
    time: float | None = None
    confidence: float | None = None
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if self.iterations is None and self.time is None and self.confidence is None:
            raise ValueError("budget needs iterations, time or confidence")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.time is not None and not self.time > 0:
            raise ValueError("time must be positive")
        if self.confidence is not None and not 0 < self.confidence < 1:
            raise ValueError("confidence must lie in (0, 1)")


def _as_budget(budget) -> RansacBudget:
    if isinstance(budget, RansacBudget):
        return budget
    if isinstance(budget, (int, np.integer)):
        return RansacBudget(iterations=int(budget))
    if isinstance(budget, dict):
        return RansacBudget(**budget)
    raise TypeError(f"cannot interpret budget {budget!r}")


def ransac(
    dataset: LinearDataset,
    epsilon: float,
    budget,
    rng,
    refinement_depth: int = 0,
    _method: str = "ransac",
) -> SolveResult:
    """Hypothesise-and-verify consensus maximisation from random p-subsets.

    Each hypothesis is the exact linear solve through p sampled points;
    singular subsets are skipped but still consume budget.  With a confidence
    budget the iteration target adapts to the best inlier ratio found so far.
    A positive refinement depth re-fits each new best hypothesis on its
    consensus set by a minimax fit, which is the locally-optimised variant.

    Hypotheses are scored in chunks of at most ``CHUNK``: the chunk's
    p-subsets come from one ``sample_level_rows`` call, whose rows and
    generator state equal one ``gen.choice(n, size=p, replace=False)`` per
    hypothesis, then one stacked solve and one consensus count score the
    chunk, which is then walked in order.  The results, iterations and
    evaluation counts are those of the one-at-a-time loop.  The clock is
    read once per chunk, so a time budget can overrun by at most one chunk
    (a few milliseconds).  A ``Generator`` passed as ``rng`` may be advanced
    past the last hypothesis used when a confidence or time budget stops
    mid-chunk; a seed is unaffected.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n, p = dataset.n, dataset.p
    if n < p:
        raise ContractError(f"need n >= p, got n={n}, p={p}")
    b = _as_budget(budget)
    seed = rng if isinstance(rng, (int, np.integer)) else None
    gen = _as_generator(rng)
    feats, resp = dataset.features, dataset.responses
    t0 = time.perf_counter()
    best_count = 0
    best_theta: np.ndarray | None = None
    it = 0
    skipped = 0
    evals = 0
    exhausted = False
    target = b.iterations if b.iterations is not None else b.max_iterations
    adaptive = math.inf  # the confidence target, set by a confidence budget
    while it < min(target, adaptive):
        if b.time is not None and time.perf_counter() - t0 > b.time:
            exhausted = True
            break
        size = min(CHUNK, target - it, adaptive - it)
        picks = sample_level_rows(n, p, size, gen)
        thetas, usable = _stacked_solve(feats[picks], resp[picks])
        usable &= np.isfinite(thetas).all(axis=1)
        counts = consensus_counts(dataset, epsilon, thetas)
        for j in range(size):
            if it >= adaptive:
                break
            it += 1
            evals += 1
            if not usable[j]:
                skipped += 1
                continue
            if counts[j] > best_count:
                best_count, best_theta = int(counts[j]), thetas[j]
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
    if best_theta is None:
        inliers: tuple[int, ...] = ()
        theta_out = np.zeros(p)
    else:
        inliers = tuple(
            int(i) for i in np.flatnonzero(np.abs(feats @ best_theta - resp) <= epsilon)
        )
        theta_out = best_theta
    if inliers:
        _verify_feasible(dataset, inliers, epsilon)
    runtime = time.perf_counter() - t0
    return SolveResult(
        method=_method,
        inlier_set=inliers,
        theta=theta_out,
        consensus_size=len(inliers),
        iterations=it,
        oracle_evaluations=evals,
        runtime=runtime,
        seed=int(seed) if seed is not None else None,
        config={
            "epsilon": epsilon,
            "budget": asdict(b),
            "refinement_depth": refinement_depth,
            "skipped_hypotheses": skipped,
        },
        budget_exhausted=exhausted,
    )


def lo_ransac(
    dataset: LinearDataset, epsilon: float, budget, rng, refinement_depth: int = 2
) -> SolveResult:
    """RANSAC with a minimax re-fit of each new best consensus set."""
    return ransac(
        dataset, epsilon, budget, rng, refinement_depth=refinement_depth, _method="lo-ransac"
    )


def solve(
    dataset: LinearDataset,
    method: str,
    epsilon: float,
    seed: int | None = 0,
    *,
    budget=None,
    refinement_depth: int = 2,
    **options,
) -> SolveResult:
    """Solve one instance with the named method: wi | mbf | ransac | lo-ransac | exact.

    ``options`` are the ``SolverConfig`` fields of the influence-guided
    methods beyond epsilon and seed; ``budget`` is the RANSAC stopping rule
    (anything ``ransac`` accepts, 0.99 confidence by default) and
    ``refinement_depth`` that of lo-RANSAC.  Each method ignores the
    parameters of the others.  The exact baseline enumerates bases, reports
    no seed and is verified like every other method.
    """
    # built for every method, so that a misspelt option fails alike for each
    config = SolverConfig(epsilon=epsilon, seed=seed, **options)
    if method in ("wi", "mbf"):
        return _influence_loop(dataset, config, method)
    if method in ("ransac", "lo-ransac"):
        depth = refinement_depth if method == "lo-ransac" else 0
        rule = budget if budget is not None else RansacBudget(confidence=0.99)
        return ransac(dataset, epsilon, rule, seed, refinement_depth=depth, _method=method)
    if method == "exact":
        t0 = time.perf_counter()
        inliers, theta = exact_maxcon_bases(dataset, epsilon)
        if inliers:
            _verify_feasible(dataset, inliers, epsilon)
        return SolveResult(
            method="exact",
            inlier_set=inliers,
            theta=theta.theta,
            consensus_size=len(inliers),
            iterations=0,
            oracle_evaluations=0,
            runtime=time.perf_counter() - t0,
            seed=None,
            config={"epsilon": epsilon},
        )
    raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
