"""Linear-residual model fitting and the subset-feasibility oracle.

The residual of point i under parameters theta is |a_i . theta - y_i|.  A
subset of points is feasible at threshold eps when its best Chebyshev
(minimax) fit has value <= eps.  Subsets of size <= p are treated as feasible
without solving: p points can be interpolated by a p-parameter model in
general position, and the combinatorial dimension of the problem is p + 1.

Feasibility of a subset is monotone under inclusion, which makes the
indicator of infeasibility a monotone Boolean function on the cube of data
subsets.  By Helly's theorem for the convex residual slabs in R^p, a subset
is infeasible iff it contains an infeasible subset of size p + 1, which the
truth-table tabulation exploits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.optimize import linprog

from . import cube
from .cube import as_mask, masks_flags, upward_closure_table
from .errors import BudgetError, ContractError, SolverError

# Relative tolerance for membership in the active set of a minimax fit.
ACTIVE_SET_RTOL = 1e-8

# Margin, relative to eps + max |y_R|, by which a reference's minimax value
# must exceed eps to certify infeasibility: far above the rounding of the
# value, so that the certificate survives an independent re-solve at a tie.
TIE_RTOL = 1e-9

_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps)

# Refusal threshold for the candidate bases of ``exact_maxcon_bases``.
DEFAULT_MAX_BASES = 200_000

# Feasibility oracle certificate caches: parameter vectors kept, cores kept.
THETA_CACHE_SIZE = 24
WITNESS_CACHE_SIZE = 128

# Most cells, queries x the widest query's rows, of one stacked exchange;
# bounds its memory.
EXCHANGE_CELLS = 1 << 18

# Most (p+1)-subsets fitted, or candidate fits scored, at once; bounds memory.
COMBO_CHUNK = 20_000


# --------------------------------------------------------------------------
# Domain types
# --------------------------------------------------------------------------


def _frozen_array(a, dtype=np.float64) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LinearDataset:
    """n data points with feature rows a_i and scalar responses y_i."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self) -> None:
        feats = _frozen_array(self.features)
        resp = _frozen_array(self.responses)
        if feats.ndim != 2:
            raise ValueError("features must be a 2d array")
        if resp.ndim != 1:
            raise ValueError("responses must be a 1d array")
        if feats.shape[0] != resp.shape[0]:
            raise ValueError("features and responses disagree on n")
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("need n >= 1 points and p >= 1 features")
        if not (np.isfinite(feats).all() and np.isfinite(resp).all()):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def rows(self, indices) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(indices, dtype=np.intp)
        return self.features[idx], self.responses[idx]


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector of a p-dimensional linear model."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        th = _frozen_array(self.theta)
        if th.ndim != 1:
            raise ValueError("theta must be a 1d vector")
        if not np.isfinite(th).all():
            raise ValueError("theta entries must be finite")
        object.__setattr__(self, "theta", th)


def _as_theta(theta) -> np.ndarray:
    if isinstance(theta, ModelParams):
        return theta.theta
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("theta must be a 1d vector")
    return arr


@dataclass(frozen=True)
class MinimaxFit:
    """Result of a Chebyshev fit: parameters, optimal value, active points."""

    theta: ModelParams
    value: float
    active_set: tuple[int, ...]


# --------------------------------------------------------------------------
# Residuals and minimax fitting
# --------------------------------------------------------------------------


def residual(dataset: LinearDataset, i: int, theta) -> float:
    """Absolute residual |a_i . theta - y_i| of point i."""
    if not 0 <= i < dataset.n:
        raise IndexError(f"point index {i} out of range for n={dataset.n}")
    th = _as_theta(theta)
    if th.shape != (dataset.p,):
        raise ValueError(f"theta must have length {dataset.p}")
    r = float(abs(dataset.features[i] @ th - dataset.responses[i]))
    if not math.isfinite(r):
        raise ValueError("residual is not finite; malformed input")
    return r


def residuals(dataset: LinearDataset, theta) -> np.ndarray:
    """All absolute residuals under theta."""
    th = _as_theta(theta)
    return np.abs(dataset.features @ th - dataset.responses)


def _chebyshev_lp(A: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Solve min_theta max_i |A theta - y| as an LP; returns (value, theta, resid)."""
    m, p = A.shape
    c = np.zeros(p + 1)
    c[-1] = 1.0
    col = -np.ones((m, 1))
    a_ub = np.block([[A, col], [-A, col]])
    b_ub = np.concatenate([y, -y])
    bounds = [(None, None)] * p + [(0.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"Chebyshev LP failed with status {res.status}: {res.message}")
    theta = np.asarray(res.x[:p], dtype=np.float64)
    resid = np.abs(A @ theta - y)
    return float(resid.max()), theta, resid


def _stacked_solve(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each system of the stack M x = b; returns (x, nonsingular).

    A zero ``slogdet`` sign (an exact zero pivot) is exactly what makes
    ``np.linalg.solve`` raise, so it marks the singular systems, whose rows
    of x are left zero.
    """
    try:
        return np.linalg.solve(M, b[..., None])[..., 0], np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(M)[0] != 0
        x = np.zeros(b.shape)
        if ok.any():
            x[ok] = np.linalg.solve(M[ok], b[ok][..., None])[..., 0]
        return x, ok


def _reference(
    a_ref: np.ndarray, y_ref: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimax fits of a stack of (p+1)-point references (the Chebyshev kernel).

    For each reference (a_ref (B, p+1, p), y_ref (B, p+1)) one solve gives
    the null vector v of A_R transposed, normalised by v_0 = 1, and the
    reference's minimax value h = |v . y_R| / ||v||_1 (de la Vallee Poussin).
    With sigma = sign(v) * sign(v . y_R), the levelled solve
    [A_R | -sigma] [theta; t] = y_R gives t = -h, so reference point i has
    residual a_i . theta - y_i = -sigma_i h.  Returns the multipliers
    |v| / ||v||_1, h, sigma, theta and whether both solves were nonsingular
    (a zero ``slogdet`` sign marks a singular one).
    """
    B, k, p = a_ref.shape
    square = np.zeros((B, k, k))
    square[:, :, :p] = a_ref
    square[:, 0, p] = 1.0
    unit = np.zeros((B, k))
    unit[:, p] = 1.0
    nullvec, ok = _stacked_solve(np.swapaxes(square, 1, 2), unit)
    scale = np.abs(nullvec).sum(axis=1)
    ok &= np.isfinite(scale) & (scale >= 1e-12)
    scale = np.where(ok, scale, 1.0)
    corr = np.einsum("bk,bk->b", nullvec, y_ref)
    sigma = np.sign(nullvec) * np.where(corr >= 0, 1.0, -1.0)[:, None]
    square[:, :, p] = -sigma
    sol, solved = _stacked_solve(square, y_ref)
    return np.abs(nullvec) / scale[:, None], np.abs(corr) / scale, sigma, sol[:, :p], ok & solved


def _ratio_test(
    ref: np.ndarray, a_ref: np.ndarray, lam: np.ndarray, sigma: np.ndarray, w: np.ndarray,
    a_in: np.ndarray,
) -> np.ndarray:
    """Exchange row w[b] into reference b by the dual ratio test.

    Brings w in and drops the reference member that keeps the multipliers
    ``lam`` (of ``_reference``) nonnegative; the dual columns carry each
    point's residual sign, -sigma for the reference, and ``a_in`` (B, p) is
    w's features times its residual sign.  ``ref`` (B, p+1) is updated in
    place and kept sorted.  Returns whether each exchange was sound: its
    solve nonsingular, some multiplier of the entering column positive, and
    w not already in the reference (which means an inaccurate levelled fit;
    exchanging it in would repeat a row).
    """
    B, k = ref.shape
    p = k - 1
    basis = np.ones((B, k, k))
    basis[:, :p, :] = -sigma[:, None, :] * np.swapaxes(a_ref, 1, 2)
    enter = np.ones((B, k))
    enter[:, :p] = a_in
    mu, ok = _stacked_solve(basis, enter)
    positive = mu > 1e-12
    ok &= positive.any(axis=1) & (ref != w[:, None]).all(axis=1)
    ratios = np.where(positive, lam / np.where(positive, mu, 1.0), np.inf)
    ref[np.arange(B), np.argmin(ratios, axis=1)] = w
    ref.sort(axis=1)
    return ok


def _exchange(
    A: np.ndarray, y: np.ndarray, members: np.ndarray, eps: float | None, theta0: np.ndarray
) -> list[tuple[int | None, np.ndarray | None]]:
    """Certified feasibility of many row subsets of (A, y) by reference ascent.

    Row b of the boolean ``members`` (B, m), m being the number of rows of
    A, selects query b's rows, more than p of them.  Each query's rows are
    gathered once, ascending, into a (B, W) stack padded by zero rows, W
    being the widest query's row count; a zero row's residual and rounding
    bound are exactly zero, so every later step runs over the query's own
    rows alone.  Each query maintains a reference of p+1 of its rows, whose
    minimax value h and levelled fit come from ``_reference``.  Each query
    is held to one bar, ``limit``: eps, or with ``eps=None`` the reference's
    own h plus the tie margin TIE_RTOL * (h + max |y_R|).  h is a lower
    bound for the whole query, so h above the limit by that margin certifies
    infeasibility (never, with no eps); a levelled solution whose residuals,
    each plus its rounding bound, are within the limit certifies
    feasibility, and with no eps its optimality.  Otherwise the worst point
    enters the reference by a dual ratio test and h ascends (Stiefel / de la
    Vallee Poussin exchange).  The open queries' references form a
    (B, p+1, p) stack, so each pivot round is one ``_reference`` call and
    one ratio-test solve, and the open stack is compacted only when some
    query closes.  The ratio test runs over the dual columns of the
    reference's actual residual signs, -sigma_i a_i.

    The reference is kept sorted, so even the rounded h is a function of the
    reference set alone: a strictly rising h never revisits a reference, and
    the ascent ends without an iteration cap.  A query gets (None, None)
    instead of a guess when a solve turns singular, h fails to strictly
    increase or the worst point is already in the reference (a degenerate
    reference), or when a fit within the limit is not certain beyond the
    rounding of its residuals, so every produced answer carries an explicit
    certificate: (1, reference rows of A) or (0, theta).
    Every query starts from the reference of its p+1 largest residuals
    under the one start vector theta0.
    """
    B = len(members)
    p = A.shape[1]
    out: list[tuple[int | None, np.ndarray | None]] = [(None, None)] * B
    count = members.sum(axis=1)
    rows = np.zeros((B, count.max()), dtype=np.intp)
    inside = np.arange(rows.shape[1]) < count[:, None]
    rows[inside] = np.flatnonzero(members) % members.shape[1]
    a_q, y_q = A[rows], y[rows]
    a_q[~inside], y_q[~inside] = 0.0, 0.0
    start = np.where(inside, np.abs(a_q @ theta0 - y_q), -np.inf)
    cut = rows.shape[1] - p - 1
    ref = np.sort(np.argpartition(start, cut, axis=1)[:, cut:], axis=1)
    ids = np.arange(B)
    h_prev = np.full(B, -1.0)
    while len(ids):
        at = np.arange(len(ids))
        a_ref, y_ref = a_q[at[:, None], ref], y_q[at[:, None], ref]
        y_max = np.abs(y_ref).max(axis=1)
        lam, h, sigma, theta, ok = _reference(a_ref, y_ref)
        limit = h + TIE_RTOL * (h + y_max) if eps is None else np.full_like(h, eps)
        infeasible = ok & (h > limit + TIE_RTOL * (limit + y_max))
        for b, core in zip(ids[infeasible].tolist(), rows[ids[infeasible, None], ref[infeasible]]):
            out[b] = (1, core)
        rising = ok & ~infeasible & (h > h_prev)
        resid = np.einsum("bwp,bp->bw", a_q, theta) - y_q
        size = np.abs(resid)
        w = np.argmax(size, axis=1)
        fits = rising & (size[at, w] <= limit)
        if fits.any():
            # the residuals' rounding bound must fit too: a near-singular
            # reference yields a huge theta whose residuals are noise
            f = np.flatnonzero(fits)
            slack = np.einsum("bwp,bp->bw", np.abs(a_q[f]), np.abs(theta[f])) + np.abs(y_q[f])
            certain = (size[f] + (p + 2) * _UNIT_ROUNDOFF * slack <= limit[f, None]).all(axis=1)
            for b, fit in zip(ids[f[certain]].tolist(), theta[f[certain]]):
                out[b] = (0, fit)
        a_in = np.sign(resid[at, w])[:, None] * a_q[at, w]
        go = rising & ~fits
        if not go.all():
            ids, a_q, y_q, ref, a_ref, lam, sigma, h, w, a_in = (
                x[go] for x in (ids, a_q, y_q, ref, a_ref, lam, sigma, h, w, a_in)
            )
        if not len(ids):
            break
        ok = _ratio_test(ref, a_ref, lam, sigma, w, a_in)
        h_prev = h
        if not ok.all():
            ids, a_q, y_q, ref, h_prev = ids[ok], a_q[ok], y_q[ok], ref[ok], h_prev[ok]
    return out


def minimax_fit(dataset: LinearDataset, subset: Iterable[int] | None = None) -> MinimaxFit:
    """Chebyshev fit over a subset of points (all points by default).

    The fit is ``_exchange`` with no threshold, one query that starts from
    the subset's least-squares fit and ends at its certified optimum: the
    worst residual, plus its rounding bound, within the tie margin of the
    reference's h, a lower bound on the subset's value.  The LP fits the
    subset instead when it has at most p points, or when the ascent gives
    up (rank-deficient features, ties).

    The reported value is the largest achieved residual of the optimal
    parameters, and the active set holds the subset members whose residual is
    within a relative tolerance of that value.
    """
    if subset is None:
        idx = tuple(range(dataset.n))
    else:
        idx = tuple(sorted(set(int(i) for i in subset)))
    if not idx:
        raise ContractError("minimax_fit requires a nonempty subset")
    if idx[0] < 0 or idx[-1] >= dataset.n:
        raise IndexError("subset index out of range")
    A, y = dataset.rows(idx)
    m, p = A.shape
    theta = None
    if m > p:
        start = np.linalg.lstsq(A, y, rcond=None)[0]
        theta = _exchange(A, y, np.ones((1, m), bool), None, start)[0][1]
    if theta is None:
        theta = _chebyshev_lp(A, y)[1]
    resid = np.abs(A @ theta - y)
    value = float(resid.max())
    tau = ACTIVE_SET_RTOL * (1.0 + value)
    active = tuple(idx[j] for j in np.flatnonzero(resid >= value - tau))
    return MinimaxFit(theta=ModelParams(theta), value=value, active_set=active)


def basis(dataset: LinearDataset, subset: Iterable[int], epsilon: float) -> tuple[int, ...]:
    """Active support of the minimax fit of an infeasible subset.

    In general position this has at most p + 1 members; degenerate data can
    yield more, and every member is kept as an influence candidate.
    """
    fit = minimax_fit(dataset, subset)
    if fit.value <= epsilon:
        raise ContractError(
            f"basis requires an infeasible subset (minimax value {fit.value} <= {epsilon})"
        )
    return fit.active_set


# --------------------------------------------------------------------------
# Batched Chebyshev fits over all (p+1)-subsets
# --------------------------------------------------------------------------


def _chebyshev_combos(
    A: np.ndarray, y: np.ndarray, combos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev values and parameters for many (p+1)-point subsets at once.

    Each subset is one reference of ``_reference``, the exchange's kernel,
    and its value is the largest residual the levelled theta achieves, so
    the returned theta attains the returned value.  The kernel's h is a
    lower bound on the subset's value, and the fit is taken by the rule the
    exchange applies with no threshold: every residual plus its rounding
    bound within h plus the tie margin TIE_RTOL * (h + max |y|).  A subset
    whose solves are singular, or whose fit misses that bar (rank-deficient
    features make the levelled solve ill-conditioned), is fitted by the LP
    instead.  Subsets are processed ``COMBO_CHUNK`` at a time, a bound on
    memory.
    """
    p = combos.shape[1] - 1
    rounding = (p + 2) * _UNIT_ROUNDOFF
    values = np.empty(len(combos))
    thetas = np.empty((len(combos), p))
    for lo in range(0, len(combos), COMBO_CHUNK):
        sel = combos[lo : lo + COMBO_CHUNK]
        a_ref, y_ref = A[sel], y[sel]
        _, h, _, theta, ok = _reference(a_ref, y_ref)
        resid = np.abs(np.einsum("smp,sp->sm", a_ref, theta) - y_ref)
        slack = rounding * (np.einsum("smp,sp->sm", np.abs(a_ref), np.abs(theta)) + np.abs(y_ref))
        limit = h + TIE_RTOL * (h + np.abs(y_ref).max(axis=1))
        exact = ok & ((resid + slack).max(axis=1) <= limit)
        values[lo : lo + len(sel)] = resid.max(axis=1)
        thetas[lo : lo + len(sel)] = theta
        for d in np.flatnonzero(~exact):
            values[lo + d], thetas[lo + d], _ = _chebyshev_lp(a_ref[d], y_ref[d])
    return values, thetas


# --------------------------------------------------------------------------
# Feasibility oracle
# --------------------------------------------------------------------------


def _words(flags: np.ndarray) -> np.ndarray:
    """Rows of 0/1 flags as 64-bit words: bit j of word w is flag 64 w + j."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    out = np.zeros((len(flags), -(-packed.shape[1] // 8)), dtype="<u8")
    out.view(np.uint8)[:, : packed.shape[1]] = packed
    return out


class FeasibilityOracle:
    """Monotone Boolean infeasibility indicator over subsets of a dataset.

    Evaluating a subset returns 1 iff its minimax value exceeds epsilon.
    Subsets of size <= p return 0 without solving.  Results are memoised, and
    three exact certificate layers, tried in this order, answer most queries
    without a full LP:

    - feasibility: cached parameter vectors, kept ranked by how many points
      of the whole dataset they cover, each with a row of 64-bit words
      flagging the points outside its cover (its residual above epsilon); a
      query with no point outside a cover is feasible with that vector as
      certificate;
    - infeasibility: cached infeasible exchange references, an index array
      of p+1 points per core; a query holding all the points of a core is
      infeasible;
    - either: the certified exchange ascent, whose reference value rises
      strictly until it ends with an explicit infeasible core or an explicit
      within-epsilon parameter vector.  It starts from the best cached
      parameter vector, or from the least-squares fit of the whole dataset
      while none is cached; that fit is no certificate and is never cached.

    ``resolve`` answers many subsets at once.  It decodes them to 0/1 rows
    once and tests them all with array operations: the trivial layer by row
    sums, the memo by one lookup each, the feasibility layer by one AND of
    their 64-bit words with each cover's outside words and the
    infeasibility layer by one gather of the points of each core.  The
    queries that no cache layer answers run one stacked exchange, which
    sees only the certificates cached before it.  Its memory is bounded by
    ``EXCHANGE_CELLS``, queries times the widest query's points; past that
    bound the leading misses that fit are settled first and the rest are
    tested again against the updated caches.
    ``__call__`` is the counted query: a memo lookup, and ``resolve`` of the
    one mask on a miss (a subset of at most p points is never memoised and
    answers 0 at once).  Only queries whose reference turns singular or
    stalls (duplicate rows, dependent features, ties at epsilon) pay for a
    full-size LP each; on data in general position none do.  Every answer is
    backed by the same exact criteria the LP would apply.
    """

    def __init__(self, dataset: LinearDataset, epsilon: float) -> None:
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.dataset = dataset
        self.epsilon = float(epsilon)
        self.n, self.p = dataset.n, dataset.p
        self._memo: dict[int, int] = {}
        # (coverage, theta), best first; row t of _outside holds the points
        # outside the cover of _thetas[t] as 64-bit words
        self._thetas: list[tuple[int, np.ndarray]] = []
        self._outside = _words(np.zeros((0, self.n), dtype=bool))
        # the p+1 points of each cached core, newest first
        self._cores = np.zeros((0, self.p + 1), dtype=np.intp)
        self._evals = 0
        self._lp_solves = 0
        self._core_tests = 0
        # the exchange's start while no fit is cached
        self._lstsq = np.linalg.lstsq(dataset.features, dataset.responses, rcond=None)[0]

    @property
    def evaluations(self) -> int:
        """Number of feasibility queries answered through ``__call__``."""
        return self._evals

    @property
    def lp_solves(self) -> int:
        """Number of queries that required a full-size LP solve."""
        return self._lp_solves

    @property
    def core_tests(self) -> int:
        """Number of queries sent to the certified exchange ascent."""
        return self._core_tests

    def reset_counters(self) -> None:
        self._evals = 0
        self._lp_solves = 0
        self._core_tests = 0

    def __call__(self, subset) -> int:
        mask = subset
        if type(mask) is not int or mask < 0 or mask >> self.n:
            mask = as_mask(subset, self.n)
        self._evals += 1
        verdict = self._memo.get(mask)
        if verdict is None:
            # masks of at most p points are answered but never memoised
            verdict = 0 if mask.bit_count() <= self.p else self.resolve((mask,))[0]
        return verdict

    def resolve(self, subsets) -> list[int]:
        """Verdicts of many subsets, memoised but not counted as evaluations.

        Every distinct open subset is tested against the trivial, memo,
        theta and core layers at once, and the misses go to one stacked
        exchange; past ``EXCHANGE_CELLS`` the leading misses that fit do, and
        the rest are tested again against the caches they updated.  The
        verdicts are those ``__call__`` returns, so a caller can resolve a
        batch ahead of the calls it counts.
        """
        n = self.n
        masks = [s if type(s) is int else as_mask(s, n) for s in subsets]
        if masks and (min(masks) < 0 or max(masks) >> n):
            raise ValueError(f"mask out of range for n={n}")
        # a repeat takes the verdict of its first occurrence, changing no cache
        uniq = list(dict.fromkeys(masks))
        flags = masks_flags(uniq, n)
        words = _words(flags)
        width = flags.sum(axis=1)
        known = np.array([self._memo.get(m, -1) for m in uniq], dtype=np.int64)
        known[width <= self.p] = 0
        pending = np.flatnonzero(known < 0)
        while len(pending):
            # gathers and word operations, not matrix products: a BLAS product
            # this size runs threaded and stalls whenever another process
            # holds a core
            spill = np.zeros((len(pending), len(self._outside)), dtype=np.uint64)
            for j, column in enumerate(words[pending].T):
                spill |= column[:, None] & self._outside[:, j]
            answer = np.where((spill == 0).any(axis=1), 0, -1)
            rest = np.flatnonzero(answer < 0)
            answer[rest[flags[pending[rest]][:, self._cores.T].all(axis=1).any(axis=1)]] = 1
            hit = answer >= 0
            known[pending[hit]] = answer[hit]
            self._memo.update(zip([uniq[i] for i in pending[hit]], answer[hit].tolist()))
            misses = pending[~hit]
            # the leading misses whose stack, queries x widest query, fits
            cells = np.arange(1, len(misses) + 1) * np.maximum.accumulate(width[misses])
            lead = misses[: max(1, np.searchsorted(cells, EXCHANGE_CELLS, side="right"))]
            if len(lead):
                known[lead] = self._settle([uniq[i] for i in lead], flags[lead])
            pending = misses[len(lead) :]
        verdicts = dict(zip(uniq, known.tolist()))
        return [verdicts[m] for m in masks]

    def _settle(self, masks: list[int], members: np.ndarray) -> list[int]:
        """Decide distinct masks, flagged row by row in ``members``, by one
        stacked exchange; memoise and return their verdicts."""
        feats, resp = self.dataset.features, self.dataset.responses
        self._core_tests += len(masks)
        start = self._thetas[0][1] if self._thetas else self._lstsq
        answers = _exchange(feats, resp, members, self.epsilon, start)
        verdicts, cores = [], []
        for row, (verdict, evidence) in zip(members, answers):
            if verdict == 1:
                cores.append(evidence)
            elif verdict == 0:
                self._consider_theta(evidence)
            else:
                verdict = self._lp_verdict(np.flatnonzero(row))
            verdicts.append(verdict)
        self._memo.update(zip(masks, verdicts))
        if cores:
            self._cores = np.concatenate([cores[::-1], self._cores])[:WITNESS_CACHE_SIZE]
        return verdicts

    def _lp_verdict(self, rows: np.ndarray) -> int:
        """Decide one query by a full-size LP, caching its fit but no core."""
        self._lp_solves += 1
        value, theta, _ = _chebyshev_lp(*self.dataset.rows(rows))
        if value > self.epsilon:
            return 1
        self._consider_theta(theta)
        return 0

    def _consider_theta(self, theta: np.ndarray) -> None:
        """Cache a feasibility certificate, ranked by dataset coverage.

        A full cache admits only a fit that covers more points than its worst.
        """
        resid = np.abs(self.dataset.features @ theta - self.dataset.responses)
        inside = resid <= self.epsilon
        cov = int(inside.sum())
        if len(self._thetas) >= THETA_CACHE_SIZE and cov <= self._thetas[-1][0]:
            return
        # after every fit of at least its coverage, as a stable sort puts it
        at = sum(1 for c, _ in self._thetas if c >= cov)
        self._thetas.insert(at, (cov, theta))
        self._outside = np.insert(self._outside, at, _words(~inside[None]), axis=0)
        del self._thetas[THETA_CACHE_SIZE :]
        self._outside = self._outside[:THETA_CACHE_SIZE]

    def truth_table(self) -> np.ndarray:
        """Exact truth table over all 2**n subsets.

        Fits every (p+1)-subset once and closes upward: a subset is infeasible
        iff it contains an infeasible (p+1)-subset (Helly in R^p), so no
        larger fits are needed.
        """
        n, p = self.n, self.p
        cube._check_cap(n)
        if n <= p:
            return np.zeros(1 << n, dtype=np.uint8)
        combos = _combinations(n, p + 1)
        values, _ = _chebyshev_combos(self.dataset.features, self.dataset.responses, combos)
        bad = combos[values > self.epsilon]
        generators = [int(np.bitwise_or.reduce(1 << row.astype(np.int64))) for row in bad]
        return upward_closure_table(n, generators)


# --------------------------------------------------------------------------
# Exact MaxCon oracles (desk scale)
# --------------------------------------------------------------------------


def _check_bases(count: int) -> None:
    if count > DEFAULT_MAX_BASES:
        raise BudgetError(
            f"enumerating {count} candidate bases exceeds the cap of {DEFAULT_MAX_BASES}"
        )


def _combinations(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) as rows."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def consensus_counts(dataset: LinearDataset, epsilon: float, thetas: np.ndarray) -> np.ndarray:
    """Number of points within epsilon of each parameter row of ``thetas`` (k, p)."""
    resid = np.abs(dataset.features @ thetas.T - dataset.responses[:, None])
    return (resid <= epsilon).sum(axis=0)


def _best_consensus(
    dataset: LinearDataset, epsilon: float, thetas: np.ndarray
) -> tuple[int, np.ndarray]:
    """Largest consensus among candidate parameter rows; the first one wins ties."""
    best_count = -1
    best_theta: np.ndarray | None = None
    for lo in range(0, len(thetas), COMBO_CHUNK):
        th = thetas[lo : lo + COMBO_CHUNK]
        counts = consensus_counts(dataset, epsilon, th)
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_theta = th[j].copy()
    return best_count, best_theta


def exact_maxcon_bases(
    dataset: LinearDataset, epsilon: float
) -> tuple[tuple[int, ...], ModelParams]:
    """Ground-truth consensus by enumerating every (p+1)-subset fit.

    Each subset's minimax parameters are scored by their consensus over the
    whole dataset; the largest consensus wins, ties broken by enumeration
    order.  With n <= p the full index set is returned, and with n = p + 1 it
    is returned when feasible.  When no (p+1)-subset is feasible the optimum
    has at most p points, and the min-norm least-squares fits through every
    subset of p, then p - 1, ..., 1 points are scored instead.  In general
    position the p-subset fits are interpolants; on rank-deficient features
    they can all miss, and a fit through fewer points attains the optimum.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n, p = dataset.n, dataset.p
    feats, resp = dataset.features, dataset.responses
    if n <= p + 1:
        fit = minimax_fit(dataset)
        if n <= p or fit.value <= epsilon:
            return tuple(range(n)), fit.theta
        best_count = 0
    else:
        _check_bases(math.comb(n, p + 1))
        combos = _combinations(n, p + 1)
        _, thetas = _chebyshev_combos(feats, resp, combos)
        best_count, best_theta = _best_consensus(dataset, epsilon, thetas)
    if best_count <= p:
        # p-subsets first, so that their fits keep winning ties
        sizes = range(p, 0, -1)
        _check_bases(sum(math.comb(n, k) for k in sizes))
        interpolants = []
        for k in sizes:
            combos = _combinations(n, k)
            interpolants.append(
                (np.linalg.pinv(feats[combos]) @ resp[combos][..., None])[..., 0]
            )
        _, best_theta = _best_consensus(dataset, epsilon, np.concatenate(interpolants))
    inliers = np.flatnonzero(np.abs(feats @ best_theta - resp) <= epsilon)
    return tuple(int(i) for i in inliers), ModelParams(best_theta)


def exact_maxcon_enumerate(f) -> tuple[int, ...]:
    """Maximum-cardinality feasible subset by descending-level enumeration.

    Works on any monotone Boolean function over the cube (a feasibility
    oracle or a synthetic function).  Among the feasible vertices of maximal
    level the one whose index tuple is lexicographically smallest is
    returned, matching a level-by-level scan in combination order.

    On a ``FeasibilityOracle`` the result inherits the oracle's
    general-position assumption: every subset of at most p points counts as
    feasible.  On rank-deficient features (duplicate rows, say) a p-subset
    can be infeasible, and ``exact_maxcon_bases``, which fits every subset,
    can then report a smaller optimum.
    """
    n = f.n
    cube._check_cap(n)
    table = cube.truth_table(f)
    feasible = table == 0
    levels = cube.level_table(n)
    top = int(levels[feasible].max())
    cands = np.flatnonzero(feasible & (levels == top)).astype(np.int64)
    out: list[int] = []
    for _ in range(top):
        lows = cands & -cands
        low = int(lows.min())
        out.append(low.bit_length() - 1)
        cands = cands[lows == low] ^ low
    return tuple(out)


# --------------------------------------------------------------------------
# Dataset CSV format: header x1,...,xp,y
# --------------------------------------------------------------------------


def save_dataset_csv(dataset: LinearDataset, path) -> None:
    header = ",".join([f"x{i + 1}" for i in range(dataset.p)] + ["y"])
    body = np.column_stack([dataset.features, dataset.responses])
    np.savetxt(path, body, delimiter=",", header=header, comments="", fmt="%.17g")


def load_dataset_csv(path) -> LinearDataset:
    with open(path) as fh:
        header = fh.readline().strip()
    cols = header.split(",")
    if len(cols) < 2 or cols[-1] != "y" or cols[:-1] != [f"x{i + 1}" for i in range(len(cols) - 1)]:
        raise ValueError(f"unexpected dataset header {header!r}; want x1,...,xp,y")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return LinearDataset(features=body[:, :-1], responses=body[:, -1])
