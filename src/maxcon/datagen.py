"""Seeded synthetic datasets: hyperplane clouds with planted outliers.

Features are drawn uniformly from [-5, 5]^(p-1) with a constant-1 coordinate
appended for the intercept.  Inlier responses are perturbed by uniform noise
in [-w, w]; outlier responses by uniform noise from the annulus
[-hi, -lo) u (lo, hi], so every outlier's residual against the ground truth
exceeds the inlier band.

Two-view instances plant a fundamental matrix or a homography, perturb the
correspondences by controlled algebraic residuals and return the linearised
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .ingest import CorrespondenceSet, linearise_fundamental, linearise_homography
from .models import LinearDataset

FEATURE_BOX = (-5.0, 5.0)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic hyperplane dataset."""

    n: int
    dim: int
    outlier_count: int | None = None
    outlier_fraction: float | None = None
    inlier_noise: float = 0.1
    outlier_noise: tuple[float, float] = (0.1, 4.0)
    seed: int = 0
    ground_truth_theta: tuple[float, ...] | None = None
    theta_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if self.n < 1 or self.dim < 1:
            raise ValueError("need n >= 1 and dim >= 1")
        if (self.outlier_count is None) == (self.outlier_fraction is None):
            raise ValueError("give exactly one of outlier_count / outlier_fraction")
        lo, hi = self.outlier_noise
        if not 0 < lo < hi:
            raise ValueError(f"outlier annulus must satisfy 0 < lo < hi, got {self.outlier_noise}")
        if not self.inlier_noise > 0:
            raise ValueError("inlier_noise must be positive")
        if lo < self.inlier_noise:
            raise ValueError("outlier annulus must exclude the inlier band")
        if self.resolved_outliers() >= self.n:
            raise ValueError("outlier count must be smaller than n")
        if self.ground_truth_theta is not None and len(self.ground_truth_theta) != self.dim:
            raise ValueError("ground_truth_theta length must equal dim")

    def resolved_outliers(self) -> int:
        if self.outlier_count is not None:
            return int(self.outlier_count)
        return int(np.floor(self.n * self.outlier_fraction + 0.5))


class GeneratedData(NamedTuple):
    dataset: LinearDataset
    inliers: tuple[int, ...]
    theta: np.ndarray


class MultiStructureData(NamedTuple):
    dataset: LinearDataset
    inlier_sets: tuple[tuple[int, ...], ...]
    thetas: tuple[np.ndarray, ...]
    gross_outliers: tuple[int, ...]


def _features(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    lo, hi = FEATURE_BOX
    free = rng.uniform(lo, hi, size=(n, p - 1))
    return np.column_stack([free, np.ones(n)])


def _annulus_noise(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    # magnitude in (lo, hi], sign independent and fair
    mag = hi - rng.uniform(0.0, hi - lo, size=count)
    sign = rng.integers(0, 2, size=count) * 2 - 1
    return sign * mag


def gen_hyperplane_data(spec: GenSpec) -> GeneratedData:
    """One hyperplane cloud with planted outliers; deterministic under seed."""
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.dim
    feats = _features(rng, n, p)
    if spec.ground_truth_theta is not None:
        theta = np.asarray(spec.ground_truth_theta, dtype=np.float64)
    else:
        theta = rng.uniform(*spec.theta_range, size=p)
    n_out = spec.resolved_outliers()
    outliers = rng.choice(n, size=n_out, replace=False) if n_out else np.empty(0, dtype=int)
    noise = rng.uniform(-spec.inlier_noise, spec.inlier_noise, size=n)
    lo, hi = spec.outlier_noise
    noise[outliers] = _annulus_noise(rng, n_out, lo, hi)
    responses = feats @ theta + noise
    inliers = tuple(sorted(set(range(n)) - set(int(i) for i in outliers)))
    return GeneratedData(LinearDataset(feats, responses), inliers, theta)


def gen_multistructure_data(
    specs: Sequence[GenSpec], gross_outliers: int, seed: int
) -> MultiStructureData:
    """Union of per-structure inlier clouds plus gross outliers.

    Each spec contributes spec.n inlier points of its own model (specs must
    plant no outliers themselves); structures share the feature box.  Gross
    outlier responses are drawn uniformly over the structures' response range
    widened by the annulus height, rejecting draws that land inside any
    structure's inlier band.
    """
    if not specs:
        raise ValueError("need at least one structure spec")
    for s in specs:
        if s.resolved_outliers() != 0:
            raise ValueError("structure specs must have zero planted outliers")
    p = specs[0].dim
    if any(s.dim != p for s in specs):
        raise ValueError("structures must share the model dimension")
    rng = np.random.default_rng(seed)
    thetas = []
    for s in specs:
        if s.ground_truth_theta is not None:
            thetas.append(np.asarray(s.ground_truth_theta, dtype=np.float64))
        else:
            thetas.append(rng.uniform(*s.theta_range, size=p))
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            if np.array_equal(thetas[i], thetas[j]):
                raise ValueError("structure models must be distinct")

    blocks: list[np.ndarray] = []
    responses: list[np.ndarray] = []
    inlier_sets: list[tuple[int, ...]] = []
    offset = 0
    for s, theta in zip(specs, thetas):
        feats = _features(rng, s.n, p)
        noise = rng.uniform(-s.inlier_noise, s.inlier_noise, size=s.n)
        blocks.append(feats)
        responses.append(feats @ theta + noise)
        inlier_sets.append(tuple(range(offset, offset + s.n)))
        offset += s.n

    gross_idx: tuple[int, ...] = ()
    if gross_outliers:
        feats = _features(rng, gross_outliers, p)
        preds = np.stack([feats @ th for th in thetas])
        lo = preds.min() - max(s.outlier_noise[1] for s in specs)
        hi = preds.max() + max(s.outlier_noise[1] for s in specs)
        resp = np.empty(gross_outliers)
        for i in range(gross_outliers):
            for _ in range(1000):
                cand = rng.uniform(lo, hi)
                margins = [
                    abs(feats[i] @ th - cand) > s.inlier_noise
                    for th, s in zip(thetas, specs)
                ]
                if all(margins):
                    resp[i] = cand
                    break
            else:
                raise RuntimeError("failed to place a gross outlier clear of all structures")
        blocks.append(feats)
        responses.append(resp)
        gross_idx = tuple(range(offset, offset + gross_outliers))

    dataset = LinearDataset(np.vstack(blocks), np.concatenate(responses))
    return MultiStructureData(dataset, tuple(inlier_sets), tuple(thetas), gross_idx)


def synthetic_fm_instance(seed: int, matches: int = 40, outliers: int = 12, eps: float = 0.02):
    """Epipolar correspondences with controlled algebraic residuals.

    Inliers carry residual at most 0.8*eps against the planted matrix;
    outliers are gross, at least 10*eps, as mismatches tend to be.  Returns
    the linearised dataset.
    """
    rng = np.random.default_rng(seed)
    F = rng.uniform(-1, 1, (3, 3))
    F /= F[2, 2]
    deltas = rng.uniform(-0.8 * eps, 0.8 * eps, matches)
    out_idx = rng.choice(matches, outliers, replace=False)
    mag = 1.0 - rng.uniform(0, 1.0 - 10.0 * eps, outliers)
    deltas[out_idx] = (rng.integers(0, 2, outliers) * 2 - 1) * mag
    rows = []
    while len(rows) < matches:
        p2 = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0])
        line = F @ p2
        if abs(line[1]) < 1e-3:
            continue
        x1 = rng.uniform(-2, 2)
        y1 = -(line[0] * x1 + line[2]) / line[1]
        if abs(y1) > 50:
            continue
        p1 = np.array([x1, y1, 1.0])
        p1[:2] += deltas[len(rows)] * line[:2] / (line[0] ** 2 + line[1] ** 2)
        rows.append([p1[0], p1[1], p2[0], p2[1]])
    return linearise_fundamental(CorrespondenceSet(np.array(rows)))


def synthetic_h_instance(seed: int, matches: int = 24, outliers: int = 6, eps: float = 0.1):
    """Homography correspondences with controlled per-row residuals.

    Inlier rows carry residual at most 0.8*eps against the planted matrix;
    corrupted matches are gross, at least 10*eps on both rows.  Returns the
    linearised (doubled-row) dataset.
    """
    rng = np.random.default_rng(seed)
    H = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
    H /= H[2, 2]
    src = rng.uniform(-2, 2, (matches, 2))
    out_idx = set(int(i) for i in rng.choice(matches, outliers, replace=False))
    rows = []
    for j, (x, y) in enumerate(src):
        t = H @ np.array([x, y, 1.0])
        w = t[2]
        u, v = t[0] / w, t[1] / w
        if j in out_idx:
            du, dv = (
                (rng.integers(0, 2) * 2 - 1) * (5.0 - rng.uniform(0, 5.0 - 10 * eps)) / w
                for _ in range(2)
            )
        else:
            du, dv = rng.uniform(-0.8 * eps, 0.8 * eps, 2) / w
        rows.append([x, y, u + du, v + dv])
    return linearise_homography(CorrespondenceSet(np.array(rows)))
