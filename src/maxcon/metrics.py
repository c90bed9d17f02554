"""Evaluation metrics: rank agreement and consensus error."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Ranking:
    """Top-k indices, ordered by decreasing score."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.order) < 1:
            raise ValueError("ranking must contain at least one element")
        if len(set(self.order)) != len(self.order):
            raise ValueError("ranking must not contain duplicates")

    @property
    def k(self) -> int:
        return len(self.order)


def top_k_ranking(scores: Mapping[int, float], k: int) -> Ranking:
    """Top k indices by decreasing score, ties broken by ascending index."""
    if not 1 <= k <= len(scores):
        raise ValueError(f"k must be in [1, {len(scores)}], got {k}")
    order = sorted(scores, key=lambda i: (-scores[i], i))
    return Ranking(tuple(order[:k]))


def sf_distance(r_es, r_ex, k: int | None = None) -> float:
    """Normalised Spearman-Footrule displacement between two top-k rankings.

    Positions are 1-based and an element absent from a ranking takes position
    k + 1.  The displacement is summed over every element appearing in either
    ranking, so disjoint rankings score the maximum of 1.0 and identical
    rankings score 0.0.  A raw sequence is checked as ``Ranking`` checks it:
    empty or duplicated rankings raise ``ValueError``.
    """
    a = (r_es if isinstance(r_es, Ranking) else Ranking(tuple(r_es))).order
    b = (r_ex if isinstance(r_ex, Ranking) else Ranking(tuple(r_ex))).order
    if len(a) != len(b):
        raise ValueError(f"rankings must have equal length, got {len(a)} and {len(b)}")
    if k is None:
        k = len(a)
    elif k != len(a):
        raise ValueError(f"rankings must have length k={k}, got {len(a)}")
    pos_a = {z: i + 1 for i, z in enumerate(a)}
    pos_b = {z: i + 1 for i, z in enumerate(b)}
    absent = k + 1
    total = sum(abs(pos_a.get(z, absent) - pos_b.get(z, absent)) for z in set(a) | set(b))
    return total / (k * (k + 1))


def consensus_error(found, ground_truth_size: int) -> int:
    """Consensus deficit against a certified optimum; negative signals a bug."""
    size = found if isinstance(found, (int, np.integer)) else found.consensus_size
    err = int(ground_truth_size) - int(size)
    if err < 0:
        raise ValueError(
            f"consensus {size} exceeds the certified optimum {ground_truth_size}"
        )
    return err


BATCH_REPORT_COLUMNS = ("run", "method", "consensus", "error", "runtime_ms")


def write_batch_report(rows: Sequence[Mapping], path) -> None:
    """CSV batch report with one row per run."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BATCH_REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in BATCH_REPORT_COLUMNS})
