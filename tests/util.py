"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from maxcon.cube import TabulatedFunction, upward_closure_table


def random_monotone_function(n: int, rng: np.random.Generator, generators: int | None = None):
    """Random monotone Boolean function via the upward closure of random masks."""
    count = generators if generators is not None else int(rng.integers(1, max(2, n)))
    masks = [int(m) for m in rng.integers(0, 1 << n, size=count)]
    return TabulatedFunction(upward_closure_table(n, masks), n)


def chebyshev_probe_value(A: np.ndarray, y: np.ndarray, probes: np.ndarray) -> float:
    """Best max-residual over a probe set of parameter vectors."""
    resid = np.abs(probes @ A.T - y)
    return float(resid.max(axis=1).min())
