"""Outside-in span tracing: wrappers around the public entry points of maxcon.

A span is recorded at each layer boundary the benchmark can reach without
editing the program: the solver entry points the benchmark calls, the
estimators and ``minimax_fit`` as ``maxcon.solvers`` looks them up,
``FeasibilityOracle.__call__`` through a subclass injected where
``maxcon.solvers`` constructs its oracle, and the dataset generator and
CSV loader.  The run
is single-threaded, so a stack gives each span's parent.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from unittest import mock

import numpy as np

from maxcon import datagen, models, solvers

ORACLE = "models.oracle"
SOLVER_SPANS = ("solvers.wi", "solvers.mbf")


class Tracer:
    """Spans as parallel lists: name, parent span id (-1 at the root), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.oracles: list[models.FeasibilityOracle] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _oracle_class(self):
        tracer = self
        base = models.FeasibilityOracle

        class TracedOracle(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.oracles.append(self)

            __call__ = tracer.wrap(ORACLE, base.__call__)

        return TracedOracle

    @contextlib.contextmanager
    def instrument(self):
        """Patch the internal lookups; entry points are wrapped at the call site."""
        targets = [
            (solvers, "FeasibilityOracle", self._oracle_class()),
            (solvers, "estimate_influence_bernoulli", "cube.bernoulli"),
            (solvers, "estimate_influence_hamming", "cube.hamming"),
            (solvers, "minimax_fit", "models.minimax_fit"),
            (datagen, "gen_hyperplane_data", "datagen"),
            (models, "load_dataset_csv", "ingest"),
        ]
        with contextlib.ExitStack() as stack:
            for module, attr, repl in targets:
                if isinstance(repl, str):
                    repl = self.wrap(repl, getattr(module, attr))
                stack.enter_context(mock.patch.object(module, attr, repl))
            yield

    def arrays(self):
        """(name table, name code per span, parent, start, end) as numpy arrays."""
        table, codes = np.unique(np.array(self.names), return_inverse=True)
        return (
            table,
            codes,
            np.array(self.parents, dtype=np.int64),
            np.array(self.starts),
            np.array(self.ends),
        )

    def dump(self, path: Path) -> None:
        """Write the spans; a span's id is its position, and parent -1 marks a root."""
        table, codes, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=table, name=codes, parent=parent, start=start, end=end)

    def nesting_errors(self) -> int:
        """Spans that end before they start or stick out of their parent."""
        _, _, parent, start, end = self.arrays()
        child = parent >= 0
        par = parent[child]
        bad = (end < start).sum()
        bad += ((start[child] < start[par]) | (end[child] > end[par])).sum()
        return int(bad)

    def layer_metrics(self, records) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass, ``records`` being its solves.

        Self time is a span's duration minus the durations of its direct
        children.  Layers the workload does not exercise are left out; the exact
        solver, which only ``desk2d`` runs, is in the span dump but not here.
        """
        table, codes, parent, start, end = self.arrays()
        dur = end - start
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        parent_code = np.where(child, codes[np.maximum(parent, 0)], -1)
        code = {name: i for i, name in enumerate(table)}
        solver_codes = [code[n] for n in SOLVER_SPANS if n in code]

        def sel(name):
            return codes == code[name] if name in code else np.zeros(len(codes), bool)

        out: dict[str, tuple[float, str]] = {}
        oracle = sel(ORACLE)
        if oracle.any():
            q_us = dur[oracle] * 1e6
            core = sum(o.core_tests for o in self.oracles)
            lps = sum(o.lp_solves for o in self.oracles)
            expand = oracle & np.isin(parent_code, solver_codes)
            out.update({
                "models.oracle.queries": (int(oracle.sum()), "count"),
                "models.oracle.s": (float(dur[oracle].sum()), "s"),
                "models.oracle.query_us_p50": (float(np.percentile(q_us, 50)), "us"),
                "models.oracle.query_us_p99": (float(np.percentile(q_us, 99)), "us"),
                "models.oracle.core_tests": (core, "count"),
                "models.oracle.lp_solves": (lps, "count"),
                "models.oracle.expand_queries": (int(expand.sum()), "count"),
                "models.oracle.expand_s": (float(dur[expand].sum()), "s"),
            })
            if core:
                out["models.oracle.lp_per_core_test"] = (lps / core, "ratio")
        for name in ("models.minimax_fit", "datagen", "ingest"):
            mask = sel(name)
            if mask.any():
                if name == "models.minimax_fit":
                    out[f"{name}.calls"] = (int(mask.sum()), "count")
                out[f"{name}.s"] = (float(dur[mask].sum()), "s")
        for name in ("cube.bernoulli", "cube.hamming"):
            mask = sel(name)
            if mask.any():
                queries = int((oracle & np.isin(parent, np.flatnonzero(mask))).sum())
                out[f"{name}.calls"] = (int(mask.sum()), "count")
                out[f"{name}.s"] = (float(dur[mask].sum()), "s")
                out[f"{name}.self_s"] = (float(self_t[mask].sum()), "s")
                out[f"{name}.queries_per_call"] = (queries / int(mask.sum()), "count")
        loop = np.isin(codes, solver_codes)
        if loop.any():
            out["solvers.influence_loop.self_s"] = (float(self_t[loop].sum()), "s")
        for method in ("wi", "mbf"):
            its = [r.result.iterations for r in records if r.method == method and r.result]
            if its:
                out[f"solvers.{method}.iterations"] = (sum(its), "count")
        ra = [r.result for r in records if r.method == "ransac" and r.result]
        if ra:
            out["solvers.ransac.s"] = (float(dur[sel("solvers.ransac")].sum()), "s")
            out["solvers.ransac.hypotheses"] = (sum(x.iterations for x in ra), "count")
            out["solvers.ransac.skipped"] = (
                sum(x.config["skipped_hypotheses"] for x in ra), "count"
            )
        lo = [r.result for r in records if r.method == "lo_ransac" and r.result]
        if lo:
            out["solvers.lo_ransac.s"] = (float(dur[sel("solvers.lo_ransac")].sum()), "s")
            # each minimax re-fit adds one evaluation on top of the hypotheses
            out["solvers.lo_ransac.refits"] = (
                sum(x.oracle_evaluations - x.iterations for x in lo), "count"
            )
        return out
