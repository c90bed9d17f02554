#!/usr/bin/env python3
"""Self-test of the benchmark, about two minutes on two cores.

    python3 perfbench/selftest.py          (or: python -m pytest perfbench/selftest.py)

It pins the counts of the ROADMAP baseline table at seed 0, so that a change
to the program's random streams shows up as a recorded count change rather
than as silent drift: update ``PINNED`` together with a CHANGES.md entry,
never by re-seeding.  It also checks that the traced pass returns what the
untraced pass returns, with properly nested spans, and that the benchmark
refuses to run without the program beside it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# (workload, instance label, method) -> (consensus, oracle evaluations)
PINNED = {
    ("desk2d", "desk2d-r3", "wi"): (17, 5519),
    ("desk2d", "desk2d-r3", "mbf"): (17, 11311),
    ("hd8", "hd8-r5", "wi"): (175, 19395),
    ("hd8", "hd8-r5", "mbf"): (175, 37085),
}


def _instance(workload: str, label: str) -> workloads.Instance:
    return next(i for i in workloads.instances(workload, 0) if i.label == label)


def _check_pins(workload: str) -> None:
    pins = {k[1:]: v for k, v in PINNED.items() if k[0] == workload}
    for label in {label for label, _ in pins}:
        inst = _instance(workload, label)
        records = bench.run_instance(inst, inst.make())
        assert [r.error for r in records if r.error] == []
        for rec in records:
            if (label, rec.method) in pins:
                got = (rec.consensus, rec.result.oracle_evaluations)
                assert got == pins[label, rec.method], (label, rec.method, got)


def test_pinned_desk2d_counts():
    _check_pins("desk2d")


def test_pinned_hd8_counts():
    _check_pins("hd8")


def test_traced_pass_matches_untraced():
    insts = [_instance("desk2d", "desk2d-r3"), _instance("desk2d", "desk2d-r5")]
    base = bench.run_pass(insts, [i.make() for i in insts])
    tracer = Tracer()
    with tracer.instrument():
        traced = bench.run_pass(insts, [i.make() for i in insts], tracer.wrap)
    assert [r.outcome() for r in traced] == [r.outcome() for r in base]
    assert all(r.error is None for r in base + traced)
    assert tracer.nesting_errors() == 0
    assert sum(o.evaluations for o in tracer.oracles) == tracer.names.count("models.oracle")
    layers = tracer.layer_metrics(traced)
    for name in ("models.oracle.queries", "models.oracle.lp_per_core_test",
                 "models.minimax_fit.calls", "cube.bernoulli.self_s", "cube.hamming.self_s",
                 "solvers.influence_loop.self_s", "solvers.lo_ransac.refits",
                 "solvers.ransac.hypotheses", "datagen.s", "ingest.s"):
        assert name in layers, name
    for name in ("cube.bernoulli", "cube.hamming"):
        assert 0 < layers[f"{name}.self_s"][0] < layers[f"{name}.s"][0]


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk2d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}", flush=True)
