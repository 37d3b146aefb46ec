"""Simulation-backend micro-benchmarks at 2^18 patterns.

Runs the exhaustive hot paths of the harness — full truth tables and an
exhaustive equivalence check — on the ``multiplier`` benchmark sized to
18 primary inputs (262 144 patterns), under both simulation kernels,
asserting bit-identical results and recording the measured wall-clock
and speedups into ``BENCH_suite.json`` / ``BENCH_kernel.json`` (see
``conftest.BENCH_REPORT``).

Two lanes:

* ``test_numpy_backend_speedup_at_2e18_patterns`` — the bigint-vs-numpy
  comparison at the ambient thread count, with its conservative
  speedup floor.
* ``test_kernel_matrix_at_2e18_patterns`` — the backend × thread-count
  matrix (bigint, and numpy at each pool size), feeding
  ``BENCH_kernel.json``.

The speedup floor asserted here is deliberately conservative (shared
CI runners jitter); the JSON artefacts carry the exact numbers so the
trajectory is tracked per run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.mig import kernel
from repro.mig.simulate import equivalent, truth_tables
from repro.synth.arithmetic import build_multiplier

from .conftest import BENCH_REPORT

#: 2 * 9 input bits -> 2^18 exhaustive patterns.
MULT_WIDTH = 9

#: Conservative floor for the numpy speedup assertions; the measured
#: values land in BENCH_suite.json.
MIN_SPEEDUP = 1.5


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy backend not installed"
)
def test_numpy_backend_speedup_at_2e18_patterns():
    mig = build_multiplier(MULT_WIDTH)
    assert mig.num_pis == 2 * MULT_WIDTH
    other = mig.clone()
    with kernel.backend_scope("bigint") as bigint:
        tables_big = truth_tables(mig)
        tt_big = _best_of(lambda: truth_tables(mig))
        eq_big = _best_of(lambda: equivalent(mig, other))

    with kernel.backend_scope("numpy") as numpy_k:
        tables_np = truth_tables(mig)
        tt_np = _best_of(lambda: truth_tables(mig))
        eq_np = _best_of(lambda: equivalent(mig, other))

    assert tables_np == tables_big  # bit-identical across backends
    assert bigint.name == "bigint" and numpy_k.name == "numpy"

    BENCH_REPORT["sim_backend"] = {
        "benchmark": f"multiplier(width={MULT_WIDTH})",
        "patterns": 1 << mig.num_pis,
        "gates": mig.num_live_gates(),
        "truth_tables_seconds": {"bigint": tt_big, "numpy": tt_np},
        "truth_tables_speedup": tt_big / tt_np,
        "equivalence_seconds": {"bigint": eq_big, "numpy": eq_np},
        "equivalence_speedup": eq_big / eq_np,
    }
    assert tt_big / tt_np >= MIN_SPEEDUP
    assert eq_big / eq_np >= MIN_SPEEDUP


@pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy backend not installed"
)
def test_kernel_matrix_at_2e18_patterns():
    """Backend x thread-count matrix feeding ``BENCH_kernel.json``."""
    mig = build_multiplier(MULT_WIDTH)
    other = mig.clone()
    cores = os.cpu_count() or 1
    thread_counts = sorted({1, min(2, cores), min(4, cores)})

    reference = truth_tables(mig, kernel=kernel._BIGINT)
    matrix = {}
    for name in ("bigint", "numpy"):
        for threads in thread_counts if name == "numpy" else [1]:
            with kernel.backend_scope(name), kernel.sim_threads_scope(threads):
                tables = truth_tables(mig)
                assert tables == reference, (name, threads)
                assert equivalent(mig, other), (name, threads)
                matrix[f"{name}@{threads}"] = {
                    "backend": name,
                    "threads": threads,
                    "truth_tables_seconds": _best_of(
                        lambda: truth_tables(mig)
                    ),
                    "equivalence_seconds": _best_of(
                        lambda: equivalent(mig, other)
                    ),
                }

    baseline = matrix["bigint@1"]["truth_tables_seconds"]
    for entry in matrix.values():
        entry["truth_tables_speedup_vs_bigint"] = (
            baseline / entry["truth_tables_seconds"]
        )
    BENCH_REPORT["kernel"] = {
        "benchmark": f"multiplier(width={MULT_WIDTH})",
        "patterns": 1 << mig.num_pis,
        "gates": mig.num_live_gates(),
        "cpu_count": cores,
        "matrix": matrix,
    }
