"""Compile throughput: microseconds per gate for the compile-verify columns.

Compiles the 18 registry benchmarks at the default preset, without
rewriting, under the six selection/allocation columns of the
``compile-verify`` workload of ``perfbench/`` (topological order with
the LIFO and the minimum-write allocator, the DAC'16 and the
endurance-aware selection with the minimum-write allocator, and the
latter under write caps 20 and 10).  Each column's best-of-3 wall time
over the suite, divided by the suite's gate count, lands in
``benchmarks/output/BENCH_compile.json``.

The guard: a write cap must not make compilation per gate markedly
slower than the same column without one.  The ``wmax10`` column may
cost at most :data:`MAX_CAP_RATIO` times the uncapped endurance-aware
column.  A minimum-write request that rescans every near-cap device
breaks it (that allocator compiled ``wmax10`` 4.9x slower than the
uncapped column).

The preset is fixed at ``default`` whatever ``REPRO_BENCH_PRESET``
says: the guard compares columns with each other, and the default
widths keep one pass to a few seconds.
"""

from __future__ import annotations

import json
import time

from repro.core.selection import make_selection
from repro.plim.compiler import PlimCompiler
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark

from .conftest import write_artifact

#: label -> (selection, allocation strategy, write cap), as in the
#: compile-verify workload.
COMPILE_VERIFY_CONFIGS = {
    "cv-topo-lifo": ("topo", "naive", None),
    "cv-topo-minw": ("topo", "min_write", None),
    "cv-dac16-minw": ("dac16", "min_write", None),
    "cv-ea-minw": ("endurance", "min_write", None),
    "cv-ea-minw-wmax20": ("endurance", "min_write", 20),
    "cv-ea-minw-wmax10": ("endurance", "min_write", 10),
}

#: Highest allowed per-gate cost of the wmax10 column relative to the
#: uncapped endurance-aware column.
MAX_CAP_RATIO = 1.5

REPEATS = 3


def _compile_all(migs, selection, allocation, w_max) -> None:
    strategy = None if selection == "topo" else make_selection(selection)
    for mig in migs:
        PlimCompiler(
            selection=strategy, allocation=allocation, w_max=w_max
        ).compile(mig)


def test_compile_us_per_gate():
    migs = [build_benchmark(name, "default") for name in BENCHMARK_ORDER]
    gates = sum(mig.num_live_gates() for mig in migs)
    best = {label: float("inf") for label in COMPILE_VERIFY_CONFIGS}
    # Interleave the columns so a slow spell of the host hits all alike.
    for _ in range(REPEATS):
        for label, config in COMPILE_VERIFY_CONFIGS.items():
            start = time.perf_counter()
            _compile_all(migs, *config)
            best[label] = min(best[label], time.perf_counter() - start)

    ratio = best["cv-ea-minw-wmax10"] / best["cv-ea-minw"]
    write_artifact(
        "BENCH_compile.json",
        json.dumps(
            {
                "preset": "default",
                "benchmarks": len(migs),
                "gates": gates,
                "repeats": REPEATS,
                "configs": {
                    label: {
                        "selection": selection,
                        "allocation": strategy,
                        "w_max": w_max,
                        "seconds": best[label],
                        "us_per_gate": best[label] / gates * 1e6,
                    }
                    for label, (selection, strategy, w_max)
                    in COMPILE_VERIFY_CONFIGS.items()
                },
                "wmax10_over_uncapped": ratio,
                "max_ratio": MAX_CAP_RATIO,
            },
            indent=2,
        ),
    )
    assert ratio <= MAX_CAP_RATIO, (
        f"wmax10 compiles {ratio:.2f}x slower per gate than the uncapped "
        f"column (limit {MAX_CAP_RATIO}x)"
    )
