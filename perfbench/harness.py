"""Shared pieces of the benchmark: paths, cell matrices, statistics,
the cross-run reference table and process hygiene helpers.

Everything the benchmark writes lives under ``perfbench/_work`` inside
the checkout it runs from.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import hostspeed

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

#: Table I presets followed by the Table III write caps (labelled
#: ``wmaxN`` by the runner): the nine configurations of the suite.
SUITE_PRESETS = ("naive", "dac16", "min-write", "ea-rewrite", "ea-full")
SUITE_CAPS = (10, 20, 50, 100)
SUITE_LABELS = SUITE_PRESETS + tuple(f"wmax{cap}" for cap in SUITE_CAPS)

#: The three benchmarks that take two thirds of a cold suite; the
#: serve-mix stream leaves them out so one request never stalls a
#: client for seconds.
SERVE_EXCLUDED = ("log2", "sin", "mem_ctrl")

#: Samples a percentile needs beyond it before it may be reported.
MIN_TAIL = 10

#: Setup is measured this many times per run; the median is reported.
SETUP_REPEATS = 7


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    ``src`` on the path and no ambient ``REPRO_*`` selection, so a
    user's shell settings never change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare_process() -> None:
    """Make this process import the checkout's ``repro`` with no ambient
    ``REPRO_*`` knobs (the in-process workloads run here)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_dir(prefix: str) -> pathlib.Path:
    """A new empty directory under the work area."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{prefix}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_tree(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- cells ------------------------------------------------------------------


def suite_cells(names: Sequence[str]) -> List[Tuple[str, str]]:
    """(benchmark, label) for every suite configuration of *names*."""
    return [(name, label) for name in names for label in SUITE_LABELS]


def shuffled(items: Sequence, seed: int, salt: str) -> list:
    """A seeded permutation of *items* (the salt keeps passes' orders
    independent)."""
    out = list(items)
    random.Random(f"{seed}:{salt}").shuffle(out)
    return out


def signature(instructions: int, rrams: int, stdev: float, max_writes: int):
    """The four deterministic result figures of one cell, JSON-stable."""
    return [int(instructions), int(rrams), repr(float(stdev)), int(max_writes)]


def result_signature(result) -> list:
    """Signature of a :class:`repro.core.manager.CompilationResult`."""
    return signature(
        result.num_instructions,
        result.num_rrams,
        result.stats.stdev,
        result.stats.max_writes,
    )


def gmean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def count_metrics(signatures: Dict[str, list]) -> Dict[str, float]:
    """The four result-guard metrics over a workload's distinct cells."""
    sigs = list(signatures.values())
    return {
        "rm3_instructions": float(sum(s[0] for s in sigs)),
        "rram_devices": float(sum(s[1] for s in sigs)),
        "write_stdev_gmean": gmean(float(s[2]) for s in sigs),
        "max_writes_gmean": gmean(s[3] for s in sigs),
    }


# -- statistics ---------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-quantile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def hd_quantile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the *q*-quantile: a Beta-weighted mean
    of all order statistics rather than the one at a rank.

    Cell latencies come in clusters (each benchmark's configurations
    cost about the same), so the sample at a fixed rank jumps between
    clusters when two cells swap places, while this estimate moves
    smoothly.  Weight ``i`` is the ``Beta(q(n+1), (1-q)(n+1))`` mass on
    ``[i/n, (i+1)/n]``, integrated by Simpson's rule.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                        - log_beta)

    weights = []
    for i in range(n):
        lo, step = i / n, 1 / (4 * n)
        ys = [density(lo + k * step) for k in range(5)]
        weights.append(ys[0] + 4 * ys[1] + 2 * ys[2] + 4 * ys[3] + ys[4])
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def latency_metrics(
    groups: Sequence[Sequence[float]],
) -> Tuple[Dict, List[str]]:
    """``cell_p50_ms``/``cell_p90_ms`` plus their sample-count notes.

    Each group (one pass of a workload) gives its own Harrell-Davis
    percentiles (:func:`hd_quantile`); the metric is their median over
    the groups, so one pass that met a burst of host noise does not
    move it.  Refuses (raises) when fewer than :data:`MIN_TAIL` samples
    of a group lie beyond its nearest-rank p90: such a tail is a handful
    of cells, not a percentile.
    """
    p50s, p90s, tails = [], [], []
    for samples in groups:
        _, beyond50 = percentile(samples, 0.50)
        _, beyond90 = percentile(samples, 0.90)
        if beyond90 < MIN_TAIL:
            raise RuntimeError(
                f"cell_p90_ms withheld: {beyond90} of {len(samples)} "
                f"cells lie beyond it, need at least {MIN_TAIL}"
            )
        p50s.append(hd_quantile(samples, 0.50))
        p90s.append(hd_quantile(samples, 0.90))
        tails.append((len(samples), beyond50, beyond90))
    n, beyond50, beyond90 = min(tails)
    each = f"median over {len(groups)} group(s) of at least n={n} cells"
    notes = [
        f"cell_p50_ms: {each} ({beyond50} beyond): "
        + ", ".join(f"{v * 1e3:.4f}" for v in p50s),
        f"cell_p90_ms: {each} ({beyond90} beyond): "
        + ", ".join(f"{v * 1e3:.4f}" for v in p90s),
    ]
    return {
        "cell_p50_ms": median(p50s) * 1e3,
        "cell_p90_ms": median(p90s) * 1e3,
    }, notes


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User + system CPU time of this process (all threads)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- reference table ------------------------------------------------------------


class ReferenceTable:
    """Per-code-version record of every cell result seen in this checkout.

    Every run compares the cells it computed against the record and adds
    the new ones, so the count metrics are checked cell by cell across
    runs, seeds and workloads (suite-warm against suite-cold, serve-mix
    against both).  Keyed by the source fingerprint, so a code change
    starts a fresh record.
    """

    def __init__(self, fingerprint: str) -> None:
        self.path = WORK / f"reference-{fingerprint[:16]}.json"
        try:
            self.cells: Dict[str, list] = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.cells = {}

    def check(self, key: str, sig: list) -> Optional[str]:
        """Record *sig* for *key*; a mismatch is returned as a message."""
        known = self.cells.setdefault(key, sig)
        if known != sig:
            return f"{key}: {sig} differs from the recorded {known}"
        return None

    def save(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(self.cells, sort_keys=True))
        os.replace(tmp, self.path)


# -- child processes ------------------------------------------------------------


def run_probe(args: Sequence[str], timeout: float) -> Tuple[float, str]:
    """Run ``probe.py ARGS``; return (seconds to its ``ready`` line, the
    rest of its output).  The child is waited for on every path."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(
            f"probe {' '.join(args)} failed ({proc.returncode}): "
            f"{line}{out}{err}"
        )
    return ready, out


def median_setup(args: Sequence[str]) -> Tuple[float, List[float]]:
    """Median start-to-ready time of :data:`SETUP_REPEATS` probes, in
    host-speed normalised reference seconds (see :mod:`hostspeed`)."""
    times = [
        hostspeed.bracket(lambda: run_probe(args, timeout=120)[0])
        for _ in range(SETUP_REPEATS)
    ]
    return median(times), times
