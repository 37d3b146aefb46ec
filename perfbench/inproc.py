"""The in-process workloads: suite-cold, compile-verify and suite-warm.

Each drives ``Session.run_matrix`` one cell at a time, serially, in a
seeded order.  A *pass* is the workload's whole cell matrix once; the
measured phase runs a fixed number of passes, so the work per run does
not depend on how fast the host happens to be.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Tuple

import harness
import hostspeed

#: The compile-verify configurations: no rewriting, so the rewrite
#: layer is bypassed and selection, allocation and verification carry
#: the whole cell.  name -> (selection, allocation strategy, write cap).
COMPILE_VERIFY_CONFIGS = {
    "cv-topo-lifo": ("topo", "naive", None),
    "cv-topo-minw": ("topo", "min_write", None),
    "cv-dac16-minw": ("dac16", "min_write", None),
    "cv-ea-minw": ("endurance", "min_write", None),
    "cv-ea-minw-wmax20": ("endurance", "min_write", 20),
    "cv-ea-minw-wmax10": ("endurance", "min_write", 10),
}


def new_session(**options):
    """A Session as every workload opens it.

    The simulation kernel runs on one thread: the host-speed probe (see
    :mod:`hostspeed`) runs on the main thread, and a second kernel
    thread on a two-CPU shared host would run at the other CPU's speed,
    which the probe does not see.
    """
    from repro.flow import Session

    return Session(sim_threads=1, **options)


class Workload:
    """One in-process workload: its cells, how a pass opens a session,
    and how one cell runs."""

    #: Seconds one pass counts for when a run is sized: a run makes
    #: ``max(1, round(seconds / nominal_pass_s))`` passes, a fixed amount
    #: of work whatever the host's speed.
    nominal_pass_s = 1.0
    verify_patterns = 64

    def __init__(self, name: str) -> None:
        from repro.synth.registry import BENCHMARK_ORDER

        self.name = name
        self.benchmarks = list(BENCHMARK_ORDER)
        self.cells: List[Tuple[str, str]] = harness.suite_cells(
            self.benchmarks
        )

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def open_session(self):
        """A new Session for one pass, plus a cleanup callable."""
        raise NotImplementedError

    def run_cell(self, session, bench: str, label: str):
        if label.startswith("wmax"):
            evaluations = session.run_matrix(
                [bench], [], caps=[int(label[4:])], verify=True,
                verify_patterns=self.verify_patterns,
            )
        else:
            evaluations = session.run_matrix(
                [bench], [label], verify=True,
                verify_patterns=self.verify_patterns,
            )
        return evaluations[0].results[label]


class SuiteCold(Workload):
    """Tables I+III, cold: every pass starts from an empty disk root."""

    #: At the benchmark's 30 s this gives one pass, 20-35 s of wall time.
    nominal_pass_s = 24.0

    def open_session(self):
        root = harness.fresh_dir("cold")
        return new_session(cache_dir=root), lambda: harness.remove_tree(root)


class SuiteWarm(Workload):
    """Tables I+III over a fixture root that holds every artefact."""

    #: At the benchmark's 30 s this gives 60 passes, about 15 s with
    #: the collection before each pass.
    nominal_pass_s = 0.5

    def __init__(self, name: str, fixture: pathlib.Path) -> None:
        super().__init__(name)
        self.fixture = fixture

    def open_session(self):
        return new_session(cache_dir=self.fixture), lambda: None


class CompileVerify(Workload):
    """No rewriting, six selection/allocation columns, wide verification."""

    #: At the benchmark's 30 s this gives one pass, 20-35 s of wall time;
    #: its p90 has 10 of 108 cells beyond it.
    nominal_pass_s = 24.0
    verify_patterns = 8192

    def __init__(self, name: str) -> None:
        from repro.core.manager import EnduranceConfig
        from repro.core.policies import AllocationPolicy

        super().__init__(name)
        self.configs = {
            label: EnduranceConfig(
                name=label,
                rewriting="none",
                selection=selection,
                allocation=AllocationPolicy(strategy, cap),
            )
            for label, (selection, strategy, cap)
            in COMPILE_VERIFY_CONFIGS.items()
        }
        self.cells = [
            (bench, label)
            for bench in self.benchmarks
            for label in self.configs
        ]

    def open_session(self):
        return new_session(), lambda: None

    def run_cell(self, session, bench: str, label: str):
        evaluations = session.run_matrix(
            [bench], [self.configs[label]], verify=True,
            verify_patterns=self.verify_patterns,
        )
        return evaluations[0].results[label]


def fixture_root() -> pathlib.Path:
    """Where this code version's suite-warm fixture lives."""
    from repro.analysis.diskcache import code_fingerprint

    return harness.WORK / f"fixture-{code_fingerprint()[:16]}"


def make_workload(name: str):
    if name == "suite-cold":
        return SuiteCold(name)
    if name == "compile-verify":
        return CompileVerify(name)
    if name == "suite-warm":
        return SuiteWarm(name, fixture_root())
    raise ValueError(f"not an in-process workload: {name}")


def ensure_fixture() -> Dict[str, list]:
    """Build the suite-warm fixture once per code version.

    A child process runs the cold suite in table order into a scratch
    root, which is renamed into place only when complete, together with
    the signature of every cell, which this returns.
    """
    root = fixture_root()
    sigs = root / "signatures.json"
    if not sigs.is_file():
        scratch = harness.fresh_dir("fixture-build")
        try:
            _, out = harness.run_probe(["fixture", str(scratch)], timeout=600)
            (scratch / "signatures.json").write_text(out)
            harness.remove_tree(root)
            os.replace(scratch, root)
        finally:
            harness.remove_tree(scratch)
    return json.loads(sigs.read_text())


def tree_state(root: pathlib.Path) -> Dict[str, Tuple[int, int]]:
    """Every file under *root* with its size and modification time."""
    state = {}
    for path in root.rglob("*"):
        if path.is_file():
            info = path.stat()
            state[str(path.relative_to(root))] = (info.st_size,
                                                  info.st_mtime_ns)
    return state


class Phase:
    """What one measured phase observed.

    Timings are host-speed normalised (see :mod:`hostspeed`):
    ``pass_seconds`` and ``latencies`` (one list per pass) are reference
    seconds, probe time excluded; ``wall_s`` is the phase's plain wall
    time, probes included.
    """

    def __init__(self) -> None:
        self.pass_seconds: List[float] = []
        self.latencies: List[List[float]] = []
        self.wall_s = 0.0
        self.host_speed = 0.0
        self.cpu_s = 0.0
        self.signatures: Dict[str, list] = {}
        self.failures: List[str] = []
        self.counters: Dict[str, int] = {}

    @property
    def seconds(self) -> float:
        return sum(self.pass_seconds)

    @property
    def attempted(self) -> int:
        return sum(len(cells) for cells in self.latencies)

    @property
    def cells_per_s(self) -> float:
        """Cells per reference second of the median pass."""
        return len(self.latencies[0]) / harness.median(self.pass_seconds)


def pass_order(workload: Workload, seed: int, index: int):
    """The cells of one pass: the seed shuffles the benchmarks, and each
    benchmark's configurations keep table order.  The same configuration
    then pays for the build and for each rewrite script whatever the
    seed, so the latency percentiles do not depend on it."""
    benches = harness.shuffled(workload.benchmarks, seed, f"pass{index}")
    rank = {bench: i for i, bench in enumerate(benches)}
    return sorted(workload.cells, key=lambda cell: rank[cell[0]])


def run_phase(workload: Workload, seed: int, passes: int,
              recorder=None) -> Phase:
    """Run *passes* seeded passes; time each pass and each cell.

    A failed cell (exception, verification mismatch, result differing
    from an earlier repeat of the same cell) is counted, not raised.
    Sessions are opened inside the timed region (a cold pass pays for
    its fresh root); their cleanup happens after it.
    """
    phase = Phase()
    cleanups = []
    counters: Dict[str, int] = {}
    pass_spans: List[Tuple[float, float]] = []
    cell_spans: List[List[Tuple[float, float]]] = []
    cpu0 = harness.cpu_seconds()
    wall0 = time.perf_counter()
    try:
        with hostspeed.Sampler() as sampler:
            for index in range(passes):
                # Every pass starts from a collected heap: the last
                # pass's session is garbage of the harness, not work of
                # this pass.
                session = None
                gc.collect()
                start = sampler.now()
                session, cleanup = workload.open_session()
                cleanups.append(cleanup)
                spans: List[Tuple[float, float]] = []
                for bench, label in pass_order(workload, seed, index):
                    _run_cell(workload, session, bench, label, phase,
                              recorder, sampler, spans)
                pass_spans.append((start, sampler.now()))
                cell_spans.append(spans)
                for name, value in session.cache.counters().items():
                    counters[name] = counters.get(name, 0) + value
        phase.wall_s = time.perf_counter() - wall0
        phase.cpu_s = harness.cpu_seconds() - cpu0
    finally:
        for cleanup in cleanups:
            cleanup()
    phase.host_speed = sampler.speed(pass_spans[0][0], pass_spans[-1][1])
    phase.pass_seconds = [sampler.reference(*span) for span in pass_spans]
    phase.latencies = [
        [sampler.reference(*span) for span in spans] for spans in cell_spans
    ]
    phase.counters = counters
    return phase


def _run_cell(workload, session, bench, label, phase, recorder, sampler,
              spans) -> None:
    key = f"{bench}/{label}"
    t0 = sampler.now()
    try:
        if recorder is not None:
            with recorder.span("runner", "cell", trace=key):
                result = workload.run_cell(session, bench, label)
        else:
            result = workload.run_cell(session, bench, label)
    except Exception as error:  # noqa: BLE001 — counted, not raised
        spans.append((t0, sampler.now()))
        phase.failures.append(f"{key}: {type(error).__name__}: {error}")
        return
    spans.append((t0, sampler.now()))
    sig = harness.result_signature(result)
    known = phase.signatures.setdefault(key, sig)
    if known != sig:
        phase.failures.append(f"{key}: repeat gave {sig}, not {known}")


def setup_probe(name: str) -> None:
    """Child side of the set-up measurement: everything the run does
    before its measured phase — import, workload and first session."""
    workload = make_workload(name)
    session, cleanup = workload.open_session()
    session.cache  # noqa: B018 — the session is ready once it has a cache
    print("ready", flush=True)
    cleanup()


def build_fixture(root: str) -> None:
    """Child side of :func:`ensure_fixture`."""
    print("ready", flush=True)
    workload = SuiteCold("suite-cold")
    session = new_session(cache_dir=root)
    sigs = {
        f"{bench}/{label}": harness.result_signature(
            workload.run_cell(session, bench, label)
        )
        for bench, label in workload.cells
    }
    print(json.dumps(sigs, sort_keys=True))


def run(name: str, seed: int, seconds: float, trace: bool,
        reference: "harness.ReferenceTable") -> dict:
    """Run one in-process workload; returns the result record."""
    from layers import Recorder

    checks: List[str] = []
    expected: Optional[Dict[str, list]] = None
    if name == "suite-warm":
        expected = ensure_fixture()
    workload = make_workload(name)
    setup_s, setup_samples = harness.median_setup(["setup", name])
    passes = workload.passes(seconds)

    before = tree_state(workload.fixture) if expected is not None else None
    phase = run_phase(workload, seed, passes)
    traced = None
    recorder = None
    if trace:
        recorder = Recorder()
        recorder.install()
        try:
            traced = run_phase(workload, seed, passes, recorder)
        finally:
            recorder.restore()
    if before is not None:
        if tree_state(workload.fixture) != before:
            checks.append("the suite-warm fixture was written during "
                          "measurement")
        for ph in filter(None, (phase, traced)):
            if ph.counters.get("disk_misses"):
                checks.append(f"{ph.counters['disk_misses']} fixture "
                              "misses: a warm cell was not a disk read")

    failures = list(phase.failures)
    for ph in filter(None, (phase, traced)):
        for key, sig in ph.signatures.items():
            if expected is not None and expected.get(key) != sig:
                failures.append(f"{key}: warm {sig} differs from the cold "
                                f"fixture's {expected.get(key)}")
            problem = reference.check(key, sig)
            if problem:
                failures.append(problem)
    if traced is not None:
        failures.extend(traced.failures)

    missing = set(f"{b}/{l}" for b, l in workload.cells) - set(phase.signatures)
    metrics = {
        "cells_per_s": phase.cells_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    notes = [f"{passes} pass(es) of {len(workload.cells)} cells in "
             f"{phase.seconds:.3f} reference s ({phase.wall_s:.3f} s wall "
             f"at host speed {phase.host_speed:.3f})",
             "pass reference s: "
             + ", ".join(f"{s:.4f}" for s in phase.pass_seconds),
             "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup_samples)]
    lat, lat_notes = harness.latency_metrics(phase.latencies)
    metrics.update(lat)
    notes.extend(lat_notes)
    if not missing:
        metrics.update(harness.count_metrics(phase.signatures))
    else:
        checks.append(f"{len(missing)} cells produced no result")

    layer = {}
    if traced is not None:
        layer = recorder.layer_metrics()
        hits = traced.counters.get("hits", 0)
        misses = traced.counters.get("misses", 0)
        layer.update({
            "cache.hits": float(hits),
            "cache.misses": float(misses),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "proc.cpu_s": phase.cpu_s,
            "proc.cpu_util": phase.cpu_s / phase.wall_s,
            "host.speed": phase.host_speed,
            "trace.overhead": phase.cells_per_s / traced.cells_per_s - 1.0,
        })
        notes.extend(recorder.layer_table())
        if name != "compile-verify":
            notes.append("Table I cells only (the five presets): " + recorder.split(
                lambda key: key.split("/")[1] in harness.SUITE_PRESETS
            ))
        notes.append(
            f"traced phase {traced.seconds:.3f} vs untraced "
            f"{phase.seconds:.3f} reference s"
        )
        path = harness.WORK / f"trace-{name}-{seed}.ndjson"
        recorder.write(path)
        notes.append(f"spans written to {path.relative_to(harness.ROOT)}")
    return {
        "attempted": phase.attempted + (traced.attempted if traced else 0),
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "metrics": metrics,
        "layer": layer,
        "notes": notes,
    }
