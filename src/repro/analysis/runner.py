"""Keyed, session-scoped experiment runner for the evaluation harness.

Every table, figure, sweep, and benchmark module of the harness compiles
the same (benchmark, configuration) pairs.  This module makes those
compilations *shared work*:

* :class:`ExperimentCache` memoizes the three expensive stages
  independently — benchmark construction, MIG rewriting, and compilation
  — keyed by the *semantics* of an :class:`EnduranceConfig` (rewriting
  script, selection strategy, allocation policy, write cap, effort), not
  its display name.  Two configs that differ only in ``name`` (e.g.
  ``with_cap`` relabels) hit the same cache line; every configuration
  sharing a rewriting script reuses one rewriting run.
* :func:`run_matrix` evaluates a benchmarks x configurations matrix,
  either serially through a shared cache or fanned out over worker
  processes with ``concurrent.futures`` — results are assembled in
  matrix order, so the parallel path is bit-for-bit identical to the
  serial one.

The table/report layer (:mod:`repro.analysis.tables`,
:mod:`repro.analysis.report`) and the benchmark harness conftest are thin
views over this runner.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..arch import Architecture, resolve_architecture
from ..core.manager import (
    CompilationResult,
    EnduranceConfig,
    PRESETS,
    compile_pipeline,
    full_management,
)
from ..core.stats import improvement_percent
from ..opt import (
    DEFAULT_EFFORT,
    OptLike,
    Optimizer,
    OptimizerSpec,
    resolve_optimizer,
    rewrite,
)
from ..mig.graph import Mig
from ..mig.kernel import degradation_scope
from ..plim.verify import verify_program
from ..resilience import (
    DEFAULT_POLICY,
    RetriesExhaustedError,
    RetryPolicy,
    StageTimeoutError,
    WorkerCrashError,
    call_with_retry,
    classify_transient,
    time_limit,
)
from ..resilience import events as res_events
from ..resilience import faults as res_faults
from ..settings import SETTINGS
from ..source import Source, SourceLike, resolve_source
from ..synth.registry import BENCHMARK_ORDER, build_benchmark
from .diskcache import DiskCache

#: An architecture request: a registry name, an explicit
#: :class:`~repro.arch.Architecture`, or ``None`` for the ambient
#: (``$REPRO_ARCH``, else default) selection.
ArchLike = Union[str, Architecture, None]

#: A configuration request: a preset name or an explicit config object.
ConfigLike = Union[str, EnduranceConfig]

#: The five incremental Table I configuration presets, in column order —
#: the default matrix columns.  Deliberately an explicit list rather than
#: ``list(PRESETS)``: the preset registry may grow aliases without every
#: default table silently changing shape.
TABLE1_PRESETS: List[str] = [
    "naive",
    "dac16",
    "min-write",
    "ea-rewrite",
    "ea-full",
]


def config_key(config: EnduranceConfig) -> Tuple:
    """Semantic identity of a configuration (display name excluded).

    Two configurations with equal keys compile any MIG to the identical
    program, so cached results may be shared between them — in particular
    across :meth:`EnduranceConfig.with_cap` relabellings.
    """
    return (
        config.rewriting,
        config.selection,
        config.allocation.strategy,
        config.allocation.w_max,
        config.effort,
        config.allow_pi_overwrite,
    )


def experiment_key(
    config: EnduranceConfig,
    arch: Architecture,
    opt: Optional[OptimizerSpec] = None,
) -> Tuple:
    """Joint semantic identity of a (configuration, machine, optimizer)
    triple.

    Compiled artefacts are keyed by all three: the same configuration on
    a different machine model (cost table, geometry, endurance
    semantics) — or through a different rewriting optimizer — compiles
    to a different program, so cache lines must never be shared across
    them.  ``opt=None`` means the default ``script`` optimizer, whose
    rewriting is fully determined by the configuration key.
    """
    opt_key = opt.key() if opt is not None else ("script",)
    return (config_key(config), arch.key(), opt_key)


def mig_key(mig: Mig) -> Tuple:
    """Default cache identity of a MIG.

    Name, interface, size, *and* a structural digest over the fanin/PO
    lists — so two hand-built graphs that merely coincide in name and
    node counts never share cache lines.  The digest is process-local
    (plain ``hash``); worker processes re-derive keys from the actual
    graph objects they adopt, so this never crosses a process boundary.
    """
    return (
        mig.name,
        mig.num_pis,
        mig.num_pos,
        mig.num_nodes,
        mig.num_gates,
        mig.structural_digest(),
    )


def result_label(config: EnduranceConfig) -> str:
    """Result-dictionary key used by the tables (``wmaxN`` for caps)."""
    if config.name.startswith("ea-full+wmax"):
        return "wmax" + config.name.split("wmax")[1]
    return config.name


@dataclass
class BenchmarkEvaluation:
    """All configurations of one benchmark, verified and summarised."""

    name: str
    num_pis: int
    num_pos: int
    gates: int
    results: Dict[str, CompilationResult] = field(default_factory=dict)

    def stats(self, config: str):
        return self.results[config].stats

    def improvement(self, config: str, baseline: str = "naive") -> float:
        """Stdev improvement of *config* over *baseline*, percent."""
        return improvement_percent(
            self.stats(baseline).stdev, self.stats(config).stdev
        )


class ExperimentCache:
    """Session-scoped memo of built, rewritten, and compiled artefacts.

    All stages are keyed semantically (see :func:`config_key` /
    :func:`mig_key`); hit/miss counters cover the compilation stage and
    back the cache tests.  The cache is lock-protected, so one instance
    may be shared by threads; worker *processes* get their own instance.

    With a :class:`~repro.analysis.diskcache.DiskCache` attached, built
    graphs and compiled results are *read through* to disk and written
    back, so a warm rerun of the harness in a fresh process — or in a
    ``run_matrix(parallel=N)`` worker sharing the same root —
    deserialises instead of recompiling.  Registry benchmarks persist
    under their classic ``(name, preset)`` identity; every other
    :class:`~repro.source.Source` (and any MIG registered through
    :meth:`register_external`) persists under its stable content
    fingerprint, so external circuits hit the disk cache exactly like
    benchmarks do.
    """

    def __init__(self, disk: Optional[DiskCache] = None) -> None:
        self._migs: Dict[Tuple, Mig] = {}
        self._rewrites: Dict[Tuple, Mig] = {}
        self._results: Dict[Tuple, Tuple[CompilationResult, int]] = {}
        # graph key -> (benchmark name, preset): the persistent identity
        # under which a registry benchmark's results may go to disk.
        self._bench_keys: Dict[Tuple, Tuple[str, str]] = {}
        self.disk = disk
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Aggregated counters of the ``run_matrix(parallel=N)`` worker
        #: processes that fed this cache (each worker has its own
        #: in-memory cache and disk handle, so the parent's counters
        #: alone under-report what the fan-out actually did).
        self.worker_counters: Dict[str, int] = {
            "workers": 0,
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
            "disk_misses": 0,
            "disk_lock_skips": 0,
            "remote_memory_hits": 0,
            "remote_disk_hits": 0,
            "remote_waits": 0,
            "remote_fallbacks": 0,
        }

    def counters(self) -> Dict[str, int]:
        """This cache's own hit/miss counters (memory and disk).

        Always includes the remote-tier keys (zero without a
        :class:`~repro.cachesvc.RemoteCache` attached), so counter
        deltas and worker aggregation never branch on the disk kind.
        """
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk.hits if self.disk is not None else 0,
            "disk_misses": self.disk.misses if self.disk is not None else 0,
            "disk_lock_skips": (
                self.disk.lock_skips if self.disk is not None else 0
            ),
            "remote_memory_hits": 0,
            "remote_disk_hits": 0,
            "remote_waits": 0,
            "remote_fallbacks": 0,
        }
        tiers = getattr(self.disk, "tier_counters", None)
        if tiers is not None:
            counters.update(tiers())
        return counters

    def _flight(self, key: Tuple):
        """The disk tier's single-flight window for *key*, if it has one.

        A :class:`~repro.cachesvc.RemoteCache` returns a context that
        leases the key on the server: entering yields a payload another
        process stored meanwhile (adopt it, skip the compute) or
        ``None`` (we hold the lease — compute and store inside the
        window).  A plain :class:`DiskCache` (or no disk at all) gets a
        no-op window and keeps its per-entry lockfile behaviour.
        """
        opener = getattr(self.disk, "flight", None)
        if opener is None:
            return nullcontext(None)
        return opener(key)

    def absorb_worker_counters(self, counters: Dict[str, int]) -> None:
        """Fold one worker's :meth:`counters` into
        :attr:`worker_counters` (thread-safe)."""
        with self._lock:
            self.worker_counters["workers"] += 1
            for key, value in counters.items():
                if key in self.worker_counters:
                    self.worker_counters[key] += value

    # -- stages ----------------------------------------------------------

    def cached_mig(self, name: str, preset: str) -> Optional[Mig]:
        """Fetch an already-built registry benchmark, or ``None``.

        Reads through to the disk cache (a deserialised benchmark *is*
        available without building), but never builds.
        """
        with self._lock:
            mig = self._migs.get((name, preset))
        if mig is None and self.disk is not None:
            mig = self.disk.load(("mig", name, preset))
            if mig is not None:
                mig = self._remember_mig(name, preset, mig)
        return mig

    def _remember_mig(self, name: str, preset: str, mig: Mig) -> Mig:
        with self._lock:
            mig = self._migs.setdefault((name, preset), mig)
            self._bench_keys[mig_key(mig)] = (name, preset)
        return mig

    def benchmark_mig(self, name: str, preset: str) -> Mig:
        """Build (or fetch) a registry benchmark.

        A disk miss opens the disk tier's single-flight window (see
        :meth:`_flight`): against a shared cache server, exactly one
        process builds a cold benchmark while concurrent requesters
        block and adopt the stored graph.
        """
        key = (name, preset)
        with self._lock:
            mig = self._migs.get(key)
        if mig is not None:
            return mig
        built = False
        with ExitStack() as stack:
            if self.disk is not None:
                mig = self.disk.load(("mig", name, preset))
                if mig is None:
                    mig = stack.enter_context(
                        self._flight(("mig", name, preset))
                    )
            if mig is None:
                mig = build_benchmark(name, preset)
                built = True
            mig = self._remember_mig(name, preset, mig)
            if built and self.disk is not None:
                self.disk.store(("mig", name, preset), mig)
        return mig

    def _remember_external(self, identity: Tuple, mig: Mig) -> Mig:
        with self._lock:
            mig = self._migs.setdefault(identity, mig)
            self._bench_keys[mig_key(mig)] = identity
        return mig

    def register_external(
        self, mig: Mig, identity: Optional[Tuple] = None
    ) -> Tuple:
        """Give a user-supplied MIG a persistent cache identity.

        By default the identity is the graph's stable
        :meth:`~repro.mig.graph.Mig.content_fingerprint`, so rewrite and
        compile artefacts derived from it read through to — and persist
        in — the disk cache across processes, exactly like registry
        benchmarks.  Returns the identity tuple.
        """
        ident = (
            tuple(identity)
            if identity is not None
            else ("graph", mig.content_fingerprint())
        )
        self._remember_external(ident, mig)
        return ident

    def source_mig(self, source: Source, preset: str) -> Mig:
        """Build (or fetch) any :class:`~repro.source.Source`.

        Registry sources delegate to :meth:`benchmark_mig` (identical
        keys, identical artefacts); every other kind reads through to
        the disk cache under the source's content-addressed identity,
        so imported netlists and frontend circuits deserialise instead
        of re-elaborating in warm processes.
        """
        if source.kind == "registry":
            return self.benchmark_mig(source.name, preset)
        identity = tuple(source.identity(preset))
        with self._lock:
            mig = self._migs.get(identity)
        if mig is not None:
            return mig
        built = False
        with ExitStack() as stack:
            if self.disk is not None:
                mig = self.disk.load(("mig", *identity))
                if mig is None:
                    mig = stack.enter_context(
                        self._flight(("mig", *identity))
                    )
            if mig is None:
                mig = source.build(preset)
                built = True
            mig = self._remember_external(identity, mig)
            if built and self.disk is not None:
                self.disk.store(("mig", *identity), mig)
        return mig

    def cached_source_mig(self, source: Source, preset: str) -> Optional[Mig]:
        """Fetch an already-built source, or ``None`` (never builds)."""
        if source.kind == "registry":
            return self.cached_mig(source.name, preset)
        identity = tuple(source.identity(preset))
        with self._lock:
            mig = self._migs.get(identity)
        if mig is None and self.disk is not None:
            mig = self.disk.load(("mig", *identity))
            if mig is not None:
                mig = self._remember_external(identity, mig)
        return mig

    @staticmethod
    def _rewrite_tail(
        script: str, effort: int, optimizer: Optional[Optimizer]
    ) -> Tuple:
        """Cache-key tail identifying one rewriting result (shared by
        the memory and disk keys)."""
        if optimizer is None:
            return ("script", script, effort)
        return optimizer.rewrite_key(script, effort)

    def has_rewritten(
        self,
        mig_or_key,
        script: str,
        effort: int,
        optimizer: Optional[Optimizer] = None,
    ) -> bool:
        """Whether the rewriting result is already available.

        Peeks memory first, then (for registry benchmarks) the disk
        cache — a satisfying disk entry is adopted into memory so the
        matching ``rewritten`` call that follows is a pure memory hit.
        Never computes; the flow layer uses this to flag rewrite-stage
        artefacts as cached.
        """
        graph_id = (
            mig_or_key if isinstance(mig_or_key, tuple) else mig_key(mig_or_key)
        )
        tail = self._rewrite_tail(script, effort, optimizer)
        cache_key = (graph_id, tail)
        with self._lock:
            if cache_key in self._rewrites:
                return True
            bench = (
                self._bench_keys.get(graph_id)
                if self.disk is not None and script != "none"
                else None
            )
        if bench is None:
            return False
        payload = self.disk.load(("rewrite", *bench, tail))
        if payload is None:
            return False
        with self._lock:
            self._rewrites.setdefault(cache_key, payload)
        return True

    def rewritten(
        self,
        mig: Mig,
        script: str,
        effort: int,
        key: Optional[Tuple] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> Mig:
        """Rewriting result shared by every config running *script*
        through *optimizer* (default: the legacy fixed pipelines).

        Results are keyed by :meth:`repro.opt.Optimizer.rewrite_key`, so
        script-driven rewrites stay shared across machines while
        architecture-sensitive search results are kept per machine.
        Registry benchmarks read through to the attached disk cache
        (except the trivial ``"none"`` script, whose result is just a
        cleanup copy of the stored benchmark): a cold process deserialises
        the rewritten MIG instead of re-running the rewriting engine.
        """
        graph_id = key or mig_key(mig)
        tail = self._rewrite_tail(script, effort, optimizer)
        cache_key = (graph_id, tail)
        with self._lock:
            result = self._rewrites.get(cache_key)
            bench = (
                self._bench_keys.get(graph_id)
                if self.disk is not None and script != "none"
                else None
            )
        if result is not None:
            return result
        computed = False
        with ExitStack() as stack:
            if bench is not None:
                result = self.disk.load(("rewrite", *bench, tail))
                if result is None:
                    result = stack.enter_context(
                        self._flight(("rewrite", *bench, tail))
                    )
            if result is None:
                if optimizer is not None:
                    result = optimizer.run(mig, script, effort=effort)
                else:
                    result = rewrite(mig, script, effort=effort)
                computed = True
            with self._lock:
                result = self._rewrites.setdefault(cache_key, result)
            if computed and bench is not None:
                self.disk.store(("rewrite", *bench, tail), result)
        return result

    def _manifest_meta(
        self,
        bench: Tuple,
        mig: Mig,
        config: EnduranceConfig,
        arch: Architecture,
        optimizer: Optimizer,
        verified: int,
    ) -> Dict:
        """The ``run_manifest.json`` fields for one persisted result.

        Identity fields name what produced the artefact (source, config,
        machine, optimizer, certificate width); ``events`` carries this
        process's resilience log for the job (retries, degradations,
        injected faults), filtered by job name so sibling benchmarks'
        events stay out of each other's manifests.
        """
        names = {mig.name}
        if bench and isinstance(bench[0], str):
            names.add(bench[0])
        return {
            "source": [str(part) for part in bench],
            "benchmark": mig.name,
            "config": config.name,
            "config_key": repr(config_key(config)),
            "arch": arch.name,
            "opt": optimizer.spec.label(),
            "verified_patterns": verified,
            "events": [
                e for e in res_events.snapshot() if e.get("job") in names
            ],
        }

    def compile(
        self,
        mig: Mig,
        config: EnduranceConfig,
        *,
        key: Optional[Tuple] = None,
        verify: bool = False,
        verify_patterns: int = 64,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> CompilationResult:
        """Compile *mig* under *config* for *arch*, memoized on semantic keys.

        With ``verify=True`` the compiled program is co-simulated against
        the MIG once per cache entry; re-requests at the same or lower
        pattern count reuse the stored certificate.  Racing threads may
        duplicate a compilation, but the first stored result wins and
        verification certificates are never downgraded.

        Registry benchmarks additionally read through to the attached
        disk cache: a miss here that hits on disk deserialises the
        stored result (and its certificate) instead of compiling, and
        fresh compilations or certificate upgrades are written back.
        Entries — in memory and on disk — are keyed by the target
        architecture and rewriting optimizer (:func:`experiment_key`),
        so one cache serves every machine model and optimizer spec
        without cross-talk.
        """
        graph_id = key or mig_key(mig)
        arch = resolve_architecture(arch)
        optimizer = (
            optimizer
            if isinstance(optimizer, Optimizer)
            else Optimizer(optimizer, arch)
        )
        semantic = experiment_key(config, arch, optimizer.spec)
        cache_key = (graph_id, semantic)
        with self._lock:
            entry = self._results.get(cache_key)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
            bench = (
                self._bench_keys.get(graph_id)
                if self.disk is not None
                else None
            )
        persisted = -1  # certificate already on disk; -1 = absent
        computed = False
        with ExitStack() as stack:
            if entry is None and bench is not None:
                payload = self.disk.load(("result", *bench, semantic))
                if payload is None:
                    # Cold key: open the disk tier's single-flight
                    # window.  Against a shared cache server, exactly
                    # one process compiles this pair while concurrent
                    # requesters block inside enter_context and adopt
                    # the stored (result, certificate) payload; the
                    # window stays open through the write-back below,
                    # so a failed compile releases the lease to the
                    # next waiter.
                    payload = stack.enter_context(
                        self._flight(("result", *bench, semantic))
                    )
                if payload is not None:
                    entry = payload
                    persisted = payload[1]
            if entry is not None:
                result, verified = entry
            else:
                prewritten = self.rewritten(
                    mig, config.rewriting, config.effort, key=graph_id,
                    optimizer=optimizer,
                )
                result = compile_pipeline(
                    mig, config, rewritten=prewritten, arch=arch
                )
                verified = 0
                computed = True
            upgraded = False
            if verify and verify_patterns > verified:
                verify_program(result.program, mig, patterns=verify_patterns)
                verified = verify_patterns
                upgraded = True
            with self._lock:
                stored = self._results.get(cache_key)
                if stored is not None:
                    result = stored[0]
                    verified = max(verified, stored[1])
                self._results[cache_key] = (result, verified)
            if bench is not None and (
                computed or upgraded or 0 <= persisted < verified
            ):
                # The replace predicate runs inside the entry's writer
                # lock: another process may have persisted a wider
                # verification certificate since our probe, and
                # certificates must never be downgraded (the stored
                # result is identical either way — compilation is
                # deterministic).
                certified = verified
                self.disk.store(
                    ("result", *bench, semantic),
                    (result, verified),
                    replace=lambda current: current[1] < certified,
                    manifest=self._manifest_meta(
                        bench, mig, config, arch, optimizer, verified
                    ),
                )
        return result

    def verify(
        self,
        mig: Mig,
        config: EnduranceConfig,
        *,
        key: Optional[Tuple] = None,
        patterns: int = 64,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> CompilationResult:
        """Ensure the stored result carries a certificate >= *patterns*.

        The flow layer's verify stage: where :meth:`compile` always
        counts a hit or miss and re-persists on any upgrade path, this
        only co-simulates when the stored certificate is too narrow,
        touches no hit/miss counters for the already-compiled result,
        and leaves the disk alone when the persisted certificate is
        already wide enough.  Falls back to the full :meth:`compile`
        path when the pair has not been compiled in this session.
        """
        graph_id = key or mig_key(mig)
        arch = resolve_architecture(arch)
        optimizer = (
            optimizer
            if isinstance(optimizer, Optimizer)
            else Optimizer(optimizer, arch)
        )
        semantic = experiment_key(config, arch, optimizer.spec)
        cache_key = (graph_id, semantic)
        with self._lock:
            entry = self._results.get(cache_key)
        if entry is None:
            # Not in memory (possibly on disk): the compile path handles
            # read-through, counters, and verification in one go.
            return self.compile(
                mig, config, key=graph_id, verify=True,
                verify_patterns=patterns, arch=arch, optimizer=optimizer,
            )
        result, verified = entry
        if patterns <= verified:
            return result
        verify_program(result.program, mig, patterns=patterns)
        with self._lock:
            stored = self._results.get(cache_key)
            if stored is not None:
                result = stored[0]
                patterns = max(patterns, stored[1])
            self._results[cache_key] = (result, patterns)
            bench = (
                self._bench_keys.get(graph_id)
                if self.disk is not None
                else None
            )
        if bench is not None:
            certified = patterns
            self.disk.store(
                ("result", *bench, semantic),
                (result, patterns),
                replace=lambda current: current[1] < certified,
                manifest=self._manifest_meta(
                    bench, mig, config, arch, optimizer, patterns
                ),
            )
        return result

    def has(
        self,
        mig_or_key,
        config: EnduranceConfig,
        *,
        verified_patterns: int = 0,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> bool:
        """Whether a stored result satisfies this pair's requirements.

        With a nonzero *verified_patterns* the entry must also carry a
        verification certificate at least that wide — an unverified
        entry does not satisfy a verifying request.

        Registry-benchmark entries read through to the disk cache; a
        satisfying disk entry is adopted into memory so the matching
        ``compile`` call that follows is a pure hit.
        """
        graph_id = (
            mig_or_key if isinstance(mig_or_key, tuple) else mig_key(mig_or_key)
        )
        machine = resolve_architecture(arch)
        spec = (
            optimizer.spec
            if isinstance(optimizer, Optimizer)
            else resolve_optimizer(optimizer)
        )
        semantic = experiment_key(config, machine, spec)
        with self._lock:
            entry = self._results.get((graph_id, semantic))
            if entry is not None:
                return entry[1] >= verified_patterns
            bench = (
                self._bench_keys.get(graph_id)
                if self.disk is not None
                else None
            )
        if bench is None:
            return False
        payload = self.disk.load(("result", *bench, semantic))
        if payload is None or payload[1] < verified_patterns:
            return False
        with self._lock:
            self._results.setdefault((graph_id, semantic), payload)
        return True

    def adopt(
        self,
        name: "str | Tuple",
        preset: str,
        mig: Mig,
        configs: Sequence[EnduranceConfig],
        evaluation: "BenchmarkEvaluation",
        verified_patterns: int = 0,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> None:
        """Merge results computed elsewhere (a worker process) into this
        cache.

        Existing result objects are kept (first stored wins), but their
        verification certificates are upgraded: compilation is
        deterministic, so a worker verifying its recompilation certifies
        the identical stored program too.  *arch* and *optimizer* must
        name the machine and optimizer the worker targeted — adopted
        entries land under their keys.  *name* is a registry benchmark
        name (classic ``(name, preset)`` identity) or a full identity
        tuple for external sources, in which case *preset* is ignored.
        """
        identity = name if isinstance(name, tuple) else (name, preset)
        graph_id = mig_key(mig)
        arch = resolve_architecture(arch)
        spec = (
            optimizer.spec
            if isinstance(optimizer, Optimizer)
            else resolve_optimizer(optimizer)
        )
        with self._lock:
            self._migs.setdefault(identity, mig)
            self._bench_keys[graph_id] = identity
            for cfg in configs:
                key = (graph_id, experiment_key(cfg, arch, spec))
                stored = self._results.get(key)
                if stored is None:
                    self._results[key] = (
                        evaluation.results[result_label(cfg)],
                        verified_patterns,
                    )
                elif verified_patterns > stored[1]:
                    self._results[key] = (stored[0], verified_patterns)

    def annotate_manifests(
        self,
        identity: Tuple,
        configs: Sequence[EnduranceConfig],
        events: Sequence[Dict],
        *,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> None:
        """Fold recovery *events* into the persisted manifests of
        *identity*'s experiments.

        The parallel supervisor's half of the manifest audit log: worker
        crashes, pool respawns, and retries are observed in the *parent*
        — after the worker's manifests are already on disk — so they are
        appended here once the job's results are adopted.  Best-effort
        like all manifest writes; experiments without a sidecar (no disk
        cache, store lost its lock) are skipped silently.
        """
        if self.disk is None or not events:
            return
        from ..resilience.manifest import append_manifest_events

        machine = resolve_architecture(arch)
        spec = (
            optimizer.spec
            if isinstance(optimizer, Optimizer)
            else resolve_optimizer(optimizer)
        )
        for cfg in configs:
            semantic = experiment_key(cfg, machine, spec)
            entry = self.disk.entry_path(("result", *identity, semantic))
            append_manifest_events(entry, list(events))


def resolve_configs(
    configs: Optional[Sequence[ConfigLike]] = None,
    caps: Optional[Sequence[int]] = None,
    effort: int = DEFAULT_EFFORT,
) -> List[EnduranceConfig]:
    """Expand preset names / explicit configs / write caps into one list.

    The *effort* override applies to preset names and caps; explicit
    :class:`EnduranceConfig` objects already carry their own effort and
    pass through untouched.
    """
    jobs: List[EnduranceConfig] = []
    for entry in configs if configs is not None else TABLE1_PRESETS:
        if isinstance(entry, str):
            cfg = PRESETS[entry]
            if cfg.effort != effort:
                cfg = replace(cfg, effort=effort)
            jobs.append(cfg)
        else:
            jobs.append(entry)
    for cap in caps or []:
        cfg = full_management(cap)
        if cfg.effort != effort:
            cfg = replace(cfg, effort=effort)
        jobs.append(cfg)
    return jobs


def evaluate_mig_cached(
    mig: Mig,
    configs: Sequence[EnduranceConfig],
    *,
    cache: Optional[ExperimentCache] = None,
    key: Optional[Tuple] = None,
    verify: bool = False,
    verify_patterns: int = 64,
    arch: ArchLike = None,
    opt: "OptLike | Optimizer" = None,
) -> BenchmarkEvaluation:
    """Compile *mig* under every configuration through a cache."""
    cache = cache if cache is not None else ExperimentCache()
    arch = resolve_architecture(arch)
    optimizer = opt if isinstance(opt, Optimizer) else Optimizer(opt, arch)
    evaluation = BenchmarkEvaluation(
        name=mig.name,
        num_pis=mig.num_pis,
        num_pos=mig.num_pos,
        gates=mig.num_live_gates(),
    )
    labels: Dict[str, Tuple] = {}
    # One degradation scope per job: a classified numpy-kernel fault
    # demotes the rest of *this* benchmark's compilations to the
    # (bit-identical) bigint kernel and is recorded in its manifests;
    # the next benchmark tries the numpy engine again.
    with degradation_scope(mig.name):
        for cfg in configs:
            label = result_label(cfg)
            semantic = config_key(cfg)
            if labels.setdefault(label, semantic) != semantic:
                # A silent last-wins overwrite here would also poison the
                # shared cache through adopt(), which maps labels back to
                # configurations — refuse loudly instead.
                raise ValueError(
                    f"distinct configurations share the result label "
                    f"{label!r}; rename one of them"
                )
            evaluation.results[label] = cache.compile(
                mig, cfg, key=key, verify=verify,
                verify_patterns=verify_patterns, arch=arch,
                optimizer=optimizer,
            )
    return evaluation


#: Directory containing the ``repro`` package, for worker bootstrap.
_PACKAGE_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

# Refcounted PYTHONPATH patch: os.environ is process-global, so
# concurrent pools must not restore it while a sibling is still
# spawning workers.
_ENV_LOCK = threading.Lock()
_ENV_DEPTH = 0
_ENV_SAVED: object = None
_ENV_UNTOUCHED = object()  # sentinel: nothing to restore


@contextmanager
def _importable_in_workers():
    """Make ``repro`` importable in spawned worker processes.

    Under the ``fork`` start method children inherit the parent's
    ``sys.path``, but ``spawn`` (Windows, macOS default) re-executes the
    interpreter, which only sees ``PYTHONPATH`` — and the pytest
    ``pythonpath`` ini option patches the test process, not the
    environment.  The package root is exported while any pool is alive
    (refcounted across threads) and restored when the last one exits.
    """
    global _ENV_DEPTH, _ENV_SAVED
    with _ENV_LOCK:
        if _ENV_DEPTH == 0:
            existing = os.environ.get("PYTHONPATH")
            parts = existing.split(os.pathsep) if existing else []
            if _PACKAGE_ROOT in parts:
                _ENV_SAVED = _ENV_UNTOUCHED
            else:
                _ENV_SAVED = existing
                os.environ["PYTHONPATH"] = os.pathsep.join(
                    [_PACKAGE_ROOT] + parts
                )
        _ENV_DEPTH += 1
    try:
        yield
    finally:
        with _ENV_LOCK:
            _ENV_DEPTH -= 1
            if _ENV_DEPTH == 0 and _ENV_SAVED is not _ENV_UNTOUCHED:
                if _ENV_SAVED is None:
                    os.environ.pop("PYTHONPATH", None)
                else:
                    os.environ["PYTHONPATH"] = _ENV_SAVED


def _job_name(entry: "str | Source") -> str:
    """Display/event name of a matrix job entry."""
    return entry if isinstance(entry, str) else entry.name


def _run_benchmark_job(
    args,
) -> Tuple[Mig, BenchmarkEvaluation, Dict[str, int], List[Dict]]:
    """Worker-process entry: evaluate one benchmark in a local session.

    The worker reconstructs a :class:`repro.flow.Session` from the
    picklable spec shipped by the parent — same disk-cache root, same
    simulation backend, same machine model and optimizer — so
    cross-cutting concerns resolve identically on both sides of the
    process boundary.  Returns the built MIG alongside the evaluation
    (so the parent can adopt both into a shared cache), the worker
    cache's hit/miss counters (so ``BENCH_suite.json`` can report the
    fan-out's cache behaviour, not just the parent's), and the job's
    resilience event log (so the parent can report recoveries it never
    saw).  The job entry is a registry benchmark name or a picklable
    :class:`~repro.source.Source` (external circuits fan out too,
    persisting under their content fingerprints).

    The job runs under the session's ``job`` wall-clock budget —
    ``SIGALRM`` works here because pool workers execute jobs on their
    main thread — and passes the worker-entry fault-injection site
    first, so an injected crash kills the process before any work.
    """
    entry, preset, configs, verify, verify_patterns, spec = args
    from ..flow.session import Session  # deferred: flow imports runner

    job = _job_name(entry)
    session = Session.from_spec(spec)
    with res_events.capture() as log:
        with time_limit(
            session.timeouts.limit("job"), stage="job", job=job
        ):
            res_faults.worker_entry(job)
            with session.activated():
                if isinstance(entry, str):
                    mig = session.cache.benchmark_mig(entry, preset)
                else:
                    mig = session.cache.source_mig(entry, preset)
                evaluation = evaluate_mig_cached(
                    mig,
                    configs,
                    cache=session.cache,
                    verify=verify,
                    verify_patterns=verify_patterns,
                    arch=session.architecture,
                    opt=session.optimizer,
                )
    return mig, evaluation, session.cache.counters(), list(log)


def _worker_spec(
    session,
    cache: Optional[ExperimentCache],
    preset: str,
    arch: Optional[str] = None,
    opt: Optional[str] = None,
):
    """The :class:`repro.flow.SessionSpec` worker processes rebuild from.

    Prefers the dispatching session's own spec (backend + cache root),
    pinned to the *resolved* architecture and optimizer the matrix is
    targeting — an explicit ``run_matrix(arch=...)``/``opt=...``
    override must reach the workers even when the session prefers
    different ones.  Legacy calls without a session ship just the
    cache's disk root plus the architecture and optimizer names, so
    workers still share persisted artefacts and target the same
    machine/optimizer.
    """
    import dataclasses

    from ..flow.session import SessionSpec  # deferred: flow imports runner

    if session is not None:
        spec = session.spec()
        if arch is not None and spec.arch != arch:
            spec = dataclasses.replace(spec, arch=arch)
        if opt is not None and spec.opt != opt:
            spec = dataclasses.replace(spec, opt=opt)
        return spec
    disk = cache.disk if cache is not None else None
    disk_root = getattr(disk, "root", None)
    return SessionSpec(
        cache_dir=str(disk_root) if disk_root is not None else None,
        cache_url=getattr(disk, "url", None),
        preset=preset,
        arch=arch,
        opt=opt,
    )


def _supervised_pool_map(
    work: List[Tuple],
    parallel: int,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    job_timeout: Optional[float] = None,
) -> Tuple[List[Tuple], List[List[Dict]]]:
    """Run :func:`_run_benchmark_job` over *work*, supervised.

    The supervisor half of ``run_matrix(parallel=N)``'s fault tolerance:

    * **Retry** — a job failing with a *transient* error (see
      :func:`repro.resilience.classify_transient`) is resubmitted after
      a deterministic exponential backoff, up to ``policy.attempts``;
      permanent errors and exhausted budgets propagate.
    * **Pool respawn** — a dying worker process (``os._exit``, segfault,
      OOM kill) breaks the whole ``ProcessPoolExecutor``; the supervisor
      terminates it, spawns a fresh pool, and resubmits *only the jobs
      that had not finished* — completed results are kept.
    * **Job deadline** — with a ``job`` budget (*job_timeout*), a job
      whose worker exceeds it from the parent's clock is abandoned: the
      (possibly wedged) pool is killed and a permanent
      :class:`~repro.resilience.StageTimeoutError` raised.  This backs
      up the worker's own ``SIGALRM`` enforcement, which a hard-wedged C
      loop in a dying process might never run.
    * **Interrupt** — on ``KeyboardInterrupt`` (or any other error) the
      pool is terminated and its pending futures cancelled before the
      exception propagates, so Ctrl-C never leaks worker processes.

    Returns the per-job payloads in *work* order plus the parent-side
    recovery events of each job (for the manifests the workers already
    wrote — the parent is the only witness of crashes and respawns).
    """
    results: List[Optional[Tuple]] = [None] * len(work)
    attempts = [0] * len(work)
    parent_events: List[List[Dict]] = [[] for _ in work]
    job_names = [_job_name(item[0]) for item in work]
    unfinished = set(range(len(work)))
    pool: Optional[ProcessPoolExecutor] = None
    futures: Dict = {}
    deadlines: Dict = {}

    def record(idx: int, kind: str, **detail) -> None:
        parent_events[idx].append(
            res_events.record(kind, job=job_names[idx], **detail)
        )

    def submit(idx: int) -> None:
        nonlocal pool
        attempts[idx] += 1
        while True:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=parallel)
            try:
                future = pool.submit(_run_benchmark_job, work[idx])
                break
            except BrokenProcessPool:
                # The pool died between submissions (a just-resubmitted
                # job crashed during a sibling's backoff sleep).  Its
                # in-flight futures already carry BrokenProcessPool and
                # surface through the main loop; just respawn for this
                # submission.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        futures[future] = idx
        if job_timeout:
            deadlines[future] = time.monotonic() + job_timeout

    def kill_pool() -> None:
        """Terminate every worker and drop the pool (broken or not)."""
        nonlocal pool
        if pool is not None:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        futures.clear()
        deadlines.clear()

    def check_retryable(idx: int, error: BaseException) -> None:
        """Record the retry of a transient job failure, or give up loudly."""
        if not classify_transient(error):
            raise error
        if attempts[idx] >= policy.attempts:
            raise RetriesExhaustedError(job_names[idx], attempts[idx], error)
        record(idx, "retry", attempt=attempts[idx], error=repr(error))

    try:
        for idx in sorted(unfinished):
            submit(idx)
        while unfinished:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            done, _ = wait(
                set(futures), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                now = time.monotonic()
                expired = [
                    futures[f] for f, dl in deadlines.items() if dl <= now
                ]
                if expired:
                    idx = expired[0]
                    record(idx, "job_timeout", seconds=job_timeout)
                    raise StageTimeoutError(
                        "job", job_timeout, job_names[idx]
                    )
                continue
            crashed: List[int] = []
            retries: List[int] = []
            for future in done:
                idx = futures.pop(future)
                deadlines.pop(future, None)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    crashed.append(idx)
                    continue
                except BaseException as error:
                    check_retryable(idx, error)
                    retries.append(idx)
                    continue
                results[idx] = payload
                unfinished.discard(idx)
            if crashed:
                # One dead worker poisons the whole pool: every future
                # still in flight will fail the same way.  Respawn once
                # and resubmit only the jobs that had not finished.
                resubmit = sorted(crashed + list(futures.values()))
                kill_pool()
                res_events.record(
                    "pool_respawn", jobs=[job_names[i] for i in resubmit]
                )
                for idx in resubmit:
                    check_retryable(
                        idx, WorkerCrashError(job_names[idx], attempts[idx])
                    )
                retries.extend(resubmit)
            for idx in sorted(set(retries)):
                time.sleep(policy.delay(attempts[idx], key=(job_names[idx],)))
                submit(idx)
    except BaseException:
        kill_pool()
        raise
    if pool is not None:
        pool.shutdown(wait=True)
    return list(results), parent_events


def run_matrix(
    benchmarks: "Optional[Iterable[SourceLike]]" = None,
    configs: Optional[Sequence[ConfigLike]] = None,
    *,
    preset: str = "default",
    caps: Optional[Sequence[int]] = None,
    effort: int = DEFAULT_EFFORT,
    verify: bool = False,
    verify_patterns: int = 64,
    parallel: Optional[int] = None,
    cache: Optional[ExperimentCache] = None,
    session=None,
    arch: ArchLike = None,
    opt: OptLike = None,
    retry: Optional[RetryPolicy] = None,
) -> List[BenchmarkEvaluation]:
    """Evaluate a benchmarks x configurations matrix.

    Parameters
    ----------
    benchmarks:
        Circuit sources (default: all 18 registry benchmarks, table
        order).  Each entry is anything
        :func:`repro.source.resolve_source` accepts — a registry name,
        a netlist path, a :class:`~repro.source.Source`, a built
        :class:`~repro.mig.graph.Mig`, or a decorated frontend
        function.  External sources persist and fan out under their
        content fingerprints, exactly like registry benchmarks.
    configs:
        Configuration preset names or explicit :class:`EnduranceConfig`
        objects (default: the five Table I columns).
    caps:
        Additional ``full_management(cap)`` columns, labelled ``wmaxN``.
    arch:
        Target machine model for every compilation (a registry name or
        :class:`~repro.arch.Architecture`).  An explicit value beats
        the dispatching *session*'s architecture (mirroring
        ``Flow.arch()``); unset, the session's — else the ambient —
        selection applies.  Results and cache entries are keyed by it.
    opt:
        Rewriting optimizer for every compilation (an
        :class:`repro.opt.OptimizerSpec` or spec string such as
        ``"greedy:write_cost"``).  Resolution mirrors *arch*: explicit
        beats the session's, which beats the ambient
        ``$REPRO_OPT``/default selection.  Results and cache entries
        are keyed by it.
    parallel:
        ``None``/``0``/``1`` — run serially through *cache* (created on
        demand).  ``N > 1`` — fan benchmarks out over ``N`` worker
        processes; each worker reconstructs a :class:`repro.flow.Session`
        from the dispatching session's spec, and results are assembled in
        matrix order, so the output is identical to the serial run
        (asserted by the runner tests).  A shared *cache* cooperates with
        the pool: already-compiled (benchmark, config) pairs are served
        from it, only the missing remainder is dispatched, and worker
        results are adopted back into the cache.  When the shared cache
        has a disk cache attached, workers read through and write back to
        the same on-disk root.
    session:
        The :class:`repro.flow.Session` driving this matrix, if any —
        supplies the spec (backend + cache root) workers are rebuilt
        from.  Prefer calling :meth:`repro.flow.Session.run_matrix`,
        which fills *cache*, *parallel*, *preset*, and *session* in one
        go.
    retry:
        The :class:`repro.resilience.RetryPolicy` supervising every
        job: transient failures (worker crashes, injected faults,
        I/O errors classified by
        :func:`repro.resilience.classify_transient`) are retried with
        deterministic exponential backoff; permanent failures and
        exhausted budgets propagate.  Defaults to
        :data:`repro.resilience.DEFAULT_POLICY` (three attempts).  The
        session's ``job`` timeout budget is enforced per job in both
        the serial and parallel paths.
    """
    raw = list(benchmarks) if benchmarks is not None else list(BENCHMARK_ORDER)
    # Normalize every entry: registry benchmarks stay bare name strings
    # (the classic job shape, byte-identical cache keys), everything
    # else becomes a picklable Source.
    entries: List["str | Source"] = []
    for item in raw:
        source = item if isinstance(item, Source) else resolve_source(item)
        entries.append(
            source.name if source.kind == "registry" else source
        )
    jobs = resolve_configs(configs, caps, effort)
    if session is not None and cache is None:
        cache = session.cache
    # An explicit arch/opt argument beats the session's, mirroring
    # Flow.arch()/Flow.optimize(); with neither, the ambient selection
    # applies.
    machine = (
        resolve_architecture(arch)
        if arch is not None
        else session.architecture
        if session is not None
        else resolve_architecture(None)
    )
    opt_spec = (
        resolve_optimizer(opt)
        if opt is not None
        else session.optimizer
        if session is not None
        else resolve_optimizer(None)
    )
    optimizer = Optimizer(opt_spec, machine)
    policy = retry if retry is not None else DEFAULT_POLICY
    timeouts = (
        session.timeouts if session is not None
        else SETTINGS["timeouts"].value()
    )
    job_timeout = timeouts.limit("job")
    # Touch the fault plan before any pool exists: an active
    # $REPRO_FAULTS spec exports its fire ledger into the environment
    # here, so workers spawned below share the parent's fault budget (a
    # retried job must not re-fire a spent count=1 crash).
    res_faults.active_plan()

    if parallel is not None and parallel > 1 and len(entries) > 1:
        spec = _worker_spec(
            session, cache, preset, machine.name, opt_spec.label()
        )
        if cache is None:
            work = [
                (entry, preset, jobs, verify, verify_patterns, spec)
                for entry in entries
            ]
            with _importable_in_workers():
                payloads, _ = _supervised_pool_map(
                    work, parallel, policy=policy, job_timeout=job_timeout
                )
            return [payload[1] for payload in payloads]
        # Cooperative mode: dispatch only the pairs the cache is missing
        # (an entry without a wide-enough verification certificate counts
        # as missing when this run verifies).  Workers share the cache's
        # disk root, if any, so they persist what they compile.
        needed = verify_patterns if verify else 0
        work = []
        for entry in entries:
            mig = (
                cache.cached_mig(entry, preset)
                if isinstance(entry, str)
                else cache.cached_source_mig(entry, preset)
            )
            missing = (
                jobs
                if mig is None
                else [
                    cfg
                    for cfg in jobs
                    if not cache.has(
                        mig_key(mig), cfg, verified_patterns=needed,
                        arch=machine, optimizer=optimizer,
                    )
                ]
            )
            if missing:
                work.append(
                    (entry, preset, missing, verify, verify_patterns, spec)
                )
        if work:
            with _importable_in_workers():
                payloads, recoveries = _supervised_pool_map(
                    work, parallel, policy=policy, job_timeout=job_timeout
                )
            for job, payload, recovery in zip(work, payloads, recoveries):
                mig, evaluation, counters, _worker_log = payload
                entry = job[0]
                identity = (
                    (entry, preset)
                    if isinstance(entry, str)
                    else tuple(entry.identity(preset))
                )
                cache.adopt(
                    identity,
                    preset,
                    mig,
                    job[2],
                    evaluation,
                    verified_patterns=verify_patterns if verify else 0,
                    arch=machine,
                    optimizer=optimizer,
                )
                cache.absorb_worker_counters(counters)
                # Worker-side events are already in the manifests the
                # worker wrote; crashes/respawns/retries are only
                # observable in the parent and are appended here.
                cache.annotate_manifests(
                    identity, job[2], recovery,
                    arch=machine, optimizer=optimizer,
                )
        # Fall through: assemble every evaluation from the now-warm cache
        # (pure hits), which also keeps matrix order.

    cache = cache if cache is not None else ExperimentCache()
    evaluations = []
    for entry in entries:
        job_name = _job_name(entry)
        mig = (
            cache.benchmark_mig(entry, preset)
            if isinstance(entry, str)
            else cache.source_mig(entry, preset)
        )

        def attempt(mig=mig, job_name=job_name):
            # Serial jobs run under the same job budget and injection
            # site as pool workers (minus the process-killing faults),
            # so the retry taxonomy behaves identically in both paths.
            with time_limit(job_timeout, stage="job", job=job_name):
                res_faults.serial_entry(job_name)
                return evaluate_mig_cached(
                    mig,
                    jobs,
                    cache=cache,
                    verify=verify,
                    verify_patterns=verify_patterns,
                    arch=machine,
                    opt=optimizer,
                )

        evaluations.append(
            call_with_retry(
                attempt,
                policy=policy,
                key=(job_name,),
                job=job_name,
                on_retry=lambda n, error, job_name=job_name: res_events.record(
                    "retry", job=job_name, attempt=n, error=repr(error)
                ),
            )
        )
    return evaluations
