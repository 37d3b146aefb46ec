"""The :class:`Session`: one object owning every cross-cutting concern.

The harness resolves the same knobs over and over — which
simulation-kernel backend to use (``$REPRO_SIM_BACKEND``) and how many
simulation worker threads it may spin up (``$REPRO_SIM_THREADS`` /
``--sim-threads``), whether and
where to persist experiment artefacts (``$REPRO_CACHE_DIR`` /
``--cache-dir``), whether to route them through a shared cache server
(``$REPRO_CACHE_URL`` / ``--cache-url``, see :mod:`repro.cachesvc`),
which PLiM machine model to target (``$REPRO_ARCH`` /
``--arch``, see :mod:`repro.arch`), which rewriting optimizer to run
(``$REPRO_OPT`` / ``--opt``, see :mod:`repro.opt`), which circuit
source to evaluate by default (``$REPRO_SOURCE`` / ``--source``, see
:mod:`repro.source`), how many worker
processes to fan out over, and which benchmark width preset to build.  Before this module
each entry point
(CLI subcommands, table runners, benchmark conftest, examples) re-derived
them independently; a :class:`Session` resolves them once and everything
downstream — :class:`repro.flow.Flow` pipelines, matrix evaluations,
report generation — routes through it.

Construction
------------
* ``Session(backend=..., cache_dir=..., parallel=..., preset=...)`` —
  explicit; ``None`` fields mean "no override" (ambient backend
  selection, no persistence, serial, default widths).
* :meth:`Session.from_env` — reads ``$REPRO_SIM_BACKEND`` and
  ``$REPRO_CACHE_DIR``.
* :meth:`Session.from_args` — from an ``argparse`` namespace, applying
  the uniform precedence **flag > environment > none** for the cache
  directory.  :meth:`Session.add_arguments` installs the matching
  options on a parser, so every CLI subcommand shares one definition.

Sessions are picklable *by spec*: :meth:`Session.spec` captures the
resolved knobs in a :class:`SessionSpec`, and worker processes rebuild
an equivalent session with :meth:`Session.from_spec` — this is how
``run_matrix`` ships backend + cache-root selection across the process
boundary.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..arch import (
    Architecture,
    arch_from_env,
    available_architectures,
    resolve_architecture,
)
from ..opt import (
    DEFAULT_EFFORT,
    OptimizerSpec,
    opt_from_env,
    resolve_optimizer,
)
from ..mig.kernel import (
    BACKEND_ENV_VAR,
    backend_scope,
    get_kernel,
    resolve_backend,
    resolve_sim_threads,
    sim_threads_from_env,
    sim_threads_scope,
)
from ..resilience import Timeouts, resolve_timeouts
from ..source import (
    Source,
    SourceLike,
    resolve_source,
    source_from_env,
)
from ..analysis.diskcache import DiskCache, resolve_cache_dir
from ..cachesvc.client import resolve_cache_url
from ..analysis.runner import (
    BenchmarkEvaluation,
    ConfigLike,
    ExperimentCache,
    TABLE1_PRESETS,
    run_matrix as _run_matrix,
)

#: Benchmark width presets understood by the synthesis registry.
PRESET_CHOICES: List[str] = ["tiny", "default", "paper"]

#: Simulation backends selectable per session (see repro.mig.kernel).
BACKEND_CHOICES: List[str] = ["auto", "bigint", "numpy"]


@dataclass(frozen=True)
class SessionSpec:
    """Picklable capture of a session's resolved knobs.

    Worker processes cannot inherit live caches or kernel overrides, so
    :func:`repro.analysis.runner.run_matrix` ships this spec instead and
    each worker rebuilds an equivalent :class:`Session` from it.
    ``parallel`` is deliberately absent from what workers adopt — a
    worker never fans out again.  ``arch`` is a registry name (custom
    architectures must be registered in the worker too, e.g. at module
    import); ``None`` defers to the worker's ambient
    ``$REPRO_ARCH``/default resolution, which matches the parent's.
    ``opt`` is a canonical optimizer spec string (see
    :meth:`repro.opt.OptimizerSpec.label`) with the same ``None``
    semantics against ``$REPRO_OPT``.
    """

    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    #: Shared cache-server URL (see :mod:`repro.cachesvc`); workers
    #: talk to the same server as the parent, so single-flight leases
    #: span the whole pool.  ``None`` means direct disk access.
    cache_url: Optional[str] = None
    preset: str = "default"
    #: Simulation worker-thread count; ``None`` defers to the worker's
    #: ambient ``$REPRO_SIM_THREADS``/default resolution.
    sim_threads: Optional[int] = None
    arch: Optional[str] = None
    opt: Optional[str] = None
    #: Default circuit source as a resolvable string (registry name or
    #: netlist path); ``None`` defers to the worker's ambient
    #: ``$REPRO_SOURCE``.  Non-string sources (bare graphs, frontend
    #: functions) are not spec-representable and ship as ``None``.
    source: Optional[str] = None
    #: Per-stage wall-clock budgets as a canonical spec string (see
    #: :meth:`repro.resilience.Timeouts.spec`); ``None`` defers to the
    #: worker's ambient ``$REPRO_TIMEOUT``.
    timeouts: Optional[str] = None


class Session:
    """Owns backend, experiment cache, parallelism, and width preset.

    The session's :attr:`cache` is a single
    :class:`~repro.analysis.runner.ExperimentCache` shared by every flow
    and matrix evaluation routed through it, disk-backed when a cache
    directory is configured.  Observers registered with
    :meth:`add_observer` receive the :class:`~repro.flow.StageEvent`
    stream of every flow run in this session (plus matrix-level events),
    which is how progress reporting and ``BENCH_suite.json`` timings are
    fed.
    """

    def __init__(
        self,
        *,
        backend: Optional[str] = None,
        sim_threads: Optional[int] = None,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_url: Optional[str] = None,
        parallel: Optional[int] = None,
        preset: str = "default",
        cache: Optional[ExperimentCache] = None,
        arch: "str | Architecture | None" = None,
        opt: "str | OptimizerSpec | None" = None,
        source: SourceLike = None,
        timeouts: "str | float | Timeouts | None" = None,
    ) -> None:
        if backend is not None:
            resolve_backend(backend)  # fail fast on unknown/unavailable
        self.backend = backend
        # Simulation worker threads: explicit > $REPRO_SIM_THREADS >
        # kernel default; validated now so a bad count fails at
        # construction, like the backend.
        if sim_threads is not None:
            sim_threads = resolve_sim_threads(sim_threads)
        self.sim_threads = sim_threads
        self.parallel = parallel
        self.preset = preset
        # Per-stage wall-clock budgets: explicit > $REPRO_TIMEOUT > none
        # (fails fast on a malformed spec, like the other knobs).
        self.timeouts = resolve_timeouts(timeouts)
        # Default circuit source: resolve an explicit one now (fail fast
        # on unknown names / missing files); None defers to ambient
        # $REPRO_SOURCE at use time.  Flows that declare their own
        # source ignore this knob.
        self._source = resolve_source(source) if source is not None else None
        # The spec-shippable string form: only string selections (names,
        # paths) can be resolved again in a worker process.  Registry
        # sources round-trip by name either way.
        if isinstance(source, str):
            self._source_spec: Optional[str] = source
        elif self._source is not None and self._source.kind == "registry":
            self._source_spec = self._source.name
        else:
            self._source_spec = None
        self.source = (
            self._source.name if self._source is not None else None
        )
        # Resolve an explicit architecture now (fail fast on unknown
        # names); None defers to ambient $REPRO_ARCH/default at use time.
        self._architecture = (
            resolve_architecture(arch) if arch is not None else None
        )
        self.arch = (
            self._architecture.name if self._architecture is not None else None
        )
        # Same contract for the rewriting optimizer ($REPRO_OPT).
        self._optimizer = (
            OptimizerSpec.parse(opt) if opt is not None else None
        )
        self.opt = (
            self._optimizer.label() if self._optimizer is not None else None
        )
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.cache_url = str(cache_url) if cache_url else None
        if cache is not None:
            # Adopt an existing cache (shared harnesses);
            # its disk root — possibly none — wins over the cache_dir
            # argument, so the session never claims persistence the
            # adopted cache doesn't have.
            self.cache = cache
            self.cache_dir = (
                str(getattr(cache.disk, "root", None) or "") or None
                if cache.disk is not None
                else None
            )
            self.cache_url = getattr(cache.disk, "url", None)
        elif self.cache_url is not None:
            # Shared cache server: the RemoteCache slots in where the
            # DiskCache went, falling back to direct disk access at
            # cache_dir (if any) when the server is unreachable.
            from ..cachesvc.client import RemoteCache  # deferred: heavy

            remote = RemoteCache(self.cache_url, root=self.cache_dir)
            self.cache = ExperimentCache(disk=remote)
        else:
            disk = DiskCache(self.cache_dir) if self.cache_dir else None
            self.cache = ExperimentCache(disk=disk)
        self._observers: list = []

    # -- construction ------------------------------------------------

    @classmethod
    def from_env(
        cls,
        *,
        preset: Optional[str] = None,
        parallel: Optional[int] = None,
    ) -> "Session":
        """Session configured from ``$REPRO_SIM_BACKEND`` /
        ``$REPRO_CACHE_DIR`` / ``$REPRO_ARCH`` / ``$REPRO_OPT``."""
        backend = os.environ.get(BACKEND_ENV_VAR, "").strip() or None
        return cls(
            backend=backend,
            sim_threads=sim_threads_from_env(),
            cache_dir=resolve_cache_dir(),
            cache_url=resolve_cache_url(),
            parallel=parallel,
            preset=preset or "default",
            arch=arch_from_env(),
            opt=opt_from_env(),
            source=source_from_env(),
        )

    @classmethod
    def from_args(cls, args, *, preset: Optional[str] = None) -> "Session":
        """Session from an ``argparse`` namespace (see :meth:`add_arguments`).

        Missing attributes fall back exactly like absent flags: the
        cache directory resolves flag > environment > none, the backend
        defaults to ambient selection, parallelism to serial.
        """
        return cls(
            backend=getattr(args, "backend", None),
            sim_threads=getattr(args, "sim_threads", None),
            cache_dir=resolve_cache_dir(getattr(args, "cache_dir", None)),
            cache_url=resolve_cache_url(getattr(args, "cache_url", None)),
            parallel=getattr(args, "parallel", None),
            preset=getattr(args, "preset", None) or preset or "default",
            arch=getattr(args, "arch", None),
            opt=getattr(args, "opt", None),
            source=getattr(args, "source", None),
            timeouts=getattr(args, "timeout", None),
        )

    @staticmethod
    def add_arguments(
        parser,
        *,
        preset: bool = True,
        parallel: bool = True,
        cache: bool = True,
        backend: bool = True,
        arch: bool = True,
        opt: bool = True,
        source: bool = False,
        timeout: bool = True,
    ):
        """Install the session options on an ``argparse`` parser.

        One definition shared by every CLI subcommand; the boolean
        switches let scenario commands opt out of options that cannot
        affect them.
        """
        if preset:
            parser.add_argument(
                "--preset",
                default="default",
                choices=PRESET_CHOICES,
                help="benchmark width preset (paper = the paper's sizes)",
            )
        if backend:
            parser.add_argument(
                "--backend",
                default=None,
                choices=BACKEND_CHOICES,
                help=(
                    "simulation-kernel backend (default: $REPRO_SIM_BACKEND "
                    "if set, else auto-detection)"
                ),
            )
            parser.add_argument(
                "--sim-threads",
                type=int,
                default=None,
                metavar="N",
                help=(
                    "simulation worker threads for the numpy kernel "
                    "(default: $REPRO_SIM_THREADS if set, else "
                    "min(4, cpu count))"
                ),
            )
        if arch:
            parser.add_argument(
                "--arch",
                default=None,
                choices=available_architectures(),
                help=(
                    "target PLiM machine model (default: $REPRO_ARCH if "
                    "set, else the paper's 'endurance' machine)"
                ),
            )
        if source:
            parser.add_argument(
                "--source",
                default=None,
                metavar="NAME_OR_PATH",
                help=(
                    "circuit source: a registry benchmark name or a "
                    "netlist path (.mig/.blif/.aag) (default: "
                    "$REPRO_SOURCE if set; see 'repro source list')"
                ),
            )
        if opt:
            parser.add_argument(
                "--opt",
                default=None,
                metavar="SPEC",
                help=(
                    "rewriting optimizer spec, STRATEGY[:OBJECTIVE][@DEPTH] "
                    "— e.g. 'script', 'greedy', 'budget:write_cost@3' "
                    "(default: $REPRO_OPT if set, else the paper's fixed "
                    "scripts; see 'repro opt list')"
                ),
            )
        if timeout:
            parser.add_argument(
                "--timeout",
                default=None,
                metavar="SPEC",
                help=(
                    "per-stage wall-clock budget in seconds, "
                    "[STAGE=]SECONDS[,...] — e.g. '30' or "
                    "'compile=120,verify=30,job=600' (default: "
                    "$REPRO_TIMEOUT if set, else unlimited)"
                ),
            )
        if parallel:
            parser.add_argument(
                "--parallel",
                type=int,
                default=None,
                metavar="N",
                help="fan benchmarks out over N worker processes",
            )
        if cache:
            parser.add_argument(
                "--cache-dir",
                default=None,
                metavar="DIR",
                help=(
                    "persist built/compiled artefacts under DIR across runs "
                    "(default: $REPRO_CACHE_DIR if set, else no persistence)"
                ),
            )
            parser.add_argument(
                "--cache-url",
                default=None,
                metavar="URL",
                help=(
                    "route artefacts through a shared cache server "
                    "(see 'repro cachesvc serve'; default: "
                    "$REPRO_CACHE_URL if set, else direct disk access)"
                ),
            )
        return parser

    # -- spec (process boundary) ---------------------------------------

    def spec(self) -> SessionSpec:
        """Picklable spec a worker process rebuilds this session from."""
        return SessionSpec(
            backend=self.backend,
            cache_dir=self.cache_dir,
            cache_url=self.cache_url,
            preset=self.preset,
            sim_threads=self.sim_threads,
            arch=self.arch,
            opt=self.opt,
            source=self._source_spec,
            timeouts=self.timeouts.spec(),
        )

    @classmethod
    def from_spec(cls, spec: SessionSpec) -> "Session":
        return cls(
            backend=spec.backend,
            cache_dir=spec.cache_dir,
            cache_url=getattr(spec, "cache_url", None),
            preset=spec.preset,
            sim_threads=getattr(spec, "sim_threads", None),
            arch=getattr(spec, "arch", None),
            opt=getattr(spec, "opt", None),
            source=getattr(spec, "source", None),
            timeouts=getattr(spec, "timeouts", None),
        )

    # -- backend -------------------------------------------------------

    @property
    def kernel(self):
        """The simulation kernel this session resolves to."""
        if self.backend is not None:
            return resolve_backend(self.backend)
        return get_kernel()

    # -- architecture --------------------------------------------------

    @property
    def architecture(self) -> Architecture:
        """The target machine model this session resolves to.

        An explicit ``Session(arch=...)`` wins; otherwise the ambient
        selection (``$REPRO_ARCH``, else the default ``endurance``
        machine) applies at access time, mirroring :attr:`kernel`.
        """
        if self._architecture is not None:
            return self._architecture
        return resolve_architecture(None)

    @property
    def optimizer(self) -> OptimizerSpec:
        """The rewriting optimizer this session resolves to.

        An explicit ``Session(opt=...)`` wins; otherwise the ambient
        selection (``$REPRO_OPT``, else the ``script`` default) applies
        at access time, mirroring :attr:`architecture`.
        """
        if self._optimizer is not None:
            return self._optimizer
        return resolve_optimizer(None)

    @property
    def default_source(self) -> Optional[Source]:
        """The default circuit source this session resolves to, if any.

        An explicit ``Session(source=...)`` wins; otherwise the ambient
        ``$REPRO_SOURCE`` selection applies at access time, mirroring
        :attr:`architecture`.  Unlike the other knobs there is no final
        default — ``None`` means flows must declare their own source.
        """
        if self._source is not None:
            return self._source
        env = source_from_env()
        return resolve_source(env) if env is not None else None

    @property
    def disk(self) -> Optional[DiskCache]:
        """The attached persistent cache, if any."""
        return self.cache.disk

    @contextmanager
    def activated(self):
        """Context manager installing this session's simulation overrides.

        Enters the backend scope and the simulation-thread scope
        together; ``None`` knobs are no-op scopes (ambient selection
        applies), and the previous overrides are restored on exit, so
        sessions nest.  Flow runs and matrix evaluations enter this
        scope themselves — call it directly only when driving
        kernel-level APIs by hand.  Yields the active kernel.
        """
        with backend_scope(self.backend) as kernel:
            with sim_threads_scope(self.sim_threads):
                yield kernel

    # -- observers -------------------------------------------------------

    def add_observer(self, observer):
        """Register an observer for this session's stage events.

        An observer is any object with (optional) ``on_stage_start(event)``
        / ``on_stage_end(event)`` methods; events are
        :class:`repro.flow.StageEvent` instances.  Returns *observer* so
        registration can be inlined.
        """
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer) -> None:
        self._observers.remove(observer)

    def emit(self, hook: str, event) -> None:
        """Dispatch *event* to every observer implementing *hook*."""
        for observer in list(self._observers):
            fn = getattr(observer, hook, None)
            if fn is not None:
                fn(event)

    # -- matrix evaluation -------------------------------------------

    def flow(self, config: ConfigLike = "naive") -> "Flow":
        """A fresh :class:`repro.flow.Flow` bound to this session."""
        from .pipeline import Flow

        return Flow.for_config(config, session=self)

    def run_matrix(
        self,
        benchmarks: Optional[Iterable[str]] = None,
        configs: Optional[Sequence[ConfigLike]] = None,
        *,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: bool = False,
        verify_patterns: int = 64,
        parallel: Optional[int] = None,
    ) -> List[BenchmarkEvaluation]:
        """Evaluate a benchmarks x configurations matrix in this session.

        Delegates to :func:`repro.analysis.runner.run_matrix` with the
        session's cache, preset, and parallelism; worker processes are
        rebuilt from :meth:`spec`.  Emits ``"matrix"`` stage events to
        the session observers around the whole evaluation.
        """
        from .pipeline import StageEvent  # deferred: pipeline imports session

        names = (
            list(benchmarks)
            if benchmarks is not None
            else None
        )
        event = StageEvent(
            stage="matrix",
            flow=f"matrix[{len(names) if names is not None else 'all'}x"
            f"{len(configs) if configs is not None else len(TABLE1_PRESETS)}]",
            benchmark=None,
            config=None,
        )
        self.emit("on_stage_start", event)
        start = time.perf_counter()
        with self.activated():
            evaluations = _run_matrix(
                names,
                configs,
                preset=self.preset,
                caps=caps,
                effort=effort,
                verify=verify,
                verify_patterns=verify_patterns,
                parallel=parallel if parallel is not None else self.parallel,
                cache=self.cache,
                session=self,
            )
        self.emit(
            "on_stage_end",
            event.finished(seconds=time.perf_counter() - start, cached=False),
        )
        return evaluations

    def evaluate_suite(
        self,
        names: Optional[Iterable[str]] = None,
        *,
        configs: Optional[Sequence[str]] = None,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: bool = True,
        verify_patterns: int = 64,
        parallel: Optional[int] = None,
    ) -> List[BenchmarkEvaluation]:
        """The paper's suite evaluation (default: all 18 benchmarks,
        Table I configuration columns, verified)."""
        return self.run_matrix(
            names,
            configs if configs is not None else list(TABLE1_PRESETS),
            caps=caps,
            effort=effort,
            verify=verify,
            verify_patterns=verify_patterns,
            parallel=parallel,
        )

    def full_report(
        self,
        names: Optional[Iterable[str]] = None,
        *,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: bool = True,
    ):
        """Every table + the headline, rendered from one matrix pass."""
        from ..analysis import report  # deferred: report imports flow shims

        return report.full_report(
            names=names,
            caps=caps if caps is not None else report.TABLE3_CAPS,
            effort=effort,
            verify=verify,
            session=self,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(backend={self.backend!r}, "
            f"sim_threads={self.sim_threads!r}, "
            f"cache_dir={self.cache_dir!r}, "
            f"parallel={self.parallel!r}, preset={self.preset!r}, "
            f"arch={self.arch!r}, opt={self.opt!r}, source={self.source!r})"
        )
