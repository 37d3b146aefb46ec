"""The :class:`Session`: one object owning every cross-cutting concern.

A run is provisioned by the settings of :mod:`repro.settings` — the
benchmark width preset, the simulation-kernel backend and its worker
threads, the target PLiM machine, the default circuit source, the
rewriting optimizer, the per-stage wall-clock budgets, the
worker-process fan-out, and the persistent cache (a disk root or a
shared cache server, see :mod:`repro.cachesvc`).  A :class:`Session`
carries one value per setting, and everything downstream —
:class:`repro.flow.Flow` pipelines, matrix evaluations, report
generation — routes through it.

Construction
------------
* ``Session(backend=..., cache_dir=..., parallel=..., preset=...)`` —
  one keyword per settings row.  An omitted setting defers to the
  settings table at use time (``$REPRO_SIM_BACKEND``, ``$REPRO_ARCH``,
  ...), except the cache rows: a bare session stays in-memory.
* :meth:`Session.from_env` — reads every environment variable of the
  table.
* :meth:`Session.from_args` — from an ``argparse`` namespace: a given
  flag wins, the cache rows fall back to ``$REPRO_CACHE_DIR`` /
  ``$REPRO_CACHE_URL``, everything else defers like a bare session.
  :meth:`Session.add_arguments` installs the matching options on a
  parser, so every CLI subcommand shares one definition.

Sessions are picklable *by spec*: :meth:`Session.spec` captures the
explicit settings in a :class:`SessionSpec`, and worker processes
rebuild an equivalent session with :meth:`Session.from_spec` — this is
how ``run_matrix`` ships the selection across the process boundary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import field, fields, make_dataclass
from typing import Any, Iterable, List, Optional, Sequence

from ..arch import Architecture
from ..opt import DEFAULT_EFFORT, OptimizerSpec
from ..mig.kernel import (
    backend_scope,
    get_kernel,
    resolve_backend,
    sim_threads_scope,
)
from ..resilience import Timeouts
from ..settings import BACKEND_CHOICES, PRESET_CHOICES, SETTINGS
from ..source import Source
from ..analysis.diskcache import DiskCache
from ..analysis.runner import (
    BenchmarkEvaluation,
    ConfigLike,
    ExperimentCache,
    TABLE1_PRESETS,
    run_matrix as _run_matrix,
)

__all__ = ["BACKEND_CHOICES", "PRESET_CHOICES", "Session", "SessionSpec"]

#: The settings rows a session carries, in CLI order.
_ROWS = [row for row in SETTINGS.values() if row.session]

SessionSpec = make_dataclass(
    "SessionSpec",
    [
        (row.name, Any, field(default=None if row.env else row.default))
        for row in _ROWS
        if row.name != "parallel"  # a worker never fans out again
    ],
    frozen=True,
)
SessionSpec.__module__ = __name__
SessionSpec.__doc__ = """Picklable capture of a session's explicit settings.

Worker processes cannot inherit live caches or kernel scopes, so
:func:`repro.analysis.runner.run_matrix` ships this spec instead and
each worker rebuilds an equivalent :class:`Session` from it.  One field
per settings row except ``parallel``, holding the row's plain form (a
registry name, an optimizer label, a netlist path, a timeout spec
string, a count); ``None`` defers to the worker's own environment,
which matches the parent's.  Custom architectures must be registered in
the worker too, and non-string sources (bare graphs, frontend
functions) ship as ``None``.
"""


class Session:
    """Owns the run's settings, experiment cache, and observers.

    The session's :attr:`cache` is a single
    :class:`~repro.analysis.runner.ExperimentCache` shared by every flow
    and matrix evaluation routed through it, disk-backed when a cache
    directory is configured.  Observers registered with
    :meth:`add_observer` receive the :class:`~repro.flow.StageEvent`
    stream of every flow run in this session (plus matrix-level events),
    which is how progress reporting and ``BENCH_suite.json`` timings are
    fed.  Each settings row is readable in its plain form as an
    attribute (``session.backend``, ``session.arch``, ...; ``None``
    when not given explicitly).
    """

    def __init__(
        self, *, cache: Optional[ExperimentCache] = None, **settings: Any
    ) -> None:
        unknown = sorted(set(settings) - {row.name for row in _ROWS})
        if unknown:
            raise TypeError(
                f"Session() got unexpected keyword arguments: {unknown}"
            )
        # Explicit settings are parsed now, so garbage fails at
        # construction; an omitted one stays None and defers to the
        # table at use time (flag-only rows take their default).
        self._explicit = {
            row.name: (
                row.parse_given(settings.get(row.name))
                if row.env
                else row.value(settings.get(row.name))
            )
            for row in _ROWS
        }
        if cache is not None:
            # Adopt an existing cache (shared harnesses); its disk root
            # — possibly none — wins over the cache_dir argument, so the
            # session never claims persistence the cache doesn't have.
            self._explicit["cache_dir"] = (
                str(getattr(cache.disk, "root", None) or "") or None
            )
            self._explicit["cache_url"] = getattr(cache.disk, "url", None)
        # Plain forms as attributes (session.backend, session.cache_dir,
        # ...), except for rows the class resolves itself (timeouts).
        for row in _ROWS:
            if not isinstance(getattr(Session, row.name, None), property):
                setattr(self, row.name, self._plain(row.name))
        if cache is not None:
            self.cache = cache
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

    def _plain(self, name: str) -> Any:
        value = self._explicit[name]
        return None if value is None else SETTINGS[name].plain(value)

    def _setting(self, name: str) -> Any:
        """Explicit value, else the table's (environment > default)."""
        value = self._explicit[name]
        return value if value is not None else SETTINGS[name].value()

    # -- construction ------------------------------------------------

    @classmethod
    def from_env(
        cls,
        *,
        preset: Optional[str] = None,
        parallel: Optional[int] = None,
    ) -> "Session":
        """Session configured from every environment variable of the
        settings table (``$REPRO_SIM_BACKEND``, ``$REPRO_CACHE_DIR``,
        ``$REPRO_ARCH``, ...)."""
        return cls(
            preset=preset,
            parallel=parallel,
            **{row.name: row.env_value() for row in _ROWS if row.env},
        )

    @classmethod
    def from_args(cls, args, *, preset: Optional[str] = None) -> "Session":
        """Session from an ``argparse`` namespace (see :meth:`add_arguments`).

        A given flag wins.  An absent one (or a missing attribute)
        falls back like an omitted keyword, except that the cache rows
        read their environment variables: flag > environment > none.
        """
        given = {}
        for row in _ROWS:
            value = getattr(args, row.dest, None)
            if value is None and not row.ambient:
                value = row.env_value()
            given[row.name] = value
        given["preset"] = given["preset"] or preset
        return cls(**given)

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

        One definition per settings row, shared by every CLI subcommand;
        the boolean switches let scenario commands opt out of options
        that cannot affect them (``backend`` covers ``--sim-threads``,
        ``cache`` covers ``--cache-url``).
        """
        switches = {
            "preset": preset,
            "backend": backend,
            "sim_threads": backend,
            "arch": arch,
            "source": source,
            "opt": opt,
            "timeouts": timeout,
            "parallel": parallel,
            "cache_dir": cache,
            "cache_url": cache,
        }
        for row in _ROWS:
            if switches.get(row.name, True):
                row.add_argument(parser)
        return parser

    # -- spec (process boundary) ---------------------------------------

    def spec(self) -> SessionSpec:
        """Picklable spec a worker process rebuilds this session from."""
        return SessionSpec(
            **{f.name: self._plain(f.name) for f in fields(SessionSpec)}
        )

    @classmethod
    def from_spec(cls, spec: SessionSpec) -> "Session":
        return cls(**vars(spec))

    # -- resolved settings ---------------------------------------------

    @property
    def kernel(self):
        """The simulation kernel this session resolves to."""
        if self.backend is not None:
            return resolve_backend(self.backend)
        return get_kernel()

    @property
    def architecture(self) -> Architecture:
        """The target machine model: ``Session(arch=...)``, else
        ``$REPRO_ARCH``, else the default ``endurance`` machine —
        resolved at access time, mirroring :attr:`kernel`."""
        return self._setting("arch")

    @property
    def optimizer(self) -> OptimizerSpec:
        """The rewriting optimizer: ``Session(opt=...)``, else
        ``$REPRO_OPT``, else the ``script`` default."""
        return self._setting("opt")

    @property
    def default_source(self) -> Optional[Source]:
        """The default circuit source, if any: ``Session(source=...)``,
        else ``$REPRO_SOURCE``.  Unlike the other settings there is no
        final default — ``None`` means flows must declare their own
        source."""
        return self._setting("source")

    @property
    def timeouts(self) -> Timeouts:
        """Per-stage wall-clock budgets: ``Session(timeouts=...)``, else
        ``$REPRO_TIMEOUT``, else unlimited."""
        return self._setting("timeouts")

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
        settings = ", ".join(
            f"{row.name}={self._plain(row.name)!r}" for row in _ROWS
        )
        return f"Session({settings})"
