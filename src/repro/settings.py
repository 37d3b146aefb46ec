"""The session settings table: every knob declared once.

The evaluation runs one MIG -> rewrite -> PLiM compile -> verify flow
under a handful of settings — the benchmark widths, the simulation
kernel, the target machine, the rewriting optimizer, the circuit
source, the stage budgets, the worker fan-out, the persistent cache.
Each is one :class:`Setting` row in :data:`SETTINGS`: its name (the
``Session`` keyword and ``SessionSpec`` field), CLI flag, environment
variable, parser and default.  Every consumer is generated from the
table — :class:`repro.flow.Session` construction (``from_env``,
``from_args``, ``add_arguments``, ``spec``/``from_spec``), the ambient
lookups behind :func:`repro.mig.kernel.get_kernel`,
:func:`repro.arch.resolve_architecture`,
:func:`repro.opt.resolve_optimizer` and
:func:`repro.source.resolve_source`, and ``repro config show`` — so
adding a setting means one row plus its parser.

One rule resolves every row (:meth:`Setting.resolve`): an explicit
value wins, then the environment variable (surrounding whitespace
stripped; empty means unset), then the default.  Parsers turn a string
(or an already-typed value) into the setting's value and raise
``ValueError`` on garbage; the lookup prefixes the message with the
flag or environment variable the bad value came from.

This module imports nothing from the package at import time, so it sits
below every layer that reads it; parsers that live in heavier modules
are bound on first use.
"""

from __future__ import annotations

import functools
import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BACKEND_CHOICES",
    "PRESET_CHOICES",
    "SETTINGS",
    "Setting",
    "positive_int",
]

#: Benchmark width presets understood by the synthesis registry.
PRESET_CHOICES: List[str] = ["tiny", "default", "paper"]

#: Simulation backends (see :mod:`repro.mig.kernel`).
BACKEND_CHOICES: List[str] = ["auto", "bigint", "numpy"]


def positive_int(what: str) -> Callable[[Any], int]:
    """Parser for a count that must be a positive integer."""

    def parse(raw: Any) -> int:
        try:
            count = int(raw)
        except (TypeError, ValueError):
            count = 0
        if count < 1:
            raise ValueError(
                f"invalid {what} {raw!r}; expected a positive integer"
            )
        return count

    return parse


def _choice(what: str, choices: Sequence[str]) -> Callable[[Any], str]:
    def parse(raw: Any) -> str:
        if raw not in choices:
            raise ValueError(
                f"unknown {what} {raw!r}; choose one of: {', '.join(choices)}"
            )
        return raw

    return parse


def _lazy(module: str, path: str) -> Callable[..., Any]:
    """The callable at ``module.path``, imported on the first call."""
    bound: List[Callable[..., Any]] = []

    def call(*args: Any) -> Any:
        if not bound:
            target = importlib.import_module(module)
            for attr in path.split("."):
                target = getattr(target, attr)
            bound.append(target)
        return bound[0](*args)

    return call


def _pure(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Memoize a parser whose result depends on the raw value alone (an
    immutable value; failures are not cached), so a lookup on a hot
    path costs one environment read and a cache hit."""
    return functools.lru_cache(maxsize=128)(parse)


def _source_plain(source) -> Optional[str]:
    # Only names and paths can be resolved again in another process.
    if source.kind == "registry":
        return source.name
    if source.kind == "file":
        return source.path
    return None


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Setting:
    """One row of the settings table."""

    #: ``Session`` keyword, ``SessionSpec`` field and ``config show`` row.
    name: str
    #: CLI option; its argparse destination is :attr:`dest`.
    flag: str
    #: Environment variable, or ``None`` for a flag-only setting.
    env: Optional[str]
    #: Raw string (or an already-typed value) -> value; ``ValueError``
    #: on garbage.
    parse: Callable[[Any], Any]
    #: Raw default, parsed like any other value; ``None`` = unset.
    default: Optional[str]
    #: CLI help text, ending with what the default means.
    help: str
    metavar: Optional[str] = None
    #: Allowed CLI values, computed when a parser is built.
    choices: Optional[Callable[[], Sequence[str]]] = None
    #: Value -> the plain form ``Session`` attributes, ``SessionSpec``
    #: fields and ``config show`` carry (``None`` = not representable).
    plain: Callable[[Any], Any] = _identity
    #: Whether a bare ``Session()`` defers an unset value to the
    #: environment at use time.  ``False`` for the cache rows: only
    #: ``from_env``/``from_args`` read their environment variables, so
    #: a bare session stays in-memory.
    ambient: bool = True
    #: Whether :class:`repro.flow.Session` carries the setting.
    session: bool = True

    @property
    def dest(self) -> str:
        """The argparse destination of :attr:`flag`."""
        return self.flag.lstrip("-").replace("-", "_")

    def parse_given(self, explicit: Any) -> Any:
        """*explicit* parsed, or ``None`` when it was not given (``None``
        or ``""``, like an empty variable)."""
        if explicit is None or explicit == "":
            return None
        return self._parse(explicit, self.flag)

    def resolve(self, explicit: Any = None) -> Tuple[Any, str]:
        """``(value, origin)``: explicit > environment > default.

        *origin* is ``"flag"``, ``"env"`` or ``"default"``.
        """
        value = self.parse_given(explicit)
        if value is not None:
            return value, "flag"
        raw = os.environ.get(self.env, "").strip() if self.env else ""
        if raw:
            return self._parse(raw, None), "env"
        if self.default is None:
            return None, "default"
        return self.parse(self.default), "default"

    def value(self, explicit: Any = None) -> Any:
        """The resolved value (see :meth:`resolve`)."""
        return self.resolve(explicit)[0]

    def env_value(self) -> Any:
        """The parsed environment value, or ``None`` when unset."""
        value, origin = self.resolve()
        return value if origin == "env" else None

    def _parse(self, raw: Any, flag: Optional[str]) -> Any:
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{flag or '$' + self.env}: {exc}") from None

    def add_argument(self, parser, *flags: str, **overrides):
        """Install this setting's option on an argparse *parser*.

        The option defaults to ``None`` ("not given"), so the lookup can
        tell a flag from the environment; *flags* and *overrides* adapt
        it for maintenance commands (e.g. ``--url``, another help text).
        """
        options: Dict[str, Any] = {"default": None, "help": self.help}
        if self.choices is not None:
            options["choices"] = self.choices()
        else:
            options["metavar"] = self.metavar
        options.update(overrides)
        if self.env:
            options["help"] += f" [env: ${self.env}]"
        return parser.add_argument(*(flags or (self.flag,)), **options)


_ROWS = (
    Setting(
        "preset", "--preset", None,
        _choice("preset", PRESET_CHOICES), "default",
        "benchmark width preset (paper = the paper's sizes; "
        "default: default)",
        choices=lambda: PRESET_CHOICES,
    ),
    Setting(
        "backend", "--backend", "REPRO_SIM_BACKEND",
        _pure(_choice("simulation backend", BACKEND_CHOICES)), "auto",
        "simulation-kernel backend (default: auto-detection)",
        choices=lambda: BACKEND_CHOICES,
    ),
    Setting(
        "sim_threads", "--sim-threads", "REPRO_SIM_THREADS",
        _pure(positive_int("simulation thread count")),
        str(min(4, os.cpu_count() or 1)),
        "simulation worker threads for the numpy kernel "
        "(default: min(4, cpu count))",
        metavar="N",
    ),
    Setting(
        "arch", "--arch", "REPRO_ARCH",
        _lazy("repro.arch.registry", "resolve_architecture"), "endurance",
        "target PLiM machine model (default: the paper's 'endurance' "
        "machine)",
        choices=_lazy("repro.arch.registry", "available_architectures"),
        plain=lambda arch: arch.name,
    ),
    Setting(
        "source", "--source", "REPRO_SOURCE",
        _lazy("repro.source.registry", "resolve_source"), None,
        "circuit source: a registry benchmark name or a netlist path "
        "(.mig/.blif/.aag) (default: none; see 'repro source list')",
        metavar="NAME_OR_PATH",
        plain=_source_plain,
    ),
    Setting(
        "opt", "--opt", "REPRO_OPT",
        _pure(_lazy("repro.opt.engine", "OptimizerSpec.parse")), "script",
        "rewriting optimizer spec, STRATEGY[:OBJECTIVE][@DEPTH] — e.g. "
        "'script', 'greedy', 'budget:write_cost@3' (default: the "
        "paper's fixed scripts; see 'repro opt list')",
        metavar="SPEC",
        plain=lambda spec: spec.label(),
    ),
    Setting(
        "timeouts", "--timeout", "REPRO_TIMEOUT",
        _pure(_lazy("repro.resilience.timeouts", "Timeouts.parse")), "0",
        "per-stage wall-clock budget in seconds, [STAGE=]SECONDS[,...] — "
        "e.g. '30' or 'compile=120,verify=30,job=600' (default: 0, "
        "unlimited)",
        metavar="SPEC",
        plain=lambda timeouts: timeouts.spec(),
    ),
    Setting(
        "parallel", "--parallel", None,
        int, None,
        "fan benchmarks out over N worker processes (default: serial)",
        metavar="N",
    ),
    Setting(
        "cache_dir", "--cache-dir", "REPRO_CACHE_DIR",
        os.fspath, None,
        "persist built/compiled artefacts under DIR across runs "
        "(default: no persistence)",
        metavar="DIR",
        ambient=False,
    ),
    Setting(
        "cache_url", "--cache-url", "REPRO_CACHE_URL",
        str, None,
        "route artefacts through a shared cache server (see 'repro "
        "cachesvc serve'; default: direct disk access)",
        metavar="URL",
        ambient=False,
    ),
    Setting(
        "retries", "--retries", "REPRO_RETRIES",
        _pure(_lazy("repro.resilience.retry", "RetryPolicy.parse")), "3",
        "retry attempt budget per job (default: 3)",
        metavar="N",
        plain=lambda policy: policy.attempts,
        session=False,
    ),
)

#: The settings table, by name, in CLI/help order.
SETTINGS: Dict[str, Setting] = {row.name: row for row in _ROWS}
