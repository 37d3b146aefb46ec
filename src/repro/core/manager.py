"""Endurance-managed compilation: configurations, presets, pipeline.

Ties the pieces together exactly the way the paper's evaluation does: a
*configuration* is a choice of

1. MIG rewriting script (none / Algorithm 1 / Algorithm 2),
2. node-selection strategy (topological / DAC'16 / Algorithm 3),
3. device-allocation policy (naive / min-write, optional write cap),

and :func:`compile_pipeline` runs rewriting, compilation, and
statistics in one call.  The named presets in :data:`PRESETS` are the five
incremental columns of Table I plus the capped full-management
configurations of Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..mig.graph import Mig
from ..opt.scripts import DEFAULT_EFFORT
from ..plim.compiler import PlimCompiler
from ..plim.isa import Program
from .policies import AllocationPolicy
from .selection import make_selection
from .stats import WriteTrafficStats


@dataclass(frozen=True)
class EnduranceConfig:
    """One endurance-management configuration (one table column).

    Attributes
    ----------
    name:
        Label used in reports.
    rewriting:
        ``"none"``, ``"dac16"`` (Algorithm 1), or ``"endurance"``
        (Algorithm 2).
    selection:
        ``"topo"``, ``"dac16"``, or ``"endurance"`` (Algorithm 3); the
        ablation strategies of :mod:`repro.core.selection` also work.
    allocation:
        The device-allocation policy (strategies 1-2 of the paper).
    effort:
        Rewriting cycles; the paper uses 5 everywhere.
    allow_pi_overwrite:
        Whether input devices may be reclaimed (see compiler docs).
    """

    name: str
    rewriting: str = "none"
    selection: str = "topo"
    allocation: AllocationPolicy = field(default_factory=AllocationPolicy)
    effort: int = DEFAULT_EFFORT
    allow_pi_overwrite: bool = True

    def with_cap(self, w_max: Optional[int]) -> "EnduranceConfig":
        """Same configuration with a different maximum write count."""
        suffix = f"+wmax{w_max}" if w_max is not None else ""
        return replace(
            self,
            name=f"{self.name}{suffix}",
            allocation=AllocationPolicy(self.allocation.strategy, w_max),
        )


@dataclass
class CompilationResult:
    """Everything the experiments need from one compilation."""

    config: EnduranceConfig
    program: Program
    stats: WriteTrafficStats
    mig_gates_before: int
    mig_gates_after: int

    @property
    def num_instructions(self) -> int:
        """``#I`` of the paper's tables."""
        return self.program.num_instructions

    @property
    def num_rrams(self) -> int:
        """``#R`` of the paper's tables."""
        return self.program.num_rrams


#: The five incremental configurations of Table I (left to right), plus
#: aliases used by Tables II/III and the examples.
PRESETS: Dict[str, EnduranceConfig] = {
    # Column 1: node translation only — no rewriting, no selection, LIFO.
    "naive": EnduranceConfig(name="naive"),
    # Column 2: the DAC'16 PLiM compiler (Algorithm 1 + its selection).
    "dac16": EnduranceConfig(
        name="dac16", rewriting="dac16", selection="dac16"
    ),
    # Column 3: + minimum write count strategy.
    "min-write": EnduranceConfig(
        name="min-write",
        rewriting="dac16",
        selection="dac16",
        allocation=AllocationPolicy("min_write"),
    ),
    # Column 4: + endurance-aware MIG rewriting (Algorithm 2).
    "ea-rewrite": EnduranceConfig(
        name="ea-rewrite",
        rewriting="endurance",
        selection="dac16",
        allocation=AllocationPolicy("min_write"),
    ),
    # Column 5: + endurance-aware compilation (Algorithm 3).
    "ea-full": EnduranceConfig(
        name="ea-full",
        rewriting="endurance",
        selection="endurance",
        allocation=AllocationPolicy("min_write"),
    ),
}


def full_management(w_max: int) -> EnduranceConfig:
    """Full endurance management as in Table III: minimum + maximum write
    strategies, Algorithm 2 rewriting, Algorithm 3 selection."""
    return PRESETS["ea-full"].with_cap(w_max)


def compile_pipeline(
    mig: Mig,
    config: EnduranceConfig,
    *,
    rewritten: Optional[Mig] = None,
    arch=None,
    optimizer=None,
) -> CompilationResult:
    """Rewrite, compile, and summarise *mig* under *config*.

    *rewritten* short-circuits the rewriting stage with a precomputed
    optimisation result — the hook
    :class:`repro.analysis.runner.ExperimentCache` uses to share one
    rewriting run between every configuration with the same script (or
    optimizer).

    *arch* selects the target machine model (a
    :class:`repro.arch.Architecture`, a registry name, or ``None`` for
    the ambient ``$REPRO_ARCH``/default selection); the machine is
    validated against the configuration before any work happens, so a
    policy the architecture cannot implement fails fast.  *optimizer*
    selects the rewriting optimizer (an
    :class:`repro.opt.OptimizerSpec`, a spec string, or ``None`` for
    the ambient ``$REPRO_OPT``/default selection — the configuration's
    fixed script); it is ignored when *rewritten* is supplied.

    This is the raw, uncached pipeline body.  Application code should go
    through :class:`repro.flow.Flow` (or an
    :class:`~repro.analysis.runner.ExperimentCache`), which add stage
    caching, observers, and verification on top.
    """
    from ..arch import resolve_architecture
    from ..opt import Optimizer

    machine = resolve_architecture(arch)
    machine.validate_config(config)
    gates_before = mig.num_live_gates()
    if rewritten is None:
        rewritten = Optimizer(optimizer, machine).run(
            mig, config.rewriting, effort=config.effort
        )
    selection = None
    if config.selection != "topo":
        selection = make_selection(config.selection)
    compiler = PlimCompiler(
        selection=selection,
        allocation=config.allocation.strategy,
        w_max=config.allocation.w_max,
        allow_pi_overwrite=config.allow_pi_overwrite,
        arch=machine,
    )
    program = compiler.compile(rewritten)
    stats = WriteTrafficStats.from_counts(program.write_counts())
    return CompilationResult(
        config=config,
        program=program,
        stats=stats,
        mig_gates_before=gates_before,
        mig_gates_after=rewritten.num_live_gates(),
    )

