"""repro.opt — cost-guided, architecture-aware MIG rewriting.

The optimisation layer the compile pipelines route their rewrite stage
through.  Three orthogonal registries compose into an optimizer:

* :class:`RewritePass` (:mod:`repro.opt.passes`) — the structural
  passes, each an equivalence-preserving ``Mig -> Mig`` axiom
  application with metadata; the paper's fixed script cycles are also
  wrapped as composite passes.
* :class:`Objective` (:mod:`repro.opt.objectives`) — compile-free cost
  functions (node count, depth, and the architecture-aware estimated
  write cost priced through the target machine's
  :class:`~repro.arch.CostModel`).
* :class:`Strategy` (:mod:`repro.opt.engine`) — how the pass manager
  walks the space: ``script`` (the paper's fixed pipelines,
  byte-identical to the legacy behaviour), ``greedy`` (per-round
  best-of-candidates), ``budget`` (bounded look-ahead search).

One :class:`OptimizerSpec` names a (strategy, objective, look-ahead)
triple; :func:`resolve_optimizer` applies the harness-wide **flag >
environment > default** precedence (``--opt`` / ``$REPRO_OPT`` /
``script``), and an :class:`Optimizer` binds a spec to a target
:class:`~repro.arch.Architecture` for execution and cache keying.

The paper's fixed script entry points live in :mod:`repro.opt.scripts`.
"""

from .engine import (
    DEFAULT_LOOKAHEAD,
    DEFAULT_OPTIMIZER,
    OptLike,
    Optimizer,
    OptimizerSpec,
    Strategy,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_optimizer,
)
from .objectives import (
    DEFAULT_OBJECTIVE,
    Objective,
    available_objectives,
    estimated_write_cost,
    get_objective,
    register_objective,
)
from .passes import (
    RewritePass,
    atomic_passes,
    available_passes,
    candidate_passes,
    get_pass,
    register_pass,
)
from .scripts import (
    ALGORITHM1_STEPS,
    ALGORITHM2_STEPS,
    DEFAULT_EFFORT,
    SCRIPTS,
    rewrite,
    rewrite_dac16,
    rewrite_endurance_aware,
)

__all__ = [
    "ALGORITHM1_STEPS",
    "ALGORITHM2_STEPS",
    "DEFAULT_EFFORT",
    "DEFAULT_LOOKAHEAD",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_OPTIMIZER",
    "Objective",
    "OptLike",
    "Optimizer",
    "OptimizerSpec",
    "RewritePass",
    "SCRIPTS",
    "Strategy",
    "atomic_passes",
    "available_objectives",
    "available_passes",
    "available_strategies",
    "candidate_passes",
    "estimated_write_cost",
    "get_objective",
    "get_pass",
    "get_strategy",
    "register_objective",
    "register_pass",
    "register_strategy",
    "resolve_optimizer",
    "rewrite",
    "rewrite_dac16",
    "rewrite_endurance_aware",
]
