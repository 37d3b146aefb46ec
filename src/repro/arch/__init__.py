"""repro.arch — the pluggable PLiM machine-model layer.

The compiler (:mod:`repro.plim`) targets an :class:`Architecture`: an
immutable description of the machine's RM3 cost table, array geometry,
and endurance semantics, plus factories for the matching device
allocator and behavioural array.  Named variants live in a registry —
``dac16`` (the DAC'16 compiler's endurance-oblivious crossbar),
``endurance`` (the paper's machine; the default), ``blocked``
(word-addressed arrays with per-block allocation) — and a run selects
one with the uniform precedence **flag > environment > default**
(``--arch`` / ``Session(arch=...)`` > ``$REPRO_ARCH`` > ``endurance``).

See :mod:`repro.arch.registry` for how to register a custom machine.
"""

from .model import (
    Architecture,
    ArchitectureError,
    CostModel,
    EnduranceModel,
    Geometry,
)
from .registry import (
    DEFAULT_ARCHITECTURE,
    available_architectures,
    get_architecture,
    register_architecture,
    resolve_architecture,
)

__all__ = [
    "Architecture",
    "ArchitectureError",
    "CostModel",
    "DEFAULT_ARCHITECTURE",
    "EnduranceModel",
    "Geometry",
    "available_architectures",
    "get_architecture",
    "register_architecture",
    "resolve_architecture",
]
