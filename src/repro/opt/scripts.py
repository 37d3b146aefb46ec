"""The two fixed MIG rewriting scripts of the reproduced paper.

**Algorithm 1** — the rewriting used inside the PLiM compiler of
[Soeken et al., DAC'16]; node minimisation first, complemented-edge
control at the end of each cycle::

    for (cycles = 0; cycles < effort; cycles++):
        Omega.M ; Omega.D(R->L)
        Omega.A ; Psi.C
        Omega.M ; Omega.D(R->L)
        Omega.I(R->L)(1-3)
        Omega.I(R->L)

**Algorithm 2** — the endurance-aware rewriting proposed by the paper.
``Psi.C`` is dropped (it destroys single-complemented-edge nodes, the
ideal RM3 shape) and ``Omega.A`` is sandwiched between two
inverter-propagation phases so reshaping happens on complement-normalised
structure; a final ``Omega.I(R->L)`` removes triple-complemented nodes::

    for (cycles = 0; cycles < effort; cycles++):
        Omega.M ; Omega.D(R->L)
        Omega.I(R->L)(1-3)
        Omega.I(R->L)
        Omega.A
        Omega.I(R->L)(1-3)
        Omega.I(R->L)
        Omega.M ; Omega.D(R->L)
        Omega.I(R->L)

The paper sets ``effort = 5`` for all experiments; so do the defaults
here.  These fixed pipelines are the ``script`` strategy of the
cost-guided optimisation layer (:mod:`repro.opt.engine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..mig.graph import Mig
from ..mig.rewrite import apply_script

#: The paper's rewriting effort (number of script cycles).
DEFAULT_EFFORT = 5

#: Algorithm 1 — rewriting script of the DAC'16 PLiM compiler.
ALGORITHM1_STEPS: List[str] = [
    "M",
    "D_rl",
    "A",
    "Psi_C",
    "M",
    "D_rl",
    "I_rl_1_3",
    "I_rl",
]

#: Algorithm 2 — the paper's endurance-aware rewriting script.
ALGORITHM2_STEPS: List[str] = [
    "M",
    "D_rl",
    "I_rl_1_3",
    "I_rl",
    "A",
    "I_rl_1_3",
    "I_rl",
    "M",
    "D_rl",
    "I_rl",
]

#: Script registry: configuration name -> pass sequence (``None`` = no
#: rewriting, the naive baseline).
SCRIPTS: Dict[str, Optional[List[str]]] = {
    "none": None,
    "dac16": ALGORITHM1_STEPS,
    "endurance": ALGORITHM2_STEPS,
}


def rewrite_dac16(mig: Mig, effort: int = DEFAULT_EFFORT) -> Mig:
    """Run Algorithm 1 for *effort* cycles."""
    return apply_script(mig, ALGORITHM1_STEPS, cycles=effort)


def rewrite_endurance_aware(mig: Mig, effort: int = DEFAULT_EFFORT) -> Mig:
    """Run Algorithm 2 (the paper's endurance-aware script)."""
    return apply_script(mig, ALGORITHM2_STEPS, cycles=effort)


def rewrite(mig: Mig, script: str, effort: int = DEFAULT_EFFORT) -> Mig:
    """Run a registered script by name (``"none"`` returns a cleanup copy)."""
    if script not in SCRIPTS:
        raise ValueError(
            f"unknown rewriting script {script!r}; expected one of "
            f"{sorted(SCRIPTS)}"
        )
    steps = SCRIPTS[script]
    if steps is None:
        return mig.cleanup()
    return apply_script(mig, steps, cycles=effort)
