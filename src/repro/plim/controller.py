"""The PLiM controller: a fetch/decode/execute wrapper around the array.

Models the finite-state machine of [Gaillardon et al., DATE'16]: when the
control signal is off the array is an ordinary RAM; when on, the controller
fetches RM3 instructions, reads operands ``P`` and ``Q`` (from cells or the
constant lines), performs the resistive-majority write on ``Z``, increments
the program counter, and repeats.  Each instruction takes a fixed number of
controller cycles (fetch, two operand reads, one compute/write), so the
cycle count is an affine function of the instruction count — which is why
the paper uses ``#I`` as its latency metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .isa import OP_CONST0, OP_CONST1, Program
from .memory import RramArray

#: Controller cycles per RM3: fetch, read P, read Q, compute+write Z.
CYCLES_PER_INSTRUCTION = 4


@dataclass
class ExecutionTrace:
    """Optional per-instruction trace for debugging and the examples."""

    records: List[str] = field(default_factory=list)

    def log(self, pc: int, p: int, q: int, z: int, result: int) -> None:
        self.records.append(
            f"pc={pc:6d} RM3(p={p}, q={q}, z={z}) -> {result & 1}"
        )


class PlimController:
    """Executes PLiM programs on a :class:`~repro.plim.memory.RramArray`.

    >>> from repro.plim.isa import Program, OP_CONST1, OP_CONST0
    >>> prog = Program(instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1)
    >>> array = RramArray(1)
    >>> ctrl = PlimController(array)
    >>> ctrl.run(prog)
    []
    >>> array.read(0)
    1
    """

    def __init__(self, array: RramArray) -> None:
        self.array = array
        self.cycles = 0
        self.instructions_executed = 0

    def run(
        self,
        program: Program,
        pi_values: Optional[Sequence[int]] = None,
        mask: int = 1,
        trace: Optional[ExecutionTrace] = None,
    ) -> List[int]:
        """Execute *program* and return the primary-output words.

        Parameters
        ----------
        pi_values:
            One (bit-parallel) word per primary input, deposited into the
            mapped cells before execution; may be omitted for programs
            without inputs.
        mask:
            All-ones mask covering the simulated pattern width.
        trace:
            Optional :class:`ExecutionTrace` collecting a readable log.
        """
        if program.num_cells > self.array.num_cells:
            raise ValueError(
                f"program needs {program.num_cells} cells, array has "
                f"{self.array.num_cells}"
            )
        pi_values = list(pi_values or [])
        if len(pi_values) != len(program.pi_cells):
            raise ValueError(
                f"expected {len(program.pi_cells)} input words, got "
                f"{len(pi_values)}"
            )
        for cell, word in zip(program.pi_cells, pi_values):
            self.array.preload(cell, word & mask)

        # One loop for every array: `values` and `write` are bound once to
        # whatever the array provides (an RramArray's cell list and write
        # method, a StartGapArray's logical views).  Negative operands are
        # the constant lines.
        values = self.array.values
        write = self.array.write
        for pc, (p, q, z) in enumerate(program.instructions):
            if p >= 0:
                p_val = values[p]
            elif p == OP_CONST1:
                p_val = mask
            elif p == OP_CONST0:
                p_val = 0
            else:
                raise ValueError(f"instruction {pc}: bad operand {p}")
            if q >= 0:
                nq = values[q] ^ mask
            elif q == OP_CONST1:
                nq = 0
            elif q == OP_CONST0:
                nq = mask
            else:
                raise ValueError(f"instruction {pc}: bad operand {q}")
            z_val = values[z]
            result = (p_val & nq) | (p_val & z_val) | (nq & z_val)
            write(z, result & mask)
            if trace is not None:
                trace.log(pc, p, q, z, result)
        self.instructions_executed += len(program.instructions)
        self.cycles += CYCLES_PER_INSTRUCTION * len(program.instructions)

        return [self.array.read(cell) & mask for cell in program.po_cells]


def execute(
    program: Program,
    pi_values: Optional[Sequence[int]] = None,
    mask: int = 1,
    endurance: Optional[int] = None,
) -> List[int]:
    """One-shot convenience wrapper: fresh array, run, return outputs."""
    array = RramArray(program.num_cells, endurance=endurance)
    return PlimController(array).run(program, pi_values, mask=mask)
