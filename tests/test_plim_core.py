"""Tests for the PLiM ISA, memory array, and controller."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.plim.controller import (
    CYCLES_PER_INSTRUCTION,
    ExecutionTrace,
    PlimController,
    execute,
)
from repro.plim.isa import (
    OP_CONST0,
    OP_CONST1,
    Program,
    const_operand,
    format_operand,
    operand_const_value,
    operand_is_const,
)
from repro.plim.memory import (
    EnduranceExhaustedError,
    RramArray,
    estimate_lifetime,
)
from .conftest import make_random_program


class TestOperands:
    def test_const_encoding(self):
        assert const_operand(0) == OP_CONST0
        assert const_operand(1) == OP_CONST1
        assert operand_is_const(OP_CONST0)
        assert not operand_is_const(0)
        assert operand_const_value(OP_CONST1) == 1
        with pytest.raises(ValueError):
            operand_const_value(3)

    def test_format(self):
        assert format_operand(OP_CONST0) == "0"
        assert format_operand(OP_CONST1) == "1"
        assert format_operand(7) == "@7"


class TestProgram:
    def test_write_counts(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0), (0, OP_CONST0, 1),
                          (OP_CONST0, OP_CONST1, 1)],
            num_cells=3,
        )
        assert prog.write_counts() == [1, 2, 0]

    def test_read_counts(self):
        prog = Program(
            instructions=[(0, 1, 2)],
            num_cells=3,
        )
        # p reads 0, q reads 1, z reads its own old value
        assert prog.read_counts() == [1, 1, 1]

    def test_validate_catches_bad_destination(self):
        prog = Program(instructions=[(OP_CONST0, OP_CONST1, 5)], num_cells=2)
        with pytest.raises(ValueError):
            prog.validate()

    def test_validate_catches_bad_operand(self):
        prog = Program(instructions=[(9, OP_CONST1, 0)], num_cells=2)
        with pytest.raises(ValueError):
            prog.validate()

    def test_disassemble_truncates(self):
        prog = Program(
            instructions=[(OP_CONST0, OP_CONST1, 0)] * 10, num_cells=1
        )
        text = prog.disassemble(limit=3)
        assert "7 more instructions" in text
        assert "RM3(0, 1, @0)" in text

    def test_value_lifetimes_simple(self):
        # write cell0 at 0, read it at 2, overwrite at 3
        prog = Program(
            instructions=[
                (OP_CONST1, OP_CONST0, 0),
                (OP_CONST1, OP_CONST0, 1),
                (0, OP_CONST0, 2),
                (OP_CONST0, OP_CONST1, 0),
            ],
            num_cells=3,
            po_cells=[2],
        )
        spans = prog.value_lifetimes()
        assert (0, 3) in spans[0]
        # cell 2 is a PO: its span runs to program end
        assert spans[2][-1][1] == 4

    def test_max_blocked_span(self):
        prog = Program(
            instructions=[
                (OP_CONST1, OP_CONST0, 0),
                (OP_CONST1, OP_CONST0, 1),
                (OP_CONST1, OP_CONST0, 1),
                (0, OP_CONST0, 1),
            ],
            num_cells=2,
        )
        assert prog.max_blocked_span() == 3  # cell0: written@0, read@3


class TestRramArray:
    def test_write_counting(self):
        array = RramArray(2)
        array.write(0, 1)
        array.write(0, 0)
        assert array.writes == [2, 0]
        assert array.max_writes() == 2
        assert array.total_writes() == 2

    def test_preload_not_counted(self):
        array = RramArray(1)
        array.preload(0, 1)
        assert array.writes == [0]
        assert array.read(0) == 1

    def test_endurance_exhaustion(self):
        array = RramArray(1, endurance=2)
        array.write(0, 1)
        array.write(0, 0)
        with pytest.raises(EnduranceExhaustedError) as exc:
            array.write(0, 1)
        assert exc.value.cell == 0
        assert array.remaining_endurance() == -1

    def test_reset_wear(self):
        array = RramArray(2, endurance=1)
        array.write(1, 1)
        array.reset_wear()
        array.write(1, 0)  # fine again
        assert array.writes == [0, 1]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RramArray(-1)


class TestLifetime:
    def test_estimate_basic(self):
        est = estimate_lifetime([1, 5, 2], endurance=100)
        assert est.executions == 20
        assert est.first_failing_cell == 1
        assert est.writes_per_execution == 5

    def test_estimate_zero_writes(self):
        est = estimate_lifetime([0, 0], endurance=10)
        assert est.executions == 10
        assert est.first_failing_cell == -1

    def test_balancing_multiplies_lifetime(self):
        skewed = estimate_lifetime([100, 1, 1], endurance=10**6)
        balanced = estimate_lifetime([34, 34, 34], endurance=10**6)
        assert balanced.executions > 2.9 * skewed.executions


class TestController:
    def test_rm3_semantics_exhaustive(self):
        """Z <- MAJ(P, ~Q, Z) over all operand value combinations."""
        for p in range(2):
            for q in range(2):
                for z in range(2):
                    array = RramArray(3)
                    array.preload(0, p)
                    array.preload(1, q)
                    array.preload(2, z)
                    prog = Program(
                        instructions=[(0, 1, 2)], num_cells=3, po_cells=[2]
                    )
                    out = PlimController(array).run(prog)
                    nq = 1 - q
                    expected = (p & nq) | (p & z) | (nq & z)
                    assert out == [expected], (p, q, z)

    def test_const_write_idioms(self):
        array = RramArray(1)
        array.preload(0, 1)
        prog = Program(
            instructions=[(OP_CONST0, OP_CONST1, 0)], num_cells=1,
            po_cells=[0],
        )
        assert PlimController(array).run(prog) == [0]
        prog.instructions = [(OP_CONST1, OP_CONST0, 0)]
        assert PlimController(array).run(prog) == [1]

    def test_cycle_accounting(self):
        array = RramArray(1)
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)] * 5, num_cells=1
        )
        ctrl = PlimController(array)
        ctrl.run(prog)
        assert ctrl.cycles == 5 * CYCLES_PER_INSTRUCTION
        assert ctrl.instructions_executed == 5

    def test_trace(self):
        array = RramArray(1)
        prog = Program(instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1)
        trace = ExecutionTrace()
        PlimController(array).run(prog, trace=trace)
        assert len(trace.records) == 1
        assert "RM3" in trace.records[0]

    def test_array_too_small(self):
        prog = Program(instructions=[], num_cells=5)
        with pytest.raises(ValueError):
            PlimController(RramArray(2)).run(prog)

    def test_input_arity_checked(self):
        prog = Program(instructions=[], num_cells=1, pi_cells=[0])
        with pytest.raises(ValueError):
            PlimController(RramArray(1)).run(prog, [])

    def test_execute_wrapper(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1,
            po_cells=[0],
        )
        assert execute(prog) == [1]

    def test_endurance_stops_execution(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)] * 4, num_cells=1
        )
        array = RramArray(1, endurance=3)
        with pytest.raises(EnduranceExhaustedError):
            PlimController(array).run(prog)


def reference_run(program, pi_values, mask, endurance=None):
    """Plain RM3 semantics, one instruction at a time.

    Returns ``(outputs, writes, trace, failing_pc)``; on an endurance
    failure the outputs are ``None`` and the trace stops before the
    failing instruction.
    """
    values = [0] * program.num_cells
    writes = [0] * program.num_cells
    for cell, word in zip(program.pi_cells, pi_values):
        values[cell] = word & mask

    def read(op):
        if op == OP_CONST0:
            return 0
        if op == OP_CONST1:
            return mask
        return values[op]

    trace = ExecutionTrace()
    for pc, (p, q, z) in enumerate(program.instructions):
        a, not_b, c = read(p), read(q) ^ mask, values[z]
        result = (a & not_b) | (a & c) | (not_b & c)
        writes[z] += 1
        if endurance is not None and writes[z] > endurance:
            return None, writes, trace, pc
        values[z] = result & mask
        trace.log(pc, p, q, z, result)
    outputs = [values[cell] & mask for cell in program.po_cells]
    return outputs, writes, trace, None


class TestControllerParity:
    """The controller's loop agrees with the plain reference loop."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, 8, 64]))
    def test_outputs_writes_and_trace(self, seed, width):
        program = make_random_program(seed)
        mask = (1 << width) - 1
        rng = random.Random(seed)
        pi_values = [rng.getrandbits(width) for _ in program.pi_cells]
        array = RramArray(program.num_cells)
        trace = ExecutionTrace()
        outputs = PlimController(array).run(
            program, pi_values, mask=mask, trace=trace
        )
        ref_outputs, ref_writes, ref_trace, _ = reference_run(
            program, pi_values, mask
        )
        assert outputs == ref_outputs
        assert array.writes == ref_writes
        assert trace.records == ref_trace.records

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), endurance=st.integers(1, 12))
    def test_endurance_failure_at_the_same_pc(self, seed, endurance):
        program = make_random_program(seed)
        pi_values = [1, 0, 1, 1]
        array = RramArray(program.num_cells, endurance=endurance)
        trace = ExecutionTrace()
        _, ref_writes, ref_trace, failing_pc = reference_run(
            program, pi_values, 1, endurance=endurance
        )
        if failing_pc is None:
            PlimController(array).run(program, pi_values, trace=trace)
        else:
            with pytest.raises(EnduranceExhaustedError) as info:
                PlimController(array).run(program, pi_values, trace=trace)
            assert info.value.cell == program.instructions[failing_pc][2]
        executed = (
            len(program.instructions) if failing_pc is None else failing_pc
        )
        assert len(trace.records) == executed
        assert trace.records == ref_trace.records
        assert array.writes == ref_writes

    def test_bad_constant_operand_raises(self):
        program = Program(instructions=[(-3, OP_CONST0, 0)], num_cells=1)
        with pytest.raises(ValueError):
            PlimController(RramArray(1)).run(program)
