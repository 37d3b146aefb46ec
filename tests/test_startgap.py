"""Tests for the Start-Gap runtime wear-levelling extension."""

import pytest

from repro.core.manager import PRESETS, compile_pipeline
from repro.plim.controller import PlimController
from repro.plim.memory import RramArray
from repro.plim.startgap import StartGapArray, run_with_start_gap
from repro.synth.arithmetic import build_adder
from .conftest import make_random_program


class TestAddressTranslation:
    def test_initial_identity_mapping(self):
        array = StartGapArray(8)
        for logical in range(8):
            assert array.physical_address(logical) == logical

    def test_out_of_range(self):
        array = StartGapArray(4)
        with pytest.raises(IndexError):
            array.physical_address(4)

    def test_gap_interval_validation(self):
        with pytest.raises(ValueError):
            StartGapArray(4, gap_interval=0)

    def test_mapping_is_bijective_through_rotations(self):
        array = StartGapArray(6, gap_interval=1)
        for step in range(50):
            mapped = {array.physical_address(l) for l in range(6)}
            assert len(mapped) == 6
            assert array.gap not in mapped
            array.write(step % 6, step & 1)

    def test_full_revolution_counted(self):
        n = 5
        array = StartGapArray(n, gap_interval=1)
        for i in range(n + 1):
            array.write(i % n, 1)
        assert array.revolutions == 1


class TestDataConsistency:
    def test_values_survive_rotation(self):
        array = StartGapArray(4, gap_interval=1)
        for logical in range(4):
            array.preload(logical, logical % 2)
        expected = {l: l % 2 for l in range(4)}
        # lots of writes, lots of gap movement
        for step in range(40):
            target = step % 4
            value = (step // 4) & 1
            array.write(target, value)
            expected[target] = value
            for logical in range(4):
                assert array.read(logical) == expected[logical], (step, logical)

    def test_controller_runs_identically_on_startgap(self):
        """Program outputs are mapping-invariant."""
        mig = build_adder(width=4)
        program = compile_pipeline(mig, PRESETS["min-write"]).program
        words = [(i * 29) & 1 for i in range(mig.num_pis)]
        plain = PlimController(RramArray(program.num_cells)).run(
            program, words
        )
        for interval in (1, 3, 17):
            sg = StartGapArray(program.num_cells, gap_interval=interval)
            got = PlimController(sg).run(program, words)
            assert got == plain, interval


class TestWearLevelling:
    def test_rotation_spreads_static_hotspot(self):
        """A single hot logical cell wears the whole physical array."""
        n = 8
        array = StartGapArray(n, gap_interval=4)
        for _ in range(800):
            array.write(0, 1)  # always the same logical address
        counts = array.write_counts()
        # no physical cell takes more than half the traffic
        assert max(counts) < 800 // 2
        # and every physical cell participated
        assert min(counts) > 0

    def test_no_rotation_concentrates(self):
        array = RramArray(8)
        for _ in range(800):
            array.write(0, 1)
        assert array.max_writes() == 800

    def test_run_with_start_gap_end_to_end(self):
        mig = build_adder(width=3)
        program = compile_pipeline(mig, PRESETS["naive"]).program
        words = [0] * mig.num_pis
        static_counts = program.write_counts()
        executions = 30
        array = run_with_start_gap(
            program, words, executions=executions, gap_interval=16
        )
        physical = array.write_counts()
        # rotation beats the static concentration: hottest physical cell
        # is cooler than executions * hottest static cell
        assert max(physical) < executions * max(static_counts)
        # total wear grows only by the gap-copy overhead
        base = executions * sum(static_counts)
        assert sum(physical) >= base
        assert sum(physical) <= base * 1.2


class TestArchitectureDefaults:
    """Start-Gap consumes rotation constants from the machine model."""

    def test_gap_interval_from_architecture(self):
        from repro.arch import Architecture, Geometry

        machine = Architecture(
            name="fast-rotation", geometry=Geometry(gap_interval=7)
        )
        array = StartGapArray(8, arch=machine)
        assert array.gap_interval == 7
        # explicit argument still wins over the machine default
        assert StartGapArray(8, gap_interval=3, arch=machine).gap_interval == 3
        # no arch, no argument: the historic default
        assert StartGapArray(8).gap_interval == 100

    def test_for_architecture_wear_out_budget(self):
        from repro.arch import Architecture, EnduranceModel

        machine = Architecture(
            name="fragile",
            endurance=EnduranceModel(cell_endurance=1000),
        )
        array = StartGapArray.for_architecture(machine, 8, wear_out=True)
        assert array.physical.endurance == 1000
        assert StartGapArray.for_architecture(machine, 8).physical.endurance is None


class TestWriteCapInteraction:
    """Compile-time retirement and runtime rotation compose: the capped
    program stays correct under rotation, and rotation keeps spreading
    the already-flattened write profile."""

    def test_capped_program_correct_under_rotation(self):
        from repro.core.manager import full_management

        mig = build_adder(width=3)
        program = compile_pipeline(mig, full_management(5)).program
        words = [(i * 37 + 11) & 0xFF for i in range(mig.num_pis)]
        plain = RramArray(program.num_cells)
        PlimController(plain).run(program, words, mask=0xFF)
        expected = [plain.read(c) for c in program.po_cells]

        rotated = StartGapArray(program.num_cells, gap_interval=4)
        controller = PlimController(rotated)
        for _ in range(10):
            outputs = controller.run(program, words, mask=0xFF)
        assert [rotated.read(c) for c in program.po_cells] == expected
        assert outputs == expected
        assert rotated.gap != program.num_cells  # rotation really moved

    def test_rotation_spreads_capped_profile_further(self):
        from repro.core.manager import full_management

        mig = build_adder(width=3)
        program = compile_pipeline(mig, full_management(4)).program
        counts = program.write_counts()
        assert max(counts) <= 4  # the compile-time cap held
        executions = 50
        array = run_with_start_gap(
            program, [0] * mig.num_pis, executions=executions,
            gap_interval=8,
        )
        # even the hottest physical cell stays within the static bound
        # (cap * executions) plus rotation's own copy traffic
        rotations = sum(array.write_counts()) - executions * sum(counts)
        assert rotations > 0
        assert max(array.write_counts()) <= 4 * executions + rotations


class TestPerBlockRotation:
    """Start-Gap on word-addressed machines rotates each line
    independently (the blocked-architecture ROADMAP lever)."""

    def _blocked(self):
        from repro.arch import get_architecture

        return get_architecture("blocked")

    def test_one_spare_per_line(self):
        arch = self._blocked()
        block = arch.geometry.block_size
        array = StartGapArray.for_architecture(arch, 20)
        lines = -(-20 // block)
        assert array.num_regions == lines
        assert array.physical.num_cells == 20 + lines
        # every line's gap starts at its own spare, behind its cells
        assert len(array.gaps()) == lines
        assert len(set(array.gaps())) == lines

    def test_crossbar_stays_single_region(self):
        from repro.arch import get_architecture

        array = StartGapArray.for_architecture(
            get_architecture("endurance"), 8
        )
        assert array.num_regions == 1
        assert array.physical.num_cells == 9  # one spare, as before
        assert array.gap == 8  # scalar gap still exposed

    def test_scalar_gap_refused_on_blocked_arrays(self):
        array = StartGapArray.for_architecture(self._blocked(), 20)
        with pytest.raises(AttributeError):
            array.gap

    def test_rotation_confined_to_the_written_line(self):
        arch = self._blocked()
        array = StartGapArray(20, gap_interval=4, arch=arch)
        before = array.gaps()
        for _ in range(25):  # > 6 rotations of line 0, none elsewhere
            array.write(2, 1)
        after = array.gaps()
        assert after[0] != before[0]
        assert after[1:] == before[1:]
        assert array.region_revolutions()[1:] == [0] * (array.num_regions - 1)

    def test_values_never_leave_their_line(self):
        arch = self._blocked()
        block = arch.geometry.block_size
        array = StartGapArray(16, gap_interval=1, arch=arch)
        for step in range(40):
            array.write(3, step & 1)
            array.write(11, step & 1)
            for logical in (3, 11):
                line = logical // block
                rotor_base = array.physical_address(logical)
                # the line's physical segment is [line*(block+1), +block+1)
                assert line * (block + 1) <= rotor_base < (line + 1) * (block + 1)

    def test_interval_comes_from_the_architecture(self):
        from repro.arch import Architecture, Geometry

        machine = Architecture(
            name="tight-lines",
            geometry=Geometry(block_size=4, gap_interval=3),
        )
        array = StartGapArray.for_architecture(machine, 8)
        start = array.gaps()[0]
        array.write(0, 1)
        array.write(1, 1)
        assert array.gaps()[0] == start  # interval not reached yet
        array.write(2, 1)  # third write into line 0 rotates it
        assert array.gaps()[0] != start
        assert array.gaps()[1] == array._rotors[1].base + 4

    def test_reads_stay_correct_across_line_rotations(self):
        arch = self._blocked()
        array = StartGapArray(20, gap_interval=1, arch=arch)
        values = {}
        for logical in range(20):
            array.preload(logical, logical & 1)
            values[logical] = logical & 1
        for step in range(60):
            logical = (step * 7) % 20
            values[logical] = (step >> 1) & 1
            array.write(logical, values[logical])
            for check in (0, 7, 13, 19):
                assert array.read(check) == values[check]

    def test_startgap_x_blocked_end_to_end(self):
        """A program compiled FOR the blocked machine runs correctly on
        a per-line rotating array built FROM the same machine."""
        arch = self._blocked()
        mig = build_adder(width=3)
        program = compile_pipeline(mig, PRESETS["ea-full"], arch=arch).program
        words = [(i * 29 + 5) & 0xFF for i in range(mig.num_pis)]
        plain = RramArray(program.num_cells)
        expected = PlimController(plain).run(program, words, mask=0xFF)

        array = run_with_start_gap(
            program, words, executions=8, gap_interval=4, arch=arch
        )
        assert array.num_regions == -(-program.num_cells // arch.geometry.block_size)
        outputs = PlimController(array).run(program, words, mask=0xFF)
        assert outputs == expected
        # rotation really happened in at least one line
        assert any(r > 0 or g != rot.base + rot.size
                   for r, g, rot in zip(array.region_revolutions(),
                                        array.gaps(), array._rotors))


class TestControllerParityOnStartGap:
    """The controller's hoisted loop drives a Start-Gap array exactly
    like plain ``read``/``write`` calls through its logical interface."""

    @staticmethod
    def _plain_runs(program, pi_values, executions, gap_interval, arch):
        from repro.plim.isa import OP_CONST0, OP_CONST1

        array = StartGapArray(
            program.num_cells, gap_interval=gap_interval, arch=arch
        )

        def read(op):
            if op == OP_CONST0:
                return 0
            if op == OP_CONST1:
                return 1
            return array.read(op)

        for _ in range(executions):
            for cell, word in zip(program.pi_cells, pi_values):
                array.preload(cell, word & 1)
            for p, q, z in program.instructions:
                a, not_b, c = read(p), read(q) ^ 1, array.read(z)
                array.write(z, (a & not_b) | (a & c) | (not_b & c))
        return array

    @pytest.mark.parametrize("arch", [None, "blocked"])
    @pytest.mark.parametrize("seed", range(4))
    def test_physical_wear_and_state_match(self, arch, seed):
        from repro.arch import get_architecture

        machine = get_architecture(arch) if arch else None
        program = make_random_program(seed, num_cells=19, length=150)
        pi_values = [seed & 1, 1, 0, 1]
        got = run_with_start_gap(
            program, pi_values, executions=7, gap_interval=5, arch=machine
        )
        want = self._plain_runs(program, pi_values, 7, 5, machine)
        assert got.write_counts() == want.write_counts()
        assert got.gaps() == want.gaps()
        assert got.physical.values == want.physical.values
