"""Tests for the MIG-to-RM3 compiler: cost model, invariants, correctness.

The cost model cases follow Section III of the paper: an "ideal" node
(one complemented fanin, one overwritable destination) is a single RM3;
each complement/fanout violation adds exactly two instructions and one
device.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selection import make_selection
from repro.mig.graph import Mig
from repro.mig.signal import CONST0, CONST1, complement
from repro.plim.compiler import PlimCompiler
from repro.plim.verify import cross_check_truth_tables, verify_program
from .conftest import make_random_mig


def compile_mig(mig, **kwargs):
    return PlimCompiler(**kwargs).compile(mig)


def count_node_instructions(mig):
    """#I of a single-gate MIG whose PO is that gate, uncomplemented."""
    program = compile_mig(mig)
    verify_program(program, mig)
    return program.num_instructions


class TestCostModel:
    def _single_node(self, complements, fanouts):
        """One majority over three PIs; `complements[i]` inverts edge i,
        `fanouts[i]` adds an extra consumer to pin PI i."""
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(3)]
        extra = mig.add_pi("extra")
        ops = [
            complement(s) if c else s for s, c in zip(pis, complements)
        ]
        node = mig.add_maj(*ops)
        mig.add_po(node, "f")
        for s, pinned in zip(pis, fanouts):
            if pinned:
                mig.add_po(mig.add_maj(s, extra, CONST0), f"pin{s}")
        return mig

    def test_ideal_node_single_instruction(self):
        # one complemented fanin, destination and P free
        mig = self._single_node([True, False, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_zero_complements_needs_q_inversion(self):
        # no complemented fanin, no constant: +2 instructions
        mig = self._single_node([False, False, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3

    def test_and_node_is_free_via_constant(self):
        # <a b 0>: Q takes the constant, Z overwrites a fanin
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_and(a, b), "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_or_node_is_free_via_constant(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_or(a, b), "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_all_fanouts_blocked_needs_copy(self):
        # one complemented fanin but both other fanins multi-fanout:
        # +2 (copy) -> 3 instructions for the node, plus 2 pin gates
        mig = self._single_node([True, False, False], [False, True, True])
        program = compile_mig(mig)
        verify_program(program, mig)
        # pins are ANDs (1 each); the node pays 1 + 2
        assert program.num_instructions == 2 + 3

    def test_two_complements_cost(self):
        # Q free (first complement), P inversion (+2), Z direct
        mig = self._single_node([True, True, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3

    def test_three_complements_cost(self):
        # Q free, P inversion (+2), Z copy-invert (+2)
        mig = self._single_node([True, True, True], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 5

    def test_complemented_po_costs_two(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1 + 2

    def test_constant_po_costs_one(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(CONST1, "one")
        mig.add_po(CONST0, "zero")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 2

    def test_shared_constant_pos(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(CONST1, "one_a")
        mig.add_po(CONST1, "one_b")
        program = compile_mig(mig)
        assert program.num_instructions == 1
        assert program.po_cells[0] == program.po_cells[1]

    def test_pi_as_po_uses_pi_cell(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 0
        assert program.po_cells == [program.pi_cells[0]]

    def test_duplicate_complemented_po_shares_inversion(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf1")
        mig.add_po(complement(f), "nf2")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3  # AND + one shared inversion
        assert program.po_cells[0] == program.po_cells[1]


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_min_write_changes_neither_instructions_nor_rrams(self, seed):
        """Stated explicitly in Section IV of the paper."""
        mig = make_random_mig(6, 50, seed=seed)
        naive = compile_mig(mig, allocation="naive")
        minw = compile_mig(mig, allocation="min_write")
        assert naive.num_instructions == minw.num_instructions
        assert naive.num_rrams == minw.num_rrams

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_all_selections_verify(self, seed):
        mig = make_random_mig(6, 40, seed=seed)
        for name in ("topo", "dac16", "endurance"):
            sel = None if name == "topo" else make_selection(name)
            program = compile_mig(mig, selection=sel)
            verify_program(program, mig, patterns=64)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_write_cap_respected(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        for cap in (3, 5, 10):
            program = compile_mig(
                mig, allocation="min_write", w_max=cap
            )
            verify_program(program, mig, patterns=64)
            assert max(program.write_counts()) <= cap

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_tighter_cap_never_cheaper(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        loose = compile_mig(mig, allocation="min_write", w_max=20)
        tight = compile_mig(mig, allocation="min_write", w_max=3)
        assert tight.num_rrams >= loose.num_rrams

    def test_pi_overwrite_flag(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_and(a, b), "f")
        reuse = compile_mig(mig, allow_pi_overwrite=True)
        fresh = compile_mig(mig, allow_pi_overwrite=False)
        verify_program(reuse, mig)
        verify_program(fresh, mig)
        assert reuse.num_rrams == 2  # destination overwrites an input
        assert fresh.num_rrams == 3  # input devices preserved
        assert fresh.num_instructions == reuse.num_instructions + 2

    def test_po_complement_releases_dead_source(self):
        # a node used only by a complemented PO frees its device
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf")
        program = compile_mig(mig)
        verify_program(program, mig)


class TestEndToEnd:
    def test_exhaustive_cross_check_small(self):
        mig = make_random_mig(6, 30, seed=99, num_pos=4)
        program = compile_mig(mig, allocation="min_write", w_max=5)
        assert cross_check_truth_tables(program, mig) is None

    def test_empty_graph(self):
        mig = Mig()
        mig.add_pi("a")
        program = compile_mig(mig)
        assert program.num_instructions == 0
        assert program.num_rrams == 1  # the input device

    def test_no_strash_graph_compiles(self):
        mig = make_random_mig(5, 30, seed=5, use_strash=False)
        program = compile_mig(mig)
        verify_program(program, mig, patterns=64)

    def test_scheduler_covers_all_gates(self, tiny_adder):
        program = compile_mig(tiny_adder)
        verify_program(program, tiny_adder)


#: The compile-verify style columns the golden digests cover:
#: label -> (selection, allocation strategy, write cap).
GOLDEN_CONFIGS = {
    "topo-naive": (None, "naive", None),
    "dac16-minw": ("dac16", "min_write", None),
    "ea-minw": ("endurance", "min_write", None),
    "ea-minw-wmax3": ("endurance", "min_write", 3),
    "ea-minw-wmax10": ("endurance", "min_write", 10),
}

#: sha256 of ``repr((instructions, num_cells, pi_cells, po_cells))`` per
#: (architecture, tiny-preset benchmark, configuration).  Any change to
#: role selection, tie-breaking, scheduling or allocation moves them.
GOLDEN_DIGESTS = {
    ("endurance", "adder", "topo-naive"):
        "bf9df7a6c66acaf3fea227fc2893eff47ca0c9bd6dc51bab2ff31c27a5b3ea44",
    ("endurance", "adder", "dac16-minw"):
        "a58a86fa842ab91dffcceccda01d7f2e23e38894fa3c7cb43671fff2dc96dabf",
    ("endurance", "adder", "ea-minw"):
        "b58b30383fd2ef2f2dca9b016d32410a35834e4cd3011e41efb574e9cf65a99e",
    ("endurance", "adder", "ea-minw-wmax3"):
        "df4542eaf949930c8ac8403b9b01546d58b25a6249cd7457ead818b32d59ce4c",
    ("endurance", "adder", "ea-minw-wmax10"):
        "3e241ad9703e09e6c0d54e7c148da9f97f5fea486585147cf1689fc808d2cf0d",
    ("endurance", "ctrl", "topo-naive"):
        "0d1adf3bf6ab55dc7f354358abf4e099002c4a6ecbcfc015548dc39f4a4eae8d",
    ("endurance", "ctrl", "dac16-minw"):
        "ee35dbd5d4e3fdeb9567df84580af4a262e9e655c4331513af80474a3d8f2575",
    ("endurance", "ctrl", "ea-minw"):
        "723be75b013d936a5bb738da0ac541a7b3114c51aeec7bfcce75fb3f7c4e2113",
    ("endurance", "ctrl", "ea-minw-wmax3"):
        "7b950bb5c2adf4fae6c560f19979c443aa403977bf2011d2ab5634dd3c09129c",
    ("endurance", "ctrl", "ea-minw-wmax10"):
        "a7b3b7eb3eb643c3d0ea4f057aa49d979ee31d6cfda0c2573315abcb972b85db",
    ("endurance", "cavlc", "topo-naive"):
        "30d295c0f8364c3de6a4d6ff45ba9f07a4a78ccce29694f68d3200673f955711",
    ("endurance", "cavlc", "dac16-minw"):
        "a8831de883f6e945d9f9b04e2786c65ccbc9056105796f572acd13bd72e73448",
    ("endurance", "cavlc", "ea-minw"):
        "e06f4cd22f2429283cad4bd53e1a0c760f4a884325faca7a21928ae7643b664a",
    ("endurance", "cavlc", "ea-minw-wmax3"):
        "4e0ca3da6c4759b3e28de6a44af8ab6646ccf5b4dad60269cc796a373971055c",
    ("endurance", "cavlc", "ea-minw-wmax10"):
        "bda63e030c84a913eaf9b9eb627f14a51884a383adeb537c871424b7c64cb220",
    ("endurance", "router", "topo-naive"):
        "4e2eadba5ae247e0135a3d0c9d188bff63b42375f4f1d6180c7c3d45ec7a07c2",
    ("endurance", "router", "dac16-minw"):
        "a4f52f1a9cf0d04f56db70ac48a85a585b5cca608e113b25021bf0c67ee6a7eb",
    ("endurance", "router", "ea-minw"):
        "2ae46526229559cc5f19cd7af9c0343a8b0c5990b229a438eef091b88c9dd416",
    ("endurance", "router", "ea-minw-wmax3"):
        "475d9b9f5c2df25c4a12642662f8ed3aa6520dba3b5b88f74bf7c4bf0b62ad99",
    ("endurance", "router", "ea-minw-wmax10"):
        "946bd63d45bb12b5ce1bc93845a6f9053367f1dcbb9a94b861c6c7282d9d11b5",
    ("blocked", "adder", "topo-naive"):
        "c1f50510b278509ad124f50d756c3c5cc855271eb77dcfc2128d8f00b736ffe1",
    ("blocked", "adder", "dac16-minw"):
        "ea72271a4e9d11d4e94d75c53068f49b55a55f1c8df45fe187d5f05bf9fc4701",
    ("blocked", "adder", "ea-minw"):
        "559af1a52023248b97e5e92b1b76acf16e2125e0aa5a2c0336cdef1f3f00ab73",
    ("blocked", "adder", "ea-minw-wmax3"):
        "d507c5c662531c81666dfc635aaa942fb2b2c3c2611c83f0a6dd1fb6b4327de1",
    ("blocked", "adder", "ea-minw-wmax10"):
        "a1666925e1848b31ff1a68eeee1a28ed6b0bad46599931d4eba58d3d8cabc230",
    ("blocked", "ctrl", "topo-naive"):
        "1ca1f1007a0b3a2a100283662e6114c658e52923a1b9d8a5f73a4352c505ac5c",
    ("blocked", "ctrl", "dac16-minw"):
        "5b79e6f6739b1bc7a7dcc909cf6ad72f9ef96b2a49148f13f2d2cdff19e820fd",
    ("blocked", "ctrl", "ea-minw"):
        "5192e07f85872d247b571058b63bc42e5f54cb7824f057060749fff20057947c",
    ("blocked", "ctrl", "ea-minw-wmax3"):
        "281eac4839e0eca7a8dc0e537b0947629e09b088c342b63c9bf69c535ebcd233",
    ("blocked", "ctrl", "ea-minw-wmax10"):
        "3d23c391dbb68f78c8d33434a24ee54f5a69a75a2f5c1c4242041421f4a2dbf9",
    ("blocked", "cavlc", "topo-naive"):
        "e05beafe70795708c55221b09bda1f20a4ae325cab269c33c10b400a08f4df87",
    ("blocked", "cavlc", "dac16-minw"):
        "87742172807a99c7c43bfed9fafef7791a71543cdd597de50aef51bb8b1feb02",
    ("blocked", "cavlc", "ea-minw"):
        "01a6c814205b7fdfdb620fdffbff60ad86d13db1a5dcad24284a730a7f7daef7",
    ("blocked", "cavlc", "ea-minw-wmax3"):
        "95fc4cdb1c87b552a0fa5d5448dbb2715a1676b340625b0ad2c07e7d9509944c",
    ("blocked", "cavlc", "ea-minw-wmax10"):
        "924e499e5cfc12d3c52054446b3d517379d67159656f4bdb11aae666b474171f",
    ("blocked", "router", "topo-naive"):
        "c2f1e383984d7e98e3a442b0d51deff9af9e9d772c98d001923c95df884f084a",
    ("blocked", "router", "dac16-minw"):
        "98c86d4c79483caf728b437ea2f3e6c5e10d09c14179bef0eafbfc812e4a8026",
    ("blocked", "router", "ea-minw"):
        "70d64fd8917b286215e932e24df7d61a5de5579535561e67625eecb1e46013dc",
    ("blocked", "router", "ea-minw-wmax3"):
        "c128139c1b366024403bef9e388f102f3f515dd66613afb72fe94de058edd370",
    ("blocked", "router", "ea-minw-wmax10"):
        "03d2b6db7723fbe56d46bb3ef2a1c20d7b593facf56a61f55d144dc35f850231",
}


def program_digest(program) -> str:
    import hashlib

    payload = repr((
        [tuple(instruction) for instruction in program.instructions],
        program.num_cells,
        list(program.pi_cells),
        list(program.po_cells),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenPrograms:
    """Compiled programs are pinned instruction for instruction."""

    @pytest.mark.parametrize("arch", ["endurance", "blocked"])
    @pytest.mark.parametrize("bench", ["adder", "ctrl", "cavlc", "router"])
    def test_programs_match_pinned_digests(self, arch, bench):
        from repro.synth.registry import build_benchmark

        mig = build_benchmark(bench, "tiny")
        for label, (selection, strategy, w_max) in GOLDEN_CONFIGS.items():
            program = compile_mig(
                mig,
                selection=make_selection(selection) if selection else None,
                allocation=strategy,
                w_max=w_max,
                arch=arch,
            )
            assert program_digest(program) == GOLDEN_DIGESTS[
                (arch, bench, label)
            ], f"{arch}/{bench}/{label}"
