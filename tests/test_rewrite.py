"""Tests for the rewrite engine and the two rewriting scripts."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.opt import (
    ALGORITHM1_STEPS,
    ALGORITHM2_STEPS,
    rewrite,
    rewrite_dac16,
    rewrite_endurance_aware,
)
from repro.mig.rewrite import apply_script, rebuild
from repro.mig.simulate import equivalent
from repro.synth.arithmetic import build_adder
from repro.synth.control import build_dec
from .conftest import make_random_mig


class TestEngine:
    def test_rebuild_identity(self, small_random_mig):
        out = rebuild(small_random_mig)
        assert equivalent(small_random_mig, out)
        assert out.num_pis == small_random_mig.num_pis
        assert out.num_pos == small_random_mig.num_pos

    def test_rebuild_preserves_names(self, tiny_adder):
        out = rebuild(tiny_adder)
        assert out.pi_name(0) == tiny_adder.pi_name(0)
        assert out.po_name(0) == tiny_adder.po_name(0)

    def test_rebuild_drops_dead_nodes(self):
        mig = make_random_mig(5, 30, seed=2)
        # every live gate of the rebuild is reachable
        out = rebuild(mig)
        assert out.num_live_gates() == out.num_gates

    def test_apply_script_unknown_pass(self, small_random_mig):
        with pytest.raises(KeyError):
            apply_script(small_random_mig, ["M", "nope"])

    def test_apply_script_cycles(self, small_random_mig):
        one = apply_script(small_random_mig, ["M", "I_rl_1_3"], cycles=1)
        three = apply_script(small_random_mig, ["M", "I_rl_1_3"], cycles=3)
        assert equivalent(one, three)


class TestScripts:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_algorithm1_preserves_function(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        assert equivalent(mig, rewrite_dac16(mig, effort=2))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_algorithm2_preserves_function(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        assert equivalent(mig, rewrite_endurance_aware(mig, effort=2))

    def test_scripts_differ_as_specified(self):
        # Algorithm 2 drops Psi.C and interleaves inverter propagation.
        assert "Psi_C" in ALGORITHM1_STEPS
        assert "Psi_C" not in ALGORITHM2_STEPS
        assert ALGORITHM2_STEPS.count("I_rl_1_3") == 2
        assert ALGORITHM2_STEPS[-1] == "I_rl"

    def test_rewrite_none_is_cleanup(self, small_random_mig):
        out = rewrite(small_random_mig, "none")
        assert equivalent(small_random_mig, out)
        assert out.num_gates == out.num_live_gates()

    def test_rewrite_unknown_script(self, small_random_mig):
        with pytest.raises(ValueError):
            rewrite(small_random_mig, "bogus")

    def test_rewriting_reduces_elaborated_adder(self):
        mig = build_adder(width=8, elaborated=True)
        before = mig.num_live_gates()
        after1 = rewrite_dac16(mig).num_live_gates()
        after2 = rewrite_endurance_aware(mig).num_live_gates()
        assert after1 < before
        assert after2 < before

    def test_rewriting_equivalence_on_benchmarks(self):
        for mig in (build_adder(width=4), build_dec(sel_bits=3)):
            assert equivalent(mig, rewrite_dac16(mig, effort=2))
            assert equivalent(mig, rewrite_endurance_aware(mig, effort=2))

    def test_algorithm2_reduces_complement_violations(self):
        """Algorithm 2 must leave no gate with 2+ variable complements
        (its final passes normalise them)."""
        mig = make_random_mig(6, 60, seed=123)
        out = rewrite_endurance_aware(mig, effort=1)
        hist = out.complement_histogram()
        # buckets 2 and 3 may only contain nodes whose complements are
        # constants; recount with the variable-only rule:
        for node in out.live_gates():
            count = sum(1 for s in out.fanins(node) if s > 1 and s & 1)
            assert count <= 1

    def test_effort_zero_is_identity_cleanup(self, small_random_mig):
        out = rewrite_dac16(small_random_mig, effort=0)
        assert equivalent(small_random_mig, out)


class TestRebuildContext:
    def test_translated_raises_for_untranslated_node(self):
        from repro.mig.rewrite import rebuild

        seen = {}

        def transform(new, ctx, node, children):
            if "probe" not in seen:
                seen["probe"] = True
                # the node currently being rebuilt has no translation yet
                with pytest.raises(KeyError):
                    ctx.translated(node << 1)
            return new.add_maj(*children)

        mig = make_random_mig(4, 10, seed=2)
        out = rebuild(mig, transform)
        assert seen["probe"]
        from repro.mig.simulate import equivalent

        assert equivalent(mig, out)


#: Fanin classes of the static RM3 pricing, realised as
#: ``(node, complement bit, fanout count, is a gate)``.
_CLASS_FANINS = {
    "const0": (0, 0, 0, False),
    "const1": (0, 1, 0, False),
    "complemented": (None, 1, 1, True),
    "overwritable": (None, 0, 1, True),
    "plain-shared": (None, 0, 2, True),
}


def _brute_force_gate_cost(classes, cost):
    """One RM3 plus the cheapest repair bill over all six (Q, Z, P)
    role assignments, priced role by role."""
    best = None
    for qi, zi, pi in itertools.permutations(range(3)):
        q, z, p = classes[qi], classes[zi], classes[pi]
        extra = 0
        if q in ("overwritable", "plain-shared"):
            extra += cost.q_invert_instructions  # no intrinsic inversion
        if z in ("const0", "const1"):
            extra += cost.z_const_instructions
        elif z != "overwritable":
            extra += cost.z_copy_instructions
        if p == "complemented":
            extra += cost.p_invert_instructions
        best = extra if best is None else min(best, extra)
    return 1 + best


class TestRm3GateCost:
    """The static estimator prices exactly like the compiler's roles."""

    @staticmethod
    def _cost_models():
        from repro.arch import (
            CostModel,
            available_architectures,
            get_architecture,
        )

        models = [get_architecture(n).cost for n in available_architectures()]
        models.append(CostModel(
            q_invert_instructions=3,
            z_const_instructions=2,
            z_copy_instructions=5,
            p_invert_instructions=4,
        ))
        return models

    def test_matches_brute_force_for_every_class_triple(self):
        from repro.mig.rewrite import rm3_gate_cost

        for cost in self._cost_models():
            for classes in itertools.combinations_with_replacement(
                _CLASS_FANINS, 3
            ):
                for order in set(itertools.permutations(classes)):
                    refs = [0, 0, 0, 0]
                    fanin_bits = []
                    for slot, cls in enumerate(order, start=1):
                        node, bit, fanout, _ = _CLASS_FANINS[cls]
                        if node is None:
                            node = slot
                            refs[node] = fanout
                        fanin_bits.append((node, bit))
                    got = rm3_gate_cost(
                        fanin_bits,
                        refs,
                        lambda n: n != 0,
                        q_invert=cost.q_invert_instructions,
                        p_invert=cost.p_invert_instructions,
                        z_copy=cost.z_copy_instructions,
                        z_const=cost.z_const_instructions,
                    )
                    assert got == _brute_force_gate_cost(order, cost), (
                        order, cost
                    )

    def test_complemented_fanins_are_billed_once(self):
        from repro.arch import get_architecture
        from repro.mig.graph import Mig
        from repro.mig.signal import CONST0, complement
        from repro.opt import estimated_write_cost

        endurance = get_architecture("endurance")
        mig = Mig("nnn")
        a, b, c = (mig.add_pi(n) for n in "abc")
        mig.add_po(mig.add_maj(complement(a), complement(b), complement(c)))
        # free Q, one copy-invert Z, one inverted P
        assert estimated_write_cost(mig, endurance) == 5
        mig = Mig("nn0")
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_maj(complement(a), complement(b), CONST0))
        # free Q, copy-invert Z, constant P
        assert estimated_write_cost(mig, endurance) == 3
