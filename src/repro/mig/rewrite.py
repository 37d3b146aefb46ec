"""Rebuild-style rewriting engine for MIGs.

Every rewriting *pass* reconstructs the live part of a graph into a fresh,
structurally hashed MIG, applying one local axiom at each node while the
translation map is built bottom-up.  The approach (popular in modern logic
synthesis libraries) trades a copy per pass for trivially maintained
invariants: the input graph is never mutated, dead nodes vanish
automatically, and node-creation identities (``Omega.M``) apply everywhere
for free.

The rewriting *scripts* of the reproduced paper (Algorithm 1, the PLiM
compiler script of [Soeken et al., DAC'16], and Algorithm 2, the
endurance-aware script) are sequences of these passes; they live in
:mod:`repro.opt.scripts`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from . import algebra
from .graph import Mig
from .signal import complement


class RebuildContext:
    """Read-only facts about the source graph available to a transform.

    ``xlat`` maps old node ids to new-graph signals; it is a flat list
    indexed by node id (``-1`` for not-yet-translated nodes) so the
    per-edge translation in the rebuild inner loop is a plain index.

    ``refs`` and ``levels`` are *lazy*: most passes (``Omega.M``,
    ``Omega.A``, the inverter propagations, polarity) never consult
    them, and a rebuild is cheap enough that an unconditional fanout /
    level traversal of the source graph would dominate its cost — the
    optimiser's search strategies apply thousands of candidate passes
    per run, so only the passes that actually price fanouts
    (``Omega.D``, ``Psi.C``) pay for them.
    """

    __slots__ = ("old", "xlat", "_refs")

    def __init__(self, old: Mig) -> None:
        self.old = old
        self.xlat: List[int] = []
        self._refs: Optional[List[int]] = None

    @property
    def refs(self) -> List[int]:
        """Fanout counts of the source graph (the graph's shared
        memoized list — do not mutate)."""
        if self._refs is None:
            self._refs = self.old._fanout_counts()
        return self._refs

    @property
    def levels(self) -> List[int]:
        """Per-node levels of the source graph."""
        return self.old.levels()

    def translated(self, old_signal: int) -> int:
        """New-graph signal corresponding to *old_signal*.

        Raises :class:`KeyError` for nodes with no translation yet (dead,
        not yet visited, or out of range), like the dict-backed map it
        replaced.
        """
        node = old_signal >> 1
        if not 0 <= node < len(self.xlat) or self.xlat[node] < 0:
            raise KeyError(f"node {node} has not been translated")
        return self.xlat[node] ^ (old_signal & 1)


#: A transform maps (new_mig, ctx, old_node, translated_children) -> signal.
Transform = Callable[[Mig, RebuildContext, int, Sequence[int]], int]


def rebuild(mig: Mig, transform: Optional[Transform] = None) -> Mig:
    """Reconstruct the live part of *mig*, applying *transform* per gate.

    With ``transform=None`` this is a cleanup + ``Omega.M`` +
    structural-hashing pass (the paper's plain ``Omega.M`` step).
    """
    new = Mig(mig.name)
    ctx = RebuildContext(mig)
    xlat = ctx.xlat
    xlat.extend([-1] * mig.num_nodes)
    xlat[0] = 0
    for idx, node in enumerate(mig.pis()):
        xlat[node] = new.add_pi(mig.pi_name(idx))
    add_maj = new.add_maj
    # flat_gates carries complement attributes as XOR masks (0 / -1);
    # `& 1` recovers the signal-level complement bit.
    if transform is None:
        for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
            xlat[node] = add_maj(
                xlat[na] ^ (xa & 1), xlat[nb] ^ (xb & 1), xlat[nc] ^ (xc & 1)
            )
    else:
        for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
            xlat[node] = transform(
                new,
                ctx,
                node,
                (
                    xlat[na] ^ (xa & 1),
                    xlat[nb] ^ (xb & 1),
                    xlat[nc] ^ (xc & 1),
                ),
            )
    for idx, s in enumerate(mig.pos()):
        new.add_po(xlat[s >> 1] ^ (s & 1), mig.po_name(idx))
    return new


# ----------------------------------------------------------------------
# Concrete passes
# ----------------------------------------------------------------------

def majority_pass(mig: Mig) -> Mig:
    """``Omega.M``: node-creation identities plus structural hashing."""
    return rebuild(mig)


def distributivity_rl_pass(mig: Mig) -> Mig:
    """``Omega.D(R->L)``: factor shared operand pairs out of fanin nodes."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children) -> int:
        # children[i] is exactly the translation of the i-th old fanin,
        # so the residual-fanout map needs no further signal decoding.
        refs = ctx.refs
        old_children = ctx.old._fanins[node]
        residual = {
            children[0]: refs[old_children[0] >> 1],
            children[1]: refs[old_children[1] >> 1],
            children[2]: refs[old_children[2] >> 1],
        }

        def fanout_of(sig: int) -> int:
            return residual.get(sig, 2)

        result = algebra.try_distributivity_rl(
            new, children[0], children[1], children[2], fanout_of=fanout_of
        )
        if result is not None:
            return result
        return new.add_maj(*children)

    return rebuild(mig, transform)


def associativity_pass(mig: Mig) -> Mig:
    """``Omega.A``: swap through shared operands when sharing is exposed."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children) -> int:
        result = algebra.try_associativity(new, *children)
        if result is not None:
            return result
        return new.add_maj(*children)

    return rebuild(mig, transform)


def complementary_associativity_pass(mig: Mig) -> Mig:
    """``Psi.C``: replace an inner complement of an outer operand."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children) -> int:
        refs = ctx.refs
        old_children = ctx.old._fanins[node]
        residual = {
            children[0]: refs[old_children[0] >> 1],
            children[1]: refs[old_children[1] >> 1],
            children[2]: refs[old_children[2] >> 1],
        }
        result = algebra.try_complementary_associativity(
            new, *children, fanout_of=lambda sig: residual.get(sig, 2)
        )
        if result is not None:
            return result
        return new.add_maj(*children)

    return rebuild(mig, transform)


def inverter_propagation_pass(mig: Mig, *, handle_two: bool) -> Mig:
    """``Omega.I(R->L)``: normalise nodes with 2 (optional) or 3
    complemented fanins toward the RM3-ideal single-complement form."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children) -> int:
        result = algebra.propagate_inverters(
            new, *children, handle_two=handle_two
        )
        if result is not None:
            return result
        return new.add_maj(*children)

    return rebuild(mig, transform)


def inverter_pairs_pass(mig: Mig) -> Mig:
    """``Omega.I(R->L)(1-3)``: full normalisation (2- and 3-complement)."""
    return inverter_propagation_pass(mig, handle_two=True)


def inverter_triples_pass(mig: Mig) -> Mig:
    """``Omega.I(R->L)`` rule 1 only: remove triple-complemented nodes."""
    return inverter_propagation_pass(mig, handle_two=False)


def rm3_gate_cost(
    fanin_bits,
    refs,
    is_gate,
    *,
    q_invert: int = 2,
    p_invert: int = 2,
    z_copy: int = 2,
    z_const: int = 1,
) -> int:
    """Estimated RM3 instructions to realise one majority gate.

    A static replay of the compiler's role pricing
    (:meth:`repro.plim.compiler.PlimCompiler._translate`): one RM3 plus
    repair bills.  *fanin_bits* is a sequence of ``(node, complement)``
    pairs; *refs* the graph's fanout counts; *is_gate* the gate
    predicate.  Constant fanins follow the machine semantics exactly —
    a constant edge of either polarity is never a complement violation,
    serves as the intrinsically inverted ``Q`` for free, and can
    constant-initialise the destination at *z_const* (cheaper than a
    *z_copy*).  The default weights mirror the default RM3 cost table;
    :func:`repro.opt.estimated_write_cost` re-prices through a target
    architecture's :class:`~repro.arch.CostModel`.

    This is the single pricing implementation shared by the
    write-cost objective and :func:`polarity_pass` — keep it that way,
    or the search layers drift apart.
    """
    complements = 0
    constants = 0
    bill = 1
    for node, bit in fanin_bits:
        if node == 0:
            constants += 1
        elif bit:
            complements += 1
    if complements == 0:
        if constants:
            constants -= 1  # one constant serves as the free Q
        else:
            bill += q_invert
    else:
        bill += (complements - 1) * p_invert
    for node, bit in fanin_bits:
        if node and not bit and refs[node] == 1 and is_gate(node):
            break
    else:
        bill += z_const if constants else z_copy
    return bill


def polarity_pass(
    mig: Mig,
    *,
    q_invert: int = 2,
    p_invert: int = 2,
    z_copy: int = 2,
    z_const: int = 1,
    sweeps: int = 4,
) -> Mig:
    """Polarity local search: re-choose each gate's stored phase.

    ``MAJ(~a, ~b, ~c) = ~MAJ(a, b, c)`` (the self-duality underlying
    ``Omega.I``) means every gate may be *stored* in either phase — with
    all fanin complements flipped and every reference complemented —
    without changing any output.  Which phase is cheaper on a PLiM
    machine is priced by :func:`rm3_gate_cost` (the shared static
    replay of the compiler's role assignment — see its docstring for
    the violation semantics, including the constant-fanin rules).

    The search sweeps nodes in topological order, flipping a gate's
    stored phase whenever the *exact* cost delta over the gate and its
    consumers is strictly negative, until a sweep makes no flip (or
    *sweeps* sweeps ran).  Flips change only edge attributes — the
    graph structure, fanout counts, and every output function are
    untouched, so the pass composes freely with the structural axioms.
    The default costs mirror the default RM3 cost table; the optimiser
    layer's objectives re-price candidate results under the actual
    target architecture either way.
    """
    gates = mig.flat_gates()
    refs = mig.fanout_counts()
    is_gate = mig.is_gate
    # Mutable per-gate fanin attributes: [child, complement-bit] triples,
    # plus the reverse map (consumer gate, slot) per child.
    fanin_bits: Dict[int, List[List[int]]] = {}
    consumers: Dict[int, List[tuple]] = {}
    for node, na, xa, nb, xb, nc, xc in gates:
        fanin_bits[node] = [[na, xa & 1], [nb, xb & 1], [nc, xc & 1]]
        for slot, child in enumerate((na, nb, nc)):
            consumers.setdefault(child, []).append((node, slot))

    def gate_cost(node: int) -> int:
        return rm3_gate_cost(
            fanin_bits[node], refs, is_gate,
            q_invert=q_invert, p_invert=p_invert,
            z_copy=z_copy, z_const=z_const,
        )

    def toggle(node: int) -> None:
        for entry in fanin_bits[node]:
            entry[1] ^= 1
        for consumer, slot in consumers.get(node, ()):
            fanin_bits[consumer][slot][1] ^= 1

    flipped: Dict[int, int] = {}
    order = [record[0] for record in gates]
    for _ in range(max(1, sweeps)):
        changed = False
        for node in order:
            affected = {node}
            affected.update(c for c, _ in consumers.get(node, ()))
            before = sum(gate_cost(g) for g in affected)
            toggle(node)
            if sum(gate_cost(g) for g in affected) < before:
                flipped[node] = flipped.get(node, 0) ^ 1
                changed = True
            else:
                toggle(node)
        if not changed:
            break
    if not any(flipped.values()):
        return rebuild(mig)

    def transform(new: Mig, ctx: RebuildContext, node: int, children) -> int:
        if flipped.get(node):
            return complement(
                new.add_maj(*(complement(s) for s in children))
            )
        return new.add_maj(*children)

    return rebuild(mig, transform)


#: Registry used by scripts, the CLI, and the ablation benchmarks.
#: ``P`` (polarity re-phasing) is not part of the paper's scripts; the
#: cost-guided strategies of :mod:`repro.opt` use it as an extra
#: candidate.
PASSES: Dict[str, Callable[[Mig], Mig]] = {
    "M": majority_pass,
    "D_rl": distributivity_rl_pass,
    "A": associativity_pass,
    "Psi_C": complementary_associativity_pass,
    "I_rl_1_3": inverter_pairs_pass,
    "I_rl": inverter_triples_pass,
    "P": polarity_pass,
}


def _same_structure(a: Mig, b: Mig) -> bool:
    """Structural identity of two rebuild results (same ids, edges, POs)."""
    return (
        a._fanins == b._fanins
        and a._pis == b._pis
        and a._pos == b._pos
    )


def apply_script(mig: Mig, steps: Sequence[str], cycles: int = 1) -> Mig:
    """Run the named passes *cycles* times in order and clean up.

    *steps* is a sequence of keys into :data:`PASSES`; unknown names raise
    ``KeyError`` immediately (before any work is done).  Scripts converge
    quickly in practice, so cycling stops early once a full cycle leaves
    the graph structurally unchanged (every later cycle of the same
    deterministic passes would reproduce it bit for bit).
    """
    for name in steps:
        if name not in PASSES:
            raise KeyError(f"unknown rewriting pass {name!r}")
    result = mig
    for _ in range(cycles):
        before = result
        for name in steps:
            result = PASSES[name](result)
        if _same_structure(before, result):
            break
    return result.cleanup()
