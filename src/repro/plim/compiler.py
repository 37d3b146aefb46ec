"""MIG-to-RM3 compilation for the PLiM computer.

Reimplements the compiler of [Soeken et al., DAC'16] — node *selection*
(which computable MIG node to schedule next) and node *translation* (how to
realise one majority node with RM3 instructions) — with the endurance hooks
of the reproduced paper threaded through:

* the destination/allocation decisions consult an
  :class:`~repro.plim.allocator.RramAllocator` whose policy implements the
  minimum/maximum write count strategies;
* the selection order is pluggable (:mod:`repro.core.selection` provides
  the DAC'16 and the endurance-aware Algorithm 3 strategies).

Cost model (Section III of the paper)
-------------------------------------
A majority node ``<a b c>`` costs a single RM3 when one fanin can serve as
the second operand ``Q`` for free (a complemented edge or a constant — RM3
inverts ``Q`` intrinsically) and another fanin can be *overwritten* as the
destination ``Z`` (a non-complemented edge to a value with no remaining
readers, stored in a device that may still be written).  Every violation
costs **two extra instructions and one extra RRAM**:

* missing free ``Q``: invert a fanin into a helper device
  (write 1 + RM3);
* missing destination: copy a fanin into a requested device
  (write 0/1 + RM3); a constant fanin reduces this to a single
  initialisation write.

The translator picks the cheapest of the six role assignments of the
three fanins from a precomputed role table, so those rules emerge from
per-fanin bills rather than a case cascade.  The cost table — and the
device-allocation machinery behind the destination decisions — belong
to the *target machine*: the compiler consumes a
:class:`repro.arch.Architecture` (cost model, array geometry, endurance
semantics) and emits a program for that machine.  The default
architecture is the paper's unbounded wear-tracked crossbar, which
reproduces the historic behaviour exactly.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..mig.graph import Mig
from ..mig.rewrite import (
    FANIN_COMPL,
    FANIN_OVERWRITE,
    FANIN_PLAIN,
    Z_CONST,
    Z_DIRECT,
    rm3_role_table,
)
from ..mig.signal import is_complemented, node_of
from .isa import OP_CONST0, OP_CONST1, Program


# Role pricing: every fanin is classified once per gate (constant by
# value, complemented, overwritable, plain) and the class triple indexes
# the architecture's role table (:func:`repro.mig.rewrite.rm3_role_table`,
# built once per compilation).  A table entry holds the cheapest
# assignment's bill and the (qi, zi, pi) assignments tied at it; only a
# tie between overwritable destinations is left to break at run time, on
# the destination's write count under ``min_write``.  The choice is the
# minimum of ``(extra, extra_cells, z_kind, z_writes, qi, zi)`` over the
# six assignments, as if each were enumerated and priced.


class PlimCompiler:
    """Compiles MIGs into PLiM programs.

    Parameters
    ----------
    selection:
        A strategy object with ``key(state, node)`` and ``dynamic``
        attributes (see :mod:`repro.core.selection`); ``None`` selects
        plain topological order (the naive baseline).
    allocation:
        ``"naive"`` (LIFO free list) or ``"min_write"`` (the paper's
        minimum write count strategy).
    w_max:
        Optional maximum write count per device (the paper's maximum
        write count strategy); devices reaching it are retired.
    allow_pi_overwrite:
        Whether devices pre-loaded with primary inputs may be reused as
        destinations once their value is dead (the DAC'16 compiler's
        aggressive reuse; disable for ablations).
    fanout_aggregate:
        ``"max"`` (storage-duration reading) or ``"min"`` (first-use
        reading) for the fanout level index used by selection strategies.
    arch:
        The target machine model — a :class:`repro.arch.Architecture`,
        a registry name, or ``None`` for the ambient selection
        (``$REPRO_ARCH``, else the paper's ``endurance`` machine).  The
        architecture supplies the translation cost table and the device
        allocator matching its array geometry, and refuses allocation
        policies it cannot implement (e.g. ``min_write`` on the
        wear-counter-free ``dac16`` machine).
    """

    def __init__(
        self,
        selection=None,
        allocation: str = "naive",
        w_max: Optional[int] = None,
        allow_pi_overwrite: bool = True,
        fanout_aggregate: str = "max",
        arch=None,
    ) -> None:
        self.selection = selection
        self.allocation = allocation
        self.w_max = w_max
        self.allow_pi_overwrite = allow_pi_overwrite
        self.fanout_aggregate = fanout_aggregate
        self.arch = arch

    def compile(self, mig: Mig) -> Program:
        """Translate *mig* into a :class:`~repro.plim.isa.Program`."""
        from ..arch import resolve_architecture

        arch = resolve_architecture(self.arch)
        run = _Compilation(
            mig,
            selection=self.selection,
            allocator=arch.make_allocator(self.allocation, self.w_max),
            allow_pi_overwrite=self.allow_pi_overwrite,
            fanout_aggregate=self.fanout_aggregate,
            cost=arch.cost,
        )
        return run.run()


class _Compilation:
    """State of one compilation; also the ``state`` view for selection."""

    def __init__(
        self,
        mig: Mig,
        selection,
        allocator,
        allow_pi_overwrite: bool,
        fanout_aggregate: str,
        cost,
    ) -> None:
        self.mig = mig
        self.selection = selection
        self.alloc = allocator
        self.allow_pi_overwrite = allow_pi_overwrite
        self._roles = rm3_role_table(
            q_invert=cost.q_invert_instructions,
            z_const=cost.z_const_instructions,
            z_copy=cost.z_copy_instructions,
            p_invert=cost.p_invert_instructions,
            q_cells=cost.q_invert_cells,
            z_cells=cost.z_request_cells,
            p_cells=cost.p_invert_cells,
        )
        self._min_write = allocator.strategy == "min_write"
        self._writable = allocator.writable
        self._is_pi = mig.is_pi
        self._mig_fanins = mig._fanins

        view = mig.fanout_view()
        self.view = view
        self.refs: List[int] = list(view.ref_counts)
        self.fanout_level_index: List[int] = view.fanout_level_indices(
            fanout_aggregate
        )

        n = mig.num_nodes
        self.cell_of: List[Optional[int]] = [None] * n
        self.computed = [False] * n
        self.instructions: List[Tuple[int, int, int]] = []
        # Per-gate fanin node-id triples, for the hot selection keys.
        self._fanin_nodes: List[Optional[Tuple[int, int, int]]] = [None] * n
        for node, na, _, nb, _, nc, _ in mig.flat_gates():
            self._fanin_nodes[node] = (na, nb, nc)

    # -- selection support ----------------------------------------------

    def releasing_count(self, node: int) -> int:
        """Devices freed by computing *node*: children at their last use."""
        refs = self.refs
        fanins = self._fanin_nodes[node]
        if fanins is None:
            # Not a live gate: dead gates still answer (the flat records
            # only cover live ones); non-gates raise as they always did.
            fanins = tuple(s >> 1 for s in self.mig.fanins(node))
        count = 0
        for child in fanins:
            if child != 0 and refs[child] == 1:
                count += 1
        return count

    def _key(self, node: int) -> Tuple[int, ...]:
        if self.selection is None:
            return (node,)
        return self.selection.key(self, node)

    # -- emission helpers -------------------------------------------------

    def _emit(self, p: int, q: int, z: int) -> None:
        self.instructions.append((p, q, z))
        self.alloc.record_write(z)

    def _emit_const(self, z: int, value: int) -> None:
        """``Z <- value`` as a single RM3 (write-0 / write-1 idiom)."""
        if value:
            self._emit(OP_CONST1, OP_CONST0, z)
        else:
            self._emit(OP_CONST0, OP_CONST1, z)

    def _emit_materialize(
        self, src_cell: int, inverted: bool, extra_headroom: int = 0
    ) -> int:
        """Copy (or copy-invert) a stored value into a requested device.

        Returns the new device; costs exactly two instructions — the
        repair cost the paper charges per fanout/complement violation.
        ``extra_headroom`` reserves cap room for writes the caller will
        add afterwards (the final RM3 of a copy destination).
        """
        dst = self.alloc.request(headroom=2 + extra_headroom)
        if inverted:
            self._emit_const(dst, 1)
            self._emit(OP_CONST0, src_cell, dst)  # MAJ(0, ~x, 1) = ~x
        else:
            self._emit_const(dst, 0)
            self._emit(src_cell, OP_CONST0, dst)  # MAJ(x, 1, 0) = x
        return dst

    # -- main loop ----------------------------------------------------------

    def run(self) -> Program:
        mig = self.mig

        pi_cells = []
        for node in mig.pis():
            cell = self.alloc.new_cell()
            self.cell_of[node] = cell
            pi_cells.append(cell)

        pending = [0] * mig.num_nodes
        heap: List[Tuple[Tuple[int, ...], int]] = []
        gates = mig.live_gates()
        mig_fanins = self._mig_fanins
        for node in gates:
            pending[node] = sum(
                mig_fanins[child] is not None
                for child in self._fanin_nodes[node]
            )
            if pending[node] == 0:
                heapq.heappush(heap, (self._key(node), node))

        parents = self.view.fanouts  # immutable Tuple[Tuple[int, ...], ...]
        dynamic = self.selection is not None and self.selection.dynamic
        scheduled = 0
        while heap:
            key, node = heapq.heappop(heap)
            if self.computed[node]:
                continue
            if dynamic:
                fresh = self._key(node)
                if fresh != key:
                    heapq.heappush(heap, (fresh, node))
                    continue
            self._translate(node)
            self.computed[node] = True
            scheduled += 1
            for parent in parents[node]:
                pending[parent] -= 1
                if pending[parent] == 0:
                    heapq.heappush(heap, (self._key(parent), parent))
        if scheduled != len(gates):
            raise RuntimeError(
                f"scheduled {scheduled} of {len(gates)} gates — "
                "candidate bookkeeping is inconsistent"
            )

        po_cells = self._materialize_outputs()

        program = Program(
            instructions=self.instructions,
            num_cells=self.alloc.num_cells,
            pi_cells=pi_cells,
            po_cells=po_cells,
            name=mig.name,
        )
        program.validate()
        return program

    # -- node translation ---------------------------------------------------

    def _translate(self, node: int) -> None:
        cell_of = self.cell_of
        refs = self.refs
        fanins = self._mig_fanins[node]

        # Classify the three fanins and look their triple up.
        index = 0
        for s in fanins:
            n = s >> 1
            if n == 0:
                cls = s  # FANIN_CONST0 / FANIN_CONST1: the constant's value
            elif s & 1:
                cls = FANIN_COMPL
            elif (
                refs[n] == 1
                and cell_of[n] is not None
                and self._writable(cell_of[n])
                and (self.allow_pi_overwrite or not self._is_pi(n))
            ):
                cls = FANIN_OVERWRITE
            else:
                cls = FANIN_PLAIN
            index = 5 * index + cls
        _, _, z_kind, candidates = self._roles[index]
        qi, zi, pi = candidates[0]
        if self._min_write and z_kind == Z_DIRECT and len(candidates) > 1:
            writes = self.alloc.writes
            least = writes[cell_of[fanins[zi] >> 1]]
            for perm in candidates[1:]:
                w = writes[cell_of[fanins[perm[1]] >> 1]]
                if w < least:
                    least = w
                    qi, zi, pi = perm
        q, z, p = fanins[qi], fanins[zi], fanins[pi]

        temps: List[int] = []

        # Destination Z holds the contribution of its fanin.
        overwritten: Optional[int] = None
        if z_kind == Z_DIRECT:
            z_addr = cell_of[z >> 1]
            overwritten = z >> 1
        elif z_kind == Z_CONST:
            z_addr = self.alloc.request(headroom=2)  # init + final RM3
            self._emit_const(z_addr, z & 1)
        else:  # Z_COPY
            z_addr = self._emit_materialize(
                cell_of[z >> 1], inverted=bool(z & 1), extra_headroom=1
            )

        # Second operand Q: RM3 applies ~Q, so Q must hold the *inverse*
        # of the fanin's contribution.
        if q >> 1 == 0:
            q_op = OP_CONST0 if q & 1 else OP_CONST1
        elif q & 1:
            q_op = cell_of[q >> 1]  # stored value, contribution is ~v
        else:
            q_op = self._emit_invert(cell_of[q >> 1])
            temps.append(q_op)

        # First operand P holds the contribution directly.
        if p >> 1 == 0:
            p_op = OP_CONST1 if p & 1 else OP_CONST0
        elif not p & 1:
            p_op = cell_of[p >> 1]
        else:
            p_op = self._emit_invert(cell_of[p >> 1])
            temps.append(p_op)

        self._emit(p_op, q_op, z_addr)

        # Consume fanin references; free devices at their last use.
        for s in fanins:
            n = s >> 1
            if n == 0:
                continue
            refs[n] -= 1
            if refs[n] == 0:
                cell = cell_of[n]
                cell_of[n] = None
                if n != overwritten and cell is not None:
                    self._release(n, cell)
        for temp in temps:
            self.alloc.release(temp)

        cell_of[node] = z_addr

    def _emit_invert(self, src_cell: int) -> int:
        """Invert a stored value into a helper device (+2 instructions)."""
        temp = self.alloc.request(headroom=2)
        self._emit_const(temp, 1)
        self._emit(OP_CONST0, src_cell, temp)
        return temp

    def _release(self, node: int, cell: int) -> None:
        """Return a dead value's device to the pool.

        With input protection on (``allow_pi_overwrite=False``) devices
        pre-loaded with primary inputs never re-enter the pool: the flag
        guarantees input data survives the whole program, not merely the
        node's own computation.
        """
        if not self.allow_pi_overwrite and self.mig.is_pi(node):
            return
        self.alloc.release(cell)

    # -- outputs ------------------------------------------------------------

    def _materialize_outputs(self) -> List[int]:
        """Pin every primary output to a device holding its plain value.

        Complemented outputs need an explicit inversion (the same +2 cost
        as any other complement violation); constant outputs need a single
        initialisation write.  Cells are shared between outputs wanting
        the same signal.
        """
        const_cells: dict = {}
        inverted_cells: dict = {}
        po_cells: List[int] = []
        for s in self.mig.pos():
            node = node_of(s)
            if node == 0:
                value = 1 if is_complemented(s) else 0
                if value not in const_cells:
                    cell = self.alloc.request(headroom=1)
                    self._emit_const(cell, value)
                    const_cells[value] = cell
                po_cells.append(const_cells[value])
            elif not is_complemented(s):
                cell = self.cell_of[node]
                assert cell is not None, f"output node {node} has no device"
                po_cells.append(cell)
            else:
                if s not in inverted_cells:
                    src = self.cell_of[node]
                    assert src is not None, f"output node {node} has no device"
                    inverted_cells[s] = self._emit_materialize(
                        src, inverted=True
                    )
                po_cells.append(inverted_cells[s])
                self.refs[node] -= 1
                if self.refs[node] == 0:
                    cell = self.cell_of[node]
                    self.cell_of[node] = None
                    if cell is not None:
                        self._release(node, cell)
        return po_cells
