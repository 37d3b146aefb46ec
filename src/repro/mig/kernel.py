"""Pluggable bit-parallel simulation kernels.

The harness evaluates every MIG function two ways — bit-parallel
simulation of the graph and execution of its compiled PLiM program — and
the graph side is a pure streaming computation over the memoized flat
gate records (:meth:`repro.mig.graph.Mig.flat_gates`).  This module
abstracts that computation behind a *kernel* so the engine is
interchangeable:

* :class:`BigintKernel` — the reference engine.  Simulation words are
  plain Python integers; every gate costs a handful of bigint boolean
  operations.  Always available, no dependencies.
* :class:`NumpyKernel` — the level-batched ``uint64`` lane-array
  engine.  Patterns are packed 64 per lane; gates are grouped by MIG
  level (fanins always sit at strictly lower levels, so a whole level
  is data-independent) and each level executes as a handful of large
  2-D ufunc calls over ``(gates_in_level, lanes)`` matrices via
  precomputed gather indices.  Exhaustive sweeps additionally fan
  pattern chunks out over a small worker-thread pool (numpy ufuncs
  release the GIL), sized by ``$REPRO_SIM_THREADS`` /
  :func:`resolve_sim_threads`.

Both kernels consume the same flat gate records — complement attributes
pre-folded into XOR masks, so neither pays per-pattern complement
branches — and both speak Python-int words at the boundary: the numpy
kernel's outputs are bit-identical to the reference engine's, which the
backend-parity tests assert over random graphs and the full registry.

Selection
---------
:func:`get_kernel` resolves the active kernel: the innermost
:func:`backend_scope` (entered by :meth:`repro.flow.Session.activated`)
wins, then the ``REPRO_SIM_BACKEND`` environment variable (``bigint``,
``numpy``, or ``auto``, read through :mod:`repro.settings`), then
auto-detection (numpy when importable, bigint otherwise).  Requesting
the numpy kernel without numpy installed fails loudly rather than
silently degrading.

Degradation
-----------
Selection failures are loud, and so are engine defects: only
*classified* runtime faults — an injected chaos fault
(:class:`~repro.resilience.errors.FaultInjected`) or ``MemoryError`` —
demote a numpy dispatch to the bigint kernel.  Both kernels are
bit-identical, so the demoted call recomputes the same words; a
``kernel_degraded`` event is recorded (:mod:`repro.resilience.events`,
surfaced in run manifests), and inside a :func:`degradation_scope` the
demotion is *sticky* for the rest of the job, so a faulting engine is
not re-tried gate-by-gate.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from ..resilience import events as _res_events
from ..resilience import faults as _res_faults
from ..resilience.errors import FaultInjected
from ..settings import SETTINGS
from .graph import Mig

try:  # numpy is optional: the bigint kernel needs nothing beyond CPython
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the without-numpy CI job
    _np = None


# ----------------------------------------------------------------------
# Thread-count resolution (explicit > scope > env > default)
# ----------------------------------------------------------------------

_THREADS = SETTINGS["sim_threads"]

#: Default simulation thread count: enough to scale the exhaustive
#: paths on a multi-core runner without oversubscribing boxes that also
#: fan out process pools.
DEFAULT_SIM_THREADS = int(_THREADS.default)

#: Per-thread stack of :func:`sim_threads_scope` entries, mirroring
#: :func:`backend_scope`.
_THREADS_SCOPE = threading.local()


def resolve_sim_threads(value=None) -> int:
    """Resolve the simulation worker-thread count.

    An explicit *value* wins (validated, so callers like
    :class:`repro.flow.Session` fail fast on garbage), then the active
    :func:`sim_threads_scope`, then the settings table
    (``$REPRO_SIM_THREADS``, else :data:`DEFAULT_SIM_THREADS`).
    """
    if value is None:
        stack = getattr(_THREADS_SCOPE, "stack", None)
        if stack:
            return stack[-1]
    return _THREADS.value(value)


@contextmanager
def sim_threads_scope(count: Optional[int]):
    """Temporarily pin the simulation thread count on this thread.

    ``None`` is a no-op scope (ambient resolution applies).  Yields the
    count active inside the scope.  :meth:`repro.flow.Session.activated`
    enters this alongside :func:`backend_scope`.
    """
    if count is None:
        yield resolve_sim_threads()
        return
    count = _THREADS.value(count)
    stack = getattr(_THREADS_SCOPE, "stack", None)
    if stack is None:
        stack = _THREADS_SCOPE.stack = []
    stack.append(count)
    try:
        yield count
    finally:
        stack.pop()


#: Worker-thread pools by size, created lazily and kept for the life of
#: the process so pool threads' per-thread executable caches survive
#: across sweeps.  Never shut down (idle threads are cheap; tearing one
#: down under a concurrent dispatcher would turn its submits into
#: spurious kernel failures).
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _reset_pools_after_fork() -> None:  # pragma: no cover - fork timing
    # A forked child inherits the executor objects but not their
    # threads; submitting to one would hang forever.  Start fresh.
    _POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


def _thread_pool(size: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(size)
    if pool is None:
        with _POOLS_LOCK:
            pool = _POOLS.get(size)
            if pool is None:
                pool = _POOLS[size] = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="repro-sim"
                )
    return pool


def _run_tasks(tasks, threads: int) -> list:
    """Run thunks across the worker pool; results in task order.

    Serial when a single task (or thread) makes threading pointless.
    Exceptions propagate to the caller — the dispatching kernel's
    degradation guard classifies them like any other engine failure.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    pool = _thread_pool(min(threads, len(tasks)))
    futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def _bigint_simulate(mig: Mig, pi_values: Sequence[int], mask: int) -> List[int]:
    """Reference engine: one Python-int word per node.

    The complement XOR masks from the flat gate records are ``0`` or
    ``-1``; ``xor & mask`` widens them to the pattern window, so the
    inner loop is branch-free.
    """
    values = [0] * mig.num_nodes
    for node, word in zip(mig.pis(), pi_values):
        values[node] = word & mask
    for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
        a = values[na] ^ (xa & mask)
        b = values[nb] ^ (xb & mask)
        c = values[nc] ^ (xc & mask)
        # <a b c> = (a & b) | ((a | b) & c): 4 ops instead of the
        # textbook 5-op (a&b)|(a&c)|(b&c).
        values[node] = (a & b) | ((a | b) & c)
    outputs = []
    for s in mig.pos():
        word = values[s >> 1]
        if s & 1:
            word ^= mask
        outputs.append(word & mask)
    return outputs


class BigintKernel:
    """Pure-Python engine over arbitrary-precision integer words."""

    name = "bigint"
    #: Preferred word width (patterns per round) for randomized checks.
    random_width = 64

    def chunk_bits_for(self, mig: Mig) -> int:
        """log2 of the widest exhaustive simulation word (graph-independent).

        2^13-bit words keep every node value L1/L2-resident, where
        CPython's bigint boolean loops run near memory speed; wider words
        were measured slower in PR 1's chunking experiments.
        """
        return 13

    def simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int
    ) -> List[int]:
        return _bigint_simulate(mig, pi_values, mask)


# ----------------------------------------------------------------------
# Graceful degradation (numpy -> bigint) on classified faults
# ----------------------------------------------------------------------

#: Per-thread stack of degradation frames; a frame marks a job boundary
#: within which a numpy-engine fault demotes every later dispatch.
_DEGRADE = threading.local()

#: Engine failures that demote a dispatch to the reference kernel: an
#: injected chaos fault or resource exhaustion.  Anything else is a
#: defect in the engine and propagates.
_DEMOTABLE = (FaultInjected, MemoryError)


@contextmanager
def degradation_scope(job: Optional[str] = None):
    """Mark a job boundary for sticky numpy-kernel demotion.

    Inside the scope, the first classified fault of the numpy engine
    (see :data:`_DEMOTABLE`) demotes *this thread's* remaining
    dispatches to the bigint kernel (recorded as a ``kernel_degraded``
    event tagged with *job*); the demotion ends with the scope, so the
    next job tries the numpy engine again.  Outside any scope faults
    still fall back, but per call.  The job runner enters
    one scope per (benchmark, configurations) job — in worker processes
    and the serial path alike.  Yields the frame dict (``{"job": ...,
    "demoted": set-of-engine-names}``) so tests can observe demotion.
    """
    stack = getattr(_DEGRADE, "stack", None)
    if stack is None:
        stack = _DEGRADE.stack = []
    frame = {"job": job, "demoted": set()}
    stack.append(frame)
    try:
        yield frame
    finally:
        stack.pop()


def _degrade_frame() -> Optional[dict]:
    stack = getattr(_DEGRADE, "stack", None)
    return stack[-1] if stack else None


def _degrade_job() -> Optional[str]:
    frame = _degrade_frame()
    return frame["job"] if frame else None


def _demoted(backend: str) -> bool:
    frame = _degrade_frame()
    return bool(frame) and backend in frame["demoted"]


def _demote(error: BaseException, backend: str, fallback: str) -> None:
    """Record an engine fault and make the demotion scope-sticky."""
    frame = _degrade_frame()
    if frame is not None:
        frame["demoted"].add(backend)
    _res_events.record(
        "kernel_degraded",
        job=frame["job"] if frame else None,
        backend=backend,
        fallback=fallback,
        error=repr(error),
    )


# ----------------------------------------------------------------------
# numpy engine: plan compilation + executables
# ----------------------------------------------------------------------

#: Pattern windows at or below one uint64 lane stay on the bigint
#: engine: a 64-bit Python int operation beats numpy dispatch overhead.
_NUMPY_MIN_WIDTH = 65

#: Soft cap on the node-value matrix (bytes); exhaustive chunks shrink
#: until ``num_nodes * lanes * 8`` fits.
_NUMPY_MEM_BUDGET = 64 << 20

#: Executables kept per thread per plan (distinct widths); interleaved
#: widths — e.g. serve jobs at different presets on one warm graph —
#: rebind instead of thrashing a single-slot cache.
_EXEC_LRU_SIZE = 4

#: Minimum patterns per threaded sub-window; below this, thread spawn
#: and buffer fill dominate the ufunc work.
_MIN_SUBWINDOW = 1 << 12

#: Minimum uint64 lanes per thread when splitting a generic simulate
#: call (arbitrary input words) across the pool.
_MIN_THREAD_LANES = 32


def _compile_gate_program(mig: Mig):
    """Polarity-propagated, operand-rotated gate program + PO map.

    Gates are compiled to the 4-op majority form

        maj(a, b, c) = b ^ ((a ^ b) & (b ^ c))

    with two algebraic rewrites applied per gate to minimise complement
    work:

    * *polarity propagation* — each node's value is stored in a chosen
      polarity (possibly inverted); since majority is self-dual
      (``maj(~a,~b,~c) = ~maj(a,b,c)``), the stored polarity is picked so
      the trailing output inversion is always free, and fanin edge
      complements are re-derived against the fanins' stored polarities;
    * *operand rotation* — majority is symmetric, so the middle operand
      ``b`` is chosen to minimise the two pair-complement terms.  Of any
      three polarities at least two agree, so rotation always leaves **at
      most one** of the two pair complements set — an invariant the
      level-batched executor relies on to keep tail-lane bits clean.

    Returns ``(program, po_extract)`` where *program* is a list of
    ``(node, a, b, c, flip_ab, flip_bc)`` tuples in flat-gate (topological)
    order and *po_extract* is ``(node, flip)`` per PO with the stored
    polarity folded in.
    """
    program: List[Tuple[int, int, int, int, bool, bool]] = []
    pol = [False] * mig.num_nodes
    for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
        operands = (
            (na, bool(xa) ^ pol[na]),
            (nb, bool(xb) ^ pol[nb]),
            (nc, bool(xc) ^ pol[nc]),
        )
        best = None
        for mid in range(3):
            (a, pa), (b, pb), (c, pc) = (
                operands[mid - 2],
                operands[mid],
                operands[mid - 1],
            )
            cost = (pa ^ pb) + (pb ^ pc)
            if best is None or cost < best[0]:
                best = (cost, a, b, c, pa ^ pb, pb ^ pc, pb)
        _, a, b, c, fab, fbc, pb = best
        # Store maj of the triple with all polarities flipped by pb:
        # self-duality makes the stored value maj ^ pb, for free.
        pol[node] = pb
        program.append((node, a, b, c, fab, fbc))
    po_extract = [(s >> 1, bool(s & 1) ^ pol[s >> 1]) for s in mig.pos()]
    return program, po_extract


def _budget_chunk_bits(num_nodes: int) -> int:
    """Widest exhaustive chunk whose value matrix fits the memory budget.

    Wide rows amortise numpy dispatch overhead, so prefer 2^18 patterns
    (32 KiB per node row) and shrink — never below the bigint kernel's
    2^13 — for graphs whose node count would blow
    :data:`_NUMPY_MEM_BUDGET`.
    """
    bits = 18
    while bits > 13 and (num_nodes << (bits - 6 + 3)) > _NUMPY_MEM_BUDGET:
        bits -= 1
    return bits


class _BatchLevel:
    """One MIG level's gather/scatter metadata (width-independent).

    ``ai``/``bi``/``ci`` gather fanin rows into ``(gates, lanes)``
    matrices; the level's outputs occupy the contiguous row span
    ``[lo, hi)`` of the value matrix, so results are written in place
    with no scatter copy.  ``fab_col``/``fbc_col`` are ``(gates, 1)``
    all-ones/zero columns folding the surviving pair complement in as
    one broadcast XOR (``None`` when no gate in the level needs it).
    """

    __slots__ = ("lo", "hi", "ai", "bi", "ci", "fab_col", "fbc_col")

    def __init__(self, lo, hi, ai, bi, ci, fab_col, fbc_col) -> None:
        self.lo = lo
        self.hi = hi
        self.ai = ai
        self.bi = bi
        self.ci = ci
        self.fab_col = fab_col
        self.fbc_col = fbc_col


class _BatchExec:
    """Per-thread, per-width buffers for the level-batched engine.

    The complement row ``full`` carries the window's tail mask in its
    last lane, so every value row keeps the invariant "bits at or above
    *width* are zero" and extraction never re-masks.  ``exh_width``
    memoizes which width's low/middle exhaustive stimulus currently
    fills the PI rows (``None`` when they hold arbitrary words).
    """

    __slots__ = ("vals", "buf_b", "buf_t", "tmp", "full", "exh_width")

    def __init__(self, plan, num_lanes: int, width: int) -> None:
        np = _np
        self.vals = np.empty((plan.num_rows, num_lanes), dtype=np.uint64)
        self.vals[0] = 0  # constant-false row
        self.buf_b = np.empty((plan.max_gates, num_lanes), dtype=np.uint64)
        self.buf_t = np.empty((plan.max_gates, num_lanes), dtype=np.uint64)
        self.tmp = np.empty(num_lanes, dtype=np.uint64)
        self.full = np.full(num_lanes, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        if width & 63:
            self.full[-1] = (1 << (width & 63)) - 1
        self.exh_width: Optional[int] = None

    def run(self, plan) -> None:
        """Replay the level program: ~8 large ufunc calls per level.

        The broadcast complement columns are *not* tail-masked (unlike
        ``full``): a flipped ``b^c`` term carries garbage above *width*
        in its last lane, but rotation guarantees at most one of the two
        pair complements per gate, so those bits always meet zeros in
        the ``&`` and the "high bits are zero" row invariant holds.
        """
        np = _np
        vals = self.vals
        take, bxor, band = np.take, np.bitwise_xor, np.bitwise_and
        for lv in plan.levels:
            g = lv.hi - lv.lo
            buf_b = self.buf_b[:g]
            buf_t = self.buf_t[:g]
            out = vals[lv.lo : lv.hi]
            # mode="clip" skips take's per-element bounds checks (~5x
            # on this path); the plan's indices are valid by
            # construction.
            take(vals, lv.bi, axis=0, out=buf_b, mode="clip")
            take(vals, lv.ci, axis=0, out=buf_t, mode="clip")
            bxor(buf_b, buf_t, out=buf_t)  # b ^ c
            if lv.fbc_col is not None:
                bxor(buf_t, lv.fbc_col, out=buf_t)
            take(vals, lv.ai, axis=0, out=out, mode="clip")
            bxor(out, buf_b, out=out)  # a ^ b
            if lv.fab_col is not None:
                bxor(out, lv.fab_col, out=out)
            band(out, buf_t, out=out)  # (a^b) & (b^c)
            bxor(out, buf_b, out=out)  # ^ b  ->  maj(a, b, c)


class _BatchPlan:
    """Per-graph compiled form for the level-batched numpy kernel.

    Node values live in a *packed* row order — constant, PIs, then gates
    grouped by level (topological within a level) — so each level's
    outputs are one contiguous matrix slice and the whole level runs as
    a few large ufunc calls (see :class:`_BatchExec.run`).  Cached in
    the graph's ``_derived`` memo, hence invalidated by any mutation
    alongside ``flat_gates``.
    """

    __slots__ = (
        "num_rows",
        "pi_rows",
        "po_extract",
        "levels",
        "max_gates",
        "_tls",
    )

    def __init__(self, mig: Mig) -> None:
        np = _np
        program, po_extract = _compile_gate_program(mig)
        gate_levels = mig.flat_gate_levels()  # aligned with program
        row_of = [0] * mig.num_nodes
        self.pi_rows: List[int] = []
        row = 1
        for node in mig.pis():
            row_of[node] = row
            self.pi_rows.append(row)
            row += 1
        # Stable sort by level keeps the topological order within one.
        order = sorted(range(len(program)), key=gate_levels.__getitem__)
        for i in order:
            row_of[program[i][0]] = row
            row += 1
        self.num_rows = row
        self.levels: List[_BatchLevel] = []
        self.max_gates = 0
        lo = 1 + len(self.pi_rows)
        start = 0
        while start < len(order):
            level = gate_levels[order[start]]
            end = start
            while end < len(order) and gate_levels[order[end]] == level:
                end += 1
            entries = [program[i] for i in order[start:end]]
            g = len(entries)

            def _col(flags):
                if not any(flags):
                    return None
                col = np.zeros((g, 1), dtype=np.uint64)
                col[list(flags)] = np.uint64(0xFFFFFFFFFFFFFFFF)
                return col

            self.levels.append(
                _BatchLevel(
                    lo,
                    lo + g,
                    np.array([row_of[e[1]] for e in entries], dtype=np.intp),
                    np.array([row_of[e[2]] for e in entries], dtype=np.intp),
                    np.array([row_of[e[3]] for e in entries], dtype=np.intp),
                    _col([e[4] for e in entries]),
                    _col([e[5] for e in entries]),
                )
            )
            lo += g
            if g > self.max_gates:
                self.max_gates = g
            start = end
        self.po_extract = [(row_of[node], flip) for node, flip in po_extract]
        self._tls = threading.local()

    def executable(self, num_lanes: int, width: int) -> _BatchExec:
        """This thread's executable for *width*, via a per-width LRU.

        Executables (value matrices + work buffers) are bound per thread
        — the worker pool's sweep threads and concurrent ``serve`` jobs
        each own their buffers, so no lock serializes simulation of a
        shared warm graph — and cached per width in a small LRU, so
        interleaved widths (jobs at different presets on one graph)
        rebind instead of rebuilding on every call.
        """
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = self._tls.cache = OrderedDict()
        exe = cache.get(width)
        if exe is not None:
            cache.move_to_end(width)
            return exe
        exe = cache[width] = _BatchExec(self, num_lanes, width)
        if len(cache) > _EXEC_LRU_SIZE:
            cache.popitem(last=False)
        return exe


#: 64-pattern stimulus words for variables 0..5 (period <= one lane).
_P64 = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def _batch_plan(mig: Mig) -> _BatchPlan:
    # Benign race: concurrent first callers may compile twice; the plans
    # are identical and last-write wins.
    plan = mig._derived.get("numpy_plan")
    if plan is None:
        plan = _BatchPlan(mig)
        mig._derived["numpy_plan"] = plan
    return plan


def _word_to_lanes(word: int, num_lanes: int):
    """Little-endian split of a Python-int word into uint64 lanes."""
    return _np.frombuffer(
        word.to_bytes(num_lanes * 8, "little"), dtype="<u8"
    )


def _lanes_to_word(lanes) -> int:
    """Inverse of :func:`_word_to_lanes`."""
    return int.from_bytes(
        _np.ascontiguousarray(lanes, dtype="<u8").tobytes(), "little"
    )


def _fill_exhaustive(plan, exe, base: int, width: int) -> None:
    """Synthesise the exhaustive window ``[base, base + width)`` stimulus.

    The structured stimulus goes directly into the lane rows — constant
    lane patterns for low variables, lane block patterns for middle
    ones, constant rows for high ones — so no Python bigints are built
    on the input side at all.  Low and middle variables do not depend on
    the window base and are filled once per width (``exe.exh_width``
    memo); callers guarantee *base* is a multiple of *width* and *width*
    is a multiple of 64.
    """
    np = _np
    vals = exe.vals
    num_lanes = width >> 6
    lane_bits = num_lanes.bit_length() - 1
    if exe.exh_width != width:
        lanes = np.arange(num_lanes, dtype=np.uint64)
        for i, row in enumerate(plan.pi_rows):
            if i < 6:
                vals[row] = np.uint64(_P64[i])
            elif i < 6 + lane_bits:
                np.negative(
                    (lanes >> np.uint64(i - 6)) & np.uint64(1),
                    out=vals[row],
                )
        exe.exh_width = width
    for i in range(6 + lane_bits, len(plan.pi_rows)):
        vals[plan.pi_rows[i]] = np.uint64(
            0xFFFFFFFFFFFFFFFF if (base >> i) & 1 else 0
        )


def _extract_words(plan, exe) -> List[int]:
    """PO rows as Python-int words (stored polarity folded back in)."""
    outputs = []
    for row_i, flip in plan.po_extract:
        row = exe.vals[row_i]
        if flip:
            _np.bitwise_xor(row, exe.full, out=exe.tmp)
            row = exe.tmp
        outputs.append(_lanes_to_word(row))
    return outputs


def _extract_bytes(plan, exe) -> List[bytes]:
    """PO rows as little-endian byte strings (threaded-sweep assembly)."""
    outputs = []
    for row_i, flip in plan.po_extract:
        row = exe.vals[row_i]
        if flip:
            _np.bitwise_xor(row, exe.full, out=exe.tmp)
            row = exe.tmp
        outputs.append(_np.ascontiguousarray(row, dtype="<u8").tobytes())
    return outputs


def _join_words(parts: List[List[bytes]], num_pos: int) -> List[int]:
    """Concatenate per-task PO byte strings back into int words."""
    return [
        int.from_bytes(b"".join(part[i] for part in parts), "little")
        for i in range(num_pos)
    ]


def _run_window(plan, base: int, width: int):
    """Fill + replay one exhaustive window on this thread's executable."""
    exe = plan.executable(width >> 6, width)
    _fill_exhaustive(plan, exe, base, width)
    exe.run(plan)
    return exe


def _windows_equal(plan_a, plan_b, base: int, width: int) -> bool:
    """Evaluate one window on both plans and compare PO rows lane-wise."""
    np = _np
    exe_a = _run_window(plan_a, base, width)
    exe_b = exe_a if plan_b is plan_a else _run_window(plan_b, base, width)
    for (ra, fa), (rb, fb) in zip(plan_a.po_extract, plan_b.po_extract):
        row_a = exe_a.vals[ra]
        if fa != fb:  # opposite stored polarity: compare flipped
            np.bitwise_xor(row_a, exe_a.full, out=exe_a.tmp)
            row_a = exe_a.tmp
        if not np.array_equal(row_a, exe_b.vals[rb]):
            return False
    return True


def _subwindow_width(width: int, threads: int) -> Optional[int]:
    """Power-of-two sub-window width splitting *width* over *threads*.

    ``None`` when splitting is not worthwhile (one thread, or the
    sub-windows would drop below :data:`_MIN_SUBWINDOW` patterns).
    """
    if threads <= 1 or width < (_MIN_SUBWINDOW << 1):
        return None
    pieces = 1
    while pieces < threads:
        pieces <<= 1
    sub = width // pieces
    while sub < _MIN_SUBWINDOW:
        sub <<= 1
        pieces >>= 1
    return sub if pieces > 1 else None


def _lane_cuts(num_lanes: int, threads: int) -> List[int]:
    """Near-equal lane-range boundaries for a threaded simulate call."""
    pieces = min(threads, num_lanes // _MIN_THREAD_LANES)
    step, extra = divmod(num_lanes, pieces)
    cuts = [0]
    for i in range(pieces):
        cuts.append(cuts[-1] + step + (1 if i < extra else 0))
    return cuts


class NumpyKernel:
    """Level-batched, multi-threaded uint64 lane-array engine.

    Independent gates of one MIG level execute together as a handful of
    large 2-D ufunc calls (:class:`_BatchExec.run`), amortising numpy
    dispatch overhead over the whole level; exhaustive sweeps
    additionally split their pattern windows across the simulation
    worker-thread pool (:func:`resolve_sim_threads`) — ufuncs release
    the GIL, so the chunks genuinely run on multiple cores, each thread
    binding its own executable buffers.  Classified faults (see
    :data:`_DEMOTABLE`) demote to the bit-identical bigint kernel.
    """

    name = "numpy"
    #: Randomized checks sweep 16 lanes per round.
    random_width = 1024

    def chunk_bits_for(self, mig: Mig) -> int:
        """Budget-sized chunk width, widened by the thread count.

        With a worker pool the window is widened by log2(threads) — the
        exhaustive paths split it back into per-thread sub-windows, so
        the budget stays per-thread while the pool gets enough patterns
        to keep every core busy.
        """
        bits = _budget_chunk_bits(mig.num_nodes)
        threads = resolve_sim_threads()
        if threads > 1:
            bits = min(18, bits + (threads - 1).bit_length())
        return bits

    def _guarded(self, run, fallback):
        """``run()`` on the numpy engine, or ``fallback()`` once demoted.

        A classified fault demotes the engine (scope-sticky, see
        :func:`degradation_scope`); any other exception propagates.
        """
        if _demoted(self.name):
            return fallback()
        try:
            _res_faults.kernel_fault(_degrade_job())  # chaos hook
            return run()
        except _DEMOTABLE as error:
            _demote(error, self.name, _BIGINT.name)
            return fallback()

    # -- simulate ------------------------------------------------------

    def simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int
    ) -> List[int]:
        width = mask.bit_length()
        if width < _NUMPY_MIN_WIDTH:
            return _bigint_simulate(mig, pi_values, mask)
        return self._guarded(
            lambda: self._batch_simulate(mig, pi_values, mask, width),
            lambda: _bigint_simulate(mig, pi_values, mask),
        )

    def _batch_simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int, width: int
    ) -> List[int]:
        plan = _batch_plan(mig)
        num_lanes = (width + 63) >> 6
        threads = resolve_sim_threads()
        if threads > 1 and num_lanes >= 2 * _MIN_THREAD_LANES:
            return self._threaded_simulate(
                plan, pi_values, mask, width, num_lanes, threads
            )
        exe = plan.executable(num_lanes, width)
        exe.exh_width = None
        for row, word in zip(plan.pi_rows, pi_values):
            exe.vals[row] = _word_to_lanes(word & mask, num_lanes)
        exe.run(plan)
        return _extract_words(plan, exe)

    def _threaded_simulate(
        self, plan, pi_values, mask: int, width: int, num_lanes: int,
        threads: int,
    ) -> List[int]:
        """Split arbitrary input words over lane blocks across the pool."""
        words = [
            (word & mask).to_bytes(num_lanes * 8, "little")
            for word in pi_values
        ]
        cuts = _lane_cuts(num_lanes, threads)

        def task(lo: int, hi: int):
            sub_width = min(width - (lo << 6), (hi - lo) << 6)
            exe = plan.executable(hi - lo, sub_width)
            exe.exh_width = None
            for row, data in zip(plan.pi_rows, words):
                exe.vals[row] = _np.frombuffer(
                    data[lo * 8 : hi * 8], dtype="<u8"
                )
            exe.run(plan)
            return _extract_bytes(plan, exe)

        parts = _run_tasks(
            [
                (lambda lo=lo, hi=hi: task(lo, hi))
                for lo, hi in zip(cuts, cuts[1:])
            ],
            threads,
        )
        return _join_words(parts, len(plan.po_extract))

    # -- exhaustive sweeps ---------------------------------------------

    def exhaustive_window(
        self, mig: Mig, base: int, width: int
    ) -> Optional[List[int]]:
        """Evaluate the exhaustive window ``[base, base + width)``.

        Fast path used by :func:`repro.mig.simulate.exhaustive_chunks`
        (see :func:`_fill_exhaustive` for the native stimulus).  A single
        wide window — e.g. the whole 2^18-pattern sweep of an 18-input
        multiplier — is split into per-thread sub-windows and reassembled
        bytewise, so even one-chunk exhaustive paths scale with cores.
        Returns ``None`` when the window is too narrow for this kernel
        (the caller falls back to the generic path) — and when the engine
        is demoted, for the same reason: the generic path re-dispatches
        through :meth:`simulate`, which lands on the reference engine.
        """
        if width < _NUMPY_MIN_WIDTH:
            return None
        return self._guarded(
            lambda: self._batch_window(mig, base, width), lambda: None
        )

    def _batch_window(self, mig: Mig, base: int, width: int) -> List[int]:
        plan = _batch_plan(mig)
        sub = _subwindow_width(width, resolve_sim_threads())
        if sub is None:
            return _extract_words(plan, _run_window(plan, base, width))

        def task(sub_base: int):
            return _extract_bytes(plan, _run_window(plan, sub_base, sub))

        parts = _run_tasks(
            [
                (lambda sb=base + i * sub: task(sb))
                for i in range(width // sub)
            ],
            resolve_sim_threads(),
        )
        return _join_words(parts, len(plan.po_extract))

    def exhaustive_equivalent(
        self, a: Mig, b: Mig, chunk_bits: int
    ) -> Optional[bool]:
        """Exhaustively compare two same-interface MIGs window by window.

        Fast path used by :func:`repro.mig.simulate.equivalent`: both
        graphs are swept with :meth:`exhaustive_window`'s stimulus and
        their output *rows* are compared lane-wise, skipping the
        int-conversion boundary entirely — on output-heavy graphs that
        boundary dominates the sweep.  The window sweep is striped
        across the worker pool; a mismatch in any thread early-exits the
        others at their next window.  Returns ``None`` (caller falls
        back to the generic chunk-zip) when the windows are too narrow
        or the engine is demoted.
        """
        num_patterns = 1 << a.num_pis
        width = min(num_patterns, 1 << chunk_bits)
        if width < _NUMPY_MIN_WIDTH:
            return None
        return self._guarded(
            lambda: self._batch_equivalent(a, b, num_patterns, width),
            lambda: None,
        )

    def _batch_equivalent(
        self, a: Mig, b: Mig, num_patterns: int, width: int
    ) -> bool:
        plan_a, plan_b = _batch_plan(a), _batch_plan(b)
        threads = resolve_sim_threads()
        n_windows = num_patterns // width
        if threads > 1 and n_windows < threads:
            # Not enough windows to keep the pool busy: shrink them.
            sub = _subwindow_width(
                width, (threads + n_windows - 1) // n_windows
            )
            if sub is not None:
                width = sub
                n_windows = num_patterns // width
        bases = range(0, num_patterns, width)
        stripes = min(threads, n_windows)
        if stripes <= 1:
            for base in bases:
                if not _windows_equal(plan_a, plan_b, base, width):
                    return False
            return True
        mismatch = threading.Event()

        def sweep(stripe: int) -> bool:
            for base in bases[stripe::stripes]:
                if mismatch.is_set():
                    return True  # another stripe already refuted
                if not _windows_equal(plan_a, plan_b, base, width):
                    mismatch.set()
                    return False
            return True

        verdicts = _run_tasks(
            [(lambda s=stripe: sweep(s)) for stripe in range(stripes)],
            stripes,
        )
        return all(verdicts)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

_BIGINT = BigintKernel()
_NUMPY = NumpyKernel() if _np is not None else None

_BACKEND = SETTINGS["backend"]

#: Per-thread stack of :func:`backend_scope` overrides; beats the
#: settings table.  Thread-local so concurrent sessions cannot clobber
#: each other's backend, and a stack so scopes nest and unwind correctly.
_SCOPE = threading.local()


def numpy_available() -> bool:
    """Whether the numpy backend can be used in this process."""
    return _NUMPY is not None


def available_backends() -> List[str]:
    """Names of the kernels importable in this process."""
    return [_BIGINT.name] + ([_NUMPY.name] if _NUMPY is not None else [])


def _resolve(name: str):
    name = _BACKEND.parse(name)
    if name == "bigint":
        return _BIGINT
    if name == "numpy":
        if _NUMPY is None:
            raise ImportError(
                "the 'numpy' simulation backend was requested but numpy "
                "is not importable; install numpy or select the 'bigint' "
                "backend"
            )
        return _NUMPY
    return _NUMPY if _NUMPY is not None else _BIGINT  # auto


def resolve_backend(name: str):
    """Resolve a backend *name* to its kernel without installing it.

    Requesting the numpy kernel without numpy raises ``ImportError``, an
    unknown name raises ``ValueError`` — so callers (e.g.
    :class:`repro.flow.Session`) can fail fast at construction time.
    """
    return _resolve(name)


@contextmanager
def backend_scope(name: Optional[str]):
    """Temporarily install *name* as the backend override.

    ``None`` is a no-op scope: the ambient selection (an enclosing
    scope, then ``$REPRO_SIM_BACKEND``, then auto-detection) stays in
    effect.  The override lives on a thread-local stack, so scopes nest
    and concurrent sessions on different threads cannot clobber each
    other (threads spawned *inside* a scope start unscoped).  Yields the
    kernel active inside the scope.
    """
    if name is None:
        yield get_kernel()
        return
    kernel = _resolve(name)
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = _SCOPE.stack = []
    stack.append(kernel)
    try:
        yield kernel
    finally:
        stack.pop()


def get_kernel():
    """The active simulation kernel (scope > environment > auto)."""
    stack = getattr(_SCOPE, "stack", None)
    if stack:
        return stack[-1]
    return _resolve(_BACKEND.value())
