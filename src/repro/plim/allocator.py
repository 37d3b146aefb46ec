"""RRAM device allocation for the PLiM compiler.

The compiler requests devices for intermediate values, helper cells, and
outputs, and releases them when their last reader has executed.  Which
*free* device a request returns is exactly where two of the paper's
endurance-management techniques live:

* **minimum write count strategy** — return the free device with the
  smallest write count (``strategy="min_write"``).  Pure policy: it can
  change neither the instruction count nor the device count, only the
  write *distribution* (asserted in the test suite, and stated explicitly
  in Section IV of the paper);
* **maximum write count strategy** — devices whose write count reaches
  ``w_max`` are *retired*: they leave the free pool and are refused as RM3
  destinations, forcing the compiler to allocate fresh or less-worn
  devices at the cost of extra instructions/RRAMs (``w_max`` knob).

The default ``strategy="naive"`` is a LIFO free list, which models the
endurance-oblivious compiler: the most recently freed device is the next
destination, concentrating writes on few cells.

Which allocator class (and which capacity / write-cap constants) a
compilation uses is decided by the target machine model — see
:mod:`repro.arch`; this flat allocator serves the crossbar geometries,
:class:`repro.plim.blocked.BlockedAllocator` the word-addressed ones.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set

#: Allocation strategies understood by :class:`RramAllocator`.
STRATEGIES = ("naive", "min_write")

#: Smallest usable write cap: a copy destination takes 2 writes
#: (initialisation + RM3) and must still be writable afterwards.
MIN_WRITE_CAP = 3


class CapacityExceededError(RuntimeError):
    """The target architecture's array cannot hold another device."""


class RramAllocator:
    """Tracks devices, their compile-time write counts, and the free pool."""

    def __init__(
        self,
        strategy: str = "naive",
        w_max: Optional[int] = None,
        *,
        capacity: Optional[int] = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown allocation strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if w_max is not None and w_max < MIN_WRITE_CAP:
            raise ValueError(
                f"w_max must be at least {MIN_WRITE_CAP}, got {w_max}"
            )
        self.strategy = strategy
        self.w_max = w_max
        self.capacity = capacity
        self.writes: List[int] = []
        self._free_stack: List[int] = []  # naive: LIFO
        self._free_heap: List[tuple] = []  # min_write: (writes, addr)
        self._free_set: Set[int] = set()
        self.retired: Set[int] = set()

    # -- device creation and request -------------------------------------

    @property
    def num_cells(self) -> int:
        """Total devices ever allocated (the paper's ``#R``)."""
        return len(self.writes)

    def new_cell(self) -> int:
        """Allocate a brand-new device (bypasses the free pool).

        Raises :class:`CapacityExceededError` when the architecture's
        array is bounded and full (``capacity=None`` is unbounded, the
        paper's assumption).
        """
        if self.capacity is not None and len(self.writes) >= self.capacity:
            raise CapacityExceededError(
                f"crossbar is full: capacity {self.capacity} devices"
            )
        self.writes.append(0)
        return len(self.writes) - 1

    def request(self, headroom: int = 1) -> int:
        """Return a device that can absorb *headroom* more writes.

        A free device if one fits, else a new one.  Under ``min_write``
        the least-written free device is returned (ties broken by lowest
        address for determinism); under ``naive`` the most recently freed
        one.  *headroom* matters under the write cap: a copy destination
        takes two initialisation writes plus the final RM3, and handing it
        a device one write below the cap would overshoot.  Devices with
        insufficient headroom stay in the pool for smaller requests.

        Under ``min_write`` this costs O(log n) per request, not a scan of
        the near-cap devices.  Valid heap entries (``writes`` still equal
        to the device's count, device still free) pop in ``(writes,
        addr)`` order, and whether a device fits (``writes + headroom <=
        w_max``) is monotone in ``writes``: if the least-written valid
        entry does not fit, no entry does.  So the first valid entry is
        either the answer or proof that a new device is needed, and it
        stays on the heap in the second case.  Stale entries never become
        valid again (write counts only grow), so dropping them on the way
        is safe.  The LIFO stack of ``naive`` is not in write order and
        keeps its scan.
        """
        w_max = self.w_max
        writes = self.writes
        if self.strategy == "min_write":
            heap = self._free_heap
            free = self._free_set
            while heap:
                wr, addr = heap[0]
                if addr not in free or wr != writes[addr]:
                    heapq.heappop(heap)  # stale entry from an earlier period
                    continue
                if w_max is not None and wr + headroom > w_max:
                    break  # least-written free device is too worn: all are
                heapq.heappop(heap)
                free.discard(addr)
                return addr
        else:
            skipped_addrs = []
            found = None
            while self._free_stack:
                addr = self._free_stack.pop()
                if addr not in self._free_set:
                    continue
                if w_max is not None and writes[addr] + headroom > w_max:
                    skipped_addrs.append(addr)
                    continue
                self._free_set.discard(addr)
                found = addr
                break
            for addr in reversed(skipped_addrs):
                self._free_stack.append(addr)
            if found is not None:
                return found
        return self.new_cell()

    def release(self, addr: int) -> None:
        """Return *addr* to the free pool (or retire it at the cap)."""
        if addr in self._free_set:
            raise ValueError(f"double release of cell {addr}")
        if self.w_max is not None and self.writes[addr] >= self.w_max:
            self.retired.add(addr)
            return
        self._free_set.add(addr)
        if self.strategy == "min_write":
            heapq.heappush(self._free_heap, (self.writes[addr], addr))
        else:
            self._free_stack.append(addr)

    # -- write accounting -------------------------------------------------

    def record_write(self, addr: int) -> None:
        """Charge one compile-time write to *addr*."""
        self.writes[addr] += 1

    def writable(self, addr: int) -> bool:
        """May the compiler still target *addr* with an RM3?"""
        return self.w_max is None or self.writes[addr] < self.w_max

    def headroom(self, addr: int) -> Optional[int]:
        """Writes left before *addr* hits the cap (``None`` = unbounded)."""
        if self.w_max is None:
            return None
        return max(0, self.w_max - self.writes[addr])
