"""Tests for the RRAM allocator policies (min/max write strategies)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.plim.allocator import MIN_WRITE_CAP, RramAllocator
from repro.plim.blocked import BlockedAllocator


class TestBasics:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            RramAllocator("best-fit")

    def test_low_cap_rejected(self):
        with pytest.raises(ValueError):
            RramAllocator("min_write", w_max=MIN_WRITE_CAP - 1)

    def test_new_cells_are_sequential(self):
        alloc = RramAllocator()
        assert [alloc.new_cell() for _ in range(3)] == [0, 1, 2]
        assert alloc.num_cells == 3

    def test_request_prefers_free_pool(self):
        alloc = RramAllocator()
        a = alloc.new_cell()
        alloc.release(a)
        assert alloc.request() == a
        assert alloc.num_cells == 1

    def test_request_allocates_when_pool_empty(self):
        alloc = RramAllocator()
        assert alloc.request() == 0
        assert alloc.request() == 1

    def test_double_release_rejected(self):
        alloc = RramAllocator()
        a = alloc.new_cell()
        alloc.release(a)
        with pytest.raises(ValueError):
            alloc.release(a)


class TestNaiveLifo:
    def test_lifo_order(self):
        alloc = RramAllocator("naive")
        cells = [alloc.new_cell() for _ in range(3)]
        for c in cells:
            alloc.release(c)
        assert alloc.request() == cells[-1]
        assert alloc.request() == cells[-2]


class TestMinWrite:
    def test_least_written_first(self):
        alloc = RramAllocator("min_write")
        a, b, c = (alloc.new_cell() for _ in range(3))
        for _ in range(5):
            alloc.record_write(a)
        for _ in range(2):
            alloc.record_write(b)
        alloc.record_write(c)
        for cell in (a, b, c):
            alloc.release(cell)
        assert alloc.request() == c  # 1 write
        assert alloc.request() == b  # 2 writes
        assert alloc.request() == a  # 5 writes

    def test_tie_breaks_by_address(self):
        alloc = RramAllocator("min_write")
        a, b = alloc.new_cell(), alloc.new_cell()
        alloc.release(b)
        alloc.release(a)
        assert alloc.request() == a

    def test_stale_heap_entries_skipped(self):
        alloc = RramAllocator("min_write")
        a = alloc.new_cell()
        alloc.release(a)
        got = alloc.request()
        assert got == a
        alloc.record_write(a)
        alloc.record_write(a)
        b = alloc.new_cell()
        alloc.release(b)
        alloc.release(a)  # two heap entries for a now (one stale)
        assert alloc.request() == b  # 0 writes beats 2
        assert alloc.request() == a


class TestMaxWriteCap:
    def test_capped_cells_retire_on_release(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.record_write(a)
        alloc.release(a)
        assert a in alloc.retired
        # the pool is empty: a fresh cell is allocated
        assert alloc.request() == 1

    def test_writable_respects_cap(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        assert alloc.writable(a)
        for _ in range(3):
            alloc.record_write(a)
        assert not alloc.writable(a)

    def test_headroom(self):
        alloc = RramAllocator("min_write", w_max=5)
        a = alloc.new_cell()
        alloc.record_write(a)
        assert alloc.headroom(a) == 4
        uncapped = RramAllocator("min_write")
        b = uncapped.new_cell()
        assert uncapped.headroom(b) is None

    def test_uncapped_never_retires(self):
        alloc = RramAllocator("naive")
        a = alloc.new_cell()
        for _ in range(100):
            alloc.record_write(a)
        alloc.release(a)
        assert not alloc.retired
        assert alloc.writable(a)


class TestWmaxRetirementBoundaries:
    """Exact-cap edges of the maximum write count strategy."""

    def test_device_one_below_cap_is_still_a_destination(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(2):
            alloc.record_write(a)
        assert alloc.writable(a)  # 2 < 3: one RM3 still fits
        assert alloc.headroom(a) == 1
        alloc.release(a)
        assert a not in alloc.retired  # below cap: pooled, not retired
        assert alloc.request(headroom=1) == a

    def test_device_at_exact_cap_refused_everywhere(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.record_write(a)
        assert not alloc.writable(a)
        assert alloc.headroom(a) == 0
        alloc.release(a)
        assert a in alloc.retired
        # never served again, for any headroom
        assert alloc.request(headroom=1) != a

    def test_pooled_device_reaching_cap_is_skipped_not_lost(self):
        """A device released *below* the cap can still sit in the pool
        when later requests need more headroom than it has left — it
        must be skipped for those and kept for smaller asks."""
        alloc = RramAllocator("min_write", w_max=4)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.record_write(a)
        alloc.release(a)  # one write of headroom left
        fresh = alloc.request(headroom=2)  # copy destination: won't fit
        assert fresh != a
        assert alloc.request(headroom=1) == a  # still available

    def test_retirement_mid_translation_bounds_every_cell(self):
        """Compiled under a cap, no cell of the emitted program may
        exceed it — retirement must kick in mid-translation, exactly
        when a destination hits the cap, for both allocator shapes."""
        from repro.analysis.scenarios import fig1_chain
        from repro.core.manager import compile_pipeline, full_management

        mig = fig1_chain(12)
        for arch in ("endurance", "blocked"):
            result = compile_pipeline(mig, full_management(4), arch=arch)
            counts = result.program.write_counts()
            assert max(counts) <= 4
            # the cap forces extra devices vs the uncapped run
            uncapped = compile_pipeline(
                mig, full_management(100), arch=arch
            )
            assert result.program.num_cells >= uncapped.program.num_cells


class _FullScanAllocator(RramAllocator):
    """The allocator as it was before the O(log n) ``min_write`` request:
    every request pops the heap until a fitting device turns up and
    pushes every near-cap device back.  Kept as the reference."""

    def request(self, headroom: int = 1) -> int:
        import heapq

        def fits(addr: int) -> bool:
            return (
                self.w_max is None
                or self.writes[addr] + headroom <= self.w_max
            )

        if self.strategy == "min_write":
            skipped = []
            found = None
            while self._free_heap:
                wr, addr = heapq.heappop(self._free_heap)
                if addr not in self._free_set or wr != self.writes[addr]:
                    continue  # stale entry from an earlier free period
                if not fits(addr):
                    skipped.append((wr, addr))
                    continue
                self._free_set.discard(addr)
                found = addr
                break
            for entry in skipped:
                heapq.heappush(self._free_heap, entry)
            if found is not None:
                return found
        else:
            skipped_addrs = []
            found = None
            while self._free_stack:
                addr = self._free_stack.pop()
                if addr not in self._free_set:
                    continue
                if not fits(addr):
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


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("request", "request", "write", "write", "release")),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=250,
)


class TestRequestEquivalence:
    """The O(log n) request returns exactly what the full scan did."""

    @pytest.mark.parametrize("strategy", ["naive", "min_write"])
    @pytest.mark.parametrize("w_max", [None, 3, 10, 20])
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    # A pooled device refused for lack of headroom must still serve a
    # later, smaller request.
    @example(ops=[
        ("request", 0), ("write", 1), ("write", 1), ("release", 0),
        ("request", 2), ("request", 0),
    ])
    def test_matches_full_scan(self, strategy, w_max, ops):
        new = RramAllocator(strategy, w_max)
        ref = _FullScanAllocator(strategy, w_max)
        in_use = []
        for kind, arg in ops:
            if kind == "request":
                headroom = 1 + arg % 3
                addr = new.request(headroom)
                assert addr == ref.request(headroom)
                in_use.append(addr)
            elif kind == "write" and new.writes:
                # Mostly a device in use (so some reach the cap); now and
                # then any device, free ones included: a write to a
                # pooled device leaves a stale heap entry behind.
                if in_use and arg % 4:
                    addr = in_use[arg % len(in_use)]
                else:
                    addr = arg % len(new.writes)
                new.record_write(addr)
                ref.record_write(addr)
            elif kind == "release" and in_use:
                addr = in_use.pop(arg % len(in_use))
                new.release(addr)
                ref.release(addr)
            assert new.writes == ref.writes
            assert new._free_set == ref._free_set
            assert new.retired == ref.retired


class TestRequestCost:
    def _near_cap_pool(self, count: int = 40):
        """A ``min_write`` pool of devices at 8 or 9 writes under a cap
        of 10, released in an order that is not sorted."""
        alloc = RramAllocator("min_write", w_max=10)
        cells = [alloc.new_cell() for _ in range(count)]
        for index, cell in enumerate(cells):
            for _ in range(9 - index % 2):
                alloc.record_write(cell)
        for cell in cells:
            alloc.release(cell)
        return alloc

    def test_unfit_pool_is_left_untouched(self):
        """No pooled device has 3 writes of headroom: the request takes a
        new device and does not pop and re-push the whole pool."""
        alloc = self._near_cap_pool()
        before = list(alloc._free_heap)
        assert alloc.request(headroom=3) == 40
        assert alloc._free_heap == before

    def test_each_heap_entry_pops_at_most_once(self, monkeypatch):
        """Over a whole capped compilation the heap is popped no more
        often than devices are released into it: no request rescans
        (and re-pushes) near-cap devices."""
        import heapq

        from repro.core.selection import make_selection
        from repro.plim import allocator as allocator_module
        from repro.plim.compiler import PlimCompiler
        from repro.synth.registry import build_benchmark

        calls = {"release": 0, "heappop": 0}

        class CountingHeapq:
            heappush = staticmethod(heapq.heappush)

            @staticmethod
            def heappop(heap):
                calls["heappop"] += 1
                return heapq.heappop(heap)

        release = RramAllocator.release

        def counting_release(self, addr):
            calls["release"] += 1
            release(self, addr)

        monkeypatch.setattr(allocator_module, "heapq", CountingHeapq)
        monkeypatch.setattr(RramAllocator, "release", counting_release)
        program = PlimCompiler(
            selection=make_selection("endurance"),
            allocation="min_write",
            w_max=10,
        ).compile(build_benchmark("cavlc", "tiny"))
        assert max(program.write_counts()) <= 10
        assert calls["heappop"] > 0
        assert calls["heappop"] <= calls["release"]


class _FullScanBlockedAllocator(BlockedAllocator):
    """The word-line allocator's ``min_write`` request as it was before
    the line and cell heaps: every request rebuilds the list of lines
    with free cells, sorts it by line wear (a slice max per line) and
    filters every pooled cell.  Kept as the reference."""

    def release(self, addr: int) -> None:
        if addr in self._free_set:
            raise ValueError(f"double release of cell {addr}")
        if self.w_max is not None and self.writes[addr] >= self.w_max:
            self.retired.add(addr)
            return
        self._free_set.add(addr)
        self._free_stacks.setdefault(self._block_of(addr), []).append(addr)

    def _line_wear(self, block: int) -> int:
        start = block * self.block_size
        stop = min(start + self.block_size, len(self.writes))
        return max(self.writes[start:stop], default=0)

    def _request_min_write(self, headroom: int):
        candidates = [
            block
            for block, stack in self._free_stacks.items()
            if any(a in self._free_set for a in stack)
        ]
        for block in sorted(
            candidates, key=lambda b: (self._line_wear(b), b)
        ):
            fitting = [
                a
                for a in self._free_stacks[block]
                if a in self._free_set and self._fits(a, headroom)
            ]
            if not fitting:
                continue
            addr = min(fitting, key=lambda a: (self.writes[a], a))
            self._free_set.discard(addr)
            self._free_stacks[block] = [
                a for a in self._free_stacks[block] if a != addr
            ]
            return addr
        return None


class TestBlockedRequestEquivalence:
    """The heap-based word-line ``min_write`` request returns exactly
    what the full scan did."""

    @pytest.mark.parametrize("block_size", [1, 2, 8])
    @pytest.mark.parametrize("w_max", [None, 3, 10])
    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    # A pooled cell refused for lack of headroom must still serve a
    # later, smaller request; a write to a pooled cell re-keys it.
    @example(ops=[
        ("request", 0), ("request", 0), ("write", 1), ("write", 1),
        ("release", 0), ("write", 0), ("request", 2), ("request", 0),
    ])
    def test_matches_full_scan(self, block_size, w_max, ops):
        new = BlockedAllocator(block_size, "min_write", w_max)
        ref = _FullScanBlockedAllocator(block_size, "min_write", w_max)
        in_use = []
        for kind, arg in ops:
            if kind == "request":
                headroom = 1 + arg % 3
                addr = new.request(headroom)
                assert addr == ref.request(headroom)
                in_use.append(addr)
            elif kind == "write" and new.writes:
                # Mostly a cell in use; now and then any cell, pooled
                # ones included.
                if in_use and arg % 4:
                    addr = in_use[arg % len(in_use)]
                else:
                    addr = arg % len(new.writes)
                new.record_write(addr)
                ref.record_write(addr)
            elif kind == "release" and in_use:
                addr = in_use.pop(arg % len(in_use))
                new.release(addr)
                ref.release(addr)
            assert new.writes == ref.writes
            assert new._free_set == ref._free_set
            assert new.retired == ref.retired

    def test_unfit_lines_stay_pooled(self):
        """Lines skipped for lack of headroom stay in the pool for a
        later, smaller request."""
        alloc = BlockedAllocator(2, "min_write", w_max=10)
        cells = [alloc.new_cell() for _ in range(4)]
        for cell in cells:
            for _ in range(9):
                alloc.record_write(cell)
            alloc.release(cell)
        assert alloc.request(headroom=2) == 4  # nothing fits: a new cell
        assert alloc.request(headroom=1) == 0
