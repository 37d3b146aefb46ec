"""Tests for the pluggable simulation kernels (repro.mig.kernel)."""

import random

import pytest

from repro.mig import kernel
from repro.mig.graph import Mig
from repro.mig.signal import complement
from repro.resilience.errors import FaultInjected
from repro.settings import SETTINGS
from repro.mig.simulate import (
    equivalent,
    find_counterexample,
    randomized_rounds,
    simulate,
    truth_tables,
)
from .conftest import make_random_mig

needs_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)

BACKEND_ENV = SETTINGS["backend"].env
THREADS_ENV = SETTINGS["sim_threads"].env


@pytest.fixture
def numpy_backend(monkeypatch):
    """Select the numpy kernel process-wide (every thread) for one test."""
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    return kernel.get_kernel()


class TestSelection:
    def test_bigint_always_available(self):
        assert "bigint" in kernel.available_backends()

    def test_backend_scope_override(self):
        ambient = kernel.get_kernel()
        with kernel.backend_scope("bigint") as active:
            assert active.name == "bigint"
            assert kernel.get_kernel().name == "bigint"
        assert kernel.get_kernel() is ambient

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bigint")
        assert kernel.get_kernel().name == "bigint"
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert kernel.get_kernel().name in ("bigint", "numpy")

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        with kernel.backend_scope("bigint"):
            assert kernel.get_kernel().name == "bigint"

    def test_unknown_backend_rejected(self):
        # The retired engine's name and the old aliases are unknown too.
        for name in ("cuda", "numpy-batch", "batch", "python"):
            with pytest.raises(ValueError, match="unknown simulation backend"):
                kernel.resolve_backend(name)
            with pytest.raises(ValueError, match="unknown simulation backend"):
                with kernel.backend_scope(name):
                    pass

    def test_unknown_env_value_rejected(self, monkeypatch):
        for name in ("gpu", "numpy-batch"):
            monkeypatch.setenv(BACKEND_ENV, name)
            with pytest.raises(ValueError, match="unknown simulation backend"):
                kernel.get_kernel()

    def test_numpy_request_fails_loudly_when_absent(self, monkeypatch):
        monkeypatch.setattr(kernel, "_NUMPY", None)
        with pytest.raises(ImportError, match="numpy"):
            kernel._resolve("numpy")
        # auto degrades silently to bigint instead
        assert kernel._resolve("auto").name == "bigint"
        assert kernel.available_backends() == ["bigint"]

    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert kernel._resolve("auto").name == "numpy"

    @needs_numpy
    def test_all_backends_listed(self):
        assert kernel.available_backends() == ["bigint", "numpy"]


class TestSimThreads:
    """Thread-count resolution: explicit > scope > env > default."""

    def test_default_is_bounded_by_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert kernel.resolve_sim_threads() == min(4, os.cpu_count() or 1)

    def test_env_sets_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        assert kernel.resolve_sim_threads() == 3

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        with kernel.sim_threads_scope(2):
            assert kernel.resolve_sim_threads() == 2

    def test_scope_beats_override(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        with kernel.sim_threads_scope(2):
            with kernel.sim_threads_scope(5):  # scopes nest
                assert kernel.resolve_sim_threads() == 5
                with kernel.sim_threads_scope(7):
                    assert kernel.resolve_sim_threads() == 7
                assert kernel.resolve_sim_threads() == 5
            assert kernel.resolve_sim_threads() == 2
        assert kernel.resolve_sim_threads() == 3

    def test_explicit_value_beats_everything(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "3")
        with kernel.sim_threads_scope(5):
            assert kernel.resolve_sim_threads(9) == 9

    def test_none_scope_is_noop(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "6")
        with kernel.sim_threads_scope(None):
            assert kernel.resolve_sim_threads() == 6

    @pytest.mark.parametrize("bad", ["0", "-1", "x"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(THREADS_ENV, bad)
        with pytest.raises(ValueError, match="thread count"):
            kernel.resolve_sim_threads()

    @pytest.mark.parametrize("bad", [0, -3, "many"])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match="thread count"):
            with kernel.sim_threads_scope(bad):
                pass


class TestChunkSizing:
    def test_budget_shrinks_with_node_count(self):
        # Small graphs get the widest window; huge ones shrink toward
        # the bigint floor so the value matrix stays bounded.
        assert kernel._budget_chunk_bits(100) == 18
        huge = (kernel._NUMPY_MEM_BUDGET >> (18 - 6 + 3)) + 1
        assert kernel._budget_chunk_bits(huge) == 17
        assert kernel._budget_chunk_bits(1 << 30) == 13

    @needs_numpy
    def test_batch_widens_window_with_threads(self):
        mig = make_random_mig(6, 30, seed=1)
        with kernel.sim_threads_scope(1):
            solo = kernel._NUMPY.chunk_bits_for(mig)
        with kernel.sim_threads_scope(4):
            pooled = kernel._NUMPY.chunk_bits_for(mig)
        assert pooled == min(18, solo + 2)


@needs_numpy
class TestBackendParity:
    """The numpy kernel must be bit-identical to bigint on every routed
    operation.  Runs single-threaded; TestBatchParity repeats every
    check here on the worker pool."""

    threads = 1

    @pytest.fixture(autouse=True)
    def _thread_scope(self):
        with kernel.sim_threads_scope(self.threads):
            yield

    def test_truth_tables_parity_random_migs(self):
        for seed in range(10):
            mig = make_random_mig(4 + seed, 20 + 15 * seed, seed=seed)
            assert truth_tables(mig, kernel=kernel._NUMPY) == truth_tables(
                mig, kernel=kernel._BIGINT
            ), f"seed {seed}"

    def test_truth_tables_parity_is_chunking_invariant(self):
        mig = make_random_mig(10, 120, seed=3)
        reference = truth_tables(mig, kernel=kernel._BIGINT)
        for chunk_bits in (4, 7, 8, 9, 13):
            assert (
                truth_tables(
                    mig, chunk_bits=chunk_bits, kernel=kernel._NUMPY
                )
                == reference
            ), f"chunk_bits {chunk_bits}"

    @pytest.mark.parametrize("width", [65, 100, 128, 129, 1000, 1024])
    def test_simulate_parity_at_odd_widths(self, width):
        mig = make_random_mig(7, 60, seed=11)
        rng = random.Random(width)
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
        assert simulate(
            mig, words, mask, kernel=kernel._NUMPY
        ) == simulate(mig, words, mask, kernel=kernel._BIGINT)

    def test_narrow_windows_fall_back_to_bigint_results(self):
        mig = make_random_mig(4, 20, seed=5)
        for width in (1, 7, 64):
            rng = random.Random(width)
            mask = (1 << width) - 1
            words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
            assert simulate(
                mig, words, mask, kernel=kernel._NUMPY
            ) == simulate(mig, words, mask, kernel=kernel._BIGINT)

    def test_equivalent_verdicts_match(self):
        m1 = make_random_mig(9, 70, seed=21)
        flipped = m1.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        for name in ("bigint", "numpy"):
            with kernel.backend_scope(name):
                assert equivalent(m1, m1.clone()), name
                assert not equivalent(m1, flipped), name

    def test_equivalent_after_interleaved_simulate(self, numpy_backend):
        mig = make_random_mig(8, 60, seed=23)
        reference = truth_tables(mig)
        rng = random.Random(0)
        mask = (1 << 256) - 1
        simulate(mig, [rng.getrandbits(256) for _ in range(8)], mask)
        assert truth_tables(mig) == reference

    def test_plan_invalidated_on_mutation(self, numpy_backend):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(a, b, c), "f")
        assert truth_tables(mig) == [0b11101000]
        mig.add_po(mig.add_xor(a, b), "x")
        assert truth_tables(mig) == [0b11101000, 0b01100110]

    def test_equivalent_is_thread_safe_on_shared_graphs(self, numpy_backend):
        import threading

        mig = make_random_mig(9, 120, seed=31)
        clone = mig.clone()
        failures = []

        def worker():
            for _ in range(25):
                if not equivalent(mig, clone):
                    failures.append("false inequivalence")
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_equivalent_same_object_both_sides(self, numpy_backend):
        mig = make_random_mig(8, 60, seed=33)
        assert equivalent(mig, mig)

    def test_counterexample_parity(self):
        m1 = Mig()
        a, b = m1.add_pi("a"), m1.add_pi("b")
        m1.add_po(m1.add_and(a, b), "f")
        m2 = Mig()
        a, b = m2.add_pi("a"), m2.add_pi("b")
        m2.add_po(m2.add_or(a, b), "f")
        for name in ("bigint", "numpy"):
            with kernel.backend_scope(name):
                cex = find_counterexample(m1, m2)
            assert cex is not None
            assert (cex["a"] & cex["b"]) != (cex["a"] | cex["b"]), name


@needs_numpy
class TestBatchParity(TestBackendParity):
    """The TestBackendParity checks on a four-thread pool, plus the
    level-batched engine's threaded paths and executable cache."""

    threads = 4

    def test_truth_tables_parity_threaded(self):
        with kernel.sim_threads_scope(4):
            for seed in (2, 5):
                mig = make_random_mig(13, 300, seed=seed)
                assert truth_tables(
                    mig, kernel=kernel._NUMPY
                ) == truth_tables(mig, kernel=kernel._BIGINT), f"seed {seed}"

    def test_registry_benchmark_sweep(self):
        # Every registry benchmark narrow enough for exhaustive sweeps,
        # on one thread and on a pool.
        from repro.mig.simulate import MAX_EXHAUSTIVE_PIS
        from repro.synth.registry import BENCHMARK_ORDER, build_benchmark

        swept = 0
        for name in BENCHMARK_ORDER:
            mig = build_benchmark(name, preset="tiny")
            if mig.num_pis > MAX_EXHAUSTIVE_PIS:
                continue
            reference = truth_tables(mig, kernel=kernel._BIGINT)
            with kernel.sim_threads_scope(1):
                assert truth_tables(
                    mig, kernel=kernel._NUMPY
                ) == reference, name
            with kernel.sim_threads_scope(3):
                assert truth_tables(
                    mig, kernel=kernel._NUMPY
                ) == reference, name
            swept += 1
        assert swept >= 10  # the tiny preset keeps most benchmarks narrow

    def test_threaded_simulate_splits_lanes(self):
        # Wide enough that the lane-split threaded path actually runs.
        mig = make_random_mig(9, 150, seed=17)
        width = 64 * 64 * 2  # 128 lanes = 2 x _MIN_THREAD_LANES x 2
        rng = random.Random(99)
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
        reference = simulate(mig, words, mask, kernel=kernel._BIGINT)
        with kernel.sim_threads_scope(4):
            assert simulate(
                mig, words, mask, kernel=kernel._NUMPY
            ) == reference

    def test_exhaustive_window_agreement(self):
        # 2^13-pattern windows split into per-thread sub-windows on the
        # pool; the reassembled words must equal the bigint chunks.
        from repro.mig.simulate import exhaustive_chunks

        mig = make_random_mig(14, 200, seed=19)
        for base, width, expected in exhaustive_chunks(
            mig, 13, kernel=kernel._BIGINT
        ):
            for threads in (1, 4):
                with kernel.sim_threads_scope(threads):
                    assert kernel._NUMPY.exhaustive_window(
                        mig, base, width
                    ) == expected, (base, threads)

    def test_equivalent_threaded_stripes(self, numpy_backend):
        m1 = make_random_mig(12, 250, seed=27)
        flipped = m1.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        with kernel.sim_threads_scope(4):
            assert equivalent(m1, m1.clone())
            assert not equivalent(m1, flipped)

    def test_per_thread_executables_are_isolated(self, numpy_backend):
        import threading

        mig = make_random_mig(10, 150, seed=43)
        reference = truth_tables(mig, kernel=kernel._BIGINT)
        failures = []

        def worker():
            for _ in range(15):
                if truth_tables(mig) != reference:
                    failures.append("parity broke under concurrency")
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_executable_lru_rebinds_interleaved_widths(self):
        # Interleaved widths on one warm plan must reuse cached
        # executables instead of rebuilding per call (the old
        # single-width cache thrashed here).
        plan = kernel._batch_plan(make_random_mig(8, 60, seed=45))
        a = plan.executable(4, 256)
        b = plan.executable(8, 512)
        assert plan.executable(4, 256) is a
        assert plan.executable(8, 512) is b

    def test_executable_lru_is_bounded(self):
        plan = kernel._batch_plan(make_random_mig(8, 60, seed=45))
        first = plan.executable(2, 128)
        for lanes in range(3, 4 + kernel._EXEC_LRU_SIZE):
            plan.executable(lanes, lanes * 64)
        assert plan.executable(2, 128) is not first  # evicted

    try:
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            num_pis=st.integers(min_value=3, max_value=10),
            num_gates=st.integers(min_value=5, max_value=120),
            seed=st.integers(min_value=0, max_value=1 << 16),
            threads=st.sampled_from([1, 3]),
        )
        def test_property_randomized_parity(
            self, num_pis, num_gates, seed, threads
        ):
            mig = make_random_mig(num_pis, num_gates, seed=seed)
            with kernel.sim_threads_scope(threads):
                assert truth_tables(
                    mig, kernel=kernel._NUMPY
                ) == truth_tables(mig, kernel=kernel._BIGINT)
    except ImportError:  # pragma: no cover - hypothesis is optional
        pass


def _raise(error):
    def boom(*args, **kwargs):
        raise error

    return boom


@needs_numpy
class TestDegradationChain:
    """Classified faults demote numpy -> bigint, sticky per scope, with
    one kernel_degraded event; any other engine error propagates."""

    def _mig(self):
        return make_random_mig(8, 60, seed=51)

    def test_full_chain_reaches_bigint(self, monkeypatch):
        from repro.resilience import events

        mig = self._mig()
        reference = truth_tables(mig, kernel=kernel._BIGINT)
        for error in (FaultInjected("kernel_fail", "job-b"), MemoryError()):
            monkeypatch.setattr(kernel._NUMPY, "_batch_window", _raise(error))
            monkeypatch.setattr(
                kernel._NUMPY, "_batch_simulate", _raise(error)
            )
            with events.capture() as log:
                with kernel.degradation_scope("job-b") as frame:
                    assert truth_tables(mig, kernel=kernel._NUMPY) == (
                        reference
                    )
                    assert frame["demoted"] == {"numpy"}
            (event,) = [e for e in log if e["kind"] == "kernel_degraded"]
            assert (event["backend"], event["fallback"]) == (
                "numpy", "bigint"
            )
            assert event["job"] == "job-b"

    def test_demotion_is_sticky_within_scope_only(self, monkeypatch):
        mig = self._mig()
        calls = {"n": 0}

        def boom(*a, **k):
            calls["n"] += 1
            raise FaultInjected("kernel_fail", "job-c")

        monkeypatch.setattr(kernel._NUMPY, "_batch_simulate", boom)
        mask = (1 << 256) - 1
        words = [0] * mig.num_pis
        with kernel.degradation_scope("job-c"):
            kernel._NUMPY.simulate(mig, words, mask)
            kernel._NUMPY.simulate(mig, words, mask)
            assert calls["n"] == 1  # second call skipped the dead engine
        kernel._NUMPY.simulate(mig, words, mask)
        assert calls["n"] == 2  # fresh scope retries the full engine


class TestRandomizedRounds:
    def test_bigint_defaults(self):
        k = kernel._BIGINT
        rounds, width, mask = randomized_rounds(1024, kernel=k)
        assert (rounds, width) == (16, 64)
        assert mask == (1 << 64) - 1

    def test_width_capped_at_samples(self):
        rounds, width, _ = randomized_rounds(16, kernel=kernel._BIGINT)
        assert (rounds, width) == (1, 16)

    def test_explicit_width_wins(self):
        rounds, width, _ = randomized_rounds(
            1024, 256, kernel=kernel._BIGINT
        )
        assert (rounds, width) == (4, 256)

    @needs_numpy
    def test_numpy_prefers_wider_sweeps(self):
        rounds, width, _ = randomized_rounds(4096, kernel=kernel._NUMPY)
        assert width == kernel._NUMPY.random_width
        assert rounds == 4096 // width

    def test_equivalent_accepts_width(self):
        m = make_random_mig(22, 30, seed=13)
        assert equivalent(m, m.clone(), exhaustive_limit=4, width=128)

    def test_find_counterexample_accepts_width(self):
        m = make_random_mig(6, 30, seed=13)
        assert find_counterexample(m, m.clone(), width=128) is None


class TestFlatGateMasks:
    def test_records_carry_xor_masks(self):
        mig = Mig()
        a, b, c = mig.add_pi(), mig.add_pi(), mig.add_pi()
        mig.add_po(mig.add_maj(a, complement(b), c))
        ((node, na, xa, nb, xb, nc, xc),) = mig.flat_gates()
        assert {xa, xb, xc} <= {0, -1}
        assert [xa, xb, xc].count(-1) == 1  # exactly the complemented edge

    def test_histogram_consistent_with_masks(self):
        mig = make_random_mig(6, 50, seed=9)
        hist = mig.complement_histogram()
        assert sum(hist) == mig.num_live_gates()
        assert sum(k * hist[k] for k in range(4)) == sum(
            -(xa + xb + xc) for _, _, xa, _, xb, _, xc in mig.flat_gates()
        )
