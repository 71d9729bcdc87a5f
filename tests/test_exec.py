"""Tests for the parallel-execution layer (repro.exec)."""

import importlib.util
import multiprocessing
import os

import pytest

from repro.exec import (
    AnalysisCache,
    BACKEND_AUTO,
    BACKEND_ENV_VAR,
    BACKEND_INLINE,
    BACKEND_PROCESS,
    CHUNK_SIZE_ENV_VAR,
    Chunk,
    ExecConfig,
    ExecConfigError,
    InlinePool,
    MAX_WORKERS_ENV_VAR,
    ProcessPool,
    RETRIES_ENV_VAR,
    WINDOW_ENV_VAR,
    chain_results,
    make_pool,
    process_backend_available,
)


def _load_barrier_replay():
    """The scheduler benchmark's greedy barrier replay (benchmarks/)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "_barrier.py")
    spec = importlib.util.spec_from_file_location("_barrier", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.simulate_schedule


simulate_schedule = _load_barrier_replay()


class TestExecConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_SIZE_ENV_VAR, raising=False)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        config = ExecConfig()
        assert config.max_workers == 1
        assert config.chunk_size == 8
        assert config.backend == BACKEND_AUTO
        assert config.resolved_backend == BACKEND_INLINE

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "4")
        monkeypatch.setenv(CHUNK_SIZE_ENV_VAR, "3")
        monkeypatch.setenv(BACKEND_ENV_VAR, BACKEND_INLINE)
        config = ExecConfig()
        assert config.max_workers == 4
        assert config.chunk_size == 3
        assert config.resolved_backend == BACKEND_INLINE

    def test_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "4")
        assert ExecConfig(max_workers=2).max_workers == 2

    def test_auto_resolution(self):
        assert ExecConfig(max_workers=1).resolved_backend == BACKEND_INLINE
        assert ExecConfig(max_workers=2).resolved_backend == BACKEND_PROCESS

    def test_window_bounds_in_flight_chunks(self):
        assert ExecConfig(max_workers=3).window == 6

    def test_validation(self, monkeypatch):
        with pytest.raises(ExecConfigError):
            ExecConfig(max_workers=0)
        with pytest.raises(ExecConfigError):
            ExecConfig(chunk_size=0)
        with pytest.raises(ExecConfigError):
            ExecConfig(backend="threads")
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "lots")
        with pytest.raises(ExecConfigError):
            ExecConfig()

    def test_window_env_override(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV_VAR, "5")
        assert ExecConfig(max_workers=3).window == 5

    def test_window_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV_VAR, "5")
        assert ExecConfig(max_workers=3, window=9).window == 9

    def test_window_validation(self, monkeypatch):
        with pytest.raises(ExecConfigError):
            ExecConfig(window=0)
        monkeypatch.setenv(WINDOW_ENV_VAR, "0")
        with pytest.raises(ExecConfigError):
            ExecConfig()
        monkeypatch.setenv(WINDOW_ENV_VAR, "wide")
        with pytest.raises(ExecConfigError):
            ExecConfig()

    def test_retries_env_and_validation(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "5")
        assert ExecConfig().max_attempts == 5
        monkeypatch.setenv(RETRIES_ENV_VAR, "0")
        with pytest.raises(ExecConfigError):
            ExecConfig()


class TestAnalysisCache:
    def test_miss_then_hit(self):
        cache = AnalysisCache()
        assert cache.get("a" * 64, (True,)) is None
        cache.put("a" * 64, (True,), "outcome")
        assert cache.get("a" * 64, (True,)) == "outcome"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_fingerprint_separates_option_sets(self):
        cache = AnalysisCache()
        cache.put("a" * 64, (True, True), "strict")
        cache.put("a" * 64, (False, True), "naive")
        assert cache.get("a" * 64, (True, True)) == "strict"
        assert cache.get("a" * 64, (False, True)) == "naive"
        assert len(cache) == 2

    def test_clear(self):
        cache = AnalysisCache()
        cache.put("a" * 64, (), 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a" * 64, ()) is None


class TestSimulateSchedule:
    """The greedy barrier replay the scheduler benchmark compares against."""

    def test_empty(self):
        schedule = simulate_schedule([], 4, 2)
        assert schedule.critical_path == 0.0
        assert schedule.speedup == 1.0
        assert schedule.assignments == []

    def test_uniform_costs_balance_perfectly(self):
        schedule = simulate_schedule([1.0] * 8, 4, 1)
        assert schedule.worker_busy == [2.0, 2.0, 2.0, 2.0]
        assert schedule.critical_path == 2.0
        assert schedule.speedup == 4.0

    def test_greedy_earliest_free_worker(self):
        # w0 takes the 5; the three 1s drain through w1.
        schedule = simulate_schedule([5.0, 1.0, 1.0, 1.0], 2, 1)
        assert schedule.assignments == [0, 1, 1, 1]
        assert schedule.worker_busy == [5.0, 3.0]
        assert schedule.critical_path == 5.0

    def test_chunks_stay_together(self):
        schedule = simulate_schedule([1.0, 1.0, 1.0, 1.0], 2, 2)
        assert schedule.assignments == [0, 0, 1, 1]

    def test_rejects_invalid_worker_and_chunk_counts(self):
        with pytest.raises(ExecConfigError):
            simulate_schedule([1.0], 0, 1)
        with pytest.raises(ExecConfigError):
            simulate_schedule([1.0], 2, 0)

    def test_serial_schedule_has_no_speedup(self):
        schedule = simulate_schedule([1.0, 2.0, 3.0], 1, 2)
        assert schedule.speedup == 1.0
        assert schedule.critical_path == 6.0


def _square(value):
    return value * value


def _negate(value):
    return -value


def _explode(value):
    raise RuntimeError("task %d blew up" % value)


def join_leftover_children(timeout=30):
    """Wait out workers of pools that earlier tests broke on purpose.

    A broken pool is shut down without waiting, so its workers may
    still be exiting when the next test starts.
    """
    for child in multiprocessing.active_children():
        child.join(timeout)


def run_pool(pool, items, fn, chunk_size=1, on_result=None):
    """Map ``fn`` over ``items`` as one stage; results in input order."""
    results = [None] * len(items)
    chunks = [Chunk(0, list(range(start, min(start + chunk_size,
                                             len(items)))))
              for start in range(0, len(items), chunk_size)]

    def deliver(chunk, outcomes):
        if outcomes is None:
            outcomes = [("lost", items[chunk.indices[0]])]
        for index, value in zip(chunk.indices, outcomes):
            results[index] = value
            if on_result is not None:
                on_result(value)

    pool.map(items, [fn], chunks, deliver)
    return results


class TestWorkerPools:
    def test_inline_pool_ordered(self):
        pool = InlinePool(ExecConfig(max_workers=1))
        assert run_pool(pool, [1, 2, 3], _square) == [1, 4, 9]

    def test_process_pool_matches_inline(self):
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS)
        values = list(range(11))
        assert run_pool(ProcessPool(config), values, _square,
                        chunk_size=2) == [v * v for v in values]

    def test_process_pool_empty_input(self):
        config = ExecConfig(max_workers=2, backend=BACKEND_PROCESS)
        assert run_pool(ProcessPool(config), [], _square) == []

    def test_process_pool_propagates_worker_bugs(self):
        config = ExecConfig(max_workers=2, chunk_size=1,
                            backend=BACKEND_PROCESS)
        with pytest.raises(RuntimeError):
            run_pool(ProcessPool(config), [1], _explode)

    @pytest.mark.parametrize("backend", [BACKEND_INLINE, BACKEND_PROCESS])
    def test_each_chunk_runs_its_stage_function(self, backend):
        config = ExecConfig(max_workers=2, backend=backend)
        pool = make_pool(config)
        results = {}

        def deliver(chunk, outcomes):
            results.update(zip(chunk.indices, outcomes))

        chunks = [Chunk(0, [0, 1]), Chunk(1, [2, 3]), Chunk(0, [4])]
        pool.map([1, 2, 3, 4, 5], [_square, _negate], chunks, deliver)
        assert results == {0: 1, 1: 4, 2: -3, 3: -4, 4: 25}

    @pytest.mark.skipif(not process_backend_available(),
                        reason="process pools unavailable on this platform")
    def test_process_pool_joins_its_workers(self):
        join_leftover_children()
        config = ExecConfig(max_workers=2, chunk_size=1,
                            backend=BACKEND_PROCESS)
        run_pool(ProcessPool(config), list(range(6)), _square)
        # Joined workers are accounted to getrusage(RUSAGE_CHILDREN).
        assert multiprocessing.active_children() == []

    def test_make_pool_resolves_backend(self):
        assert make_pool(ExecConfig(max_workers=1)).name == BACKEND_INLINE
        assert make_pool(ExecConfig(max_workers=2)).name == BACKEND_PROCESS

    def test_make_pool_falls_back_when_processes_unavailable(
        self, monkeypatch
    ):
        import repro.exec.pool as pool_module

        monkeypatch.setattr(pool_module, "process_backend_available",
                            lambda: False)
        events = []

        class Log:
            def warning(self, event, **kv):
                events.append(event)

        pool = pool_module.make_pool(
            ExecConfig(max_workers=4, backend=BACKEND_PROCESS), log=Log()
        )
        assert pool.name == BACKEND_INLINE
        assert events == ["process_backend_unavailable"]


def _die_in_worker(value):
    # Simulated worker death: os._exit skips all exception machinery, so
    # the executor sees only a vanished process (BrokenProcessPool). The
    # parent-process guard keeps the same call harmless inline.
    if value == 13 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * value


@pytest.mark.skipif(not process_backend_available(),
                    reason="process pools unavailable on this platform")
class TestProcessPoolRepair:
    def test_worker_death_repaired_without_aborting(self):
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS, max_attempts=2)
        pool = ProcessPool(config)
        seen = []
        values = list(range(20))
        results = run_pool(pool, values, _die_in_worker, chunk_size=2,
                           on_result=seen.append)
        # The task that keeps killing its worker is quarantined; every
        # innocent task, its chunk-mate included, still delivers.
        assert results == [("lost", 13) if v == 13 else v * v
                           for v in values]
        assert pool.repaired_chunks >= 1
        assert pool.quarantined_tasks == 1
        # Every result was also delivered through the on_result hook,
        # including the ones from repaired chunks.
        assert sorted(map(str, seen)) == sorted(map(str, results))

    def test_inline_pool_never_repairs(self):
        pool = InlinePool(ExecConfig(max_workers=1))
        assert run_pool(pool, [1, 2], _square) == [1, 4]
        assert pool.repaired_chunks == 0


class _RecordingHook:
    """An on_result hook that also wants the expected total via begin()."""

    def __init__(self):
        self.begun = []
        self.values = []

    def begin(self, total):
        self.begun.append(total)

    def __call__(self, value):
        self.values.append(value)


class TestChainResults:
    def test_all_nones_collapse_to_none(self):
        assert chain_results() is None
        assert chain_results(None, None) is None

    def test_single_survivor_passes_through_unwrapped(self):
        hook = _RecordingHook()
        assert chain_results(None, hook, None) is hook

    def test_fanout_delivers_to_every_hook(self):
        values = []
        hook = _RecordingHook()
        chained = chain_results(values.append, None, hook)
        chained(3)
        chained(4)
        assert values == [3, 4]
        assert hook.values == [3, 4]

    def test_begin_forwarding_with_mixed_hooks(self):
        # Plain callables have no begin(); the chain still grows one that
        # reaches every hook that does.
        plain = []
        first = _RecordingHook()
        second = _RecordingHook()
        chained = chain_results(plain.append, first, second)
        chained.begin(7)
        assert first.begun == [7]
        assert second.begun == [7]

    def test_no_begin_when_no_hook_wants_one(self):
        sink_a, sink_b = [], []
        chained = chain_results(sink_a.append, sink_b.append)
        assert not hasattr(chained, "begin")

    def test_chained_hooks_on_inline_pool(self):
        pool = InlinePool(ExecConfig(max_workers=1))
        values = []
        hook = _RecordingHook()
        results = run_pool(pool, [1, 2, 3], _square,
                           on_result=chain_results(values.append, hook))
        assert results == [1, 4, 9]
        assert values == [1, 4, 9]
        assert hook.values == [1, 4, 9]

    @pytest.mark.skipif(not process_backend_available(),
                        reason="process pools unavailable on this platform")
    def test_chained_hooks_on_process_pool(self):
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS)
        values = []
        hook = _RecordingHook()
        results = run_pool(
            ProcessPool(config), list(range(9)), _square, chunk_size=2,
            on_result=chain_results(values.append, hook),
        )
        assert results == [v * v for v in range(9)]
        # Completion order may differ from input order, but every result
        # reaches both hooks exactly once, in the same interleaving.
        assert sorted(values) == sorted(results)
        assert hook.values == values
