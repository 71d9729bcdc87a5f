"""Tests for the stream scheduler (repro.exec.stream) and study driver.

Covers the scheduler machinery itself (ordered delivery, interleaving,
steal/repair/quarantine under injected worker death) and the study-level
contract: runs are byte-identical across worker counts and backends, a
mixed static+dynamic run through one shared scheduler matches separate
runs, and a quarantined task is one failed task and one drop.
"""

import multiprocessing
import os

import pytest

import repro.dynamic.crawler as crawler_module
import repro.endpoints.census as endpoints_module
import repro.impact.census as impact_module
import repro.static_analysis.pipeline as pipeline_module
from repro.corpus import CorpusConfig, generate_corpus
from repro.dynamic.apps import real_app_profiles
from repro.dynamic.crawler import AdbCrawler
from repro.endpoints import EndpointCensus
from repro.errors import WorkerLostError
from repro.exec import (
    BACKEND_PROCESS,
    ExecConfig,
    ExecConfigError,
    OrderedFlush,
    StreamScheduler,
    StreamStage,
    WORKER_LOST_SLUG,
    process_backend_available,
    simulate_stream_chunks,
)
from repro.impact import ImpactCensus
from repro.obs import (
    DROPS_METRIC,
    EXEC_TASKS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    Obs,
)
from repro.static_analysis import StaticAnalysisPipeline
from repro.util import fingerprint_token
from repro.web.sites import top_sites

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="process pools unavailable on this platform",
)


class TestOrderedFlush:
    def test_in_order_pushes_flush_immediately(self):
        seen = []
        flush = OrderedFlush(lambda i, v: seen.append((i, v)))
        flush.push(0, "a")
        flush.push(1, "b")
        assert seen == [(0, "a"), (1, "b")]
        assert flush.buffered == 0

    def test_out_of_order_pushes_buffer_until_prefix_completes(self):
        seen = []
        flush = OrderedFlush(lambda i, v: seen.append(i))
        flush.push(2, "c")
        flush.push(1, "b")
        assert seen == []
        assert flush.buffered == 2
        flush.push(0, "a")
        assert seen == [0, 1, 2]
        assert flush.buffered == 0


def _chunked(costs, size):
    return [costs[start:start + size] for start in range(0, len(costs), size)]


class TestSimulateStream:
    def test_serial_equals_total_work(self):
        schedule = simulate_stream_chunks(_chunked([3.0, 1.0, 2.0], 1), 1)
        assert schedule.critical_path == 6.0
        assert schedule.steals == 0

    def test_stealing_hides_the_straggler_tail(self):
        # One giant task at the head of a chunk plus uniform filler: a
        # pool that never steals must run that whole chunk serially (103
        # ticks); stealing moves its chunk-mates to idle workers.
        costs = [100.0] + [1.0] * 28
        streamed = simulate_stream_chunks(_chunked(costs, 4), 4)
        assert streamed.steals > 0
        assert streamed.critical_path < sum(costs[:4])
        assert streamed.critical_path == 100.0

    def test_deterministic_across_calls(self):
        costs = [float((i * 7) % 13 + 1) for i in range(40)]
        first = simulate_stream_chunks(_chunked(costs, 4), 3)
        second = simulate_stream_chunks(_chunked(costs, 4), 3)
        assert first.assignments == second.assignments
        assert first.critical_path == second.critical_path
        assert first.steals == second.steals

    def test_empty(self):
        schedule = simulate_stream_chunks([], 4, chunk_size=2)
        assert schedule.critical_path == 0.0
        assert schedule.assignments == []

    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ExecConfigError):
            simulate_stream_chunks([[1.0]], 0)


def _tag(task):
    return ("done", task)


class TestStreamSchedulerInline:
    def test_ordered_consumers_see_task_order(self):
        stage = StreamStage("s", list(range(10)), _tag, chunk_size=3)
        order = []
        stage.consume_ordered(lambda i, out: order.append(i))
        scheduler = StreamScheduler(ExecConfig(max_workers=1, chunk_size=3))
        results = scheduler.run([stage])
        assert order == list(range(10))
        assert results[0] == [("done", t) for t in range(10)]

    def test_sinks_see_every_outcome(self):
        stage = StreamStage("s", [1, 2, 3], _tag)
        seen = []
        stage.consume(seen.append)
        stage.consume(None)  # Nones are ignored, like chain_results
        StreamScheduler(ExecConfig(max_workers=1)).run([stage])
        assert sorted(seen) == [("done", 1), ("done", 2), ("done", 3)]

    def test_round_robin_interleaves_stage_chunks(self):
        fast = StreamStage("fast", list(range(4)), _tag, chunk_size=2)
        slow = StreamStage("slow", list(range(6)), _tag, chunk_size=3)
        scheduler = StreamScheduler(ExecConfig(max_workers=1, chunk_size=8))
        scheduler.run([fast, slow])
        # Dispatch alternates fast/slow chunks instead of draining one
        # stage before starting the other.
        assert [stage for stage, _ in scheduler.chunk_plan] == [0, 1, 0, 1]

    def test_per_event_context_wraps_tasks_and_deliveries(self):
        import contextlib

        entries = []

        @contextlib.contextmanager
        def ctx():
            entries.append("enter")
            yield

        stage = StreamStage("s", [1, 2], _tag, context=ctx)
        stage.consume_ordered(lambda i, out: None)
        StreamScheduler(ExecConfig(max_workers=1)).run([stage])
        # One enter per task execution plus one per ordered flush batch.
        assert len(entries) >= 2

    def test_simulate_assigns_every_task_a_worker(self):
        stages = [
            StreamStage("a", list(range(7)), _tag, chunk_size=2),
            StreamStage("b", list(range(3)), _tag, chunk_size=1),
        ]
        scheduler = StreamScheduler(ExecConfig(max_workers=2, chunk_size=4,
                                               backend="inline"))
        scheduler.run(stages)
        schedule, assignments = scheduler.simulate(
            [[1.0] * 7, [2.0] * 3]
        )
        assert sorted(assignments) == [0, 1]
        assert all(w is not None for w in assignments[0])
        assert all(w is not None for w in assignments[1])
        assert len(assignments[0]) == 7 and len(assignments[1]) == 3
        assert schedule.critical_path > 0


# -- fault injection ----------------------------------------------------------
#
# os._exit skips all exception machinery, so the executor only sees a
# vanished worker (BrokenProcessPool). The parent-process guard keeps the
# same call harmless if it ever runs inline.

_FLAG_DIR = {"path": None}


def _die_once(value):
    flag = os.path.join(_FLAG_DIR["path"], "died-%d" % value)
    if (value == 5 and multiprocessing.parent_process() is not None
            and not os.path.exists(flag)):
        open(flag, "w").close()
        os._exit(1)
    return value * value


def _square(value):
    return value * value


def _die_always(value):
    if value == 7 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * value


@needs_processes
class TestStreamSchedulerFaults:
    def config(self):
        return ExecConfig(max_workers=2, chunk_size=2,
                          backend=BACKEND_PROCESS, max_attempts=2)

    def test_transient_worker_death_is_repaired(self, tmp_path):
        _FLAG_DIR["path"] = str(tmp_path)
        stage = StreamStage("s", list(range(12)), _die_once)
        scheduler = StreamScheduler(self.config())
        results = scheduler.run([stage])
        assert results[0] == [v * v for v in range(12)]
        assert scheduler.repaired_chunks >= 1
        assert scheduler.quarantined_tasks == 0

    def test_poisoned_task_quarantined_innocents_survive(self):
        stage = StreamStage("s", list(range(12)), _die_always,
                            on_lost=lambda task: ("lost", task))
        scheduler = StreamScheduler(self.config())
        results = scheduler.run([stage])
        # Exactly the poisoned task is quarantined; every innocent task
        # that shared a chunk or a pool with it still delivers.
        assert results[0][7] == ("lost", 7)
        assert [r for i, r in enumerate(results[0]) if i != 7] == [
            v * v for v in range(12) if v != 7
        ]
        assert scheduler.quarantined_tasks == 1

    def test_quarantine_without_on_lost_raises(self):
        stage = StreamStage("s", list(range(8)), _die_always)
        with pytest.raises(WorkerLostError):
            StreamScheduler(self.config()).run([stage])

    def test_run_joins_pool_workers(self):
        # Workers of the pools the tests above broke may still be exiting.
        for child in multiprocessing.active_children():
            child.join(30)
        stage = StreamStage("s", list(range(6)), _square)
        results = StreamScheduler(self.config()).run([stage])
        assert results[0] == [v * v for v in range(6)]
        # Workers are joined before run() returns, so their CPU time is
        # in getrusage(RUSAGE_CHILDREN) when the run is reported.
        assert multiprocessing.active_children() == []


# -- study-level byte-identity -----------------------------------------------


def _study_digest(result):
    return [
        (a.package, a.failed, a.uses_webview, a.uses_customtabs,
         len(a.calls), a.class_count)
        for a in result.analyses
    ]


def _crawl_digest(crawl):
    return (
        [(v.app.name, v.site.host, tuple(v.endpoints)) for v in crawl.visits],
        sorted((host, tuple(sorted(hosts)))
               for host, hosts in crawl._baseline.items()),
    )


def _make_pipeline(workers, backend="inline", chunk_size=4):
    corpus = generate_corpus(CorpusConfig(universe_size=2_500, seed=4242))
    config = ExecConfig(max_workers=workers, chunk_size=chunk_size,
                        backend=backend)
    return StaticAnalysisPipeline(corpus, obs=Obs(), exec_config=config)


def _make_crawler(workers, backend="inline", window=None):
    profiles = {p.name: p for p in real_app_profiles()}
    config = ExecConfig(max_workers=workers, chunk_size=1, backend=backend,
                        window=window)
    return AdbCrawler([profiles["LinkedIn"], profiles["Kik"]],
                      sites=top_sites(4), seed=11, obs=Obs(),
                      exec_config=config)


class TestStreamingByteIdentity:
    def test_static_pipeline_matches_across_workers(self):
        serial = _make_pipeline(1).run(max_apps=30)
        sharded = _make_pipeline(3, chunk_size=1).run(max_apps=30)
        assert _study_digest(sharded) == _study_digest(serial)
        assert sharded.funnel_dict() == serial.funnel_dict()

    @needs_processes
    def test_static_pipeline_matches_on_process_backend(self):
        inline = _make_pipeline(1).run(max_apps=20)
        processed = _make_pipeline(2, BACKEND_PROCESS).run(max_apps=20)
        assert _study_digest(processed) == _study_digest(inline)

    @needs_processes
    def test_crawler_matches_on_process_backend(self):
        # A one-chunk window on two workers: shards complete out of
        # order and the ordered merge must still match the inline crawl.
        inline = _make_crawler(1).crawl()
        processed = _make_crawler(2, BACKEND_PROCESS, window=1).crawl()
        assert _crawl_digest(processed) == _crawl_digest(inline)

    def test_streaming_run_report_shows_scheduler_rows(self):
        pipeline = _make_pipeline(3)
        pipeline.run(max_apps=20)
        report = pipeline.obs.run_report("t")
        assert "work steals" in report
        assert "chunks repaired" in report
        assert "tasks quarantined" in report


class TestInterleavedStudies:
    def test_matches_separate_runs(self):
        from repro.core import InterleavedStudies
        from repro.core.study import DynamicStudy, StaticStudy

        def make(workers):
            static = StaticStudy(universe_size=2_500, seed=77, obs=Obs(),
                                 max_workers=workers, chunk_size=4,
                                 exec_backend="inline", telemetry=None,
                                 results_store=None)
            static.telemetry = static.results_store = None
            dynamic = DynamicStudy(seed=9, site_count=4, obs=Obs(),
                                   max_workers=workers, chunk_size=1,
                                   exec_backend="inline", telemetry=None,
                                   results_store=None)
            dynamic.telemetry = dynamic.results_store = None
            return static, dynamic

        static0, dynamic0 = make(1)
        base_result = static0.run(max_apps=25)
        base_crawl = dynamic0.crawl_top_sites()

        static1, dynamic1 = make(3)
        result, crawl = InterleavedStudies(static1, dynamic1).run(max_apps=25)
        assert _study_digest(result) == _study_digest(base_result)
        assert _crawl_digest(crawl) == _crawl_digest(base_crawl)
        # Both studies expose the shared schedule in their run reports.
        assert "work steals" in static1.run_report()
        assert "work steals" in dynamic1.run_report()

    def test_prepared_ingest_rows_match_unprepared_ingest(self, tmp_path):
        import sqlite3

        from repro.core.study import StaticStudy
        from repro.results.store import ResultsStore

        def rows(path):
            conn = sqlite3.connect(path)
            try:
                return {
                    table: sorted(map(tuple, conn.execute(
                        "SELECT * FROM %s" % table)))
                    for table in ("outcomes", "sdk_labels", "method_calls")
                }
            finally:
                conn.close()

        # The study ingests rows it labeled while merging; the same
        # result ingested afresh labels every row inside the ingest.
        prepared_path = str(tmp_path / "prepared.db")
        study = StaticStudy(universe_size=2_500, seed=77, obs=Obs(),
                            max_workers=2, chunk_size=4,
                            exec_backend="inline", telemetry=None,
                            results_store=ResultsStore(prepared_path))
        study.telemetry = None
        result = study.run(max_apps=20)
        fresh_path = str(tmp_path / "fresh.db")
        ResultsStore(fresh_path).ingest(
            result, corpus=study.corpus.fingerprint(),
            options=fingerprint_token(study.options.cache_key()),
            snapshot=str(study.corpus.config.snapshot_date),
        )
        assert rows(prepared_path) == rows(fresh_path)


@needs_processes
class TestPipelineFaultInjection:
    def test_poisoned_app_becomes_worker_lost_drop(self, monkeypatch):
        original = pipeline_module._run_analysis_task
        monkeypatch.setattr(pipeline_module, "_run_analysis_task",
                            _poisoned_analysis_task)
        _POISON["original"] = original
        pipeline = _make_pipeline(2, BACKEND_PROCESS)
        pipeline.exec_config.max_attempts = 2
        result = pipeline.run(max_apps=12)
        # The run completed: every selected app is analyzed or accounted
        # for as a drop — the poisoned one under worker_lost.
        assert result.analyzed + result.broken == 12
        drops = pipeline.obs.registry.label_values(DROPS_METRIC)
        assert drops.get((WORKER_LOST_SLUG,), 0) >= 1
        quarantined = pipeline.obs.registry.value(
            EXEC_TASKS_QUARANTINED_METRIC
        )
        assert quarantined >= 1
        assert "tasks quarantined" in pipeline.obs.run_report("t")


_POISON = {"original": None}


def _poisoned_analysis_task(settings, task):
    if task.position == 1 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return _POISON["original"](settings, task)


# -- one quarantined task per study -------------------------------------------
#
# Each study's worker entry point is swapped for one that kills its worker
# on the task at position 1, every time. The study driver must quarantine that
# one task into exactly one worker_lost drop and one failed task, keep
# drops == listed - analyzed, and leave it uncached so a healthy rerun
# analyzes the app.

_POISONED = {}


def _poisoned(settings, task):
    if task.position == 1 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return _POISONED["original"](settings, task)


def _static_study(workers):
    pipeline = _make_pipeline(workers, BACKEND_PROCESS)
    pipeline.exec_config.max_attempts = 2

    def run():
        result = pipeline.run(max_apps=8)
        failed = {a.package for a in result.analyses if a.failed}
        return result.androzoo_play_apps, result.analyzed, failed
    return pipeline, run


def _crawl_study(workers):
    profiles = real_app_profiles()[:3]
    crawler = AdbCrawler(profiles, sites=top_sites(2), seed=11, obs=Obs(),
                         include_baseline=False,
                         exec_config=ExecConfig(
                             max_workers=workers, chunk_size=1,
                             backend=BACKEND_PROCESS, max_attempts=2))

    def run():
        crawl = crawler.crawl()
        crawled = {visit.app.package for visit in crawl.visits}
        missing = {app.package for app in profiles} - crawled
        return len(profiles), len(crawled), missing
    return crawler, run


def _impact_study(workers):
    profiles = real_app_profiles()[:4]
    census = ImpactCensus(apps=profiles, seed=0, obs=Obs(),
                          exec_config=ExecConfig(
                              max_workers=workers, chunk_size=1,
                              backend=BACKEND_PROCESS, max_attempts=2))

    def run():
        result = census.run()
        probed = {record.package for record in result.records}
        missing = {app.package for app in profiles} - probed
        return len(profiles), len(result.records), missing
    return census, run


def _endpoint_study(workers):
    corpus = generate_corpus(CorpusConfig(universe_size=120))
    specs = corpus.selected_specs()[:6]
    census = EndpointCensus(corpus, apps=specs, obs=Obs(),
                            exec_config=ExecConfig(
                                max_workers=workers, chunk_size=2,
                                backend=BACKEND_PROCESS, max_attempts=2))

    def run():
        result = census.run()
        found = {app.package for app in result.apps}
        missing = {spec.package for spec in specs} - found
        return len(specs), len(result.apps), missing
    return census, run


@needs_processes
@pytest.mark.parametrize("module, entry, make", [
    (pipeline_module, "_run_analysis_task", _static_study),
    (crawler_module, "_run_crawl_shard", _crawl_study),
    (impact_module, "_run_impact_shard", _impact_study),
    (endpoints_module, "_run_endpoint_shard", _endpoint_study),
], ids=["static", "crawl", "impact", "endpoints"])
def test_quarantined_task_is_one_failed_drop(module, entry, make,
                                             monkeypatch):
    study, run = make(2)
    _POISONED["original"] = getattr(module, entry)
    monkeypatch.setattr(module, entry, _poisoned)
    listed, analyzed, missing = run()
    registry = study.obs.registry
    drops = registry.label_values(DROPS_METRIC)
    assert sum(drops.values()) == listed - analyzed
    assert drops[(WORKER_LOST_SLUG,)] == 1
    assert registry.label_values(EXEC_TASKS_METRIC)[("failed",)] == 1
    assert len(missing) == 1

    # A healthy rerun retries the lost app instead of serving the
    # quarantined outcome from a cache.
    monkeypatch.undo()
    _, reran, still_missing = run()
    assert reran == analyzed + 1
    assert not still_missing
