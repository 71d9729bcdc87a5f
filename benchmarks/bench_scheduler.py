"""Scheduler benchmark: interleaved studies vs sequential barrier pools.

Not a paper table — this tracks the modeled win of running the static
study and the dynamic crawl through one scheduler instead of two
sequential barrier pools. The workload is deliberately skewed the way
real mixed runs are: a handful of fat static chunks that underfill the
pool (until work-stealing splits them) plus a few long crawl shards that
a barrier would serialize behind. The interleaved results must stay
byte-identical to separate runs at every worker count exercised here.

The barrier reference is the greedy replay in ``_barrier.py``, fed with
the per-task costs the separate runs measured. Times are deterministic
TickClock units replayed through schedule simulators, so the asserted
speedup is modeled and stable across machines.
"""

from _barrier import simulate_schedule
from _emit import bench_json_fixture
from repro.core import DynamicStudy, InterleavedStudies, StaticStudy
from repro.obs import (
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    Obs,
)

# The machine-readable summary lands in BENCH_scheduler.json (override
# with REPRO_BENCH_JSON); see benchmarks/_emit.py for the shared schema.
bench_json = bench_json_fixture("scheduler", benchmark="stream_scheduler")

UNIVERSE = 6_000
SEED = 424
SITES = 8
WORKERS = 8
#: Fat static chunks: few enough to underfill the pool until stolen.
STATIC_CHUNK = 40


def _make_studies(workers):
    static = StaticStudy(
        universe_size=UNIVERSE, seed=SEED, obs=Obs(),
        max_workers=workers, chunk_size=STATIC_CHUNK,
        exec_backend="inline", telemetry=None, results_store=None,
    )
    dynamic = DynamicStudy(
        seed=SEED, site_count=SITES, obs=Obs(),
        max_workers=workers, chunk_size=1,
        exec_backend="inline", telemetry=None, results_store=None,
    )
    return static, dynamic


def _task_costs(obs):
    """Measured per-task costs of a run: its execute span's children."""
    return [task.duration for task in obs.tracer.find("execute").children]


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


def _barrier_baseline(workers):
    """Separate runs; returns (digests, summed barrier critical path).

    Each study's measured task costs are replayed through the greedy
    barrier pool, one study after the other.
    """
    static, dynamic = _make_studies(workers)
    result = static.run()
    crawl = dynamic.crawl_top_sites()
    critical = (
        simulate_schedule(_task_costs(static.obs), workers,
                          STATIC_CHUNK).critical_path
        + simulate_schedule(_task_costs(dynamic.obs), workers,
                            1).critical_path
    )
    return _study_digest(result), _crawl_digest(crawl), critical


def _interleaved(workers):
    """One shared scheduler; returns digests + schedule stats."""
    static, dynamic = _make_studies(workers)
    result, crawl = InterleavedStudies(static, dynamic).run()
    # Both studies report the same shared makespan; read it once.
    makespan = static.obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    steals = static.obs.registry.value(EXEC_STEALS_METRIC)
    busy = sum(
        static.obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    ) + sum(
        dynamic.obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    )
    assert makespan == dynamic.obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    return _study_digest(result), _crawl_digest(crawl), makespan, steals, busy


def test_interleaved_speedup_over_pooled_baseline(bench_json):
    base_static, base_crawl, base_critical = _barrier_baseline(WORKERS)
    static_digest, crawl_digest, makespan, steals, busy = _interleaved(
        WORKERS
    )

    # Byte-identity first: the speedup is worthless if the interleaved
    # run computes different artifacts than the separate runs.
    assert static_digest == base_static
    assert crawl_digest == base_crawl

    assert makespan > 0
    speedup = base_critical / makespan
    utilization = busy / (makespan * WORKERS)
    print()
    print("interleaved speedup at %d workers: %.2fx "
          "(barrier %.1f -> interleaved %.1f ticks, %d steals, "
          "%.0f%% pool utilization)"
          % (WORKERS, speedup, base_critical, makespan, steals,
             100 * utilization))

    bench_json["workers"] = WORKERS
    bench_json["universe_size"] = UNIVERSE
    bench_json["site_count"] = SITES
    bench_json["static_chunk_size"] = STATIC_CHUNK
    bench_json["barrier_critical_path"] = round(base_critical, 6)
    bench_json["interleaved_makespan"] = round(makespan, 6)
    bench_json["speedup"] = round(speedup, 2)
    bench_json["steals"] = int(steals)
    bench_json["pool_utilization"] = round(utilization, 4)

    # Work-stealing is what breaks the fat static chunks apart; without
    # at least one steal the interleaved run would inherit the same
    # underfilled pool the barrier had.
    assert steals >= 1
    assert speedup >= 1.5


def test_identity_holds_at_other_worker_counts(bench_json):
    checked = []
    for workers in (1, 3):
        base_static, base_crawl, _ = _barrier_baseline(workers)
        static_digest, crawl_digest, _, _, _ = _interleaved(workers)
        assert static_digest == base_static
        assert crawl_digest == base_crawl
        checked.append(workers)
    bench_json["identity_checked_workers"] = checked + [WORKERS]
