"""Run reports: a pipeline-health summary rendered as markdown.

:func:`render_run_report` turns one study's :class:`~repro.obs.Obs`
bundle into the report the benchmarks print next to their
paper-vs-measured blocks: throughput, the drop taxonomy, and per-stage
time shares. Tables go through :mod:`repro.reporting` so the output
matches every other artifact the repo renders.
"""

from repro.reporting import Table
from repro.reporting.markdown import table_to_markdown

#: Stage timing metrics fed automatically by :class:`repro.obs.Obs`.
STAGE_SECONDS_METRIC = "repro_stage_seconds_total"
STAGE_CALLS_METRIC = "repro_stage_calls_total"
STAGE_ERRORS_METRIC = "repro_stage_errors_total"

#: Static-pipeline funnel metrics.
APPS_LISTED_METRIC = "repro_pipeline_apps_listed_total"
APPS_ANALYZED_METRIC = "repro_pipeline_apps_analyzed_total"
DROPS_METRIC = "repro_pipeline_drops_total"

#: Parallel-execution metrics (repro.exec), fed by the sharded pipeline.
EXEC_BACKEND_METRIC = "repro_exec_backend_info"
EXEC_WORKERS_METRIC = "repro_exec_workers"
EXEC_CHUNK_SIZE_METRIC = "repro_exec_chunk_size"
EXEC_TASKS_METRIC = "repro_exec_tasks_total"
EXEC_QUEUE_DEPTH_METRIC = "repro_exec_queue_depth_peak"
EXEC_WORKER_BUSY_METRIC = "repro_exec_worker_busy_seconds_total"
EXEC_CRITICAL_PATH_METRIC = "repro_exec_critical_path_seconds"
EXEC_CACHE_HITS_METRIC = "repro_exec_cache_hits_total"
EXEC_CACHE_MISSES_METRIC = "repro_exec_cache_misses_total"
EXEC_CACHE_EVICTIONS_METRIC = "repro_exec_cache_evictions_total"

#: Scheduler metrics (repro.exec): simulated work-steal events,
#: chunks re-run after worker death, and tasks quarantined into the
#: drop taxonomy once the retry budget ran out.
EXEC_STEALS_METRIC = "repro_exec_steals_total"
EXEC_CHUNKS_REPAIRED_METRIC = "repro_exec_chunks_repaired_total"
EXEC_TASKS_QUARANTINED_METRIC = "repro_exec_tasks_quarantined_total"

#: Class-level content-addressed cache metrics (repro.exec two-tier
#: store), accounted deterministically by replaying per-APK digest
#: streams in selection order — never from worker-local hit counts.
EXEC_CLASS_CACHE_HITS_METRIC = "repro_exec_class_cache_hits_total"
EXEC_CLASS_CACHE_MISSES_METRIC = "repro_exec_class_cache_misses_total"
EXEC_CLASS_BYTES_DEDUPED_METRIC = "repro_exec_class_bytes_deduped_total"
EXEC_CLASS_TIME_SAVED_METRIC = "repro_exec_class_time_saved_seconds_total"

#: Dynamic-pipeline crawl metrics (repro.dynamic.crawler).
CRAWL_VISITS_METRIC = "repro_crawl_visits_total"
CRAWL_NETLOG_EVENTS_METRIC = "repro_crawl_netlog_events_total"
CRAWL_VISIT_ENDPOINTS_METRIC = "repro_crawl_visit_endpoints"

#: Compiled-script cache metrics (repro.web.jsengine), accounted by the
#: crawler's deterministic selection-order replay of per-visit
#: ``(digest, parse cost)`` streams — recorded whether the cache is
#: enabled or not, so the exported registry is identical either way.
SCRIPT_CACHE_HITS_METRIC = "repro_script_cache_hits_total"
SCRIPT_CACHE_MISSES_METRIC = "repro_script_cache_misses_total"
SCRIPT_CACHE_TIME_SAVED_METRIC = "repro_script_cache_time_saved_seconds_total"

#: Injection-impact census metrics (repro.impact), recorded in
#: selection order during the merge so they are byte-identical at any
#: worker count and backend.
IMPACT_APPS_METRIC = "repro_impact_apps_total"
IMPACT_BRIDGES_METRIC = "repro_impact_bridges_total"
IMPACT_FINDINGS_METRIC = "repro_impact_findings_total"
IMPACT_FLOWS_METRIC = "repro_impact_taint_flows_total"
IMPACT_CLEARTEXT_METRIC = "repro_impact_cleartext_visits_total"

#: Static endpoint census metrics (repro.endpoints), recorded in
#: selection order during the merge (same determinism contract as the
#: impact census); the summary-cache counters come from the
#: selection-order digest replay, never from worker-local counts.
ENDPOINTS_APPS_METRIC = "repro_endpoints_apps_total"
ENDPOINTS_FOUND_METRIC = "repro_endpoints_found_total"
ENDPOINTS_CLEARTEXT_METRIC = "repro_endpoints_cleartext_total"
ENDPOINTS_CREDENTIALS_METRIC = "repro_endpoints_credentials_total"
ENDPOINTS_SUMMARY_CACHE_HITS_METRIC = "repro_endpoints_summary_hits_total"
ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC = "repro_endpoints_summary_misses_total"
ENDPOINTS_SUMMARY_TIME_SAVED_METRIC = (
    "repro_endpoints_summary_time_saved_seconds_total"
)
ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC = (
    "repro_endpoints_summary_bytes_deduped_total"
)

#: Longitudinal engine metrics (repro.longitudinal), fed per snapshot run.
LONGITUDINAL_APPS_METRIC = "repro_longitudinal_apps_total"
LONGITUDINAL_DELTA_METRIC = "repro_longitudinal_delta_apps_total"
LONGITUDINAL_RUNS_METRIC = "repro_longitudinal_runs_total"
LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC = (
    "repro_longitudinal_checkpoint_flushes_total"
)


def elapsed_for(tracer, root_span):
    """Total duration of every span named ``root_span`` in the forest."""
    return sum(
        span.duration for span in tracer.iter_spans()
        if span.name == root_span
    )


def render_run_report(obs, title, items_label="apps", items_count=0,
                      root_span="run", drop_metric=DROPS_METRIC):
    """Render the throughput / drops / stage-share report as markdown.

    Durations are in the bundle's clock units — real seconds when a real
    clock was injected, deterministic ticks otherwise (the report labels
    them "clock s" either way; see DESIGN.md §Observability).
    """
    sections = [_throughput_table(obs, items_label, items_count, root_span)]
    execution = _exec_table(obs)
    if execution is not None:
        sections.append(execution)
    dynamic = _dynamic_table(obs)
    if dynamic is not None:
        sections.append(dynamic)
    impact = _impact_table(obs)
    if impact is not None:
        sections.append(impact)
    endpoints = _endpoints_table(obs)
    if endpoints is not None:
        sections.append(endpoints)
    longitudinal = _longitudinal_table(obs)
    if longitudinal is not None:
        sections.append(longitudinal)
    drops = _drop_table(obs, drop_metric)
    if drops is not None:
        sections.append(drops)
    stages = _stage_table(obs, elapsed_for(obs.tracer, root_span))
    if stages is not None:
        sections.append(stages)
    profiled = _profile_table(obs)
    if profiled is not None:
        sections.append(profiled)
    rendered = "\n\n".join(table_to_markdown(table) for table in sections)
    return "**%s**\n\n%s" % (title, rendered)


def _throughput_table(obs, items_label, items_count, root_span):
    elapsed = elapsed_for(obs.tracer, root_span)
    rate = items_count / elapsed if elapsed else 0.0
    table = Table(["metric", "value"], title="Throughput")
    table.add_row("%s processed" % items_label, items_count)
    table.add_row("elapsed (clock s)", "%.3f" % elapsed)
    table.add_row("%s/sec" % items_label, "%.1f" % rate)
    return table

def _exec_table(obs):
    """Execution-layer summary, rendered only for sharded runs."""
    registry = obs.registry
    if registry.get(EXEC_WORKERS_METRIC) is None:
        return None
    table = Table(["metric", "value"], title="Execution")
    backends = registry.label_values(EXEC_BACKEND_METRIC)
    if backends:
        table.add_row("backend", "/".join(labels[0] for labels in backends))
    table.add_row("workers", int(registry.value(EXEC_WORKERS_METRIC)))
    table.add_row("chunk size", int(registry.value(EXEC_CHUNK_SIZE_METRIC)))
    for (status,), count in sorted(
        registry.label_values(EXEC_TASKS_METRIC).items()
    ):
        table.add_row("tasks %s" % status, int(count))
    if registry.get(EXEC_CACHE_HITS_METRIC) is not None:
        table.add_row("cache hits",
                      int(registry.value(EXEC_CACHE_HITS_METRIC)))
        table.add_row("cache misses",
                      int(registry.value(EXEC_CACHE_MISSES_METRIC)))
    if registry.get(EXEC_CLASS_CACHE_HITS_METRIC) is not None:
        hits = registry.value(EXEC_CLASS_CACHE_HITS_METRIC)
        misses = registry.value(EXEC_CLASS_CACHE_MISSES_METRIC)
        table.add_row("class-cache hits", int(hits))
        table.add_row("class-cache misses", int(misses))
        if hits + misses:
            table.add_row("class-cache hit rate",
                          "%.1f%%" % (100.0 * hits / (hits + misses)))
        table.add_row("class bytes deduplicated",
                      int(registry.value(EXEC_CLASS_BYTES_DEDUPED_METRIC)))
        table.add_row("class time saved (clock s)", "%.3f"
                      % registry.value(EXEC_CLASS_TIME_SAVED_METRIC))
    for (tier,), count in sorted(
        registry.label_values(EXEC_CACHE_EVICTIONS_METRIC).items()
    ):
        table.add_row("%s-cache evictions" % tier, int(count))
    table.add_row("queue depth peak",
                  int(registry.value(EXEC_QUEUE_DEPTH_METRIC)))
    if registry.get(EXEC_STEALS_METRIC) is not None:
        table.add_row("work steals", int(registry.value(EXEC_STEALS_METRIC)))
    if registry.get(EXEC_CHUNKS_REPAIRED_METRIC) is not None:
        table.add_row("chunks repaired",
                      int(registry.value(EXEC_CHUNKS_REPAIRED_METRIC)))
    if registry.get(EXEC_TASKS_QUARANTINED_METRIC) is not None:
        table.add_row(
            "tasks quarantined",
            int(registry.value(EXEC_TASKS_QUARANTINED_METRIC)),
        )
    busy = sum(registry.label_values(EXEC_WORKER_BUSY_METRIC).values())
    critical = registry.value(EXEC_CRITICAL_PATH_METRIC)
    table.add_row("worker busy (clock s)", "%.3f" % busy)
    table.add_row("critical path (clock s)", "%.3f" % critical)
    if critical:
        table.add_row("parallel speedup", "%.2fx" % (busy / critical))
    return table


def _dynamic_table(obs):
    """Dynamic-pipeline summary, rendered only for crawl runs."""
    registry = obs.registry
    visits = registry.label_values(CRAWL_VISITS_METRIC)
    if not visits:
        return None
    table = Table(["metric", "value"], title="Dynamic execution")
    table.add_row("visits", int(sum(visits.values())))
    table.add_row("apps crawled", len(visits))
    events = registry.label_values(CRAWL_NETLOG_EVENTS_METRIC)
    if events:
        table.add_row("netlog events", int(sum(events.values())))
    if registry.get(SCRIPT_CACHE_HITS_METRIC) is not None:
        hits = registry.value(SCRIPT_CACHE_HITS_METRIC)
        misses = registry.value(SCRIPT_CACHE_MISSES_METRIC)
        table.add_row("script-cache hits", int(hits))
        table.add_row("script-cache misses", int(misses))
        if hits + misses:
            table.add_row("script-cache hit rate",
                          "%.1f%%" % (100.0 * hits / (hits + misses)))
        table.add_row(
            "script parse time saved (clock s)",
            "%.3f" % registry.value(SCRIPT_CACHE_TIME_SAVED_METRIC),
        )
    return table


def _impact_table(obs):
    """Injection-impact summary, rendered only for impact census runs."""
    registry = obs.registry
    apps = registry.label_values(IMPACT_APPS_METRIC)
    if not apps:
        return None
    table = Table(["metric", "value"], title="Injection impact")
    table.add_row("apps probed", int(sum(apps.values())))
    for (kind,), count in sorted(apps.items()):
        table.add_row("apps %s" % kind, int(count))
    if registry.get(IMPACT_BRIDGES_METRIC) is not None:
        table.add_row("bridges probed",
                      int(registry.value(IMPACT_BRIDGES_METRIC)))
    for (severity,), count in sorted(
        registry.label_values(IMPACT_FINDINGS_METRIC).items()
    ):
        table.add_row("findings %s" % severity, int(count))
    if registry.get(IMPACT_FLOWS_METRIC) is not None:
        table.add_row("taint flows observed",
                      int(registry.value(IMPACT_FLOWS_METRIC)))
    if registry.get(IMPACT_CLEARTEXT_METRIC) is not None:
        table.add_row("cleartext visits",
                      int(registry.value(IMPACT_CLEARTEXT_METRIC)))
    return table


def _endpoints_table(obs):
    """Static-endpoint summary, rendered only for endpoint census runs."""
    registry = obs.registry
    if registry.get(ENDPOINTS_APPS_METRIC) is None:
        return None
    table = Table(["metric", "value"], title="Static endpoints")
    table.add_row("apps reconstructed",
                  int(registry.value(ENDPOINTS_APPS_METRIC)))
    for (kind,), count in sorted(
        registry.label_values(ENDPOINTS_FOUND_METRIC).items()
    ):
        table.add_row("endpoints %s" % kind, int(count))
    if registry.get(ENDPOINTS_CLEARTEXT_METRIC) is not None:
        table.add_row("cleartext endpoints",
                      int(registry.value(ENDPOINTS_CLEARTEXT_METRIC)))
    if registry.get(ENDPOINTS_CREDENTIALS_METRIC) is not None:
        table.add_row("credentialed endpoints",
                      int(registry.value(ENDPOINTS_CREDENTIALS_METRIC)))
    hits = registry.get(ENDPOINTS_SUMMARY_CACHE_HITS_METRIC)
    misses = registry.get(ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC)
    if hits is not None or misses is not None:
        hit_count = int(registry.value(ENDPOINTS_SUMMARY_CACHE_HITS_METRIC)
                        ) if hits is not None else 0
        miss_count = int(registry.value(
            ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC)) if misses is not None else 0
        table.add_row("summary cache hits", hit_count)
        table.add_row("summary cache misses", miss_count)
        total = hit_count + miss_count
        if total:
            table.add_row("summary hit rate",
                          "%.1f%%" % (100.0 * hit_count / total))
    if registry.get(ENDPOINTS_SUMMARY_TIME_SAVED_METRIC) is not None:
        table.add_row(
            "summary time saved (clock s)",
            "%.3f" % registry.value(ENDPOINTS_SUMMARY_TIME_SAVED_METRIC),
        )
    if registry.get(ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC) is not None:
        table.add_row(
            "summary bytes deduplicated",
            int(registry.value(ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC)),
        )
    return table


def _longitudinal_table(obs):
    """Incremental-engine summary, rendered only for longitudinal runs."""
    registry = obs.registry
    modes = registry.label_values(LONGITUDINAL_APPS_METRIC)
    if not modes:
        return None
    table = Table(["metric", "value"], title="Longitudinal")
    for (mode,), count in sorted(
        registry.label_values(LONGITUDINAL_RUNS_METRIC).items()
    ):
        table.add_row("runs %s" % mode, int(count))
    total = sum(modes.values())
    for (mode,), count in sorted(modes.items()):
        table.add_row("apps %s" % mode, int(count))
    fresh = modes.get(("fresh",), 0)
    if total:
        table.add_row("work avoided",
                      "%.1f%%" % (100.0 * (total - fresh) / total))
    for (change,), count in sorted(
        registry.label_values(LONGITUDINAL_DELTA_METRIC).items()
    ):
        table.add_row("index delta %s" % change, int(count))
    if registry.get(LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC) is not None:
        table.add_row(
            "checkpoint flushes",
            int(registry.value(LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC)),
        )
    return table


def _drop_table(obs, drop_metric):
    drops = obs.registry.label_values(drop_metric)
    if not drops:
        return None
    table = Table(["drop reason", "count"], title="Drop taxonomy")
    ordered = sorted(drops.items(), key=lambda item: (-item[1], item[0]))
    for labels, count in ordered:
        table.add_row(labels[0], int(count))
    table.add_row("total", int(sum(drops.values())))
    return table


def _profile_table(obs):
    """Critical-path profile of the run's span forest.

    Unlike the stage-share table (built from counters, where nested
    spans double-count their children), self times here exclude child
    spans, so the column is a true cost breakdown; the critical-path
    share says how much of the run's longest dependency chain each stage
    owns — the stages worth optimizing first.
    """
    # Imported lazily: repro.obs.perf imports this module's metric names.
    from repro.obs import perf

    roots = list(obs.tracer.roots)
    if not roots:
        return None
    prof = perf.profile(roots)
    total_self = sum(stage.self_time for stage in prof.stages.values())
    table = Table(
        ["stage", "self clock s", "self %", "critical path %", "calls"],
        title="Profile (self time excludes child spans; critical path "
              "%.3f clock s)" % prof.critical_length,
    )
    for stage in prof.ordered():
        table.add_row(
            stage.name,
            "%.3f" % stage.self_time,
            "%.1f" % (100.0 * stage.self_time / total_self
                      if total_self else 0.0),
            "%.1f" % (100.0 * prof.path_share(stage.name)),
            stage.calls,
        )
    return table


def _stage_table(obs, elapsed):
    seconds = obs.registry.label_values(STAGE_SECONDS_METRIC)
    if not seconds:
        return None
    calls = obs.registry.label_values(STAGE_CALLS_METRIC)
    # Shares are relative to the root span's elapsed time; nested spans
    # overlap their parents, so columns intentionally do not sum to 100.
    total = elapsed or sum(seconds.values()) or 1.0
    table = Table(["stage", "clock s", "share %", "calls"],
                  title="Stage time shares (of root elapsed; spans nest)")
    ordered = sorted(seconds.items(), key=lambda item: (-item[1], item[0]))
    for labels, value in ordered:
        table.add_row(
            labels[0],
            "%.3f" % value,
            "%.1f" % (100.0 * value / total),
            int(calls.get(labels, 0)),
        )
    return table
