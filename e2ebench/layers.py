"""Per-layer figures of a traced repetition.

Timings come from the spans :mod:`spans` records around each layer's
public functions; counts are call counts at the same boundaries; hit
rates come from the studies' own registry counters and caches. All of
them cover the timed phase only, except ``corpus.generate_s``, which is
set-up work by definition.
"""

from catalog import LAYERS, PREDICTED
from spans import (
    ancestor,
    find,
    outermost,
    pre_dispatch_seconds,
    self_times,
    subtree,
)
from repro.netstack.network import default_site_template_cache
from repro.obs.report import (
    CRAWL_VISITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    IMPACT_APPS_METRIC,
    SCRIPT_CACHE_HITS_METRIC,
    SCRIPT_CACHE_MISSES_METRIC,
)

#: Study entry points; ``exec.pre_dispatch_s`` runs from their start to
#: their first task dispatch.
STUDY_SPANS = frozenset((
    "static_analysis.study", "endpoints.census", "dynamic.crawl",
    "dynamic.measure", "impact.census", "longitudinal.run_snapshot",
))

#: ``(registry attribute of the workload, metric)`` pairs read before and
#: after the timed phase.
_COUNTERS = {
    "class_hits": ("static_obs", EXEC_CLASS_CACHE_HITS_METRIC),
    "class_misses": ("static_obs", EXEC_CLASS_CACHE_MISSES_METRIC),
    "outcome_hits": ("static_obs", EXEC_CACHE_HITS_METRIC),
    "outcome_misses": ("static_obs", EXEC_CACHE_MISSES_METRIC),
    "summary_hits": ("endpoint_obs", ENDPOINTS_SUMMARY_CACHE_HITS_METRIC),
    "summary_misses": ("endpoint_obs",
                       ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC),
    "script_hits": ("web_obs", SCRIPT_CACHE_HITS_METRIC),
    "script_misses": ("web_obs", SCRIPT_CACHE_MISSES_METRIC),
    "visits": ("web_obs", CRAWL_VISITS_METRIC),
    "impact_apps": ("web_obs", IMPACT_APPS_METRIC),
}

#: Inclusive-time and call-count metrics: ``span -> (seconds, calls)``.
_TIMED_CALLS = {
    "corpus.download": ("corpus.download_s", "corpus.downloads"),
    "apk.read_apk": ("apk.read_apk_s", "apk.read_apk_calls"),
    "dex.deserialize": ("dex.deserialize_s", "dex.deserialize_calls"),
    "android.decode_axml": ("android.decode_axml_s",
                            "android.decode_axml_calls"),
    "decompiler.decompile_class": ("decompiler.decompile_class_s",
                                   "decompiler.classes"),
    "javasrc.parse_java": ("javasrc.parse_java_s", "javasrc.parse_calls"),
    "callgraph.build": ("callgraph.build_s", "callgraph.builds"),
    "static_analysis.study": ("static_analysis.study_s", None),
    "static_analysis.facts_for_class": (
        "static_analysis.facts_for_class_s", None),
    "endpoints.census": ("endpoints.census_s", None),
    "endpoints.summary": ("endpoints.summary_s", "endpoints.summaries"),
    "exec.map": ("exec.map_s", None),
    "web.parse_js": ("web.parse_js_s", "web.parse_js_calls"),
    "web.js_run": ("web.js_run_s", None),
    "web.parse_html": ("web.parse_html_s", None),
    "web.parse_url": ("web.parse_url_s", "web.parse_url_calls"),
    "netstack.fetch": ("netstack.fetch_s", "netstack.fetches"),
    "dynamic.crawl": ("dynamic.crawl_s", None),
    "dynamic.measure": ("dynamic.measure_s", None),
    "impact.census": ("impact.census_s", None),
    "longitudinal.run_snapshot": ("longitudinal.run_snapshot_s", None),
    "longitudinal.runstore_get": ("longitudinal.runstore_get_s",
                                  "longitudinal.runstore_gets"),
    "longitudinal.runstore_put": ("longitudinal.runstore_put_s", None),
    "results.ingest": ("results.ingest_s", "results.ingests"),
    "results.generation": ("results.generation_s",
                           "results.generation_calls"),
}


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def _counter_total(obs, name):
    for metric in obs.registry.as_dict()["metrics"]:
        if metric["name"] == name:
            return sum(sample["value"] for sample in metric["samples"])
    return 0.0


def cache_counters(workload):
    """Registry counters and template-cache tallies, read now."""
    values = {key: _counter_total(getattr(workload, attr), metric)
              for key, (attr, metric) in _COUNTERS.items()}
    templates = default_site_template_cache()
    values["template_hits"] = templates.hits
    values["template_misses"] = templates.misses
    return values


def difference(after, before):
    return {key: after[key] - before[key] for key in after}


def dominant_layer(self_seconds):
    return max(LAYERS, key=lambda layer: self_seconds.get(layer, 0.0))


def layer_metrics(tracer, workload, counters):
    """Every trace-derived per-layer metric of one traced repetition.

    ``counters`` is the :func:`difference` of :func:`cache_counters`
    across the timed phase. The ``exec`` CPU and RSS figures and the
    client-side query figures are filled in by ``run.py`` from an
    untraced repetition, so they are absent here.
    """
    all_spans = tracer.spans
    root = find(all_spans, "bench.timed")
    timed, stop = subtree(all_spans, root)
    metrics = {}
    generate = sum(outermost(all_spans, name)[1]
                   for name in ("corpus.generate", "corpus.evolve"))
    metrics["corpus.generate_s"] = generate
    for span, (seconds_name, calls_name) in _TIMED_CALLS.items():
        calls, seconds = outermost(timed, span)
        metrics[seconds_name] = seconds
        if calls_name is not None:
            metrics[calls_name] = calls

    sizes = {index - root: value for index, value in tracer.sizes.items()
             if root <= index < stop}
    downloaded = sum(value for index, value in sizes.items()
                     if timed[index][0] == "corpus.download")
    metrics["corpus.apk_mb"] = downloaded / (1024.0 * 1024.0)
    dispatched = [value for index, value in sizes.items()
                  if timed[index][0] == "exec.map"]
    tasks = sum(count for _, count in dispatched)
    metrics["exec.task_bytes"] = (sum(size for size, _ in dispatched) / tasks
                                  if tasks else 0.0)
    metrics["exec.pre_dispatch_s"] = pre_dispatch_seconds(timed, STUDY_SPANS)

    queries, _ = outermost(timed, "results.query")
    connects = sum(
        1 for index, span in enumerate(timed)
        if span[0] == "results.connect"
        and ancestor(timed, index, ("results.query",)) >= 0
    )
    metrics["results.connects_per_query"] = (connects / queries
                                             if queries else 0.0)
    generations = metrics["results.generation_calls"]
    metrics["results.generation_ms"] = (
        1000 * metrics["results.generation_s"] / generations
        if generations else 0.0)

    metrics["static_analysis.class_hit_rate"] = _ratio(
        counters["class_hits"], counters["class_misses"])
    metrics["static_analysis.outcome_hit_rate"] = _ratio(
        counters["outcome_hits"], counters["outcome_misses"])
    metrics["endpoints.summary_hit_rate"] = _ratio(
        counters["summary_hits"], counters["summary_misses"])
    metrics["web.script_cache_hit_rate"] = _ratio(
        counters["script_hits"], counters["script_misses"])
    metrics["netstack.template_hit_rate"] = _ratio(
        counters["template_hits"], counters["template_misses"])
    metrics["dynamic.visits"] = counters["visits"]
    metrics["impact.apps"] = counters["impact_apps"]
    metrics["longitudinal.fresh_share"] = workload.fresh_share()

    own = self_times(timed)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = own.get(layer, 0.0)
    metrics["bench.self_s"] = own.get("bench", 0.0)
    dominant = dominant_layer(own)
    metrics["trace.dominant_ok"] = int(dominant in PREDICTED[workload.name])
    metrics["trace.spans"] = len(all_spans)
    return metrics, dominant

