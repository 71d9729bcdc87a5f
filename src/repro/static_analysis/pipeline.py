"""The Figure 1 static-analysis pipeline, end to end.

:func:`analyze_apk_bytes` performs steps (3)-(5) for a single APK:
decompile, find WebView subclasses in parsed source, build the call graph,
traverse from all entry points, and record every WebView/CT call with
reachability and deep-link-exclusion flags.

:class:`StaticAnalysisPipeline` performs steps (1)-(2) around it: list the
AndroZoo snapshot, fetch Play metadata, apply the 100K-downloads and
updated-after-2021 filters, and aggregate a
:class:`~repro.static_analysis.results.StudyResult`.

The parent selects and merges only. Per-app work — the download and the
analysis — runs on the :mod:`repro.exec` kernel, the stream scheduler
and its shared study driver, over worker processes when
``max_workers > 1`` and in-process otherwise. Each
:class:`AnalysisTask` carries the repository's unresolved payload
(:meth:`~repro.androzoo.repository.AndroZooRepository.source`: bytes or
a lazy APK build, a few hundred bytes pickled), and the task resolves it
with :func:`~repro.androzoo.repository.fetch` inside its ``download``
span, so APKs are synthesized in the workers, in parallel, and never
held by the parent. Per-app
failures (a broken APK, a failed download, any :class:`ReproError` from
analysis) are isolated into the drop taxonomy instead of aborting the
run, results are aggregated in selection order so same-seed studies are
byte-identical at any worker count, and outcomes are memoized in a
two-tier :class:`~repro.exec.AnalysisCache`: whole-APK outcomes keyed by
``(sha256, options)`` on top, content-addressed per-class facts below.

The class tier is what makes corpus-scale analysis cheap: the paper's
SDK-concentration finding means the same class bytes recur across
thousands of APKs, so each app's analysis composes memoized per-class
facts (generated source, parsed ``extends`` entries, invoke summaries)
with app-local resolution (superclass chains, entry-point traversal).
Process-pool workers ship newly computed facts back with their results
so the corpus-level cache warms across chunks. Results are byte-identical
with the class cache on or off, at any worker count and backend — and
class-cache metrics are accounted by a deterministic selection-order
replay, never from scheduling-dependent worker-local counts.
"""

import datetime
import functools
import time

from repro.android import api
from repro.androzoo.repository import fetch
from repro.apk.container import read_apk
from repro.callgraph.builder import build_call_graph
from repro.callgraph.entrypoints import entry_point_methods
from repro.decompiler.jadx import Decompiler
from repro.dex.model import MethodRef
from repro.errors import ReproError, RepositoryError, error_slug
from repro.exec import (
    AnalysisCache,
    ClassFactsCache,
    ExecConfig,
    ShardedStudy,
    StudyRun,
    TaskOutcome,
    lost_message,
    run_study,
)
from repro.obs import (
    APPS_ANALYZED_METRIC,
    APPS_LISTED_METRIC,
    DROPS_METRIC,
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    EXEC_CLASS_BYTES_DEDUPED_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CLASS_TIME_SAVED_METRIC,
    TickClock,
    Tracer,
    bind_context,
    current_tracer,
    default_obs,
    get_logger,
    trace_span,
    use_tracer,
)
from repro.sdk.labeling import SdkLabeler
from repro.static_analysis.classfacts import FactsRecorder, facts_for_class
from repro.static_analysis.deeplinks import (
    deep_link_class_names,
    is_excluded_caller,
)
from repro.static_analysis.results import (
    AppAnalysis,
    OutcomeRecord,
    RecordedCall,
    StudyResult,
)
from repro.static_analysis.webview_usage import webview_subclasses_from_entries


class PipelineOptions:
    """Feature switches, used by the ablation benchmarks.

    All three default to the paper's methodology. Disabling
    ``entry_point_traversal`` treats every recorded call as reachable
    (naive whole-code scan); disabling ``deep_link_filter`` keeps
    first-party deep-link activities in the counts; disabling
    ``subclass_detection`` misses calls made through custom WebView
    subclasses.
    """

    def __init__(self, entry_point_traversal=True, deep_link_filter=True,
                 subclass_detection=True):
        self.entry_point_traversal = entry_point_traversal
        self.deep_link_filter = deep_link_filter
        self.subclass_detection = subclass_detection

    def cache_key(self):
        """Fingerprint for the analysis-result cache (:mod:`repro.exec`)."""
        return (self.entry_point_traversal, self.deep_link_filter,
                self.subclass_detection)


def _is_webview_call(ref, subclasses):
    """A tracked WebView method on the framework class or a subclass."""
    if ref.method_name not in api.WEBVIEW_TRACKED_METHODS:
        return False
    return ref.class_name == api.WEBVIEW_CLASS or ref.class_name in subclasses


def analyze_apk_bytes(data, options=None, decompiler=None, category=None,
                      installs=0, facts_cache=None, recorder=None):
    """Run the per-APK analysis (Figure 1 steps 3-5) on APK bytes.

    Raises :class:`~repro.errors.BrokenApkError` for unanalyzable APKs.

    The APK is parsed once; per-class work (decompile, parse, invoke
    summarization) flows through :func:`facts_for_class`, served from
    ``facts_cache`` by content digest when one is given. ``recorder``
    collects the app's ordered digest stream plus any newly computed
    facts, for worker ship-back and deterministic cache accounting.
    Results are byte-identical with or without a cache.
    """
    options = options or PipelineOptions()
    decompiler = decompiler or Decompiler()
    clock = current_tracer().clock

    with trace_span("decompile"):
        apk = read_apk(data)
        decompiler.apks_attempted += 1
        facts = [
            facts_for_class(dex_class, decompiler, cache=facts_cache,
                            recorder=recorder, clock=clock)
            for dex_class in apk.dex.classes
        ]
        decompiler.apks_succeeded += 1
        analysis = AppAnalysis(apk.package, category=category,
                               installs=installs)
        analysis.class_count = sum(
            1 for class_facts in facts if class_facts.source is not None
        )
        if options.subclass_detection:
            analysis.webview_subclasses = webview_subclasses_from_entries(
                [entry for class_facts in facts
                 for entry in class_facts.web_entries]
            )

    dex = apk.dex
    manifest = apk.manifest
    with trace_span("callgraph", package=apk.package):
        graph = build_call_graph(dex, method_summaries={
            class_facts.class_name: class_facts.method_summary
            for class_facts in facts
        })

    with trace_span("traverse", package=apk.package):
        reachable = None
        if options.entry_point_traversal:
            roots = [
                MethodRef(dex_class.name, method.name, method.descriptor)
                for dex_class, method in entry_point_methods(dex, manifest)
            ]
            reachable = graph.reachable_from(roots)

        excluded_names = (
            deep_link_class_names(manifest) if options.deep_link_filter
            else set()
        )

        for class_facts in facts:
            caller_excluded = is_excluded_caller(class_facts.class_name,
                                                 excluded_names)
            for method_name, descriptor, invokes in class_facts.method_summary:
                caller = MethodRef(class_facts.class_name, method_name,
                                   descriptor)
                caller_reachable = True
                if reachable is not None:
                    caller_reachable = caller in reachable
                for target in invokes:
                    ref = MethodRef(*target)
                    if _is_webview_call(ref, analysis.webview_subclasses):
                        analysis.record(
                            RecordedCall(
                                RecordedCall.WEBVIEW, ref.method_name,
                                class_facts.class_name, ref.class_name,
                                reachable=caller_reachable,
                                excluded=caller_excluded,
                            )
                        )
                    elif api.is_customtabs_init(ref):
                        analysis.record(
                            RecordedCall(
                                RecordedCall.CUSTOMTABS, ref.method_name,
                                class_facts.class_name, ref.class_name,
                                reachable=caller_reachable,
                                excluded=caller_excluded,
                            )
                        )
    return analysis


#: Drop-reason slugs for the metadata filters (steps 1-2). Pipeline-error
#: drops use the :func:`repro.errors.error_slug` taxonomy instead.
DROP_NOT_PROCESSED = "not_processed"
DROP_BELOW_MIN_INSTALLS = "below_min_installs"
DROP_UPDATED_BEFORE_CUTOFF = "updated_before_cutoff"


class AnalysisTask:
    """One unit of per-app work shipped to a worker.

    ``source`` is the repository payload, unresolved: APK bytes or the
    zero-argument callable that builds them.
    """

    __slots__ = ("position", "sha256", "package", "source", "category",
                 "installs")

    def __init__(self, position, sha256, package, source, category,
                 installs):
        self.position = position
        self.sha256 = sha256
        self.package = package
        self.source = source
        self.category = category
        self.installs = installs


class AnalysisOutcome(TaskOutcome):
    """Per-app execution outcome, aggregated in selection order.

    On top of the driver's :class:`~repro.exec.TaskOutcome` fields,
    ``analysis`` is the app's :class:`AppAnalysis` (marked failed when
    ``error`` is set); ``class_digests`` / ``new_facts`` are the worker
    ship-back that warms the corpus-level class cache and feeds its
    deterministic accounting.
    """

    __slots__ = ("sha256", "analysis")

    def __init__(self, position, sha256, package, analysis, error=None,
                 message=None):
        super().__init__(position, package, error, message)
        self.sha256 = sha256
        self.analysis = analysis


#: What the analysis cache stores for one (sha256, options) key — now the
#: shared record type persisted by the longitudinal RunStore as well.
_CachedEntry = OutcomeRecord


class _WorkerSettings:
    """Picklable knobs shipped to every worker invocation."""

    __slots__ = ("options", "real_clock", "class_cache")

    def __init__(self, options, real_clock=False, class_cache=True):
        self.options = options
        self.real_clock = real_clock
        self.class_cache = class_cache


def _failed_outcome(task, exc):
    """A :class:`ReproError` as a failed outcome carrying its drop slug.

    A failed download is retried next run, so it is never cached.
    """
    analysis = AppAnalysis(task.package, category=task.category,
                           installs=task.installs)
    analysis.failed = True
    analysis.failure_reason = str(exc)
    outcome = AnalysisOutcome(task.position, task.sha256, task.package,
                              analysis, error_slug(exc), str(exc))
    outcome.cacheable = not isinstance(exc, RepositoryError)
    return outcome


def _execute_analysis(options, task, decompiler=None, facts_cache=None,
                      recorder=None):
    """Download and analyze one app with per-app fault isolation.

    Any :class:`ReproError` (failed download, broken APK, decompilation
    failure, ...) becomes a failed outcome carrying its drop slug; only
    non-library exceptions — genuine bugs — propagate and abort the run.
    """
    try:
        with trace_span("download", package=task.package):
            data = fetch(task.source)
        analysis = analyze_apk_bytes(
            data,
            options=options,
            decompiler=decompiler,
            category=task.category,
            installs=task.installs,
            facts_cache=facts_cache,
            recorder=recorder,
        )
    except ReproError as exc:
        outcome = _failed_outcome(task, exc)
    else:
        outcome = AnalysisOutcome(task.position, task.sha256, task.package,
                                  analysis)
    if recorder is not None:
        outcome.class_digests = recorder.digests
        outcome.new_facts = recorder.new
    return outcome


#: Process-local class-facts cache for pool workers. Workers fork with
#: it unset and die with the pool, so it deduplicates across the chunks
#: one worker processes within a single run — the parent merges each
#: task's shipped ``new_facts`` to cover everything else.
_WORKER_FACTS = None


def _worker_facts_cache():
    global _WORKER_FACTS
    if _WORKER_FACTS is None:
        _WORKER_FACTS = ClassFactsCache(max_entries=None, cache_dir=None)
    return _WORKER_FACTS


def _run_analysis_task(settings, task):
    """Process-pool entry point: analyze one app in a worker.

    The worker traces into its own tracer (a fresh deterministic
    TickClock unless the study injected a real clock) and exports the
    span tree in the outcome, so the parent can replay it and per-app
    stage timings survive the process boundary.
    """
    clock = time.perf_counter if settings.real_clock else TickClock()
    tracer = Tracer(clock=clock)
    facts_cache = _worker_facts_cache() if settings.class_cache else None
    recorder = FactsRecorder() if settings.class_cache else None
    with use_tracer(tracer), bind_context(package=task.package):
        with tracer.span("analyze_app", package=task.package) as root:
            outcome = _execute_analysis(settings.options, task,
                                        facts_cache=facts_cache,
                                        recorder=recorder)
    outcome.cost = root.duration
    outcome.spans = [root.to_dict()]
    return outcome


class StaticAnalysisPipeline(ShardedStudy):
    """The corpus-level study runner (Figure 1 steps 1-2 + aggregation)."""

    stage = "static"
    fact_metrics = (
        (EXEC_CLASS_CACHE_HITS_METRIC,
         "Class-facts lookups served without recomputation."),
        (EXEC_CLASS_CACHE_MISSES_METRIC,
         "Class-facts lookups that computed fresh facts."),
        (EXEC_CLASS_BYTES_DEDUPED_METRIC,
         "Canonical class bytes not re-analyzed thanks to the cache."),
        (EXEC_CLASS_TIME_SAVED_METRIC,
         "Estimated clock units saved by class-facts reuse."),
    )

    def __init__(self, corpus, options=None, labeler=None, obs=None,
                 exec_config=None, cache=None, snapshot_date=None,
                 checkpoint=None, progress_hook=None):
        self.corpus = corpus
        self.options = options or PipelineOptions()
        self.labeler = labeler or SdkLabeler(corpus.catalog)
        self.decompiler = Decompiler()
        self.obs = obs if obs is not None else default_obs()
        self.exec_config = (exec_config if exec_config is not None
                            else ExecConfig())
        # The AndroZoo snapshot this run lists; defaults to the corpus
        # config's date, overridden per run by the longitudinal engine.
        if snapshot_date is None:
            snapshot_date = corpus.config.snapshot_date
        elif isinstance(snapshot_date, str):
            snapshot_date = datetime.date.fromisoformat(snapshot_date)
        self.snapshot_date = snapshot_date
        #: Optional per-outcome callable (completion order), used by the
        #: longitudinal engine to persist checkpoints mid-run.
        self.checkpoint = checkpoint
        #: Optional per-outcome callable (completion order) streaming
        #: live progress, e.g. a :class:`repro.obs.ProgressReporter`.
        self.progress_hook = progress_hook
        if cache is None:
            cache = getattr(corpus, "analysis_cache", None)
        self.cache = cache if cache is not None else AnalysisCache()
        self.log = get_logger("static.pipeline")
        self._drops = self.obs.counter(
            DROPS_METRIC,
            "Apps dropped before successful analysis, by reason.",
            ("reason",),
        )
        self._listed = self.obs.counter(
            APPS_LISTED_METRIC,
            "Play-market apps listed in the AndroZoo snapshot.",
        )
        self._analyzed = self.obs.counter(
            APPS_ANALYZED_METRIC, "Apps successfully analyzed.",
        )
        self._cache_hits = self.obs.counter(
            EXEC_CACHE_HITS_METRIC,
            "Per-app analysis outcomes served from the result cache.",
        )
        self._cache_misses = self.obs.counter(
            EXEC_CACHE_MISSES_METRIC,
            "Per-app analysis outcomes that required real work.",
        )

    def _drop(self, reason, count=1):
        if count:
            self._drops.labels(reason=reason).inc(count)

    def select_apps(self):
        """Steps (1)-(2): snapshot listing + metadata filters.

        Returns (selected_rows, funnel_counts) where each selected row is
        an (IndexRow, AppListing) pair.
        """
        from repro.androzoo.repository import PLAY_MARKET
        from repro.errors import AppNotFoundError
        from repro.playstore.store import PlayScraperClient

        config = self.corpus.config
        with self.obs.span("list", snapshot=str(self.snapshot_date)):
            snapshot = self.corpus.repository.snapshot(self.snapshot_date)
            packages = snapshot.packages(market=PLAY_MARKET)
        self._listed.inc(len(packages))
        self.log.info("snapshot_listed", snapshot=str(self.snapshot_date),
                      packages=len(packages))
        scraper = PlayScraperClient(self.corpus.store)

        funnel = {
            "androzoo_play_apps": len(packages),
            "found_on_play": 0,
            "with_100k_downloads": 0,
            "updated_after_2021": 0,
        }
        selected = []
        with self.obs.span("filter"):
            for package in packages:
                listing = scraper.try_app_listing(package)
                if listing is None:
                    self._drop(error_slug(AppNotFoundError))
                    continue
                funnel["found_on_play"] += 1
                if listing.installs < config.min_installs:
                    self._drop(DROP_BELOW_MIN_INSTALLS)
                    continue
                funnel["with_100k_downloads"] += 1
                if listing.updated < config.update_cutoff:
                    self._drop(DROP_UPDATED_BEFORE_CUTOFF)
                    continue
                funnel["updated_after_2021"] += 1
                # Packages were listed from the Play market; restrict the
                # version pick the same way so a newer non-Play archive of
                # the same package can never be downloaded instead.
                row = snapshot.latest_version(package, market=PLAY_MARKET)
                if row is None:
                    self._drop(error_slug(RepositoryError))
                    continue
                selected.append((row, listing))
        self.log.info("funnel_selected", **funnel)
        return selected, funnel


    def run(self, max_apps=None, progress=None, on_merge=None):
        """Run the full study; returns a :class:`StudyResult`.

        ``progress``, when given, is called as ``progress(done, total)``
        every 200 apps, in selection order.
        """
        return run_study(self.study_run(max_apps, progress, on_merge))

    def study_run(self, max_apps=None, progress=None, on_merge=None):
        """This study as a :class:`~repro.exec.StudyRun` for the driver.

        The checkpoint and progress hooks see outcomes in completion
        order; ``on_merge`` sees each outcome after it is aggregated.
        """
        return StudyRun(self, max_apps, progress,
                        hooks=(self.checkpoint, self.progress_hook),
                        on_merge=on_merge)

    # -- kernel hooks --------------------------------------------------------

    def context_labels(self):
        return {"stage": "static", "snapshot": str(self.snapshot_date)}

    def root_span(self):
        return "run", {}

    def fact_tier(self):
        return self.cache.classes if self.exec_config.class_cache else None

    def cache_tiers(self):
        return (("apk", self.cache), ("class", self.cache.classes))

    def prepare(self, max_apps=None, progress=None):
        """Steps (1)-(2), then the outcome-cache short-circuit per app.

        Returns ``(outcomes, tasks)``: ``outcomes`` is the
        selection-order list pre-filled at every short-circuited
        position (None where a task must run), ``tasks`` the
        :class:`AnalysisTask` list for the scheduler. Tasks carry the
        repository's unresolved payloads; no APK is built here.
        """
        selected, funnel = self.select_apps()
        if max_apps is not None and len(selected) > max_apps:
            self._drop(DROP_NOT_PROCESSED, len(selected) - max_apps)
            selected = selected[:max_apps]
        result = StudyResult(self.labeler)
        result.androzoo_play_apps = funnel["androzoo_play_apps"]
        result.found_on_play = funnel["found_on_play"]
        result.popular = funnel["with_100k_downloads"]
        result.selected = funnel["updated_after_2021"]
        self._result = result
        self._selected = len(selected)
        self._progress = progress
        self._fingerprint = self.options.cache_key()

        outcomes = [None] * len(selected)
        tasks = []
        for position, (row, listing) in enumerate(selected):
            entry = self.cache.get(row.sha256, self._fingerprint)
            if entry is not None:
                self._cache_hits.inc()
                outcome = AnalysisOutcome(position, row.sha256, row.package,
                                          entry.analysis, entry.error,
                                          entry.message)
                outcome.cached = True
                outcome.cacheable = False
                outcomes[position] = outcome
                continue
            self._cache_misses.inc()
            task = AnalysisTask(position, row.sha256, row.package, None,
                                listing.category, listing.installs)
            try:
                task.source = self.corpus.repository.source(row.sha256)
            except RepositoryError as exc:
                outcomes[position] = _failed_outcome(task, exc)
                continue
            tasks.append(task)
        return outcomes, tasks

    def task_fn(self, inline):
        settings = _WorkerSettings(
            self.options,
            real_clock=not isinstance(self.obs.clock, TickClock),
            class_cache=self.exec_config.class_cache,
        )
        if inline:
            return functools.partial(self._inline_task, settings)
        return functools.partial(_run_analysis_task, settings)

    def _inline_task(self, settings, task):
        """In-process execution path: trace into the study tracer."""
        facts_cache = self.cache.classes if settings.class_cache else None
        recorder = FactsRecorder() if settings.class_cache else None
        with bind_context(package=task.package), \
                self.obs.span("analyze_app", package=task.package) as span:
            outcome = _execute_analysis(settings.options, task,
                                        decompiler=self.decompiler,
                                        facts_cache=facts_cache,
                                        recorder=recorder)
        outcome.cost = span.duration
        outcome.span = span
        return outcome

    def lost(self, task):
        analysis = AppAnalysis(task.package, category=task.category,
                               installs=task.installs)
        analysis.failed = True
        analysis.failure_reason = lost_message(self.exec_config)
        return AnalysisOutcome(task.position, task.sha256, task.package,
                               analysis)

    def merge(self, outcome):
        """Fold one outcome into the study result (selection order)."""
        result = self._result
        with bind_context(package=outcome.package):
            if outcome.error is not None:
                result.broken += 1
                self.log.warning("app_failed", sha256=outcome.sha256,
                                 reason=outcome.error,
                                 detail=outcome.message,
                                 cached=outcome.cached)
            else:
                result.analyzed += 1
                self._analyzed.inc()
                self.log.debug("analyzed",
                               calls=len(outcome.analysis.calls),
                               classes=outcome.analysis.class_count,
                               cached=outcome.cached)
            # Content identity travels with the analysis so downstream
            # stores (repro.results) can key outcomes by (sha256,
            # options, corpus) — set on cached replays too, keeping
            # cache-on/off results identical.
            outcome.analysis.sha256 = outcome.sha256
            result.add(outcome.analysis)
            if outcome.cacheable and not outcome.cached:
                self.cache.put(outcome.sha256, self._fingerprint,
                               _CachedEntry(outcome.analysis, outcome.error,
                                            outcome.message))
        done = outcome.position + 1
        if self._progress is not None and done % 200 == 0:
            self._progress(done, self._selected)

    def finish(self, span):
        result = self._result
        span.set_attribute("analyzed", result.analyzed)
        span.set_attribute("broken", result.broken)
        span.set_attribute("workers", self.exec_config.max_workers)
        self.log.info("run_complete", analyzed=result.analyzed,
                      broken=result.broken, selected=self._selected,
                      workers=self.exec_config.max_workers)
        return result
