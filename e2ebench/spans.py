"""In-memory span tracing around the public functions of each layer.

The benchmark never edits the program to trace it. Instead,
:class:`Tracer` replaces chosen module functions and class methods with
wrappers that record a span per call, and puts the originals back when
the traced repetition ends. A module that did ``from x import f`` holds
its own reference to ``f``; :meth:`Tracer.install` rebinds every such
reference in the loaded ``repro`` modules too, so no call site escapes.

A span is ``(name, layer, start, end, parent)`` with ``parent`` the
index of the enclosing span (``-1`` at the root). Spans stay in memory
and are written out once, at the end of the repetition.
"""

import functools
import importlib
import json
import pickle
import pkgutil
import sys
import time

#: ``(layer, span name, module, attribute)``; the attribute is
#: ``Class.method`` for a method. The layer names are the ``repro``
#: package names, so a regression names the package that caused it.
#: Besides the public entry points, each study's per-task functions (the
#: ones it hands to ``exec.map``, in-process and in workers) are traced,
#: so work done inside a task is charged to the study's layer and
#: ``exec`` keeps only the dispatch itself.
TARGETS = (
    ("corpus", "corpus.generate", "repro.corpus.generator",
     "generate_corpus"),
    ("corpus", "corpus.evolve", "repro.corpus.evolution", "evolve_corpus"),
    ("corpus", "corpus.download", "repro.androzoo.repository",
     "AndroZooRepository.download"),
    ("corpus", "corpus.build_apk", "repro.corpus.appgen", "build_app_apk"),
    ("apk", "apk.read_apk", "repro.apk.container", "read_apk"),
    ("dex", "dex.deserialize", "repro.dex.binary", "deserialize_dex"),
    ("android", "android.decode_axml", "repro.android.axml",
     "decode_axml"),
    ("decompiler", "decompiler.decompile_class", "repro.decompiler.jadx",
     "Decompiler.decompile_class"),
    ("javasrc", "javasrc.parse_java", "repro.javasrc.parser",
     "parse_java"),
    ("callgraph", "callgraph.build", "repro.callgraph.builder",
     "build_call_graph"),
    ("static_analysis", "static_analysis.study",
     "repro.static_analysis.pipeline", "StaticAnalysisPipeline.run"),
    ("static_analysis", "static_analysis.task",
     "repro.static_analysis.pipeline", "_run_analysis_task"),
    ("static_analysis", "static_analysis.task",
     "repro.static_analysis.pipeline", "StaticAnalysisPipeline._inline_task"),
    ("static_analysis", "static_analysis.analyze_apk",
     "repro.static_analysis.pipeline", "analyze_apk_bytes"),
    ("static_analysis", "static_analysis.facts_for_class",
     "repro.static_analysis.classfacts", "facts_for_class"),
    ("endpoints", "endpoints.census", "repro.endpoints.census",
     "EndpointCensus.run"),
    ("endpoints", "endpoints.task", "repro.endpoints.census",
     "_run_endpoint_shard"),
    ("endpoints", "endpoints.task", "repro.endpoints.census",
     "EndpointCensus._inline_shard"),
    ("endpoints", "endpoints.analyze", "repro.endpoints.census",
     "analyze_endpoint_bytes"),
    ("endpoints", "endpoints.summary", "repro.endpoints.summaries",
     "summary_for_class"),
    ("exec", "exec.map", "repro.exec.pool", "InlinePool.map"),
    ("exec", "exec.map", "repro.exec.pool", "ProcessPool.map"),
    ("exec", "exec.map", "repro.exec.stream", "StreamScheduler.run"),
    ("web", "web.parse_js", "repro.web.jsengine", "parse_js"),
    ("web", "web.js_run", "repro.web.jsengine", "JsInterpreter.run"),
    ("web", "web.parse_html", "repro.web.htmlparser", "parse_html"),
    ("web", "web.parse_url", "repro.web.urls", "parse_url"),
    ("netstack", "netstack.fetch", "repro.netstack.network",
     "Network.fetch"),
    ("dynamic", "dynamic.crawl", "repro.dynamic.crawler",
     "AdbCrawler.crawl"),
    ("dynamic", "dynamic.task", "repro.dynamic.crawler", "_run_crawl_shard"),
    ("dynamic", "dynamic.measure", "repro.dynamic.measurements",
     "IabMeasurementHarness.run"),
    ("impact", "impact.census", "repro.impact.census", "ImpactCensus.run"),
    ("impact", "impact.task", "repro.impact.census", "_run_impact_shard"),
    ("longitudinal", "longitudinal.run_snapshot",
     "repro.longitudinal.study", "LongitudinalStudy.run_snapshot"),
    ("longitudinal", "longitudinal.runstore_get",
     "repro.longitudinal.runstore", "RunStore.get_outcome"),
    ("longitudinal", "longitudinal.runstore_put",
     "repro.longitudinal.runstore", "RunStore.put_outcome_by_token"),
    ("results", "results.ingest", "repro.results.store",
     "ResultsStore.ingest"),
    ("results", "results.ingest", "repro.results.store",
     "ResultsStore.ingest_webapi"),
    ("results", "results.ingest", "repro.results.store",
     "ResultsStore.ingest_impact"),
    ("results", "results.ingest", "repro.results.store",
     "ResultsStore.ingest_endpoints"),
    ("results", "results.generation", "repro.results.store",
     "ResultsStore.generation"),
    ("results", "results.connect", "sqlite3", "connect"),
) + tuple(
    ("results", "results.query", "repro.results.serve",
     "ResultsService." + kind)
    for kind in (
        "sdk_league", "adoption_trend", "nutrition_label",
        "endpoint_summary", "endpoint_census", "webapi_usage",
        "bridge_findings", "capability_ranking", "static_endpoints",
        "static_sdk_census", "validation", "funnel",
    )
)

#: Span names whose calls hand tasks to the execution layer.
DISPATCH_SPAN = "exec.map"

#: The layer of the tracer's own work, which no layer is charged for.
TRACE_LAYER = "trace"

#: Spans whose return value's ``len`` is kept in ``Tracer.sizes``.
SIZED_SPANS = ("corpus.download",)


def import_all(package_name):
    """Import every submodule, so every alias exists before patching.

    ``__main__`` modules are skipped: importing one runs its CLI.
    """
    package = importlib.import_module(package_name)
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(module_name, attribute):
    """``(owner, name, original)`` for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    name = path[-1]
    # Read the class __dict__ so a staticmethod/classmethod would stay
    # wrapped as itself; every target here is a plain function.
    original = (owner.__dict__[name] if isinstance(owner, type)
                else getattr(owner, name))
    return owner, name, original


class Tracer:
    """Wraps layer entry points; records spans while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``[name, layer, start, end, parent]`` per call, in call order.
        self.spans = []
        #: Span index -> ``len`` of what a SIZED_SPANS call returned, or
        #: ``(pickled bytes, tasks)`` handed to an ``exec.map`` call.
        self.sizes = {}
        self._stack = []
        self._patched = []

    def open_span(self, name, layer):
        """Start a span by hand (the benchmark's own phases)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close_span(self):
        index = self._stack.pop()
        self.spans[index][3] = self.clock()

    def _wrap(self, original, name, layer):
        tracer = self

        if name == DISPATCH_SPAN:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tasks = tracer._measure_tasks(original, args)
                index = tracer.open_span(name, layer)
                if tasks is not None:
                    tracer.sizes[index] = tasks
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close_span()
        elif name in SIZED_SPANS:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.open_span(name, layer)
                try:
                    value = original(*args, **kwargs)
                finally:
                    tracer.close_span()
                tracer.sizes[index] = len(value)
                return value
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.open_span(name, layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close_span()
        wrapper._traced_original = original
        return wrapper

    def _measure_tasks(self, original, args):
        """Pickled size of the tasks, as a process pool would ship them.

        Only the tasks: the in-process task function is a bound method
        whose pickle would drag in the whole study, while the function a
        process pool ships is a small module-level partial. Timed as a
        ``trace`` span so the cost lands in the tracing overhead, not in
        a layer's self time or in ``exec.pre_dispatch_s``.
        """
        if original.__name__ != "map" or len(args) < 2:
            return None
        self.open_span("trace.pickle_tasks", TRACE_LAYER)
        try:
            items = args[1]
            size = sum(len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                       for item in items)
            return size, len(items)
        finally:
            self.close_span()

    def install(self, targets=TARGETS):
        """Wrap every target and rebind every alias of it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import_all("repro")
        replaced = {}
        for layer, name, module_name, attribute in targets:
            owner, attr, original = _resolve(module_name, attribute)
            wrapper = self._wrap(original, name, layer)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                replaced[id(original)] = (original, wrapper)
        # Module-level aliases created by ``from module import name``.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        """Put back every original, newest patch first.

        A module first imported while the wrappers were installed holds
        a wrapper under its own name; those are put back too.
        """
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if is_wrapped(value):
                    setattr(module, attr, value._traced_original)

    def write(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def subtree(spans, root):
    """The spans of ``root``'s subtree, re-indexed with ``root`` at 0.

    Calls nest on one thread, so a subtree is the contiguous run of
    spans opened while ``root`` was open.
    """
    end = spans[root][3]
    stop = root + 1
    while stop < len(spans) and spans[stop][2] < end:
        stop += 1
    rebased = []
    for name, layer, start, finish, parent in spans[root:stop]:
        rebased.append([name, layer, start, finish,
                        parent - root if parent >= root else -1])
    return rebased, stop


def find(spans, name):
    """Index of the first span called ``name``."""
    for index, span in enumerate(spans):
        if span[0] == name:
            return index
    raise KeyError(name)


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_layer = {}
    for index, (name, layer, start, end, parent) in enumerate(spans):
        own = (end - start) - child_time[index]
        per_layer[layer] = per_layer.get(layer, 0.0) + own
    return per_layer


def ancestor(spans, index, names):
    """Index of the nearest enclosing span named in ``names``, or -1."""
    index = spans[index][4]
    while index >= 0 and spans[index][0] not in names:
        index = spans[index][4]
    return index


def outermost(spans, name):
    """``(calls, inclusive seconds)`` of ``name``, nested calls folded.

    A call nested inside another call of the same name is counted but
    its time is not added twice.
    """
    calls = 0
    seconds = 0.0
    for index, (span_name, layer, start, end, parent) in enumerate(spans):
        if span_name == name:
            calls += 1
            if ancestor(spans, index, (name,)) < 0:
                seconds += end - start
    return calls, seconds


def pre_dispatch_seconds(spans, study_names):
    """Time from each study's start until it first dispatches tasks.

    This is the parent-serial work the pool cannot overlap (the Amdahl
    floor); a study that never dispatches contributes its whole span. A
    study run inside another (a pipeline inside a snapshot run) counts
    as part of the outer one. The tracer's own spans (layer ``trace``,
    such as the task pickling that precedes each dispatch) are not the
    study's work, so their time inside the interval is left out.
    """
    def outermost_study(index):
        found = -1
        index = ancestor(spans, index, study_names)
        while index >= 0:
            found = index
            index = ancestor(spans, index, study_names)
        return found

    first_dispatch = {}
    for index, span in enumerate(spans):
        if span[0] == DISPATCH_SPAN:
            study = outermost_study(index)
            if study >= 0:
                first_dispatch.setdefault(study, span[2])
    total = 0.0
    for index, (name, layer, start, end, parent) in enumerate(spans):
        if name in study_names and outermost_study(index) < 0:
            stop = first_dispatch.get(index, end)
            total += stop - start - sum(
                min(t_end, stop) - t_start
                for t_name, t_layer, t_start, t_end, _ in spans
                if t_layer == TRACE_LAYER and start <= t_start < stop)
    return total


def is_wrapped(function):
    """True when ``function`` is a tracing wrapper."""
    return hasattr(function, "_traced_original")
