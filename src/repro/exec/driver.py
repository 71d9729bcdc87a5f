"""The one study driver: every sharded study runs through it.

The paper's static pipeline over ~146.5K APKs, its IAB crawl, and the
impact and endpoint censuses are one job: run a per-app task on many
apps and fold the results in selection order. A study subclasses
:class:`ShardedStudy` and supplies only what is its own:

- :meth:`~ShardedStudy.prepare` — short-circuit outcomes (cache hits,
  failed downloads) plus the tasks that must run;
- :meth:`~ShardedStudy.task_fn` — the per-task function, picklable for
  the process backend;
- :meth:`~ShardedStudy.lost` — the outcome shape of a task quarantined
  after its workers kept dying;
- :meth:`~ShardedStudy.merge` — the selection-order fold of one outcome;
- :meth:`~ShardedStudy.finish` — the study's result.

:class:`StudyRun` does the rest, once for all studies: it opens the
study's root and ``execute`` spans, wires the ordered merge and the
completion-order checkpoint/progress hooks onto a
:class:`~repro.exec.StreamStage`, replays worker span trees, counts
per-task drops, stamps deterministic worker attribution, and records the
exec, scheduler, fact-cache and eviction metrics. :func:`run_studies`
drives any number of study runs through one
:class:`~repro.exec.StreamScheduler` with one shared schedule replay.

A quarantined task is counted once: one ``worker_lost`` drop, one
``status="failed"`` task, and it is never cached, so the next run
retries it.
"""

import contextlib

from repro.exec.config import BACKEND_INLINE
from repro.exec.pool import chain_results
from repro.exec.stream import (
    OrderedFlush,
    StreamScheduler,
    StreamStage,
    WORKER_LOST_SLUG,
)
from repro.obs import (
    DROPS_METRIC,
    EXEC_BACKEND_METRIC,
    EXEC_CACHE_EVICTIONS_METRIC,
    EXEC_CHUNK_SIZE_METRIC,
    EXEC_CHUNKS_REPAIRED_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_QUEUE_DEPTH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_TASKS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    EXEC_WORKERS_METRIC,
    Span,
    bind_context,
)


def lost_message(config):
    """Why a quarantined task failed, as recorded on its outcome."""
    return "worker lost after %d attempts" % config.max_attempts


class TaskOutcome:
    """What every per-task outcome carries for the driver.

    ``error`` is a drop-taxonomy slug (None on success); ``spans`` holds
    a worker's exported span tree, replayed under the study's
    ``execute`` span, and ``span`` an in-process task span; ``cost`` is
    the measured task cost the schedule replay runs on. ``cached``
    marks an outcome served from a cache, and ``cacheable`` is False for
    outcomes the next run must retry (failed downloads, lost workers).
    ``class_digests`` / ``new_facts`` are the task's ordered
    fact-digest stream and newly computed facts, for studies with a
    fact tier.
    """

    __slots__ = ("position", "package", "error", "message", "cost",
                 "spans", "span", "worker", "cached", "cacheable",
                 "class_digests", "new_facts")

    def __init__(self, position, package, error=None, message=None):
        self.position = position
        self.package = package
        self.error = error
        self.message = message
        self.cost = 0.0
        self.spans = None
        self.span = None
        self.worker = None
        self.cached = False
        self.cacheable = True
        self.class_digests = None
        self.new_facts = None


class ShardedStudy:
    """Base for a study whose per-app work runs on the kernel.

    Subclasses provide ``obs``, ``exec_config`` and ``log`` attributes,
    set :attr:`stage`, and implement the five hooks below.
    """

    #: Stage name: the scheduler stage, the ``stage`` log-context label
    #: and, unless :meth:`root_span` says otherwise, the root span name.
    stage = None
    #: ``(name, help)`` of the fact tier's hits, misses, bytes-deduped
    #: and time-saved counters, for studies with a fact tier.
    fact_metrics = None

    def context_labels(self):
        """Log-context labels bound around every event of a run."""
        return {"stage": self.stage}

    def root_span(self):
        """``(name, attributes)`` of the span enclosing a run."""
        return self.stage, {}

    def fact_tier(self):
        """The content-addressed fact cache to account, or None."""
        return None

    def cache_tiers(self):
        """``(tier label, store)`` pairs whose LRU evictions are counted."""
        return ()

    def prepare(self, *args):
        """Returns ``(outcomes, tasks)`` for one run.

        ``outcomes`` has one slot per selected app, pre-filled where a
        short-circuit decided the outcome and None where a task runs;
        every task and outcome carries its slot as ``position``.
        """
        raise NotImplementedError

    def task_fn(self, inline):
        """The per-task callable; picklable unless ``inline``."""
        raise NotImplementedError

    def lost(self, task):
        """The outcome of a task quarantined after repeated worker death.

        The driver marks it failed (``worker_lost``) and uncacheable.
        """
        raise NotImplementedError

    def merge(self, outcome):
        """Fold one outcome into the run's result, in selection order."""
        raise NotImplementedError

    def finish(self, span):
        """The run's result; ``span`` is the still-open root span."""
        raise NotImplementedError


class StudyRun:
    """One study's run on the kernel.

    ``args`` are passed to :meth:`ShardedStudy.prepare`. ``hooks`` see
    every executed outcome in completion order (checkpoint sinks,
    progress reporters; a hook's ``begin(total)`` learns the task
    count), and ``on_merge`` sees every outcome after the study merged
    it, in selection order.
    """

    def __init__(self, study, *args, hooks=(), on_merge=None):
        self.study = study
        self.args = args
        self.hooks = chain_results(*hooks)
        self.on_merge = on_merge
        self.stage = None

    @contextlib.contextmanager
    def _context(self):
        with self.study.obs.activate(), \
                bind_context(**self.study.context_labels()):
            yield

    def open(self, backend):
        """Select, short-circuit and stage the run's tasks.

        The root and ``execute`` spans are held open on the study's own
        tracer (never via an ambient contextvar, so several runs can
        share one scheduler) until :meth:`finalize`.
        """
        study = self.study
        config = study.exec_config
        self.backend = backend
        self.executed = []
        self._replayed = {}
        with self._context():
            name, attributes = study.root_span()
            self._root = study.obs.span(name, **attributes)
            self.root_span = self._root.__enter__()
            self._evictions = [(tier, store, store.evictions)
                               for tier, store in study.cache_tiers()]
            facts = study.fact_tier()
            self._prior = (set(facts.known_digests()) if facts is not None
                           else set())
            self.outcomes, tasks = study.prepare(*self.args)
            self.stage = StreamStage(
                study.stage, tasks, study.task_fn(backend == BACKEND_INLINE),
                on_lost=self._lost, chunk_size=config.chunk_size,
                context=self._context,
            )
            self.stage.consume_ordered(self._on_ordered)
            self.stage.consume(self.hooks)
            self._execute = study.obs.span(
                "execute", backend=backend, workers=config.max_workers,
                tasks=len(tasks),
            )
            self.execute_span = self._execute.__enter__()
            if hasattr(self.hooks, "begin"):
                self.hooks.begin(len(tasks))
            # Short-circuited outcomes flow through the same ordered
            # flush, so the merge sees one selection-order stream.
            self._flush = OrderedFlush(self._merge)
            for outcome in self.outcomes:
                if outcome is not None:
                    self._flush.push(outcome.position, outcome)

    def costs(self):
        """Measured per-task costs, in task order (the simulate input)."""
        return [outcome.cost for outcome in self.executed]

    def _lost(self, task):
        outcome = self.study.lost(task)
        outcome.error = WORKER_LOST_SLUG
        outcome.message = lost_message(self.study.exec_config)
        outcome.cacheable = False
        return outcome

    def _on_ordered(self, index, outcome):
        self.executed.append(outcome)
        self._flush.push(outcome.position, outcome)

    def _merge(self, position, outcome):
        study = self.study
        if outcome.spans:
            with bind_context(package=outcome.package):
                self._replay_spans(outcome)
        if outcome.error is not None:
            study.obs.counter(
                DROPS_METRIC,
                "Apps dropped before successful analysis, by reason.",
                ("reason",),
            ).labels(reason=outcome.error).inc()
        study.merge(outcome)
        if self.on_merge is not None:
            self.on_merge(outcome)

    def _replay_spans(self, outcome):
        """Attach a worker's exported span tree to the study tracer.

        Replayed trees hang off the ``execute`` span, the same parent
        in-process task spans record under, so the trace — and every
        flamegraph folded from it — has one shape per run regardless of
        backend. Worker attribution is stamped in :meth:`finalize`, once
        the deterministic schedule exists.
        """
        tracer = self.study.obs.tracer
        for data in outcome.spans:
            root = Span.from_dict(data)
            self._replayed.setdefault(outcome.position, []).append(root)
            self.execute_span.children.append(root)
            if tracer.on_span_end is not None:
                for span in root.iter_spans():
                    tracer.on_span_end(span)

    def finalize(self, scheduler, schedule, workers):
        """Close the run: attribution, metrics, spans. Returns the result.

        ``schedule`` is the (possibly shared) replay of the scheduler's
        dispatch order and ``workers`` this stage's per-task worker list.
        """
        with self._context():
            self._execute.__exit__(None, None, None)
            for outcome, worker in zip(self.executed, workers):
                self.outcomes[outcome.position] = outcome
                outcome.worker = worker
                label = "w%d" % worker
                if outcome.span is not None:
                    outcome.span.set_attribute("worker", label)
                for root in self._replayed.pop(outcome.position, ()):
                    root.set_attribute("worker", label)
            self._record_exec_metrics(scheduler, schedule, workers)
            self._record_fact_metrics()
            self._record_eviction_metrics()
            result = self.study.finish(self.root_span)
            self._root.__exit__(None, None, None)
        return result

    # -- metrics -------------------------------------------------------------

    def _record_exec_metrics(self, scheduler, schedule, workers):
        """Deterministic execution metrics for the run report.

        Busy time is this stage's own share of the schedule, while the
        makespan and steal count are figures of the shared schedule.
        Repair and quarantine counts are what the live pool actually did
        (nonzero only under worker faults).
        """
        obs = self.study.obs
        config = self.study.exec_config
        obs.gauge(EXEC_WORKERS_METRIC, "Configured worker count.").set(
            config.max_workers)
        obs.gauge(EXEC_CHUNK_SIZE_METRIC, "Tasks per worker dispatch.").set(
            config.chunk_size)
        obs.gauge(
            EXEC_BACKEND_METRIC, "Resolved execution backend (info).",
            ("backend",),
        ).labels(backend=self.backend).set(1)
        task_count = len(self.stage.tasks)
        chunks = -(-task_count // config.chunk_size)
        obs.gauge(
            EXEC_QUEUE_DEPTH_METRIC,
            "High-water mark of chunks in the bounded work queue.",
        ).set(min(config.window, chunks))
        tasks = obs.counter(
            EXEC_TASKS_METRIC, "Per-app tasks, by outcome.", ("status",),
        )
        for outcome in self.outcomes:
            if outcome.cached:
                tasks.labels(status="cached").inc()
            elif outcome.error is not None:
                tasks.labels(status="failed").inc()
            else:
                tasks.labels(status="ok").inc()
        busy = [0.0] * config.max_workers
        for worker, cost in zip(workers, self.costs()):
            busy[worker] += cost
        counter = obs.counter(
            EXEC_WORKER_BUSY_METRIC,
            "Clock units each worker spent analyzing apps.", ("worker",),
        )
        for worker, amount in enumerate(busy):
            if amount:
                counter.labels(worker="w%d" % worker).inc(amount)
        obs.gauge(
            EXEC_CRITICAL_PATH_METRIC,
            "Makespan of the simulated worker schedule (modeled).",
        ).set(schedule.critical_path)
        obs.counter(
            EXEC_STEALS_METRIC,
            "Work-steal events in the simulated schedule.",
        ).inc(schedule.steals)
        obs.counter(
            EXEC_CHUNKS_REPAIRED_METRIC,
            "Chunks re-run after losing their worker mid-flight.",
        ).inc(scheduler.repaired_chunks)
        obs.counter(
            EXEC_TASKS_QUARANTINED_METRIC,
            "Tasks dropped as worker_lost after the retry budget.",
        ).inc(scheduler.quarantined_tasks)

    def _record_fact_metrics(self):
        """Deterministic fact-cache accounting by selection-order replay.

        Worker-local hit counts depend on chunk scheduling, so they never
        feed metrics. Instead: merge every task's shipped facts into the
        corpus cache, then replay each outcome's ordered digest stream in
        selection order — a digest is a hit iff it was cached before this
        run or already seen earlier in the replay. The result is
        byte-identical at any worker count and backend.
        """
        facts = self.study.fact_tier()
        if facts is None:
            return
        for outcome in self.outcomes:
            if outcome.new_facts:
                facts.merge(outcome.new_facts)
        seen = set()
        hits = misses = deduped = 0
        saved = 0.0
        for outcome in self.outcomes:
            for digest in outcome.class_digests or ():
                if digest in self._prior or digest in seen:
                    hits += 1
                    entry = facts.peek(digest)
                    if entry is not None:
                        deduped += entry.canonical_size
                        saved += entry.cost
                else:
                    misses += 1
                    seen.add(digest)
        for (name, help), value in zip(self.study.fact_metrics,
                                       (hits, misses, deduped, saved)):
            self.study.obs.counter(name, help).inc(value)

    def _record_eviction_metrics(self):
        """Per-tier LRU eviction deltas for this run (nonzero only)."""
        if not self._evictions:
            return
        counter = self.study.obs.counter(
            EXEC_CACHE_EVICTIONS_METRIC,
            "LRU evictions from the two-tier analysis cache, by tier.",
            ("tier",),
        )
        for tier, store, before in self._evictions:
            delta = store.evictions - before
            if delta:
                counter.labels(tier=tier).inc(delta)


def run_studies(runs, config, log=None):
    """Drive study runs through one scheduler; returns their results.

    The stages' chunks interleave round-robin on one pool, and one
    schedule replay attributes workers and makespan across all stages.
    """
    scheduler = StreamScheduler(config, log=log)
    for run in runs:
        run.open(scheduler.pool.name)
    scheduler.run([run.stage for run in runs])
    schedule, workers = scheduler.simulate([run.costs() for run in runs])
    return [run.finalize(scheduler, schedule, workers[position])
            for position, run in enumerate(runs)]


def run_study(run):
    """Drive one study run on its own scheduler; returns the result."""
    study = run.study
    return run_studies([run], study.exec_config, log=study.log)[0]
