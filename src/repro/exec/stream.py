"""Stream scheduler: stages flow into consumers as results land.

Every study runs its per-app work through this scheduler; there is no
other execution path.

- A :class:`StreamStage` is one producer: a list of tasks plus the
  function that executes them. Its declared consumers are the
  downstream DAG nodes — *ordered* consumers see ``(index, outcome)``
  pairs in exact task order (via a prefix-flush buffer, preserving the
  selection-order aggregation the byte-identity contract depends on),
  plain consumers see outcomes in completion order (checkpoints and
  progress reporters).
- :class:`StreamScheduler` drains any number of stages through one
  shared worker pool, round-robin interleaving their chunks so a mixed
  static+dynamic workload keeps every worker busy while one study's
  straggler runs. The pool (:mod:`repro.exec.pool`, resolved by
  :func:`~repro.exec.pool.make_pool`) executes the chunks and does the
  work stealing and worker-death repair; a task it quarantines after
  repeated worker death is handed to the stage's ``on_lost`` hook, which
  builds a synthetic outcome (the studies map it to the ``worker_lost``
  drop-taxonomy slug) so the study finishes instead of aborting.

Determinism: per-stage results are delivered to ordered consumers in
task order no matter how chunks complete, steal, or repair, so study
results are byte-identical at any worker count and backend. Execution
*metrics* never come from live scheduling — they are replayed from
:func:`repro.exec.schedule.simulate_stream_chunks` over measured task
costs (see :meth:`StreamScheduler.simulate`), so steal counts, worker
attribution and critical paths are pure functions of the costs.
"""

import contextlib

from repro.errors import WorkerLostError, error_slug
from repro.exec.config import BACKEND_INLINE
from repro.exec.pool import Chunk, make_pool
from repro.exec.schedule import simulate_stream_chunks

#: Drop-taxonomy slug quarantined tasks surface under.
WORKER_LOST_SLUG = error_slug(WorkerLostError)


class OrderedFlush:
    """Deliver ``(position, value)`` pushes to a callback in order.

    Out-of-order completions are buffered; every push flushes the
    longest contiguous prefix. This is the piece that lets aggregation
    consume a stream without giving up selection-order determinism.
    """

    def __init__(self, callback):
        self.callback = callback
        self.next = 0
        self._buffer = {}

    def push(self, position, value):
        self._buffer[position] = value
        while self.next in self._buffer:
            self.callback(self.next, self._buffer.pop(self.next))
            self.next += 1

    @property
    def buffered(self):
        """Out-of-order results currently held back."""
        return len(self._buffer)


class StreamStage:
    """One producer stage and its declared downstream consumers.

    ``fn`` maps a single task to an outcome and must be picklable for
    the process backend. ``on_lost`` maps a task to a synthetic outcome
    when the task is quarantined after repeated worker death; without
    one, quarantine raises :class:`~repro.errors.WorkerLostError`.
    ``chunk_size`` overrides the scheduler config's chunk size for this
    stage (per-app crawl shards ride one per dispatch, static tasks ride
    eight). ``context`` is an optional zero-argument context-manager
    factory the scheduler enters around every inline task execution and
    every consumer delivery for this stage — how a study keeps its own
    tracer/log context active per event while sharing the scheduler
    with another study, instead of holding a contextvar across the
    interleaved run.
    """

    def __init__(self, name, tasks, fn, on_lost=None, chunk_size=None,
                 context=None):
        self.name = name
        self.tasks = list(tasks)
        self.fn = fn
        self.on_lost = on_lost
        self.chunk_size = chunk_size
        self.context = context
        self._ordered = []
        self._sinks = []

    def consume_ordered(self, callback):
        """Register ``callback(index, outcome)``, called in task order."""
        self._ordered.append(callback)
        return self

    def consume(self, callback):
        """Register ``callback(outcome)``, called in completion order."""
        if callback is not None:
            self._sinks.append(callback)
        return self

    def _enter(self):
        if self.context is None:
            return contextlib.nullcontext()
        return self.context()

    def _inline_fn(self):
        """``fn`` run inside this stage's context, for the inline pool."""
        if self.context is None:
            return self.fn

        def run(task):
            with self.context():
                return self.fn(task)
        return run


class _StageState:
    """Per-stage delivery bookkeeping inside one scheduler run."""

    __slots__ = ("stage", "offset", "results", "flush")

    def __init__(self, stage, offset):
        self.stage = stage
        #: Position of the stage's first task in the run's item list.
        self.offset = offset
        self.results = [None] * len(stage.tasks)
        self.flush = OrderedFlush(self._flush_ordered)

    def _flush_ordered(self, index, outcome):
        with self.stage._enter():
            for callback in self.stage._ordered:
                callback(index, outcome)


class StreamScheduler:
    """Drain every stage's tasks through one shared worker pool.

    ``config`` is an :class:`~repro.exec.ExecConfig`; its worker count,
    window, backend and ``max_attempts`` govern the whole run, while
    each stage may pin its own chunk size. ``pool`` is the backend
    :func:`~repro.exec.pool.make_pool` resolved for the config — studies
    read ``pool.name`` to pick their task function before :meth:`run`.
    After :meth:`run`, ``chunk_plan`` records the initial dispatch order
    (the input to :meth:`simulate`), and ``repaired_chunks`` /
    ``quarantined_tasks`` report what the pool's repair machinery
    actually did.
    """

    def __init__(self, config, log=None):
        self.config = config
        self.log = log
        self.pool = make_pool(config, log=log)
        #: Initial dispatch order: (stage index, task indices) pairs.
        self.chunk_plan = []

    @property
    def repaired_chunks(self):
        return self.pool.repaired_chunks

    @property
    def quarantined_tasks(self):
        return self.pool.quarantined_tasks

    # -- public API ----------------------------------------------------------

    def run(self, stages):
        """Execute every stage; returns per-stage outcome lists.

        The return value is a list aligned with ``stages``; entry *i* is
        ``stages[i]``'s outcomes in task order.
        """
        stages = list(stages)
        states = []
        items = []
        for stage in stages:
            states.append(_StageState(stage, len(items)))
            items.extend(stage.tasks)
        queue = self._build_queue(states)
        self.chunk_plan = [
            (chunk.stage,
             [index - states[chunk.stage].offset for index in chunk.indices])
            for chunk in queue
        ]
        inline = self.pool.name == BACKEND_INLINE
        fns = [stage._inline_fn() if inline else stage.fn for stage in stages]

        def deliver(chunk, outcomes):
            self._deliver(states[chunk.stage], chunk, outcomes)

        self.pool.map(items, fns, queue, deliver)
        for state in states:
            missing = [i for i, out in enumerate(state.results) if out is None]
            if missing:
                raise WorkerLostError(
                    "stage %r finished with undelivered tasks %r"
                    % (state.stage.name, missing[:5])
                )
        return [state.results for state in states]

    def simulate(self, stage_costs):
        """Deterministic schedule replay of this run's dispatch order.

        ``stage_costs`` is one cost list per stage (task order). Returns
        ``(schedule, assignments)`` where ``schedule`` is the
        :class:`~repro.exec.schedule.Schedule` of the initial chunk plan
        and ``assignments`` maps each stage index to its per-task worker
        list — what the driver stamps onto outcomes and replayed spans.
        A pure function of the costs and plan, so exec metrics stay
        byte-identical between identical runs however the live pool
        interleaved, stole, or repaired.
        """
        chunks = [[stage_costs[stage][i] for i in indices]
                  for stage, indices in self.chunk_plan]
        schedule = simulate_stream_chunks(
            chunks, self.config.max_workers,
            chunk_size=self.config.chunk_size,
        )
        assignments = {stage: [None] * len(costs)
                       for stage, costs in enumerate(stage_costs)}
        flat = 0
        for stage, indices in self.chunk_plan:
            for index in indices:
                assignments[stage][index] = schedule.assignments[flat]
                flat += 1
        return schedule, assignments

    # -- dispatch ------------------------------------------------------------

    def _build_queue(self, states):
        """Round-robin interleave every stage's chunks into one queue."""
        per_stage = []
        for position, state in enumerate(states):
            size = state.stage.chunk_size or self.config.chunk_size
            count = len(state.stage.tasks)
            per_stage.append([
                Chunk(position, list(range(state.offset + start,
                                           state.offset
                                           + min(start + size, count))))
                for start in range(0, count, size)
            ])
        queue = []
        for round_index in range(max((len(c) for c in per_stage), default=0)):
            for chunks in per_stage:
                if round_index < len(chunks):
                    queue.append(chunks[round_index])
        return queue

    def _deliver(self, state, chunk, outcomes):
        stage = state.stage
        indices = [index - state.offset for index in chunk.indices]
        if outcomes is None:
            outcomes = [self._quarantine(stage, indices[0], chunk.attempts)]
        for index, outcome in zip(indices, outcomes):
            state.results[index] = outcome
            if stage._sinks:
                with stage._enter():
                    for sink in stage._sinks:
                        sink(outcome)
            state.flush.push(index, outcome)

    def _quarantine(self, stage, index, attempts):
        """The synthetic outcome of a task whose workers kept dying."""
        if stage.on_lost is None:
            raise WorkerLostError(
                "task %d of stage %r lost its worker %d times"
                % (index, stage.name, attempts)
            )
        if self.log is not None:
            self.log.warning("task_quarantined", stage=stage.name,
                             index=index, attempts=attempts)
        with stage._enter():
            return stage.on_lost(stage.tasks[index])
