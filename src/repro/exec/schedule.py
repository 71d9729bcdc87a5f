"""Deterministic schedule accounting for scheduled runs.

Real process pools complete chunks in timing-dependent order, which would
make worker-attribution metrics (and therefore run reports) flap between
identical runs. Instead, the studies measure each task's cost and replay
the scheduler's dispatch order here: :func:`simulate_stream_chunks` is an
event-driven replay of the :mod:`repro.exec.stream` policy — a FIFO chunk
queue drained by the earliest-free worker, plus *work stealing* (an idle
worker takes the tail half of the most-loaded worker's unstarted tasks),
the limit the real scheduler's cancel-and-split steal policy approaches
at task granularity. The resulting per-worker busy times, steal count and
critical path are a pure function of the costs, so exec metrics stay
byte-identical between identical runs no matter how the actual pool
interleaved. The reported parallel speedup — ``total work / critical
path`` — is therefore modeled, not measured.
"""

import heapq

from repro.exec.config import ExecConfigError


class Schedule:
    """Outcome of one simulated run: assignments, busy times, makespan."""

    def __init__(self, max_workers, chunk_size, assignments, worker_busy,
                 makespan, steals=0):
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: Worker index per task, in dispatch order.
        self.assignments = list(assignments)
        #: Total busy time per worker index.
        self.worker_busy = list(worker_busy)
        self.makespan = makespan
        #: Work-stealing events in the replay.
        self.steals = steals

    @property
    def critical_path(self):
        """Makespan of the schedule."""
        return self.makespan

    @property
    def total_busy(self):
        return sum(self.worker_busy)

    @property
    def speedup(self):
        """Work over makespan — 1.0 for an empty or serial schedule."""
        critical = self.critical_path
        return self.total_busy / critical if critical else 1.0

    def __repr__(self):
        return "Schedule(%d tasks on %d workers, %.2fx, %d steals)" % (
            len(self.assignments), self.max_workers, self.speedup,
            self.steals,
        )


def simulate_stream_chunks(chunks, max_workers, chunk_size=None):
    """Event-driven replay of the scheduler's policy.

    ``chunks`` is a list of cost lists — heterogeneous sizes are fine,
    which is how interleaved multi-study workloads are modeled (each
    stage contributes its own chunks to one queue). A free worker takes
    the earliest-queued chunk and runs its tasks consecutively; when the
    queue is dry, an idle worker steals the tail half of the unstarted
    tasks of the most-loaded worker (ties break on the lowest worker
    index). Deterministic: a pure function of the inputs, with all ties
    broken on (time, worker index).

    Returns a :class:`Schedule` whose ``assignments`` are flat and
    follow chunk order.
    """
    if max_workers < 1:
        raise ExecConfigError(
            "simulate_stream_chunks needs max_workers >= 1, got %d"
            % max_workers
        )
    assignments = []
    pending = []
    for chunk in chunks:
        tasks = [(len(assignments) + offset, cost)
                 for offset, cost in enumerate(chunk)]
        assignments.extend([None] * len(tasks))
        if tasks:
            pending.append(tasks)
    pending.reverse()  # pop() from the end takes the earliest chunk
    busy = [0.0] * max_workers
    #: Per-worker list of unstarted (index, cost) tasks.
    local = [[] for _ in range(max_workers)]
    steals = 0
    makespan = 0.0
    # Worker wake events: (time, worker). Every worker starts free at 0.
    events = [(0.0, worker) for worker in range(max_workers)]
    heapq.heapify(events)
    idle = set()

    def next_task(worker):
        """The next task for ``worker``, or None."""
        nonlocal steals
        if not local[worker] and pending:
            local[worker] = pending.pop()
        if local[worker]:
            return local[worker].pop(0)
        victims = [v for v in range(max_workers) if v != worker and local[v]]
        if not victims:
            return None
        victim = max(
            victims, key=lambda v: (sum(cost for _, cost in local[v]), -v),
        )
        count = max(1, len(local[victim]) // 2)
        local[worker] = local[victim][-count:]
        del local[victim][-count:]
        steals += 1
        return local[worker].pop(0)

    while events:
        now, worker = heapq.heappop(events)
        task = next_task(worker)
        if task is None:
            idle.add(worker)
            continue
        index, cost = task
        finish = now + cost
        assignments[index] = worker
        busy[worker] += cost
        makespan = max(makespan, finish)
        heapq.heappush(events, (finish, worker))
        # A completion creates steal opportunities: wake dormant workers.
        while idle:
            heapq.heappush(events, (finish, idle.pop()))

    if chunk_size is None:
        chunk_size = max((len(chunk) for chunk in chunks), default=1)
    return Schedule(max_workers, chunk_size, assignments, busy, makespan,
                    steals)
