"""Greedy barrier-pool replay: the scheduler benchmark's reference.

Models a study run on a plain FIFO pool that waits for its last chunk
before the next study starts: consecutive chunks of ``chunk_size`` tasks
go to the worker with the least accumulated busy time (ties break on the
lowest worker index), every task ready at time zero, and nothing is
stolen. ``bench_scheduler.py`` replays each study's measured per-task
costs through it and sums the makespans, the baseline the interleaved
scheduler is measured against.
"""

from repro.exec import ExecConfigError, Schedule


def simulate_schedule(costs, max_workers, chunk_size):
    """Greedily schedule consecutive cost chunks onto ``max_workers``."""
    if max_workers < 1:
        raise ExecConfigError(
            "simulate_schedule needs max_workers >= 1, got %d" % max_workers
        )
    if chunk_size < 1:
        raise ExecConfigError(
            "simulate_schedule needs chunk_size >= 1, got %d" % chunk_size
        )
    busy = [0.0] * max_workers
    assignments = []
    for start in range(0, len(costs), chunk_size):
        chunk = costs[start:start + chunk_size]
        worker = min(range(max_workers), key=lambda w: (busy[w], w))
        busy[worker] += sum(chunk)
        assignments.extend([worker] * len(chunk))
    return Schedule(max_workers, chunk_size, assignments, busy,
                    max(busy) if busy else 0.0)
