"""Worker pools: the scheduler's chunk executors, one per backend.

The scheduler (:mod:`repro.exec.stream`) decides *what* runs — a queue
of chunks, each a run of one stage's tasks — and a pool decides *where*.
Both pools expose one method, :meth:`WorkerPool.map`, which runs every
chunk and hands each chunk's outcomes (in chunk order) to a ``deliver``
callback in the parent process as the chunk completes.

:class:`InlinePool` runs chunks in the calling process, in queue order —
the deterministic backend for single-worker runs, for tests, and for
platforms where process pools are unavailable (:func:`make_pool`, the
one place a backend is resolved, falls back automatically and logs a
warning).

:class:`ProcessPool` ships chunks to a
``concurrent.futures.ProcessPoolExecutor`` (fork start method where
available, so forked workers inherit loaded modules and the parent's
hash seed) and keeps at most ``config.window`` chunks in flight, so
memory stays bounded on arbitrarily large corpora. On top of that it
does two things:

- **Work stealing**: when the queue runs dry and workers idle, the
  largest still-queued multi-task chunk is cancelled, split in half and
  re-dispatched — the tail of a run parallelizes instead of serializing
  behind one straggler chunk.
- **Failure repair**: a dead worker (``BrokenProcessPool``) loses every
  in-flight chunk. The pool rebuilds the executor and re-runs each lost
  chunk alone; a chunk that breaks the pool again is bisected until the
  poisoned task is isolated in ``log2(chunk)`` retries, and a single task
  that keeps killing its worker is quarantined after
  ``ExecConfig.max_attempts`` failures: it is delivered with ``None``
  outcomes and the scheduler maps it into the drop taxonomy.

The functions and the items must be picklable for the process backend.
Worker processes are joined before a successful ``map`` returns, so
their CPU time shows up in ``getrusage(RUSAGE_CHILDREN)``.
"""

import concurrent.futures
import multiprocessing
from concurrent.futures.process import BrokenProcessPool

from repro.exec.config import BACKEND_INLINE, BACKEND_PROCESS


class Chunk:
    """A dispatchable slice of one stage's items, with repair history.

    ``indices`` point into the item list handed to :meth:`WorkerPool.map`.
    """

    __slots__ = ("stage", "indices", "attempts")

    def __init__(self, stage, indices, attempts=0):
        self.stage = stage
        self.indices = indices
        self.attempts = attempts

    def split(self):
        mid = len(self.indices) // 2
        return (
            Chunk(self.stage, self.indices[:mid], self.attempts),
            Chunk(self.stage, self.indices[mid:], self.attempts),
        )


class WorkerPool:
    """Interface: run chunks of items, delivering outcomes per chunk.

    After :meth:`map`, ``repaired_chunks`` / ``quarantined_tasks`` /
    ``steal_attempts`` count what the repair and steal machinery
    actually did (fault- and timing-dependent, so they feed run-report
    counters but never the deterministic schedule metrics). All three
    stay 0 for the inline backend, which has no workers to lose.
    """

    name = None

    def __init__(self, config):
        self.config = config
        self.repaired_chunks = 0
        self.quarantined_tasks = 0
        self.steal_attempts = 0

    def map(self, items, fns, chunks, deliver):
        """Run ``fns[chunk.stage]`` over every chunk's items.

        ``deliver(chunk, outcomes)`` is called in the parent as each
        chunk completes, with outcomes in chunk order — or with
        ``outcomes=None`` for a one-task chunk quarantined after its
        workers kept dying.
        """
        raise NotImplementedError


def chain_results(*callbacks):
    """Fan one per-outcome slot out to several hooks.

    Nones are dropped; with nothing left the chain is None (so callers
    skip the call entirely), and a single survivor is returned as-is.
    Lets a study stack its checkpoint sink and a progress reporter on
    the same completion stream without either knowing about the other.
    """
    hooks = [cb for cb in callbacks if cb is not None]
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def fanout(value):
        for hook in hooks:
            hook(value)

    begins = [hook.begin for hook in hooks if hasattr(hook, "begin")]
    if begins:
        # Progress reporters learn the expected total via begin();
        # forward it so chaining keeps their percentages working.
        def begin(total):
            for hook_begin in begins:
                hook_begin(total)

        fanout.begin = begin
    return fanout


class InlinePool(WorkerPool):
    """In-process execution, strictly in queue order."""

    name = BACKEND_INLINE

    def map(self, items, fns, chunks, deliver):
        for chunk in chunks:
            fn = fns[chunk.stage]
            deliver(chunk, [fn(items[index]) for index in chunk.indices])


def _run_chunk(fn, tasks):
    """Process-pool entry point: apply ``fn`` to one chunk of tasks."""
    return [fn(task) for task in tasks]


def _pool_context():
    """Prefer fork: workers inherit modules and the parent's hash seed."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ProcessPool(WorkerPool):
    """Chunked fan-out over worker processes with steal and repair."""

    name = BACKEND_PROCESS

    def map(self, items, fns, chunks, deliver):
        queue = list(chunks)
        #: Chunks lost to a pool break, awaiting the isolation repair
        #: pass. A break implicates every in-flight chunk collectively,
        #: so blame can only be assigned by re-running suspects one at a
        #: time: the chunk present when the pool breaks *again* is the
        #: guilty one; everything else succeeds and is delivered.
        suspects = []
        pending = {}

        def submit(executor, chunk):
            tasks = [items[index] for index in chunk.indices]
            return executor.submit(_run_chunk, fns[chunk.stage], tasks)

        executor = self._new_executor()
        try:
            while queue or pending or suspects:
                if suspects:
                    executor = self._isolate(submit, suspects, executor,
                                             deliver)
                    continue
                try:
                    while queue and len(pending) < self.config.window:
                        # Popped only after submit succeeds: a broken
                        # executor must leave the chunk in the queue for
                        # the repair pass.
                        future = submit(executor, queue[0])
                        pending[future] = queue.pop(0)
                    done, _ = concurrent.futures.wait(
                        pending,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        # result() before pop: a chunk whose worker died
                        # must still be in ``pending`` when the repair
                        # pass collects the lost chunks.
                        outcomes = future.result()
                        deliver(pending.pop(future), outcomes)
                    if not queue:
                        self._try_steal(queue, pending)
                except BrokenProcessPool:
                    # Every in-flight chunk died with its worker and the
                    # executor is unusable. Rebuild it and hand the lost
                    # chunks to the isolation pass — without assigning
                    # blame yet, since any one of them may be the killer.
                    self.repaired_chunks += len(pending)
                    suspects.extend(pending.values())
                    pending.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_executor()
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # Join the workers, so their CPU time is accounted to this
        # process's children before the run is reported.
        executor.shutdown(wait=True)

    def _new_executor(self):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.config.max_workers,
            mp_context=_pool_context(),
        )

    def _isolate(self, submit, suspects, executor, deliver):
        """Re-run one suspect chunk with nothing else in flight.

        Success clears the suspect and delivers its outcomes; a repeat
        break implicates exactly this chunk, which then bisects toward
        quarantine via :meth:`_repair`. Returns the (possibly rebuilt)
        executor.
        """
        chunk = suspects.pop(0)
        try:
            outcomes = submit(executor, chunk).result()
        except BrokenProcessPool:
            executor.shutdown(wait=False, cancel_futures=True)
            self._repair(chunk, suspects, deliver)
            return self._new_executor()
        deliver(chunk, outcomes)
        return executor

    def _try_steal(self, queue, pending):
        """Split the largest queued-but-unstarted chunk for idle workers.

        Only attempted when the submit queue is dry and fewer chunks are
        pending than there are workers — the signature of a straggling
        tail. ``Future.cancel`` succeeds only for futures the executor
        has not started, so a running chunk is never disturbed; the
        reclaimed tasks go back to the front of the queue as two halves
        and the next submit loop fans them out.
        """
        if len(pending) >= self.config.max_workers:
            return
        candidates = sorted(
            (future for future, chunk in pending.items()
             if len(chunk.indices) > 1),
            key=lambda future: -len(pending[future].indices),
        )
        for future in candidates:
            if future.cancel():
                queue[:0] = pending.pop(future).split()
                self.steal_attempts += 1
                return

    def _repair(self, chunk, suspects, deliver):
        """One isolated chunk proved guilty: bisect toward quarantine."""
        attempts = chunk.attempts + 1
        if len(chunk.indices) > 1:
            # Bisect: the poisoned task is cornered in log2(chunk)
            # isolation rounds while its innocent neighbours succeed on
            # their first retry.
            halves = chunk.split()
            for half in halves:
                half.attempts = attempts
            suspects[:0] = halves
            self.repaired_chunks += 2
        elif attempts < self.config.max_attempts:
            suspects.insert(0, Chunk(chunk.stage, chunk.indices, attempts))
            self.repaired_chunks += 1
        else:
            self.quarantined_tasks += 1
            deliver(Chunk(chunk.stage, chunk.indices, attempts), None)


def process_backend_available():
    """True when this platform can actually run a process pool."""
    try:
        # Raises ImportError on platforms without a working sem_open.
        import multiprocessing.synchronize  # noqa: F401
    except (ImportError, OSError):
        return False
    return True


def make_pool(config, log=None):
    """Build the pool for ``config``, falling back to inline if needed."""
    backend = config.resolved_backend
    if backend == BACKEND_PROCESS and not process_backend_available():
        if log is not None:
            log.warning("process_backend_unavailable",
                        fallback=BACKEND_INLINE)
        backend = BACKEND_INLINE
    if backend == BACKEND_PROCESS:
        return ProcessPool(config)
    return InlinePool(config)
