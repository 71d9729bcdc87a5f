"""repro.exec — the execution kernel for the corpus-level studies.

The paper's static pipeline covers ~146.5K APKs; at that scale per-app
analysis must be batched across workers (the same move DroidMeter and
Rapoport et al. made). Every study — the static pipeline, the IAB
crawl, the impact and endpoint censuses — runs its per-app work through
one kernel, and there is one scheduler:

- **configuration** (:mod:`repro.exec.config`): :class:`ExecConfig` reads
  ``REPRO_MAX_WORKERS`` / ``REPRO_CHUNK_SIZE`` / ``REPRO_EXEC_BACKEND``
  / ``REPRO_EXEC_WINDOW`` / ``REPRO_EXEC_RETRIES`` and resolves the
  backend (``process`` when more than one worker is requested,
  ``inline`` otherwise).
- **study driver** (:mod:`repro.exec.driver`): a study subclasses
  :class:`ShardedStudy` and supplies its prepare, task, lost-task and
  merge hooks; :class:`StudyRun` opens its spans, wires the ordered
  merge and the checkpoint/progress hooks, stamps worker attribution
  and records the exec, fact-cache and eviction metrics once for all
  studies. :func:`run_studies` interleaves several studies on one pool.
- **scheduler** (:mod:`repro.exec.stream`): stages declare their
  downstream consumers and results flow as they complete, with
  round-robin chunk interleaving across stages and a prefix-flush
  buffer for task-order consumers.
- **worker pools** (:mod:`repro.exec.pool`): the scheduler's backends,
  resolved in one place by :func:`make_pool`. :class:`InlinePool` runs
  chunks in-process; :class:`ProcessPool` runs them on worker processes
  with a bounded in-flight window, cancel-and-split work stealing for
  straggler tails, and a worker-death repair pass that bisects lost
  chunks and quarantines a repeat offender into the drop taxonomy after
  ``REPRO_EXEC_RETRIES`` attempts.
- **result cache** (:mod:`repro.exec.cache`): :class:`AnalysisCache`, a
  two-tier LRU-bounded store — SHA-256-keyed per-APK outcomes on top of a
  corpus-wide content-addressed :class:`ClassFactsCache`, so repeated
  runs skip whole apps and shared SDK classes are decompiled and parsed
  once per corpus (``REPRO_CACHE_MAX_ENTRIES`` bounds both tiers,
  ``REPRO_CACHE_DIR`` adds an on-disk class-facts layer,
  ``REPRO_CLASS_CACHE=0`` disables class-level memoization).
- **schedule accounting** (:mod:`repro.exec.schedule`): a deterministic
  replay of the scheduler's policy over measured task costs; the run
  report's parallel-speedup figure (work / critical path) is modeled
  from it, independent of real scheduling jitter.

Determinism contract: ordered consumers see exact task order however
chunks complete, and the per-task work is a pure function of its
inputs, so a same-seed study produces byte-identical tables for any
worker count or backend.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV_VAR,
    CLASS_FACTS_KIND,
    ENDPOINT_SUMMARY_KIND,
    AnalysisCache,
    ClassFactsCache,
    LruStore,
    MAX_ENTRIES_ENV_VAR,
    env_max_entries,
)
from repro.exec.config import (
    BACKEND_AUTO,
    BACKEND_ENV_VAR,
    BACKEND_INLINE,
    BACKEND_PROCESS,
    CHUNK_SIZE_ENV_VAR,
    CLASS_CACHE_ENV_VAR,
    DEFAULT_MAX_ATTEMPTS,
    ENDPOINT_CACHE_ENV_VAR,
    ExecConfig,
    ExecConfigError,
    MAX_WORKERS_ENV_VAR,
    RETRIES_ENV_VAR,
    SCRIPT_CACHE_ENV_VAR,
    WINDOW_ENV_VAR,
)
from repro.exec.driver import (
    ShardedStudy,
    StudyRun,
    TaskOutcome,
    lost_message,
    run_studies,
    run_study,
)
from repro.exec.pool import (
    Chunk,
    InlinePool,
    ProcessPool,
    WorkerPool,
    chain_results,
    make_pool,
    process_backend_available,
)
from repro.exec.schedule import Schedule, simulate_stream_chunks
from repro.exec.stream import (
    OrderedFlush,
    StreamScheduler,
    StreamStage,
    WORKER_LOST_SLUG,
)

__all__ = [
    "AnalysisCache",
    "BACKEND_AUTO",
    "BACKEND_ENV_VAR",
    "BACKEND_INLINE",
    "BACKEND_PROCESS",
    "CACHE_DIR_ENV_VAR",
    "CHUNK_SIZE_ENV_VAR",
    "CLASS_CACHE_ENV_VAR",
    "CLASS_FACTS_KIND",
    "Chunk",
    "ClassFactsCache",
    "DEFAULT_MAX_ATTEMPTS",
    "ENDPOINT_CACHE_ENV_VAR",
    "ENDPOINT_SUMMARY_KIND",
    "ExecConfig",
    "ExecConfigError",
    "InlinePool",
    "LruStore",
    "MAX_ENTRIES_ENV_VAR",
    "MAX_WORKERS_ENV_VAR",
    "OrderedFlush",
    "ProcessPool",
    "RETRIES_ENV_VAR",
    "SCRIPT_CACHE_ENV_VAR",
    "Schedule",
    "ShardedStudy",
    "StreamScheduler",
    "StreamStage",
    "StudyRun",
    "TaskOutcome",
    "WINDOW_ENV_VAR",
    "WORKER_LOST_SLUG",
    "WorkerPool",
    "chain_results",
    "env_max_entries",
    "lost_message",
    "make_pool",
    "process_backend_available",
    "run_studies",
    "run_study",
    "simulate_stream_chunks",
]
