"""RunStore: persistent, versioned storage for completed study runs.

The store holds three kinds of state, all namespaced under a *context* —
the :meth:`~repro.corpus.generator.Corpus.fingerprint` of the universe a
run measured, so one store directory is safe to share across corpora:

``outcomes/``
    One :class:`~repro.static_analysis.results.OutcomeRecord` per
    ``(sha256, options fingerprint)``, the persistent sibling of the
    in-memory :class:`~repro.exec.AnalysisCache` APK tier. Analysis is a
    pure function of APK bytes and options, so replaying a stored record
    is byte-identical to re-running the analysis.

``runs/<run_id>/manifest.json``
    One manifest per completed snapshot run: the snapshot date, funnel
    counts, and fresh/carried/resumed tallies. A manifest is written
    only at :meth:`RunHandle.finalize` — its presence *is* the
    completion marker, so the delta planner never trusts a run that was
    killed mid-flight.

``runs/<run_id>/checkpoint.pkl``
    Mid-run progress for the *incomplete* run: the outcome records
    accumulated so far, rewritten atomically every ``checkpoint_every``
    pool results. A killed run resumes by priming these into its cache;
    a corrupt or truncated checkpoint is treated as absent (the run
    restarts cold, which is always correct, just slower).

All disk writes are atomic (temp file + ``os.replace``), so a kill at
any instant leaves either the old file or the new one, never a torn
write. With no root directory configured — the ``REPRO_RUN_STORE``
environment variable unset and ``root=None`` — the store keeps the same
state in process memory, which gives tests and one-shot scripts the full
incremental machinery without touching disk.
"""

import json
import os
import pickle

from repro.exec import AnalysisCache
from repro.util import fingerprint_token

#: Directory for the persistent store; unset means in-memory only.
RUN_STORE_ENV_VAR = "REPRO_RUN_STORE"

#: Pickle files named by anything other than these suffixes are ignored.
_OUTCOME_SUFFIX = ".pkl"
_CHECKPOINT_NAME = "checkpoint.pkl"
_MANIFEST_NAME = "manifest.json"


def _env_store_dir():
    raw = os.environ.get(RUN_STORE_ENV_VAR)
    return raw if raw and raw.strip() else None


def options_token(fingerprint):
    """Compact digest of a PipelineOptions cache key, used in filenames."""
    return fingerprint_token(fingerprint)


class RunStore:
    """Versioned store of run outcomes, manifests and checkpoints."""

    def __init__(self, root=None):
        if root is None:
            root = _env_store_dir()
        # An empty/blank root means "in-memory", same as an unset env
        # var — it is never a real directory.
        self.root = root if root and str(root).strip() else None
        # In-memory layer: authoritative when root is None, a
        # write-through fast path otherwise.
        self._outcomes = {}
        self._manifests = {}
        self._checkpoints = {}

    @property
    def persistent(self):
        return self.root is not None

    # -- paths ---------------------------------------------------------------

    def _outcomes_dir(self, context):
        return os.path.join(self.root, context, "outcomes")

    def _run_dir(self, context, run_id):
        return os.path.join(self.root, context, "runs", run_id)

    def _outcome_path(self, context, sha256, token):
        return os.path.join(
            self._outcomes_dir(context),
            "%s_%s%s" % (sha256, token, _OUTCOME_SUFFIX),
        )

    @staticmethod
    def _atomic_write(path, data):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    @staticmethod
    def _load_pickle(path):
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None

    # -- outcomes ------------------------------------------------------------

    def get_outcome(self, context, sha256, fingerprint):
        """The stored record for one APK + options combo, or None."""
        key = (context, sha256, options_token(fingerprint))
        record = self._outcomes.get(key)
        if record is None and self.persistent:
            record = self._load_pickle(
                self._outcome_path(context, sha256, key[2])
            )
            if record is not None:
                self._outcomes[key] = record
        return record

    def put_outcome(self, context, sha256, fingerprint, record):
        return self.put_outcome_by_token(
            context, sha256, options_token(fingerprint), record
        )

    def put_outcome_by_token(self, context, sha256, token, record):
        self._outcomes[(context, sha256, token)] = record
        if self.persistent:
            self._atomic_write(
                self._outcome_path(context, sha256, token),
                pickle.dumps(record),
            )
        return record

    def outcome_count(self, context):
        counted = {
            (sha, token) for (ctx, sha, token) in self._outcomes
            if ctx == context
        }
        if self.persistent:
            try:
                names = os.listdir(self._outcomes_dir(context))
            except OSError:
                names = []
            for name in names:
                if name.endswith(_OUTCOME_SUFFIX):
                    counted.add(tuple(name[:-len(_OUTCOME_SUFFIX)]
                                      .rsplit("_", 1)))
        return len(counted)

    # -- manifests -----------------------------------------------------------

    def write_manifest(self, context, run_id, manifest):
        self._manifests[(context, run_id)] = manifest
        if self.persistent:
            path = os.path.join(self._run_dir(context, run_id),
                                _MANIFEST_NAME)
            self._atomic_write(
                path, json.dumps(manifest, sort_keys=True).encode("utf-8")
            )
        return manifest

    def load_manifest(self, context, run_id):
        manifest = self._manifests.get((context, run_id))
        if manifest is None and self.persistent:
            path = os.path.join(self._run_dir(context, run_id),
                                _MANIFEST_NAME)
            try:
                with open(path, "rb") as handle:
                    manifest = json.loads(handle.read().decode("utf-8"))
            except (OSError, ValueError):
                manifest = None
            if manifest is not None:
                self._manifests[(context, run_id)] = manifest
        return manifest

    def list_runs(self, context):
        """Every completed run manifest for a context."""
        run_ids = {
            run_id for (ctx, run_id) in self._manifests if ctx == context
        }
        if self.persistent:
            runs_dir = os.path.join(self.root, context, "runs")
            try:
                run_ids.update(os.listdir(runs_dir))
            except OSError:
                pass
        manifests = []
        for run_id in sorted(run_ids):
            manifest = self.load_manifest(context, run_id)
            if manifest is not None:
                manifests.append(manifest)
        return manifests

    def latest_complete(self, context, before=None):
        """The completed run with the latest snapshot date, or None.

        ``before`` (an ISO date string) restricts the search to runs of
        strictly earlier snapshots — the delta planner's "what do I diff
        against" query.
        """
        best = None
        for manifest in self.list_runs(context):
            date = manifest.get("snapshot_date")
            if date is None:
                continue
            if before is not None and date >= before:
                continue
            if best is None or date > best["snapshot_date"]:
                best = manifest
        return best

    # -- checkpoints ---------------------------------------------------------

    def _checkpoint_path(self, context, run_id):
        return os.path.join(self._run_dir(context, run_id), _CHECKPOINT_NAME)

    def write_checkpoint(self, context, run_id, entries):
        self._checkpoints[(context, run_id)] = dict(entries)
        if self.persistent:
            self._atomic_write(
                self._checkpoint_path(context, run_id),
                pickle.dumps(dict(entries)),
            )

    def load_checkpoint(self, context, run_id):
        """Recovered (sha256, token) -> record map; {} when absent/corrupt."""
        entries = self._checkpoints.get((context, run_id))
        if entries is None and self.persistent:
            entries = self._load_pickle(
                self._checkpoint_path(context, run_id)
            )
        if not isinstance(entries, dict):
            return {}
        return dict(entries)

    def clear_checkpoint(self, context, run_id):
        self._checkpoints.pop((context, run_id), None)
        if self.persistent:
            try:
                os.remove(self._checkpoint_path(context, run_id))
            except OSError:
                pass

    def __repr__(self):
        return "RunStore(%s, %d outcomes, %d manifests)" % (
            self.root or "memory", len(self._outcomes), len(self._manifests)
        )


class RunHandle:
    """One in-flight snapshot run's write handle into a RunStore.

    Records accumulate in memory and persist via :meth:`flush` (atomic
    checkpoint rewrite); :meth:`finalize` promotes every record into the
    permanent outcome store, writes the completion manifest, and clears
    the checkpoint. The handle is seeded with any recovered checkpoint
    entries, so a resumed run's final state covers the pre-kill work too.
    """

    def __init__(self, store, context, run_id, meta=None, recovered=None):
        self.store = store
        self.context = context
        self.run_id = run_id
        self.meta = dict(meta or {})
        self.entries = dict(recovered or {})
        self.flushes = 0
        self._dirty = False
        self._finalized = False

    def record(self, sha256, fingerprint, record):
        self.entries[(sha256, options_token(fingerprint))] = record
        self._dirty = True

    def flush(self):
        if not self._dirty:
            return
        self.store.write_checkpoint(self.context, self.run_id, self.entries)
        self.flushes += 1
        self._dirty = False

    def finalize(self, **fields):
        """Complete the run: promote outcomes, write manifest, clean up."""
        for (sha256, token), record in self.entries.items():
            self.store.put_outcome_by_token(self.context, sha256, token,
                                            record)
        manifest = dict(self.meta)
        manifest.update(fields)
        manifest["run_id"] = self.run_id
        manifest["status"] = "complete"
        self.store.write_manifest(self.context, self.run_id, manifest)
        self.store.clear_checkpoint(self.context, self.run_id)
        self._finalized = True
        return manifest


class CheckpointSink:
    """Per-outcome callable wired into the pipeline's checkpoint hook.

    The study driver invokes it in *completion* order — records are
    keyed by sha256, so order never matters — and every ``every``
    outcomes the accumulated state is rewritten atomically. Uncacheable
    outcomes (failed downloads, lost workers) are skipped: they must be
    retried, never replayed.
    """

    def __init__(self, handle, fingerprint, every=25):
        from repro.static_analysis.results import OutcomeRecord

        self._record_type = OutcomeRecord
        self.handle = handle
        self.fingerprint = tuple(fingerprint)
        self.every = max(1, int(every))
        self.seen = 0

    def __call__(self, outcome):
        if not outcome.cacheable:
            return
        self.handle.record(
            outcome.sha256, self.fingerprint,
            self._record_type(outcome.analysis, outcome.error,
                              outcome.message),
        )
        self.seen += 1
        if self.seen % self.every == 0:
            self.handle.flush()


class StoreBackedCache(AnalysisCache):
    """An AnalysisCache whose miss path falls through to a RunStore.

    This is the delta planner's scheduling mechanism: priming the
    pipeline's cache with prior-run outcomes makes unchanged APKs
    short-circuit before download, so only new/changed APKs ever reach
    the worker pool — and merged results flow through the pipeline's
    ordinary selection-order aggregation, keeping them byte-identical to
    a cold run. The fallback chain is memory LRU → this run's recovered
    checkpoint (``resumed``) → the persistent outcome store
    (``carried``); fresh work writes through to the store.
    """

    def __init__(self, store, context, recovered=None, classes=None,
                 max_entries=None):
        super().__init__(max_entries=max_entries, classes=classes)
        self.store = store
        self.context = context
        self._recovered = dict(recovered or {})
        self.carried = 0
        self.resumed = 0
        self.fresh = 0

    def get(self, sha256, fingerprint=()):
        entry = super().get(sha256, fingerprint)
        if entry is not None:
            return entry
        record = self._recovered.get(
            (sha256, options_token(fingerprint))
        )
        if record is not None:
            self.resumed += 1
        else:
            record = self.store.get_outcome(self.context, sha256,
                                            fingerprint)
            if record is not None:
                self.carried += 1
        if record is not None:
            # The memory tier missed but the run store answered: fix the
            # inherited accounting and promote for repeat lookups.
            self.misses -= 1
            self.hits += 1
            super().put(sha256, fingerprint, record)
        return record

    def put(self, sha256, fingerprint, record):
        self.fresh += 1
        self.store.put_outcome(self.context, sha256, fingerprint, record)
        return super().put(sha256, fingerprint, record)
