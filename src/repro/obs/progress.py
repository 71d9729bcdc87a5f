"""Live progress streaming for long-running study pipelines.

A :class:`ProgressReporter` is a per-outcome callable wired into the
study driver's completion-order hooks (next to the longitudinal
checkpoint sink), so static, dynamic and longitudinal runs all stream progress
lines without the pipelines knowing anything beyond "call this with each
outcome"::

    [static] 50/200 (25.0%) rate=12.3/s eta=12.2s p50=0.080 p95=0.310

Everything is computed from the outcomes' deterministic *cost* model
(each outcome carries the clock units its shard consumed), never from
wall time — so under a :class:`~repro.obs.metrics.TickClock` the stream
of lines is byte-identical across worker counts and backends, and tests
can assert on it exactly. Per-item p50/p95 come from the costs seen so
far; items costing more than ``straggler_factor`` times the median are
flagged with their identifying attribute (package name, shard label) so
a stuck shard is visible *during* the run, not after it.

Lines go to ``stream`` (default: stderr) only when a stream is given or
the ``REPRO_PROGRESS`` environment variable is truthy; the reporter
always accumulates, so the pipelines can wire it unconditionally.
"""

import os
import sys

#: Truthy values enable default-stream progress output.
PROGRESS_ENV_VAR = "REPRO_PROGRESS"

_FALSY = ("", "0", "false", "no", "off")


def progress_enabled():
    """Whether ``REPRO_PROGRESS`` asks for progress lines."""
    raw = os.environ.get(PROGRESS_ENV_VAR)
    if raw is None:
        return False
    return raw.strip().lower() not in _FALSY


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1,
                       int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[index]


class ProgressReporter:
    """Streams rate/ETA/straggler lines as pool results arrive.

    Parameters
    ----------
    label:
        Prefix naming the run (``static``, ``crawl``, a snapshot date).
    total:
        Expected item count; enables percentage and ETA. Settable later
        via :meth:`begin` when the pipeline only learns it after
        selection.
    every:
        Emit a line every N completions (and always on the last item).
    stream:
        Where lines go. None consults ``REPRO_PROGRESS`` and uses
        stderr; pass a StringIO in tests.
    straggler_factor:
        Items costing more than this multiple of the running median are
        reported as stragglers.
    """

    def __init__(self, label="items", total=None, every=10, stream=None,
                 straggler_factor=4.0):
        self.label = label
        self.total = total
        self.every = max(1, int(every))
        if stream is None and progress_enabled():
            stream = sys.stderr
        self.stream = stream
        self.straggler_factor = float(straggler_factor)
        self.done = 0
        self.busy = 0.0
        self.costs = []
        self.stragglers = []
        self.lines = 0

    def begin(self, total):
        """Set (or correct) the expected item count once it is known."""
        self.total = total
        return self

    # -- pool hook -----------------------------------------------------------

    def __call__(self, outcome):
        """Consume one pool outcome (any object; cost/name via getattr)."""
        cost = float(getattr(outcome, "cost", 0.0) or 0.0)
        self.done += 1
        self.busy += cost
        self.costs.append(cost)
        name = self._describe(outcome)
        if self._is_straggler(cost):
            self.stragglers.append((name, cost))
            self._emit(self._straggler_line(name, cost))
        if self.done % self.every == 0 or self.done == self.total:
            self._emit(self.render())

    @staticmethod
    def _describe(outcome):
        for attr in ("package", "site", "name", "sha256"):
            value = getattr(outcome, attr, None)
            if value:
                return str(value)
        return "item-%s" % id(outcome)

    def _is_straggler(self, cost):
        if len(self.costs) < 8:
            return False
        median = _quantile(sorted(self.costs), 0.5)
        return median > 0 and cost > self.straggler_factor * median

    # -- rendering -----------------------------------------------------------

    def render(self):
        """The current progress line (also what ``__call__`` emits)."""
        ordered = sorted(self.costs)
        p50 = _quantile(ordered, 0.5)
        p95 = _quantile(ordered, 0.95)
        rate = self.done / self.busy if self.busy else 0.0
        parts = ["[%s]" % self.label]
        if self.total:
            parts.append("%d/%d (%.1f%%)"
                         % (self.done, self.total,
                            100.0 * self.done / self.total))
        else:
            parts.append("%d done" % self.done)
        parts.append("rate=%.1f/s" % rate)
        if self.total and rate:
            remaining = max(0, self.total - self.done)
            parts.append("eta=%.1fs" % (remaining / rate))
        parts.append("p50=%.3f p95=%.3f" % (p50, p95))
        return " ".join(parts)

    def _straggler_line(self, name, cost):
        return "[%s] straggler %s cost=%.3f (p50=%.3f)" % (
            self.label, name, cost,
            _quantile(sorted(self.costs), 0.5),
        )

    def _emit(self, line):
        self.lines += 1
        if self.stream is not None:
            self.stream.write(line + "\n")

    def summary(self):
        """One-line run summary for the end of a study."""
        return "%s; %d straggler(s)" % (self.render(),
                                        len(self.stragglers))

    def __repr__(self):
        return "ProgressReporter(%s, %d/%s)" % (
            self.label, self.done, self.total if self.total else "?"
        )
