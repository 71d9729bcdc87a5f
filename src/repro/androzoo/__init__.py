"""AndroZoo-like APK repository substrate."""

from repro.androzoo.repository import (
    AndroZooRepository,
    IndexRow,
    Snapshot,
    SnapshotDelta,
    diff_snapshots,
    fetch,
)

__all__ = [
    "AndroZooRepository",
    "IndexRow",
    "Snapshot",
    "SnapshotDelta",
    "diff_snapshots",
    "fetch",
]
