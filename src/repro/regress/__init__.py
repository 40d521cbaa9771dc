"""Pinned frontier-fingerprint regression archive.

The optimizers in this library are deterministic functions of their seeds:
every frontier an algorithm produces is a pure function of
``(workload, algorithm, seed)``.  That makes exact regression
testing possible — and this package implements it:

``fingerprint``
    Canonical frontier fingerprints: sorted cost rows (exact float64 hex,
    NaN/±inf safe) plus plan-shape digests, hashed under a versioned format
    tag.  Any change to any cost component or plan shape changes the
    fingerprint.
``archive``
    The pinned archive (``tests/regression/archive.json``): a versioned,
    atomically rewritten store of fingerprints keyed by provenance-hashed
    coordinates, and the diff machinery producing readable per-coordinate
    drift reports.
``zoo``
    The workload zoo grid — join-graph shapes × statistics models ×
    algorithms — micro-scaled so the full sweep replays in CI seconds.

Entry point: the ``regress`` subcommand of ``python -m repro.bench.cli``
(``check`` / ``record`` / ``diff`` / ``lint``).
"""

from repro.regress.fingerprint import (
    FINGERPRINT_FORMAT,
    cost_row,
    fingerprint_rows,
    float_hex,
    frontier_fingerprint,
    frontier_rows,
    plan_shape_digest,
)
from repro.regress.archive import (
    ARCHIVE_FORMAT,
    Archive,
    ArchiveEntry,
    Coordinate,
    DiffReport,
    diff_archives,
    load_archive,
    save_archive,
)
from repro.regress.zoo import (
    ZOO_SEED,
    run_coordinate,
    run_zoo,
    zoo_coordinates,
)

__all__ = [
    "FINGERPRINT_FORMAT",
    "cost_row",
    "fingerprint_rows",
    "float_hex",
    "frontier_fingerprint",
    "frontier_rows",
    "plan_shape_digest",
    "ARCHIVE_FORMAT",
    "Archive",
    "ArchiveEntry",
    "Coordinate",
    "DiffReport",
    "diff_archives",
    "load_archive",
    "save_archive",
    "ZOO_SEED",
    "run_coordinate",
    "run_zoo",
    "zoo_coordinates",
]
