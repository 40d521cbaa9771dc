"""The pinned fingerprint archive and its drift reports.

An archive maps :class:`Coordinate` keys — one per
``(workload, algorithm, seed, alpha)`` grid point of the workload zoo — to the frontier fingerprint pinned for that coordinate.  The pinned
file lives at ``tests/regression/archive.json`` and is the regression
baseline: CI re-runs the zoo and any fingerprint that differs from its pin
is reported as drift, naming the exact coordinate.

Design rules:

* **Versioned format** (:data:`ARCHIVE_FORMAT`): an archive written under a
  different format tag is rejected outright, never reinterpreted.
* **Provenance-keyed entries**: every entry stores its coordinate *and* the
  coordinate's provenance signature (the same canonical-JSON + format-tag
  SHA-256 convention as :func:`repro.bench.tasks.task_provenance_hash`).
  Loading recomputes each signature; a mismatch means the entry was
  hand-edited or truncated and the load fails naming it — a corrupt entry
  must never silently shrink the baseline.
* **Atomic rewrite**: saving goes through
  :func:`repro.utils.atomic.write_atomic` (write a temp file, then rename),
  so a crashed ``record`` can never leave a half-written pin file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.utils.atomic import write_atomic

#: Version tag of the archive file format (v2: coordinates carry no plan
#: engine).
ARCHIVE_FORMAT = "repro-regress-archive-v2"

#: Version tag of the coordinate-signature derivation (see
#: :data:`repro.bench.tasks.PROVENANCE_KEY_FORMAT` for the convention).
REGRESS_KEY_FORMAT = "repro-regress-key-v2"


def _canonical_json(payload: object) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace (stable across runs)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True, order=True)
class Coordinate:
    """One grid point of the regression zoo.

    ``workload`` names the query distribution (shape + statistics model,
    e.g. ``"snowflake-zipf"``); ``alpha`` is the approximation factor for
    DP-style algorithms and ``None`` otherwise.
    """

    workload: str
    algorithm: str
    seed: int
    alpha: float | None = None

    @property
    def label(self) -> str:
        """Human-readable coordinate label used in reports."""
        parts = f"{self.workload} / {self.algorithm} / seed={self.seed}"
        if self.alpha is not None:
            parts += f" / alpha={self.alpha}"
        return parts

    def signature(self) -> str:
        """Provenance signature of the coordinate (hex SHA-256)."""
        payload = {"format": REGRESS_KEY_FORMAT, "coordinate": self.to_json_dict()}
        return hashlib.sha256(_canonical_json(payload)).hexdigest()

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> dict:
        return {
            "workload": self.workload,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "alpha": self.alpha,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Coordinate":
        try:
            alpha = data["alpha"]
            return cls(
                workload=str(data["workload"]),
                algorithm=str(data["algorithm"]),
                seed=int(data["seed"]),
                alpha=None if alpha is None else float(alpha),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"invalid coordinate {data!r}: {error}") from None


@dataclass(frozen=True)
class ArchiveEntry:
    """One pinned result: a coordinate, its fingerprint, the frontier size."""

    coordinate: Coordinate
    fingerprint: str
    frontier_size: int

    def to_json_dict(self) -> dict:
        return {
            "coordinate": self.coordinate.to_json_dict(),
            "signature": self.coordinate.signature(),
            "fingerprint": self.fingerprint,
            "frontier_size": self.frontier_size,
        }


class Archive:
    """In-memory archive: coordinate signature → :class:`ArchiveEntry`."""

    def __init__(self, entries: Iterable[ArchiveEntry] = ()) -> None:
        self._entries: Dict[str, ArchiveEntry] = {}
        for entry in entries:
            self.record(entry)

    def record(self, entry: ArchiveEntry) -> None:
        """Pin (or re-pin) one entry."""
        self._entries[entry.coordinate.signature()] = entry

    def get(self, coordinate: Coordinate) -> ArchiveEntry | None:
        """The pinned entry for ``coordinate``, if any."""
        return self._entries.get(coordinate.signature())

    def entries(self) -> List[ArchiveEntry]:
        """All entries, sorted by coordinate (stable file diffs)."""
        return sorted(self._entries.values(), key=lambda entry: entry.coordinate)

    def __len__(self) -> int:
        return len(self._entries)

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> dict:
        return {
            "format": ARCHIVE_FORMAT,
            "entries": [entry.to_json_dict() for entry in self.entries()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Archive":
        """Rebuild an archive, rejecting corrupt entries with clear errors."""
        if not isinstance(data, dict):
            raise ValueError(
                f"archive must be a JSON object, got {type(data).__name__}"
            )
        if data.get("format") != ARCHIVE_FORMAT:
            raise ValueError(
                f"not a {ARCHIVE_FORMAT} archive (format={data.get('format')!r})"
            )
        raw_entries = data.get("entries")
        if not isinstance(raw_entries, list):
            raise ValueError("archive needs an 'entries' list")
        archive = cls()
        for position, raw in enumerate(raw_entries):
            if not isinstance(raw, dict):
                raise ValueError(f"archive entry #{position}: not an object")
            try:
                coordinate = Coordinate.from_json_dict(raw["coordinate"])
                fingerprint = raw["fingerprint"]
                signature = raw["signature"]
                frontier_size = int(raw["frontier_size"])
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"archive entry #{position}: {error}") from None
            if not isinstance(fingerprint, str) or len(fingerprint) != 64:
                raise ValueError(
                    f"archive entry #{position} ({coordinate.label}): "
                    f"invalid fingerprint {fingerprint!r}"
                )
            if signature != coordinate.signature():
                raise ValueError(
                    f"archive entry #{position} ({coordinate.label}): "
                    f"signature does not match its coordinate — entry is corrupt"
                )
            if coordinate.signature() in archive._entries:
                raise ValueError(
                    f"archive entry #{position} ({coordinate.label}): "
                    f"coordinate pinned twice"
                )
            archive.record(ArchiveEntry(coordinate, fingerprint, frontier_size))
        return archive


def load_archive(path: str) -> Archive:
    """Load and validate a pinned archive file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON ({error})") from None
    try:
        return Archive.from_json_dict(data)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def save_archive(archive: Archive, path: str) -> None:
    """Atomically (re)write the pinned archive file."""
    write_atomic(path, (json.dumps(archive.to_json_dict()) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiffReport:
    """Comparison of a fresh zoo run against the pinned archive.

    ``mismatches`` are coordinates whose fingerprints differ (regression
    drift); ``missing`` are pinned coordinates the fresh run did not cover
    (a silently shrunk zoo); ``unpinned`` are fresh coordinates with no pin
    (a grown zoo awaiting ``regress record``).  Only ``mismatches`` and
    ``missing`` fail a check.
    """

    matches: Tuple[Coordinate, ...]
    mismatches: Tuple[Tuple[Coordinate, str, str], ...]
    missing: Tuple[Coordinate, ...]
    unpinned: Tuple[Coordinate, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.missing

    def render(self) -> str:
        """Readable per-coordinate report."""
        lines = [
            f"regression archive diff: {len(self.matches)} match, "
            f"{len(self.mismatches)} mismatch, {len(self.missing)} missing, "
            f"{len(self.unpinned)} unpinned"
        ]
        for coordinate, pinned, fresh in self.mismatches:
            lines.append(f"  MISMATCH {coordinate.label}")
            lines.append(f"    pinned {pinned}")
            lines.append(f"    fresh  {fresh}")
        for coordinate in self.missing:
            lines.append(f"  MISSING  {coordinate.label} (pinned but not re-run)")
        for coordinate in self.unpinned:
            lines.append(f"  UNPINNED {coordinate.label} (run 'regress record')")
        if self.ok and not self.unpinned:
            lines.append("  all pinned fingerprints reproduced exactly")
        return "\n".join(lines)


def diff_archives(pinned: Archive, fresh: Archive) -> DiffReport:
    """Compare a fresh run against the pinned baseline."""
    matches: List[Coordinate] = []
    mismatches: List[Tuple[Coordinate, str, str]] = []
    missing: List[Coordinate] = []
    unpinned: List[Coordinate] = []
    for entry in pinned.entries():
        fresh_entry = fresh.get(entry.coordinate)
        if fresh_entry is None:
            missing.append(entry.coordinate)
        elif fresh_entry.fingerprint == entry.fingerprint:
            matches.append(entry.coordinate)
        else:
            mismatches.append(
                (entry.coordinate, entry.fingerprint, fresh_entry.fingerprint)
            )
    for entry in fresh.entries():
        if pinned.get(entry.coordinate) is None:
            unpinned.append(entry.coordinate)
    return DiffReport(
        matches=tuple(matches),
        mismatches=tuple(mismatches),
        missing=tuple(missing),
        unpinned=tuple(unpinned),
    )
