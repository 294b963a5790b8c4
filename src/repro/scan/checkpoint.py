"""Crash-safe scan checkpointing: a JSONL journal of completed windows.

A genome-scale scan is hundreds of independent window jobs whose results are
pure functions of the per-window seeds, so the natural checkpoint unit is one
*completed window*: the journal's first line pins the scan's identity
(geometry, seeding, statistic, panel and a digest of the GA configuration —
resuming against the wrong panel, seed or search parameters must fail
loudly, not silently merge incompatible results) and every further line is
one window's :func:`~repro.scan.report.window_result_to_json` payload,
written, flushed and fsynced the moment the window finishes.  A scan process
killed at any point therefore loses at most the windows still in flight, and
``run_scan(..., resume=True)`` re-plans the scan, skips the journaled
windows, runs the rest and merges both sets — bit-identical to an
uninterrupted run, because every window is fully determined by its seed.

The only corruption a crash can produce with this write discipline is a torn
*final* line, which :meth:`ScanJournal.open` tolerates (the half-written
window simply re-runs, and the torn bytes are truncated before appending).
Anything malformed earlier in the file means the journal was not written by
this discipline and raises :class:`CheckpointMismatchError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from ..core.config import GAConfig
from .planner import ScanPlan
from .report import WindowResult, window_result_from_json, window_result_to_json

__all__ = ["ScanJournal", "CheckpointMismatchError", "checkpoint_meta", "config_digest"]

#: bump when the journal layout changes incompatibly
#: (v2: the header names the panel representation and its content hash;
#: v3: the header pins the GA configuration's digest)
JOURNAL_VERSION = 3


class CheckpointMismatchError(ValueError):
    """The journal does not belong to this scan (or is corrupt mid-file)."""


def config_digest(config: GAConfig | None) -> str:
    """Stable digest of a GA configuration.

    Sorted-key JSON of the dataclass fields, so two configs digest equal
    exactly when every parameter that shapes the search is equal.  It pins
    a journal to its configuration and keys the daemon's window-result cache.
    """
    payload = json.dumps(
        dataclasses.asdict(config or GAConfig()), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def checkpoint_meta(
    plan: ScanPlan,
    n_snps: int,
    *,
    panel: str = "byte",
    panel_fingerprint: str | None = None,
) -> dict:
    """The identity header of a scan's journal: resuming requires an exact
    match on geometry, seeding and the GA configuration
    (:func:`config_digest`), since those determine every window result.

    ``panel`` names the genotype substrate the scan runs on (``"byte"`` or
    ``"packed"``) and ``panel_fingerprint`` (optional) pins the panel's
    content hash (:meth:`~repro.genetics.dataset.GenotypeDataset.fingerprint`),
    so a resume can never silently mix packed and byte substrates — or two
    different panels that happen to share a shape.
    """
    meta = {
        "kind": "scan-checkpoint",
        "version": JOURNAL_VERSION,
        "n_snps": int(n_snps),
        "window_size": plan.windows.window_size,
        "overlap": plan.windows.overlap,
        "n_windows": plan.n_windows,
        "statistic": plan.statistic,
        "seed": plan.base_seed,
        "n_runs": plan.n_runs,
        "config_digest": config_digest(plan.config),
        "panel": str(panel),
    }
    if panel_fingerprint is not None:
        meta["panel_fingerprint"] = str(panel_fingerprint)
    return meta


class ScanJournal:
    """Append-only JSONL journal of a scan's completed windows.

    Use :meth:`open` — it loads and validates any existing journal (resume),
    or truncates and starts a fresh one, and returns the journal together
    with the windows already on disk.  :meth:`append` persists one completed
    window durably (flush + fsync) before returning, so the journal never
    claims a window the filesystem might still lose.
    """

    def __init__(self, path, meta: dict) -> None:
        self._path = str(path)
        self._meta = dict(meta)
        self._handle = None
        self._journaled: set[int] = set()
        self._valid_bytes = 0

    @classmethod
    def open(
        cls, path, meta: dict, *, resume: bool = False
    ) -> tuple["ScanJournal", dict[int, WindowResult]]:
        """Open the journal; returns ``(journal, completed_windows_by_index)``.

        ``resume=False`` truncates any existing file and starts fresh (the
        completed dict is then empty).  ``resume=True`` loads the journal,
        validates its header against ``meta``, truncates a torn final line if
        the previous scan died mid-write, and positions for appending.
        """
        journal = cls(path, meta)
        completed: dict[int, WindowResult] = {}
        if resume and os.path.exists(journal._path):
            completed = journal._load()
            handle = open(journal._path, "r+")
            handle.truncate(journal._valid_bytes)
            handle.seek(journal._valid_bytes)
            journal._handle = handle
            if journal._valid_bytes == 0:
                journal._write_line(journal._meta)
        else:
            journal._handle = open(journal._path, "w")
            journal._write_line(journal._meta)
        journal._journaled = set(completed)
        return journal, completed

    # ------------------------------------------------------------------ #
    def _load(self) -> dict[int, WindowResult]:
        with open(self._path, "r") as handle:
            text = handle.read()
        records: list[dict] = []
        consumed = 0
        self._valid_bytes = 0
        lines = text.splitlines(keepends=True)
        for number, line in enumerate(lines):
            consumed += len(line.encode("utf-8")) if isinstance(line, str) else len(line)
            stripped = line.strip()
            if not stripped:
                self._valid_bytes = consumed
                continue
            try:
                records.append(json.loads(stripped))
            except json.JSONDecodeError:
                if number == len(lines) - 1:
                    # torn final line: the scan died mid-append; that window
                    # simply re-runs (truncated before we append)
                    break
                raise CheckpointMismatchError(
                    f"{self._path}:{number + 1}: corrupt journal line (only the "
                    f"final line may be torn by a crash)"
                ) from None
            self._valid_bytes = consumed
        if not records:
            return {}
        header, *window_records = records
        expected = self._meta
        differing = [key for key in expected if header.get(key) != expected[key]]
        if differing:
            details = "; ".join(
                f"{key}: journal {header.get(key)!r}, this scan {expected[key]!r}"
                for key in differing
            )
            raise CheckpointMismatchError(
                f"checkpoint {self._path} belongs to a different scan ({details})"
            )
        completed: dict[int, WindowResult] = {}
        for record in window_records:
            if record.get("kind") != "window":
                raise CheckpointMismatchError(
                    f"{self._path}: unexpected journal record kind "
                    f"{record.get('kind')!r}"
                )
            result = window_result_from_json(record)
            index = result.window.index
            if not 0 <= index < self._meta["n_windows"]:
                raise CheckpointMismatchError(
                    f"{self._path}: journaled window index {index} outside the "
                    f"scan's {self._meta['n_windows']} windows"
                )
            completed[index] = result
        return completed

    def _write_line(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def n_journaled(self) -> int:
        return len(self._journaled)

    def append(self, result: WindowResult) -> None:
        """Durably journal one completed window (idempotent per index)."""
        if self._handle is None:
            raise RuntimeError("the journal has been closed")
        if result.window.index in self._journaled:
            return
        self._write_line({"kind": "window", **window_result_to_json(result)})
        self._journaled.add(result.window.index)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ScanJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
