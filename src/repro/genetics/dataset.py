"""Case/control genotype dataset container.

The paper's experiments use a table of unphased SNP genotypes for a set of
individuals, each labelled *affected*, *unaffected* (healthy) or *unknown*
(Section 5: 176 individuals — 53 affected, 53 healthy, 70 unknown — of which
106 individuals × 51 SNPs are used for the reported study).

:class:`GenotypeDataset` is the single in-memory representation used by every
other subsystem: the EH-DIALL/CLUMP evaluation pipeline, the pairwise-LD
tables, the constraint checks and the GA itself all consume it.

A dataset can carry its genotypes in one or both of two physical forms:

* the classic **byte matrix** — ``(n_individuals, n_snps)`` int8; and
* a **2-bit packed panel** (:class:`repro.genetics.packed.PackedPanel`) —
  4 genotypes per byte, SNP-major, with missing as the fourth state.

A *packed-native* dataset (built from a packed panel, ``genotypes=None``)
materialises the byte matrix lazily and only when some consumer actually
asks for it; the packed-aware consumers (phase expansion, the shared-memory
store, missing-rate counting) never do.  :class:`PackedGenotypeStore` packs
a dataset affected-first — the same row order the shared-memory store uses —
so group and window selections stay zero-copy views of one packed buffer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .alleles import (
    GENOTYPE_MISSING,
    STATUS_AFFECTED,
    STATUS_UNAFFECTED,
    STATUS_UNKNOWN,
    validate_genotype_array,
)
from .packed import PackedPanel, pack_genotypes

__all__ = [
    "GenotypeDataset",
    "DatasetSummary",
    "LocusWindow",
    "WindowPlan",
    "PackedGenotypeStore",
    "as_packed_dataset",
    "plan_windows",
    "shard_dataset",
]

#: SNP rows processed per step by chunked pack/hash loops (bounds temporaries).
_CHUNK_SNPS = 4096


@dataclass(frozen=True)
class DatasetSummary:
    """Lightweight summary statistics of a :class:`GenotypeDataset`."""

    n_individuals: int
    n_snps: int
    n_affected: int
    n_unaffected: int
    n_unknown: int
    missing_rate: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.n_individuals} individuals x {self.n_snps} SNPs "
            f"({self.n_affected} affected, {self.n_unaffected} unaffected, "
            f"{self.n_unknown} unknown status, "
            f"{self.missing_rate:.2%} missing genotypes)"
        )


class GenotypeDataset:
    """Unphased case/control SNP genotype matrix.

    Parameters
    ----------
    genotypes:
        Integer array of shape ``(n_individuals, n_snps)`` with entries in
        ``{0, 1, 2, -1}`` (see :mod:`repro.genetics.alleles`).
    status:
        Integer array of length ``n_individuals`` with entries in
        ``{0 (unaffected), 1 (affected), -1 (unknown)}``.
    snp_names:
        Optional SNP identifiers; defaults to ``"snp0" … "snpN-1"``.
    individual_ids:
        Optional individual identifiers; defaults to ``"ind0" …``.
    packed:
        Optional 2-bit packed panel carrying the same genotypes.  When given
        with ``genotypes=None`` the dataset is *packed-native*: the byte
        matrix is materialised lazily on first access, and packed-aware
        consumers never materialise it at all.
    """

    def __init__(
        self,
        genotypes: np.ndarray | Sequence[Sequence[int]] | None,
        status: np.ndarray | Sequence[int],
        snp_names: Sequence[str] | None = None,
        individual_ids: Sequence[str] | None = None,
        *,
        packed: PackedPanel | None = None,
    ) -> None:
        if genotypes is None:
            if packed is None:
                raise ValueError("either genotypes or a packed panel is required")
            # codes are valid by construction: unpacking maps 0/1/2/3 onto
            # 0/1/2/missing, so byte validation happens only if/when the
            # matrix is materialised from foreign byte input.
            geno = None
            n_individuals, n_snps = packed.n_individuals, packed.n_snps
        else:
            geno = validate_genotype_array(np.asarray(genotypes))
            if geno.ndim != 2:
                raise ValueError(f"genotypes must be 2-D, got shape {geno.shape}")
            n_individuals, n_snps = geno.shape
            if packed is not None and (
                packed.n_individuals != n_individuals or packed.n_snps != n_snps
            ):
                raise ValueError(
                    f"packed panel shape ({packed.n_individuals}, {packed.n_snps}) "
                    f"does not match genotypes shape {geno.shape}"
                )
        stat = np.asarray(status, dtype=np.int8)
        if stat.ndim != 1:
            raise ValueError("status must be a 1-D array")
        if stat.shape[0] != n_individuals:
            raise ValueError(
                f"status length {stat.shape[0]} does not match "
                f"{n_individuals} individuals"
            )
        valid_status = {STATUS_AFFECTED, STATUS_UNAFFECTED, STATUS_UNKNOWN}
        if not set(np.unique(stat).tolist()) <= valid_status:
            raise ValueError(f"status values must be in {sorted(valid_status)}")

        self._genotypes = geno
        self._packed = packed
        self._status = stat
        self._n_individuals = int(n_individuals)
        self._n_snps = int(n_snps)

        if snp_names is None:
            snp_names = [f"snp{i}" for i in range(n_snps)]
        if len(snp_names) != n_snps:
            raise ValueError("snp_names length does not match number of SNPs")
        if len(set(snp_names)) != len(snp_names):
            raise ValueError("snp_names must be unique")
        self._snp_names = tuple(str(s) for s in snp_names)

        if individual_ids is None:
            individual_ids = [f"ind{i}" for i in range(n_individuals)]
        if len(individual_ids) != n_individuals:
            raise ValueError("individual_ids length does not match number of individuals")
        self._individual_ids = tuple(str(s) for s in individual_ids)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def _materialize(self) -> np.ndarray:
        """The byte genotype matrix, unpacking it on first demand.

        Unpacking is deterministic and idempotent, so a racing double
        materialisation is benign (last write wins with identical content).
        """
        if self._genotypes is None:
            self._genotypes = self._packed.unpack()
        return self._genotypes

    @property
    def genotypes(self) -> np.ndarray:
        """The ``(n_individuals, n_snps)`` genotype matrix (read-only view)."""
        view = self._materialize().view()
        view.flags.writeable = False
        return view

    @property
    def packed(self) -> PackedPanel | None:
        """The 2-bit packed panel carrying these genotypes, if one exists."""
        return self._packed

    @property
    def is_materialized(self) -> bool:
        """Whether the byte matrix currently exists in memory."""
        return self._genotypes is not None

    def with_packed(self) -> "GenotypeDataset":
        """This dataset with a packed panel attached (self if already packed)."""
        if self._packed is not None:
            return self
        return GenotypeDataset(
            self._genotypes,
            self._status,
            snp_names=self._snp_names,
            individual_ids=self._individual_ids,
            packed=PackedPanel(pack_genotypes(self._genotypes), self.n_individuals),
        )

    @property
    def status(self) -> np.ndarray:
        """Per-individual disease status (read-only view)."""
        view = self._status.view()
        view.flags.writeable = False
        return view

    @property
    def snp_names(self) -> tuple[str, ...]:
        return self._snp_names

    @property
    def individual_ids(self) -> tuple[str, ...]:
        return self._individual_ids

    @property
    def n_individuals(self) -> int:
        return self._n_individuals

    @property
    def n_snps(self) -> int:
        return self._n_snps

    def __len__(self) -> int:
        return self.n_individuals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GenotypeDataset(n_individuals={self.n_individuals}, n_snps={self.n_snps})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenotypeDataset):
            return NotImplemented
        return (
            np.array_equal(self._materialize(), other._materialize())
            and np.array_equal(self._status, other._status)
            and self._snp_names == other._snp_names
            and self._individual_ids == other._individual_ids
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if self._packed is not None:
            # the packed panel is lossless (values are confined to
            # {0, 1, 2, missing}), so ship 2 bits per genotype instead of 8.
            state["_genotypes"] = None
        return state

    def fingerprint(self) -> str:
        """Content hash of dimensions, status and genotypes (hex digest).

        Representation-independent: packed-native and byte datasets with the
        same content hash identically.  Genotype bytes are folded SNP-major
        (one locus at a time) so a packed panel hashes chunk-by-chunk without
        ever materialising the full byte matrix.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.n_individuals}x{self.n_snps}".encode())
        digest.update(np.ascontiguousarray(self._status).tobytes())
        for start in range(0, self.n_snps, _CHUNK_SNPS):
            stop = min(start + _CHUNK_SNPS, self.n_snps)
            if self._genotypes is not None:
                chunk = self._genotypes[:, start:stop].T
            else:
                chunk = self._packed.column_window(start, stop).unpack().T
            digest.update(np.ascontiguousarray(chunk).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # group selectors
    # ------------------------------------------------------------------ #
    @property
    def affected_mask(self) -> np.ndarray:
        return self._status == STATUS_AFFECTED

    @property
    def unaffected_mask(self) -> np.ndarray:
        return self._status == STATUS_UNAFFECTED

    @property
    def unknown_mask(self) -> np.ndarray:
        return self._status == STATUS_UNKNOWN

    @property
    def n_affected(self) -> int:
        return int(np.count_nonzero(self.affected_mask))

    @property
    def n_unaffected(self) -> int:
        return int(np.count_nonzero(self.unaffected_mask))

    @property
    def n_unknown(self) -> int:
        return int(np.count_nonzero(self.unknown_mask))

    def affected(self) -> "GenotypeDataset":
        """Sub-dataset restricted to affected individuals."""
        return self.select_individuals(np.flatnonzero(self.affected_mask))

    def unaffected(self) -> "GenotypeDataset":
        """Sub-dataset restricted to unaffected individuals."""
        return self.select_individuals(np.flatnonzero(self.unaffected_mask))

    def with_known_status(self) -> "GenotypeDataset":
        """Sub-dataset restricted to individuals with known status."""
        return self.select_individuals(np.flatnonzero(~self.unknown_mask))

    # ------------------------------------------------------------------ #
    # subsetting
    # ------------------------------------------------------------------ #
    def select_individuals(self, indices: Iterable[int] | np.ndarray) -> "GenotypeDataset":
        """New dataset containing only the given individual row indices.

        When the indices form a contiguous ascending run the rows are taken
        as a basic slice — a *view* sharing the parent's memory rather than a
        fancy-indexed copy.  The shared-memory execution backend relies on
        this: its genotype store lays the rows out affected-first, so the
        per-group sub-datasets of every worker's evaluator are windows into
        the one shared matrix instead of per-process copies.
        """
        idx = np.asarray(list(indices), dtype=np.intp)
        packed = None
        if idx.size and idx[0] >= 0 and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
            rows = slice(int(idx[0]), int(idx[0]) + idx.size)
            if self._packed is not None:
                # bit-offset view: the group still shares the packed buffer
                packed = self._packed.row_window(rows.start, rows.stop)
            genotypes = self._genotypes[rows] if self._genotypes is not None else None
            status = self._status[rows]
        else:
            genotypes = self._materialize()[idx]
            status = self._status[idx]
        return GenotypeDataset(
            genotypes,
            status,
            snp_names=self._snp_names,
            individual_ids=[self._individual_ids[i] for i in idx],
            packed=packed,
        )

    def select_snps(self, indices: Iterable[int] | np.ndarray) -> "GenotypeDataset":
        """New dataset containing only the given SNP column indices (in the given order).

        Contiguous ascending runs are taken as a basic column slice — a
        *view* sharing the parent's memory — so locus windows carved out of a
        chromosome-scale panel (:func:`shard_dataset`) cost no genotype
        copies, mirroring what :meth:`select_individuals` does for rows.
        """
        idx = np.asarray(list(indices), dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_snps):
            raise IndexError(f"SNP index out of range [0, {self.n_snps})")
        packed = None
        if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
            columns = slice(int(idx[0]), int(idx[0]) + idx.size)
            if self._packed is not None:
                packed = self._packed.column_window(columns.start, columns.stop)
            genotypes = self._genotypes[:, columns] if self._genotypes is not None else None
        else:
            if self._packed is not None:
                # SNP-major packed rows gather cheaply: (k, width) bytes
                packed = PackedPanel(
                    np.ascontiguousarray(self._packed.data[idx]),
                    self._packed.n_individuals,
                    self._packed.row_start,
                )
            genotypes = self._genotypes[:, idx] if self._genotypes is not None else None
        return GenotypeDataset(
            genotypes,
            self._status,
            snp_names=[self._snp_names[i] for i in idx],
            individual_ids=self._individual_ids,
            packed=packed,
        )

    def window(self, start: int, stop: int) -> "GenotypeDataset":
        """Zero-copy view of the contiguous locus window ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_snps:
            raise IndexError(
                f"window [{start}, {stop}) out of range for {self.n_snps} SNPs"
            )
        return self.select_snps(range(start, stop))

    def genotypes_at(self, snp_indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Genotype columns for the given SNP indices, shape ``(n_individuals, k)``."""
        idx = np.asarray(snp_indices, dtype=np.intp)
        if self._genotypes is None:
            return self._packed.unpack_columns(idx)
        return self._genotypes[:, idx]

    def snp_index(self, name: str) -> int:
        """Index of the SNP with the given name."""
        try:
            return self._snp_names.index(name)
        except ValueError:
            raise KeyError(f"unknown SNP name {name!r}") from None

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def missing_rate(self) -> float:
        """Fraction of genotype entries that are missing."""
        size = self.n_individuals * self.n_snps
        if size == 0:
            return 0.0
        if self._genotypes is None:
            # popcount kernel over the packed bytes; the count is an exact
            # integer either way, so the two paths divide identically.
            n_missing = int(self._packed.missing_counts().sum())
        else:
            n_missing = int(np.count_nonzero(self._genotypes == GENOTYPE_MISSING))
        return float(n_missing) / size

    def summary(self) -> DatasetSummary:
        """Return a :class:`DatasetSummary` of this dataset."""
        return DatasetSummary(
            n_individuals=self.n_individuals,
            n_snps=self.n_snps,
            n_affected=self.n_affected,
            n_unaffected=self.n_unaffected,
            n_unknown=self.n_unknown,
            missing_rate=self.missing_rate,
        )

    def copy(self) -> "GenotypeDataset":
        """Deep copy of the dataset (preserves the storage representation)."""
        packed = None
        if self._packed is not None:
            packed = PackedPanel(
                self._packed.data.copy(),
                self._packed.n_individuals,
                self._packed.row_start,
            )
        return GenotypeDataset(
            self._genotypes.copy() if self._genotypes is not None else None,
            self._status.copy(),
            snp_names=self._snp_names,
            individual_ids=self._individual_ids,
            packed=packed,
        )


# --------------------------------------------------------------------------- #
# packed substrate: affected-first 2-bit panels
# --------------------------------------------------------------------------- #
class PackedGenotypeStore:
    """A dataset re-packed 2-bit, affected-first, behind one panel buffer.

    Rows are laid out affected block first, unaffected block second and
    unknown-status individuals dropped — the exact order the shared-memory
    store uses — so :meth:`GenotypeDataset.affected` / ``unaffected`` of the
    produced dataset are bit-offset views into the same packed buffer, and
    locus windows are basic row slices of it.

    An already-packed source panel is reused as-is when its rows are already
    in that order, and re-ordered chunk-by-chunk otherwise (never
    materialising the full byte matrix); byte sources are packed directly.
    """

    def __init__(self, dataset: GenotypeDataset) -> None:
        order = np.concatenate(
            [np.flatnonzero(dataset.affected_mask), np.flatnonzero(dataset.unaffected_mask)]
        )
        if order.size == 0:
            raise ValueError("the dataset has no individuals with known status")
        identity = order.size == dataset.n_individuals and np.array_equal(
            order, np.arange(order.size)
        )
        source = dataset.packed
        if source is not None:
            panel = source if identity else source.reorder_individuals(order)
        elif identity:
            panel = PackedPanel(pack_genotypes(dataset.genotypes), order.size)
        else:
            panel = PackedPanel(pack_genotypes(dataset.genotypes[order]), order.size)
        self._panel = panel
        self._status = np.ascontiguousarray(dataset.status[order], dtype=np.int8)
        self._snp_names = dataset.snp_names
        self._individual_ids = tuple(dataset.individual_ids[i] for i in order)

    @property
    def panel(self) -> PackedPanel:
        return self._panel

    @property
    def n_bytes(self) -> int:
        """Size of the packed genotype payload in bytes."""
        return self._panel.n_bytes

    def dataset(self) -> GenotypeDataset:
        """The packed-native affected-first dataset over this store's panel."""
        return GenotypeDataset(
            None,
            self._status,
            snp_names=self._snp_names,
            individual_ids=self._individual_ids,
            packed=self._panel,
        )

    def window(self, start: int, stop: int) -> GenotypeDataset:
        """Packed-native dataset over the locus window ``[start, stop)``."""
        return GenotypeDataset(
            None,
            self._status,
            snp_names=self._snp_names[start:stop],
            individual_ids=self._individual_ids,
            packed=self._panel.column_window(start, stop),
        )


def as_packed_dataset(dataset: GenotypeDataset) -> GenotypeDataset:
    """``dataset`` in packed affected-first form (no-op when already there).

    The produced dataset is what the ``--packed`` execution paths run on: a
    packed panel whose affected/unaffected groups are contiguous row windows,
    so the whole evaluation pipeline stays on 2-bit storage.
    """
    if (
        dataset.packed is not None
        and dataset.n_unknown == 0
        and bool(np.all(dataset.status[: dataset.n_affected] == STATUS_AFFECTED))
    ):
        return dataset
    return PackedGenotypeStore(dataset).dataset()


# --------------------------------------------------------------------------- #
# locus windows: slicing a chromosome-scale panel into overlapping sub-panels
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LocusWindow:
    """One contiguous locus window ``[start, stop)`` of a SNP panel.

    Windows are the unit of work of the genome-scale scan subsystem: each one
    is searched by an independent GA run over the window's sub-panel, and a
    haplotype found inside the window is reported in *global* panel indices
    (``start + local_index``).
    """

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("window index must be non-negative")
        if not 0 <= self.start < self.stop:
            raise ValueError(f"invalid window bounds [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        """Number of loci in the window."""
        return self.stop - self.start

    @property
    def snp_indices(self) -> tuple[int, ...]:
        """Global panel indices covered by the window, in order."""
        return tuple(range(self.start, self.stop))

    def to_global(self, local_snps: Sequence[int]) -> tuple[int, ...]:
        """Translate window-local SNP indices to global panel indices."""
        out = []
        for snp in local_snps:
            snp = int(snp)
            if not 0 <= snp < self.size:
                raise IndexError(f"local SNP index {snp} outside window of size {self.size}")
            out.append(self.start + snp)
        return tuple(out)

    def span(self) -> str:
        """Human-readable ``start..stop-1`` locus span."""
        return f"{self.start}..{self.stop - 1}"


@dataclass(frozen=True)
class WindowPlan:
    """A tiling of an ``n_snps`` panel into overlapping locus windows.

    Built by :func:`plan_windows`; consumed by :func:`shard_dataset`, the
    sharded shared-memory store and the scan planner.  The plan guarantees
    full coverage: every locus belongs to at least one window, consecutive
    windows overlap by ``overlap`` loci (the final window may overlap more —
    it is anchored to the end of the panel rather than truncated).
    """

    n_snps: int
    window_size: int
    overlap: int
    windows: tuple[LocusWindow, ...]

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def stride(self) -> int:
        """Distance between consecutive window starts."""
        return self.window_size - self.overlap

    def __iter__(self):
        return iter(self.windows)

    def __len__(self) -> int:
        return self.n_windows

    def window_of(self, snp: int) -> tuple[LocusWindow, ...]:
        """Every window containing the given global SNP index."""
        if not 0 <= snp < self.n_snps:
            raise IndexError(f"SNP index {snp} out of range [0, {self.n_snps})")
        return tuple(w for w in self.windows if w.start <= snp < w.stop)


def plan_windows(n_snps: int, *, window_size: int, overlap: int = 0) -> WindowPlan:
    """Tile a panel of ``n_snps`` loci into overlapping windows.

    Windows start every ``window_size - overlap`` loci; the final window is
    anchored at ``n_snps - window_size`` so every window has exactly
    ``window_size`` loci and the panel is fully covered.
    """
    if n_snps < 1:
        raise ValueError("n_snps must be positive")
    if not 2 <= window_size <= n_snps:
        raise ValueError(
            f"window_size must be in [2, n_snps={n_snps}], got {window_size}"
        )
    if not 0 <= overlap < window_size:
        raise ValueError(
            f"overlap must be in [0, window_size), got {overlap} for window_size {window_size}"
        )
    stride = window_size - overlap
    starts = list(range(0, n_snps - window_size + 1, stride))
    if starts[-1] + window_size < n_snps:  # anchor a final window at the panel end
        starts.append(n_snps - window_size)
    windows = tuple(
        LocusWindow(index=i, start=start, stop=start + window_size)
        for i, start in enumerate(starts)
    )
    return WindowPlan(
        n_snps=n_snps, window_size=window_size, overlap=overlap, windows=windows
    )


def shard_dataset(
    dataset: GenotypeDataset, plan: WindowPlan
) -> tuple[GenotypeDataset, ...]:
    """Zero-copy window views of ``dataset``, one per window of ``plan``.

    Each returned dataset shares the parent's genotype buffer (basic column
    slicing — see :meth:`GenotypeDataset.select_snps`), so sharding a
    chromosome-scale panel into hundreds of windows costs no genotype copies.
    """
    if plan.n_snps != dataset.n_snps:
        raise ValueError(
            f"plan covers {plan.n_snps} SNPs but the dataset has {dataset.n_snps}"
        )
    return tuple(dataset.window(w.start, w.stop) for w in plan.windows)
