"""Shared-memory genotype store for the ``process`` backend (the local farm).

Second-generation PLINK attributes much of its scaling to keeping **one**
in-memory copy of the genotype matrix that every computation unit reads.
This module does the same for the worker farm: the case/control matrix is
written once into a :mod:`multiprocessing.shared_memory` segment, and every
slave process attaches to that segment and rebuilds a *view* — a
:class:`~repro.genetics.dataset.GenotypeDataset` whose arrays point straight
into the shared pages — instead of receiving a pickled copy of the data.

Layout: rows are re-ordered **affected first, then unaffected** (individuals
with unknown status are dropped — no evaluation ever reads them), each group
preserving its original relative order.  Group selection then happens by
basic slicing, which :meth:`GenotypeDataset.select_individuals` turns into
zero-copy views, so a worker's evaluator holds windows into the shared matrix
for the full dataset *and* for both groups.  The group-wise row order matches
what ``dataset.affected()`` / ``dataset.unaffected()`` produce on the
original dataset, so results are bit-identical to the in-memory path.

The genotype block is followed by the status vector in the same segment::

    [ genotypes int8 (n_individuals x n_snps) | status int8 (n_individuals) ]

With ``packed=True`` the store writes the 2-bit packed panel instead — the
PLINK-style representation (4 genotypes per byte, SNP-major, missing as the
fourth state) — shrinking the segment ~4×::

    [ packed uint8 (n_snps x ceil(n_individuals/4)) | status int8 (n_individuals) ]

Workers then rebuild *packed-native* datasets whose affected/unaffected
groups are bit-offset views of the shared packed bytes, and phase expansions
are counted straight from the packed columns.  A handle can opt out with
``unpack_on_attach=True``, rebuilding a plain byte-matrix dataset on attach
(one private unpacked copy per worker, byte-path kernels).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from ..genetics.dataset import GenotypeDataset, WindowPlan
from ..genetics.packed import PackedPanel, pack_genotypes, packed_width

__all__ = ["SharedDatasetHandle", "SharedGenotypeStore", "ShardedGenotypeStore"]


def _as_contiguous_int8(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is already contiguous int8, else a copy.

    The store only reads from the result, so an existing view (e.g. the
    read-only ``dataset.genotypes`` of an affected-first dataset) is used
    as-is instead of being duplicated.
    """
    if array.dtype == np.int8 and array.flags.c_contiguous:
        return array
    return np.ascontiguousarray(array, dtype=np.int8)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.

    On Python < 3.13 attachments also register the segment name with the
    ``multiprocessing`` resource tracker.  The tracker keeps a *set* of
    names, so these re-registrations of the creating store's name are
    harmless no-ops — the entry is removed exactly once, when the store
    unlinks — and must **not** be compensated with an ``unregister`` call
    (that would remove the store's own entry and make the final unlink warn).
    """
    return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class SharedDatasetHandle:
    """Picklable pointer to a :class:`SharedGenotypeStore` segment.

    ``load()`` attaches to the segment and rebuilds a read-only
    :class:`GenotypeDataset` view (no genotype bytes are copied).  The handle
    keeps the attachment alive for its own lifetime, which — held inside a
    worker's evaluator factory — is the lifetime of the worker.

    ``column_window`` is the sharded-store fast path: when set to
    ``(start, stop)``, ``load()`` returns a view of only those genotype
    *columns* (a basic column slice of the shared matrix — still zero-copy),
    so per-window workers of a genome-scale scan attach to the one full-panel
    segment but see exactly their locus window.
    """

    name: str
    n_individuals: int
    n_snps: int
    snp_names: tuple[str, ...]
    individual_ids: tuple[str, ...]
    column_window: tuple[int, int] | None = None
    packed: bool = False
    unpack_on_attach: bool = False
    _segments: list = field(default_factory=list, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # live attachments are process-local; a pickled handle starts fresh
        state = self.__dict__.copy()
        state["_segments"] = []
        return state

    def __post_init__(self) -> None:
        if self.column_window is not None:
            start, stop = self.column_window
            if not 0 <= start < stop <= self.n_snps:
                raise ValueError(
                    f"column_window [{start}, {stop}) out of range for "
                    f"{self.n_snps} SNPs"
                )

    def load(self) -> GenotypeDataset:
        segment = _attach_segment(self.name)
        self._segments.append(segment)  # keep the mapping alive
        n, m = self.n_individuals, self.n_snps
        if self.packed:
            return self._load_packed(segment)
        genotypes = np.frombuffer(segment.buf, dtype=np.int8, count=n * m).reshape(n, m)
        status = np.frombuffer(segment.buf, dtype=np.int8, count=n, offset=n * m)
        genotypes.flags.writeable = False
        status.flags.writeable = False
        snp_names = self.snp_names
        if self.column_window is not None:
            start, stop = self.column_window
            genotypes = genotypes[:, start:stop]  # basic slice: still a view
            snp_names = snp_names[start:stop]
        return GenotypeDataset(
            genotypes,
            status,
            snp_names=snp_names,
            individual_ids=self.individual_ids,
        )

    def _load_packed(self, segment: shared_memory.SharedMemory) -> GenotypeDataset:
        n, m = self.n_individuals, self.n_snps
        width = packed_width(n)
        data = np.frombuffer(segment.buf, dtype=np.uint8, count=m * width).reshape(m, width)
        status = np.frombuffer(segment.buf, dtype=np.int8, count=n, offset=m * width)
        data.flags.writeable = False
        status.flags.writeable = False
        snp_names = self.snp_names
        if self.column_window is not None:
            start, stop = self.column_window
            data = data[start:stop]  # SNP-major: a column window is a row slice
            snp_names = snp_names[start:stop]
        panel = PackedPanel(data, n)
        if self.unpack_on_attach:
            # private byte copy, byte-path kernels (opt-out escape hatch)
            return GenotypeDataset(
                panel.unpack(),
                status,
                snp_names=snp_names,
                individual_ids=self.individual_ids,
            )
        return GenotypeDataset(
            None,
            status,
            snp_names=snp_names,
            individual_ids=self.individual_ids,
            packed=panel,
        )

    def with_unpack_on_attach(self, flag: bool = True) -> "SharedDatasetHandle":
        """This handle with the attach-time unpack behaviour toggled."""
        return dataclasses.replace(self, unpack_on_attach=bool(flag), _segments=[])

    def window(self, start: int, stop: int) -> "SharedDatasetHandle":
        """A handle onto the same segment restricted to columns ``[start, stop)``.

        Windows compose against the *full* panel, not against this handle's
        own window (a windowed handle cannot be re-windowed).
        """
        if self.column_window is not None:
            raise ValueError("cannot re-window an already windowed handle")
        return SharedDatasetHandle(
            name=self.name,
            n_individuals=self.n_individuals,
            n_snps=self.n_snps,
            snp_names=self.snp_names,
            individual_ids=self.individual_ids,
            column_window=(int(start), int(stop)),
            packed=self.packed,
            unpack_on_attach=self.unpack_on_attach,
        )

    def detach(self) -> None:
        """Drop this handle's attachments (in-process users only).

        Every dataset view obtained from :meth:`load` must be garbage first;
        worker processes never need this — they exit without tearing the
        mapping down.  Attachments whose buffers are still exported are left
        alone rather than invalidating live arrays.
        """
        remaining = []
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - live views still exported
                remaining.append(segment)
        self._segments[:] = remaining


class SharedGenotypeStore:
    """Owner of one shared-memory copy of a case/control genotype matrix.

    The creating process writes the (affected-first) matrix into a fresh
    segment and hands out :class:`SharedDatasetHandle` objects; workers
    attach through the handle.  The store must outlive every attachment and
    is responsible for unlinking the segment (``release()``, also available
    as a context manager).
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        *,
        packed: bool = False,
        unpack_on_attach: bool = False,
    ) -> None:
        order = np.concatenate(
            [np.flatnonzero(dataset.affected_mask), np.flatnonzero(dataset.unaffected_mask)]
        )
        if order.size == 0:
            raise ValueError("the dataset has no individuals with known status")
        n = order.size
        m = dataset.n_snps
        identity = n == dataset.n_individuals and np.array_equal(order, np.arange(n))
        status = _as_contiguous_int8(
            dataset.status if identity else dataset.status[order]
        )
        if packed:
            panel = self._affected_first_panel(dataset, order, identity)
            payload = np.ascontiguousarray(panel.data).view(np.uint8).ravel()
        else:
            genotypes = _as_contiguous_int8(
                dataset.genotypes if identity else dataset.genotypes[order]
            )
            payload = genotypes.view(np.uint8).ravel()
        self._segment = shared_memory.SharedMemory(create=True, size=payload.size + n)
        # explicit bounds: some platforms page-round the segment size upward
        buffer = np.frombuffer(self._segment.buf, dtype=np.uint8)
        buffer[: payload.size] = payload
        buffer[payload.size : payload.size + n] = status.view(np.uint8)
        del buffer  # drop the exported view so close() can release the mmap
        self._released = False
        self._handle = SharedDatasetHandle(
            name=self._segment.name,
            n_individuals=n,
            n_snps=m,
            snp_names=tuple(dataset.snp_names),
            individual_ids=tuple(dataset.individual_ids[i] for i in order),
            packed=bool(packed),
            unpack_on_attach=bool(packed and unpack_on_attach),
        )

    @staticmethod
    def _affected_first_panel(
        dataset: GenotypeDataset, order: np.ndarray, identity: bool
    ) -> PackedPanel:
        """The dataset's rows in ``order``, as a canonical packed panel.

        An existing panel already in segment layout (row 0 at bit 0, no spare
        capacity bytes) is reused without copying; otherwise the rows are
        re-packed — chunk-wise from a packed source, directly from bytes
        otherwise.
        """
        source = dataset.packed
        if source is not None:
            canonical = source.row_start == 0 and source.data.shape[1] == packed_width(
                source.n_individuals
            )
            if identity and canonical:
                return source
            return source.reorder_individuals(order)
        rows = dataset.genotypes if identity else dataset.genotypes[order]
        return PackedPanel(pack_genotypes(rows), order.size)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name of the underlying shared-memory segment."""
        return self._segment.name

    @property
    def n_bytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._segment.size

    @property
    def handle(self) -> SharedDatasetHandle:
        """A picklable handle workers can :meth:`~SharedDatasetHandle.load`."""
        return self._handle

    def dataset(self) -> GenotypeDataset:
        """The store's own zero-copy view (master-side convenience)."""
        return self._handle.load()

    def release(self) -> None:
        """Close and unlink the segment; idempotent."""
        if self._released:
            return
        self._released = True
        self._segment.close()
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked elsewhere
            pass

    def __enter__(self) -> "SharedGenotypeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.release()
        except Exception:
            pass


class ShardedGenotypeStore:
    """One shared-memory panel copy serving many locus-window views.

    The genome-scale scan subsystem slices a chromosome-scale panel into
    overlapping windows (:func:`repro.genetics.dataset.plan_windows`), and
    every window's GA run needs the window's genotype columns.  Copying the
    sub-panel per window would undo the one-copy property PLINK-style systems
    get their scaling from, so this store writes the **full** panel into a
    single :class:`SharedGenotypeStore` segment (affected-first row layout,
    unchanged) and registers per-window :class:`SharedDatasetHandle` objects
    against it: each handle attaches to the same segment and views only its
    column window.  N windows therefore cost one genotype copy total, and a
    worker holding the full-panel handle serves *every* window.
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        plan: WindowPlan | None = None,
        *,
        packed: bool = False,
        unpack_on_attach: bool = False,
    ) -> None:
        if plan is not None and plan.n_snps != dataset.n_snps:
            raise ValueError(
                f"plan covers {plan.n_snps} SNPs but the dataset has {dataset.n_snps}"
            )
        self._store = SharedGenotypeStore(
            dataset, packed=packed, unpack_on_attach=unpack_on_attach
        )
        self._plan = plan
        self._window_handles: dict[tuple[int, int], SharedDatasetHandle] = {}

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name of the underlying shared-memory segment (one for all windows)."""
        return self._store.name

    @property
    def n_bytes(self) -> int:
        return self._store.n_bytes

    @property
    def plan(self) -> WindowPlan | None:
        return self._plan

    @property
    def handle(self) -> SharedDatasetHandle:
        """Full-panel handle (identical to :class:`SharedGenotypeStore`'s)."""
        return self._store.handle

    def window_handle(self, start: int, stop: int) -> SharedDatasetHandle:
        """A picklable handle restricted to the locus window ``[start, stop)``.

        Handles are memoised per window, so repeatedly scheduling the same
        window reuses one registration.
        """
        key = (int(start), int(stop))
        handle = self._window_handles.get(key)
        if handle is None:
            handle = self._store.handle.window(*key)
            self._window_handles[key] = handle
        return handle

    def window_handles(self) -> tuple[SharedDatasetHandle, ...]:
        """One handle per window of the store's plan (requires a plan)."""
        if self._plan is None:
            raise ValueError("the store was created without a WindowPlan")
        return tuple(self.window_handle(w.start, w.stop) for w in self._plan.windows)

    def dataset(self) -> GenotypeDataset:
        """The store's own zero-copy full-panel view."""
        return self._store.dataset()

    def release(self) -> None:
        """Close and unlink the shared segment; idempotent."""
        for handle in self._window_handles.values():
            handle.detach()
        self._store.handle.detach()
        self._store.release()

    def __enter__(self) -> "ShardedGenotypeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
