"""2-bit packed genotype storage (PLINK-style) and its counting kernels.

Second-generation PLINK gets its scale from storing genotypes 4-per-byte and
counting with bitwise/lookup-table kernels instead of touching a byte per
genotype.  This module is that substrate: a SNP-major packed matrix
(:class:`PackedPanel`) plus the kernels every consumer shares —

* :func:`pack_genotypes` / :func:`unpack_genotypes` convert between the byte
  coding of :mod:`repro.genetics.alleles` (``0/1/2/-1``) and 2-bit codes
  (``0/1/2`` plus :data:`CODE_MISSING` = 3 as the fourth state);
* per-byte lookup tables (:data:`_BYTE_DIGITS`, :data:`_BYTE_STATE_COUNTS`)
  expand one packed byte into its four genotype codes, or into per-state
  occurrence counts, in a single fancy-index gather;
* a popcount table drives :meth:`PackedPanel.missing_counts` — missingness is
  the bit pattern ``11``, so ``byte & (byte >> 1) & 0x55`` marks missing
  entries and a population count accumulates them without unpacking;
* :meth:`PackedPanel.codes` builds the base-4 radix code of each individual
  over a set of loci (locus 0 most significant), which is exactly the
  lexicographic class key ``np.unique(genotypes, axis=0)`` sorts by — the
  packed phase-expansion builder in :mod:`repro.stats.em`, which builds
  every fitness expansion, histograms these codes instead of uniquing byte
  rows.

Layout: ``data`` has shape ``(n_snps, width)`` with ``width = ceil(n/4)``;
row ``s`` holds SNP ``s``'s genotypes for all individuals, individual ``i``
in byte ``i // 4`` at bits ``2 * (i % 4)`` (little-endian within the byte,
matching the PLINK ``.bed`` field order).  SNP-major means a locus window is
a basic row slice of ``data`` (zero-copy), and the affected-first row order
of the shared-memory store is a *bit offset* (``row_start``) rather than a
byte copy — group views share the same packed buffer.

Padding fields of a trailing partial byte are written as ``CODE_MISSING`` by
:func:`pack_genotypes`; every kernel nevertheless masks the padding
explicitly, so foreign panels (e.g. ``.bed`` translations) with different
padding bits behave identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .alleles import GENOTYPE_MISSING, validate_genotype_array

__all__ = [
    "CODE_MISSING",
    "PackedPanel",
    "pack_genotypes",
    "unpack_genotypes",
    "packed_width",
]

#: 2-bit code of a missing genotype (codes 0/1/2 are the genotype values).
CODE_MISSING = 3

#: (256, 4) uint8 — the four 2-bit fields of every byte value, field 0 first.
_BYTE_DIGITS = (
    (np.arange(256, dtype=np.uint16)[:, None] >> (2 * np.arange(4, dtype=np.uint16))) & 3
).astype(np.uint8)

#: (256, 4) uint8 — per-byte occurrence count of each 2-bit state.
_BYTE_STATE_COUNTS = np.stack(
    [(_BYTE_DIGITS == state).sum(axis=1) for state in range(4)], axis=1
).astype(np.uint8)

#: (256,) uint8 — population count of every byte value (bits set).
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)

#: map 2-bit code -> byte genotype code (3 -> missing).
_CODE_TO_GENOTYPE = np.array([0, 1, 2, GENOTYPE_MISSING], dtype=np.int8)


def packed_width(n_individuals: int) -> int:
    """Bytes needed to pack ``n_individuals`` genotypes 4-per-byte."""
    return (int(n_individuals) + 3) // 4


def pack_genotypes(genotypes: np.ndarray) -> np.ndarray:
    """Pack a ``(n_individuals, n_snps)`` byte matrix into ``(n_snps, width)``.

    Missing genotypes (``-1``) become :data:`CODE_MISSING`; padding fields of
    a trailing partial byte are also :data:`CODE_MISSING` (the canonical
    padding — kernels mask it regardless).
    """
    geno = validate_genotype_array(np.asarray(genotypes))
    if geno.ndim != 2:
        raise ValueError(f"genotypes must be 2-D, got shape {geno.shape}")
    n, m = geno.shape
    width = packed_width(n)
    codes = np.where(geno == GENOTYPE_MISSING, CODE_MISSING, geno).astype(np.uint8)
    padded = np.full((m, width * 4), CODE_MISSING, dtype=np.uint8)
    padded[:, :n] = codes.T
    fields = padded.reshape(m, width, 4)
    packed = (
        fields[:, :, 0]
        | (fields[:, :, 1] << 2)
        | (fields[:, :, 2] << 4)
        | (fields[:, :, 3] << 6)
    )
    return np.ascontiguousarray(packed)


def unpack_genotypes(packed: np.ndarray, n_individuals: int, *, row_start: int = 0) -> np.ndarray:
    """Unpack ``(n_snps, width)`` packed bytes back to ``(n, n_snps)`` int8.

    ``row_start`` skips that many leading individuals of the packed buffer
    (bit offset views; see :class:`PackedPanel`).
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed matrix must be 2-D, got shape {packed.shape}")
    m = packed.shape[0]
    lo, hi = row_start, row_start + n_individuals
    b0, b1 = lo // 4, (hi + 3) // 4
    if b1 > packed.shape[1]:
        raise ValueError(
            f"rows [{lo}, {hi}) exceed the packed width {packed.shape[1]} (bytes)"
        )
    digits = _BYTE_DIGITS[packed[:, b0:b1]].reshape(m, -1)[:, lo - 4 * b0 : lo - 4 * b0 + n_individuals]
    return np.ascontiguousarray(_CODE_TO_GENOTYPE[digits].T)


@dataclass(frozen=True)
class PackedPanel:
    """A read-only view over 2-bit packed genotypes.

    ``data`` is the SNP-major packed matrix (possibly a window into a larger
    buffer — e.g. a shared-memory segment, or a basic row slice of another
    panel's ``data``).  ``row_start`` is the index of this view's first
    individual within the packed bytes: row windows are bit-offset views, so
    the affected/unaffected groups of an affected-first panel share one
    buffer with the full panel.
    """

    data: np.ndarray = field(repr=False)
    n_individuals: int
    row_start: int = 0

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.uint8)
        if data.ndim != 2:
            raise ValueError(f"packed data must be 2-D, got shape {data.shape}")
        if self.n_individuals < 0 or self.row_start < 0:
            raise ValueError("n_individuals and row_start must be non-negative")
        if self.row_start + self.n_individuals > data.shape[1] * 4:
            raise ValueError(
                f"rows [{self.row_start}, {self.row_start + self.n_individuals}) "
                f"exceed the packed capacity of {data.shape[1] * 4} individuals"
            )
        object.__setattr__(self, "data", data)

    # ------------------------------------------------------------------ #
    @property
    def n_snps(self) -> int:
        return self.data.shape[0]

    @property
    def n_bytes(self) -> int:
        return self.data.nbytes

    # -- views ---------------------------------------------------------- #
    def column_window(self, start: int, stop: int) -> "PackedPanel":
        """Zero-copy view of the SNP window ``[start, stop)`` (basic row slice)."""
        if not 0 <= start < stop <= self.n_snps:
            raise IndexError(
                f"window [{start}, {stop}) out of range for {self.n_snps} SNPs"
            )
        return PackedPanel(self.data[start:stop], self.n_individuals, self.row_start)

    def row_window(self, start: int, stop: int) -> "PackedPanel":
        """Zero-copy view of individuals ``[start, stop)`` (bit-offset, same buffer)."""
        if not 0 <= start <= stop <= self.n_individuals:
            raise IndexError(
                f"rows [{start}, {stop}) out of range for {self.n_individuals} individuals"
            )
        return PackedPanel(self.data, stop - start, self.row_start + start)

    # -- kernels -------------------------------------------------------- #
    def digits(self, snp: int) -> np.ndarray:
        """Per-individual 2-bit codes (0/1/2/3) of one SNP column."""
        lo = self.row_start
        b0 = lo // 4
        b1 = (lo + self.n_individuals + 3) // 4
        flat = _BYTE_DIGITS[self.data[snp, b0:b1]].ravel()
        off = lo - 4 * b0
        return flat[off : off + self.n_individuals]

    def codes(self, snps: Sequence[int] | np.ndarray) -> np.ndarray:
        """Base-4 radix code of every individual over the given loci.

        Locus 0 of ``snps`` is the most significant digit, so ascending code
        order is exactly the lexicographic row order ``np.unique(axis=0)``
        sorts complete byte genotypes into — the property the bit-identical
        packed expansion path rests on.  All loci are read in one gather and
        weighted by their base-4 place values in one integer product.
        """
        idx = np.asarray(snps, dtype=np.intp)
        n_loci = idx.shape[0]
        dtype = np.int32 if n_loci <= 15 else np.int64
        lo = self.row_start
        b0, b1 = lo // 4, (lo + self.n_individuals + 3) // 4
        off = lo - 4 * b0
        digits = _BYTE_DIGITS[self.data[idx, b0:b1]].reshape(n_loci, 4 * (b1 - b0))
        place = (4 ** np.arange(n_loci - 1, -1, -1)).astype(dtype)
        return place @ digits[:, off : off + self.n_individuals]

    def state_counts(self) -> np.ndarray:
        """Per-SNP occurrence counts of each state — shape ``(n_snps, 4)``.

        Whole bytes are counted through the 256-entry per-byte histogram LUT
        (one gather + one sum per panel); the at-most-3 individuals in each
        partial boundary byte are counted from their digits.  Padding and
        out-of-window neighbours are excluded exactly.
        """
        lo, hi = self.row_start, self.row_start + self.n_individuals
        b0, b1 = (lo + 3) // 4, hi // 4
        counts = np.zeros((self.n_snps, 4), dtype=np.int64)
        if b1 > b0:
            counts += _BYTE_STATE_COUNTS[self.data[:, b0:b1]].sum(axis=1, dtype=np.int64)
        if b1 < b0:  # the whole window lives inside one partial byte
            boundaries = ((lo // 4, lo, hi),)
        else:
            boundaries = ((lo // 4, lo, 4 * b0), (b1, 4 * b1, hi))
        for byte, first, last in boundaries:
            if first >= last:
                continue
            digits = _BYTE_DIGITS[self.data[:, byte]][:, first - 4 * byte : last - 4 * byte]
            counts += (digits[:, :, None] == np.arange(4, dtype=np.uint8)).sum(axis=1)
        return counts

    def missing_counts(self) -> np.ndarray:
        """Per-SNP missing-genotype counts via popcount accumulation.

        A missing entry is the bit pattern ``11``, so ``b & (b >> 1) & 0x55``
        leaves one set bit per missing genotype in a byte and the popcount
        table sums them; boundary bytes are first masked down to the view's
        own fields.
        """
        lo, hi = self.row_start, self.row_start + self.n_individuals
        b0, b1 = lo // 4, (hi + 3) // 4
        window = self.data[:, b0:b1]
        marks = (window & (window >> 1) & 0x55).astype(np.uint8)
        if marks.shape[1]:
            head = lo - 4 * b0
            if head:
                marks[:, 0] &= np.uint8((0xFF << (2 * head)) & 0xFF)
            tail = 4 * b1 - hi
            if tail:
                marks[:, -1] &= np.uint8(0xFF >> (2 * tail))
        return _POPCOUNT[marks].sum(axis=1, dtype=np.int64)

    # -- materialisation ------------------------------------------------- #
    def unpack(self) -> np.ndarray:
        """The ``(n_individuals, n_snps)`` int8 byte matrix of this view."""
        return unpack_genotypes(self.data, self.n_individuals, row_start=self.row_start)

    def unpack_columns(self, snps: Sequence[int] | np.ndarray) -> np.ndarray:
        """Byte genotypes of the given SNP columns, shape ``(n, len(snps))``."""
        idx = np.asarray(snps, dtype=np.intp)
        out = np.empty((self.n_individuals, idx.shape[0]), dtype=np.int8)
        for j, snp in enumerate(idx):
            out[:, j] = _CODE_TO_GENOTYPE[self.digits(int(snp))]
        return out

    def reorder_individuals(self, order: np.ndarray, *, chunk_snps: int = 1024) -> "PackedPanel":
        """A new panel with individuals permuted by ``order`` (chunked repack).

        Processes ``chunk_snps`` SNP rows at a time so a chromosome-scale
        panel is re-ordered without materialising the full byte matrix.
        """
        order = np.asarray(order, dtype=np.intp)
        if order.ndim != 1 or (order.size and not (0 <= order.min() and order.max() < self.n_individuals)):
            raise IndexError("order must be a 1-D array of valid individual indices")
        out = np.empty((self.n_snps, packed_width(order.size)), dtype=np.uint8)
        for start in range(0, self.n_snps, chunk_snps):
            stop = min(start + chunk_snps, self.n_snps)
            chunk = self.column_window(start, stop) if self.n_snps else self
            out[start:stop] = pack_genotypes(chunk.unpack()[order])
        return PackedPanel(out, order.size)
