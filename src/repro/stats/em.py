"""Multi-locus haplotype-frequency estimation by EM (gene counting).

This is the computational core of the EH-DIALL substitute.  Given *unphased*
genotypes at ``L`` biallelic loci, the phase of multiply-heterozygous
individuals is unknown, so haplotype frequencies cannot be counted directly.
The classical solution (Excoffier & Slatkin 1995; the EH program of
Terwilliger & Ott that the paper calls through EH-DIALL) is an
expectation-maximisation algorithm over the unknown phases:

* **E-step** — for every individual (grouped by identical multi-locus
  genotype), distribute its two chromosomes over the haplotype pairs
  compatible with the genotype, proportionally to the current haplotype
  frequency estimates;
* **M-step** — re-estimate haplotype frequencies from the expected counts.

The log-likelihood is non-decreasing across iterations; we stop when its
improvement falls below a tolerance.

Complexity: a genotype heterozygous at ``h`` of the ``L`` loci is compatible
with ``2^(h-1)`` unordered haplotype pairs, so the per-iteration work is
``O(sum_g 2^(h_g))`` — exponential in the haplotype size, which is exactly the
behaviour the paper's Figure 4 documents for its evaluation function.

Performance notes
-----------------
The kernel is organised for throughput (the GA's entire cost model is the
number and cost of these EM runs):

* the phase expansion is built **once** per (genotype matrix, SNP subset) and
  stored class-sorted, so every per-class accumulation is a segmented
  reduction (``np.add.reduceat`` over contiguous class blocks, with an
  ``np.bincount`` fallback for hand-built unsorted expansions) instead of an
  unbuffered ``np.add.at`` scatter;
* pair enumeration is one ragged vectorised pass over all genotype classes:
  the ``2^(h-1)`` phase assignments of every class come out of a few
  broadcast bit operations, already in class order, with no loop over pairs
  or heterozygosity counts and no sort;
* an expansion leaves its builder knowing its class layout (the first pair
  of each class, and that the pairs are class-sorted), so neither the EM
  kernels nor batch stacking re-derive it per problem;
* each EM iteration computes the pair-probability vector **once** and derives
  both the E-step posterior and the log-likelihood from it (the textbook
  formulation — and the seed implementation, preserved in
  :mod:`repro.stats.em_reference` — pays for it twice per iteration);
* expansions are reusable and composable: :func:`concat_expansions` builds
  the pooled case+control expansion by concatenating the per-group class
  tables (duplicated genotype classes are *exactly* equivalent to one merged
  class for the likelihood and the EM updates), and
  :class:`PhaseExpansionCache` memoises expansions per SNP subset so
  re-evaluating a haplotype never repeats genotype slicing, ``np.unique``,
  or pair enumeration;
* :func:`estimate_from_expansion` accepts ``initial_frequencies``, a
  kernel-level warm start (the evaluation pipeline always starts the EM
  from the uniform distribution, so a fitness never depends on what was
  evaluated before).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..genetics.alleles import GENOTYPE_MISSING, n_haplotype_states
from ..genetics.packed import CODE_MISSING, PackedPanel
from ..lru import LRUCache

__all__ = [
    "EMResult",
    "PhaseExpansion",
    "PhaseExpansionCache",
    "StackedExpansion",
    "expand_phases",
    "expand_phases_packed",
    "concat_expansions",
    "stack_expansions",
    "expansion_log_likelihood",
    "estimate_haplotype_frequencies",
    "estimate_from_expansion",
    "run_em_stacked",
    "STACK_MAX_PAIRS_PER_PROBLEM",
    "STACK_MAX_TOTAL_PAIRS",
]

_LOG_FLOOR = 1e-300

#: ``np.add.reduceat`` offsets for a single whole-array segment.  The scalar
#: kernel sums its per-class log-likelihood contributions through this (a
#: strict left-to-right reduction) so that the stacked kernel — which reduces
#: the same contributions as one segment of a larger concatenated array — is
#: bit-identical to it: ``reduceat`` segment sums depend only on the segment's
#: own values, while ``np.dot``/``np.sum`` use pairwise/BLAS orders that do.
_WHOLE_SEGMENT = np.zeros(1, dtype=np.intp)

#: Stacking pays off while the per-problem EM is dispatch-bound; above this
#: pair count a single problem's arrays are large enough that the scalar
#: kernel is compute-bound and stacking only adds gather/compaction overhead
#: (measured crossover ~1.5-2k pairs on the dev container).  Values are
#: identical either way — this is purely a throughput routing hint for the
#: evaluation layer.
STACK_MAX_PAIRS_PER_PROBLEM = 2048

#: Cap on the summed pair count of one stacked call: beyond this the
#: concatenated working set falls out of cache and the batched gathers lose
#: to the scalar loop's cache-resident arrays, so bigger batches are split.
STACK_MAX_TOTAL_PAIRS = 1 << 18


@dataclass(frozen=True)
class EMResult:
    """Result of a haplotype-frequency EM run.

    Attributes
    ----------
    frequencies:
        Array of length ``2**n_loci``; ``frequencies[s]`` is the estimated
        population frequency of haplotype state ``s`` (see
        :mod:`repro.genetics.alleles` for the state encoding).
    log_likelihood:
        Final observed-data log-likelihood.
    n_iterations:
        Number of EM iterations performed.
    converged:
        Whether the log-likelihood improvement fell below ``tol`` before
        ``max_iter`` was reached.
    n_individuals:
        Number of individuals with complete genotypes that entered the
        estimation.
    n_loci:
        Number of loci of the haplotype.
    """

    frequencies: np.ndarray
    log_likelihood: float
    n_iterations: int
    converged: bool
    n_individuals: int
    n_loci: int

    @property
    def n_chromosomes(self) -> int:
        return 2 * self.n_individuals

    def expected_counts(self) -> np.ndarray:
        """Expected haplotype counts (frequencies × number of chromosomes)."""
        return self.frequencies * self.n_chromosomes


@dataclass(frozen=True)
class PhaseExpansion:
    """Pre-computed phase expansion of a set of multi-locus genotypes.

    The expansion is a flat list of candidate (haplotype a, haplotype b)
    pairs, each tagged with the genotype-class it belongs to and the number of
    ordered phase configurations it represents (1 for ``a == b``, 2
    otherwise).  All EM iterations reuse the same expansion.

    :func:`expand_phases` emits the pairs sorted by class, which lets the EM
    kernel use contiguous segmented reductions; hand-built expansions may be
    unsorted and are normalised on entry via :meth:`sorted_by_class`.  The
    builders (:func:`expand_phases`, :func:`expand_phases_packed`, and
    :func:`concat_expansions` of class-sorted inputs) hand over the class
    layout — ``class_starts``, ``is_class_sorted`` — with the expansion; a
    hand-built expansion derives it on first use.

    Attributes
    ----------
    n_loci:
        Number of loci.
    class_counts:
        Number of individuals in each genotype class.
    pair_a, pair_b:
        Haplotype state indices of each candidate pair.
    pair_class:
        Genotype-class index of each candidate pair.
    pair_multiplicity:
        1.0 where ``pair_a == pair_b`` else 2.0.
    class_genotypes:
        Optional ``(n_classes, n_loci)`` table of the class genotypes; kept so
        per-locus allele frequencies and pooled expansions can be derived
        without going back to the raw genotype matrix.
    n_individuals:
        Total number of individuals covered (sum of ``class_counts``).
    """

    n_loci: int
    class_counts: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_class: np.ndarray
    pair_multiplicity: np.ndarray
    class_genotypes: np.ndarray | None = field(default=None)

    @property
    def n_individuals(self) -> int:
        return int(self.class_counts.sum())

    @property
    def n_classes(self) -> int:
        return self.class_counts.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.pair_a.shape[0]

    @classmethod
    def _with_layout(
        cls, class_starts: np.ndarray, *, can_reduceat: bool, **fields
    ) -> "PhaseExpansion":
        """A class-sorted expansion whose builder already knows its layout.

        The layout properties below are cached per instance, so seeding them
        here spares every consumer the ``np.diff``/``np.searchsorted`` passes
        that derive them.
        """
        expansion = cls(**fields)
        vars(expansion).update(
            is_class_sorted=True, class_starts=class_starts, _can_reduceat=can_reduceat
        )
        return expansion

    # -- segmented-reduction support ----------------------------------- #
    @cached_property
    def is_class_sorted(self) -> bool:
        """Whether the pair arrays are sorted by ``pair_class``."""
        return bool(self.n_pairs == 0 or np.all(np.diff(self.pair_class) >= 0))

    def sorted_by_class(self) -> "PhaseExpansion":
        """Return an equivalent expansion whose pairs are sorted by class.

        Returns ``self`` when already sorted (always the case for expansions
        built by :func:`expand_phases` or :func:`concat_expansions`).
        """
        if self.is_class_sorted:
            return self
        order = np.argsort(self.pair_class, kind="stable")
        return PhaseExpansion(
            n_loci=self.n_loci,
            class_counts=self.class_counts,
            pair_a=self.pair_a[order],
            pair_b=self.pair_b[order],
            pair_class=self.pair_class[order],
            pair_multiplicity=self.pair_multiplicity[order],
            class_genotypes=self.class_genotypes,
        )

    @cached_property
    def class_starts(self) -> np.ndarray:
        """First pair index of each class (requires a class-sorted expansion)."""
        return np.searchsorted(self.pair_class, np.arange(self.n_classes))

    @cached_property
    def _can_reduceat(self) -> bool:
        # ``np.add.reduceat`` needs a class-sorted expansion with every
        # segment non-empty; expansions built by expand_phases always satisfy
        # this (each genotype class emits at least one pair), hand-built ones
        # may not.
        if self.n_pairs == 0 or self.n_classes == 0 or not self.is_class_sorted:
            return False
        starts = self.class_starts
        return bool(
            starts[0] == 0 and starts[-1] < self.n_pairs and np.all(np.diff(starts) > 0)
        )

    def class_reduce(self, pair_values: np.ndarray) -> np.ndarray:
        """Sum a per-pair vector into per-class totals (segmented reduction)."""
        if self._can_reduceat:
            return np.add.reduceat(pair_values, self.class_starts)
        return np.bincount(
            self.pair_class, weights=pair_values, minlength=self.n_classes
        )

    # -- derived per-locus statistics ---------------------------------- #
    def allele_frequencies(self) -> np.ndarray:
        """Per-locus frequency of allele ``2`` among the covered individuals.

        Requires ``class_genotypes``; returns NaNs when the expansion covers
        no individuals (matching gene counting on an empty sample).
        """
        if self.class_genotypes is None:
            raise ValueError("expansion was built without class_genotypes")
        n = self.n_individuals
        if n == 0:
            return np.full(self.n_loci, np.nan)
        totals = self.class_counts.astype(np.float64) @ self.class_genotypes.astype(np.float64)
        return totals / (2.0 * n)


def _genotype_pairs(genotype: np.ndarray) -> list[tuple[int, int]]:
    """Enumerate the unordered haplotype pairs compatible with one genotype.

    ``genotype`` is a complete (no missing) vector of codes 0/1/2.  Haplotype
    states are bit masks where bit ``i`` set means allele ``2`` at locus ``i``.

    This is the scalar reference enumeration; :func:`expand_phases` uses the
    vectorised :func:`_enumerate_pairs`, which must emit the same pairs in the
    same order.
    """
    het = np.flatnonzero(genotype == 1)
    base = 0
    for i in np.flatnonzero(genotype == 2):
        base |= 1 << int(i)
    if het.size == 0:
        return [(base, base)]
    pairs: list[tuple[int, int]] = []
    first = int(het[0])
    rest = [int(i) for i in het[1:]]
    # fix the phase of the first heterozygous locus to avoid double counting
    for assignment in range(1 << len(rest)):
        hap_a = base | (1 << first)
        hap_b = base
        for bit, locus in enumerate(rest):
            if (assignment >> bit) & 1:
                hap_a |= 1 << locus
            else:
                hap_b |= 1 << locus
        pairs.append((hap_a, hap_b))
    return pairs


def _enumerate_pairs(
    classes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised phase enumeration for a table of distinct complete genotypes.

    Returns ``(pair_a, pair_b, pair_class, class_starts)``: the pairs sorted
    by class, pairs within a class ordered by ascending phase-assignment
    index — the same order the scalar :func:`_genotype_pairs` produces — and
    the first pair index of each class.

    All classes go through one ragged pass: a class heterozygous at ``h``
    loci emits ``2^max(h-1, 0)`` pairs, ``np.repeat`` tags every pair with its
    class, and a pair's offset ``k`` from its class start is its assignment
    index.  The first heterozygous locus goes to haplotype a (fixing its
    phase avoids double counting); the r-th later one goes to a when bit
    ``r-1`` of ``k`` is set and to b otherwise.
    """
    n_classes, n_loci = classes.shape
    locus_bits = np.int64(1) << np.arange(n_loci, dtype=np.int64)
    het = classes == 1
    base = (classes == 2) @ locus_bits
    het_bits = het @ locus_bits
    first = het_bits & -het_bits  # lowest heterozygous locus
    rank = np.cumsum(het, axis=1)  # 1-based rank among the heterozygous loci
    # the bit of k that phases each later heterozygous locus; elsewhere bit
    # 63, which no assignment index sets
    shift = np.where(het & (rank > 1), rank - 2, 63)
    pairs_per_class = np.int64(1) << np.maximum(rank[:, -1] - 1, 0)
    class_starts = np.cumsum(pairs_per_class) - pairs_per_class
    pair_class = np.repeat(np.arange(n_classes, dtype=np.int64), pairs_per_class)
    k = np.arange(pair_class.shape[0], dtype=np.int64) - class_starts[pair_class]
    a_extra = ((k[:, None] >> shift[pair_class]) & 1) @ locus_bits
    pair_a = (base + first)[pair_class] + a_extra
    pair_b = (base + het_bits - first)[pair_class] - a_extra
    return pair_a, pair_b, pair_class, class_starts


def _expansion_from_classes(classes: np.ndarray, counts: np.ndarray) -> PhaseExpansion:
    """The expansion of distinct complete genotype classes and their counts.

    The shared tail of :func:`expand_phases` and
    :func:`expand_phases_packed`; the expansion leaves with its class layout.
    """
    pair_a, pair_b, pair_class, class_starts = _enumerate_pairs(classes)
    return PhaseExpansion._with_layout(
        class_starts,
        # every class emits at least one pair, so no segment is empty
        can_reduceat=classes.shape[0] > 0,
        n_loci=classes.shape[1],
        class_counts=counts.astype(np.int64),
        pair_a=pair_a,
        pair_b=pair_b,
        pair_class=pair_class,
        pair_multiplicity=np.where(pair_a == pair_b, 1.0, 2.0),
        class_genotypes=classes,
    )


def expand_phases(genotypes: np.ndarray) -> PhaseExpansion:
    """Group complete genotypes into classes and enumerate their phase pairs.

    Parameters
    ----------
    genotypes:
        ``(n_individuals, n_loci)`` array of codes 0/1/2/-1.  Individuals with
        any missing genotype at these loci are excluded (matching the
        behaviour of the original EH program, which requires complete data).
    """
    genotypes = np.asarray(genotypes)
    if genotypes.ndim != 2:
        raise ValueError("genotypes must be 2-D (individuals x loci)")
    if genotypes.shape[1] == 0:
        raise ValueError("at least one locus is required")
    genotypes = genotypes[~np.any(genotypes == GENOTYPE_MISSING, axis=1)]
    if genotypes.shape[0] == 0:
        return _expansion_from_classes(genotypes, np.zeros(0, dtype=np.int64))
    classes, counts = np.unique(genotypes, axis=0, return_counts=True)
    return _expansion_from_classes(classes, counts)


#: histogram span cap for the packed class-counting path; denser spans fall
#: back to sorting the radix codes (``np.unique``), which is O(n log n) in the
#: number of individuals instead of O(4^L) in the state space.
_PACKED_BINCOUNT_MAX = 1 << 20

#: loci bound of the int64 radix code (4^31 < 2^63); larger subsets unpack.
_PACKED_MAX_LOCI = 31


def expand_phases_packed(
    panel: PackedPanel, snps: Sequence[int] | np.ndarray
) -> PhaseExpansion:
    """Packed fast path of :func:`expand_phases` — bit-identical output.

    Instead of slicing byte columns and running ``np.unique`` over rows, the
    genotype classes are counted as base-4 radix codes built straight from the
    packed 2-bit columns (:meth:`PackedPanel.codes`): a histogram (or a code
    sort for large state spaces) yields the classes in ascending code order.

    Bit-identity argument: the radix code puts locus 0 in the most significant
    digit, so ascending code order *is* the lexicographic row order
    ``np.unique(genotypes, axis=0)`` sorts complete rows into (genotype values
    0/1/2 order identically as bytes and as 2-bit digits).  Individuals with a
    missing genotype carry digit 3 somewhere; the byte path drops those rows
    before uniquing, this path drops the classes containing digit 3 after
    counting — same surviving classes, same order, same counts.  The decoded
    classes then feed the same :func:`_expansion_from_classes`, so every
    :class:`PhaseExpansion` field matches the byte path exactly.
    """
    idx = np.asarray(snps, dtype=np.intp)
    n_loci = idx.shape[0]
    if n_loci == 0:
        raise ValueError("at least one locus is required")
    if n_loci > _PACKED_MAX_LOCI:
        return expand_phases(panel.unpack_columns(idx))

    codes = panel.codes(idx)
    n_states = 4**n_loci
    if n_states <= min(_PACKED_BINCOUNT_MAX, max(4096, 4 * codes.size)):
        histogram = np.bincount(codes, minlength=n_states)
        present = np.flatnonzero(histogram)
        counts = histogram[present]
    else:
        present, counts = np.unique(codes, return_counts=True)

    shifts = 2 * (n_loci - 1 - np.arange(n_loci))
    digits = (present[:, None] >> shifts) & 3
    complete = ~np.any(digits == CODE_MISSING, axis=1)
    return _expansion_from_classes(digits[complete].astype(np.int8), counts[complete])


def concat_expansions(first: PhaseExpansion, second: PhaseExpansion) -> PhaseExpansion:
    """Pool two expansions over the same loci by concatenating class tables.

    A genotype class duplicated across the two inputs is *exactly* equivalent
    to one merged class for both the log-likelihood and the EM updates
    (``n1·log P + n2·log P = (n1+n2)·log P``, and the E-step weights are
    linear in the class counts), so pooling needs no re-expansion, no
    ``np.unique`` and no cross-group dedup — just an offset on the class
    indices of the second input.
    """
    if first.n_loci != second.n_loci:
        raise ValueError("cannot concatenate expansions over different loci counts")
    if first.n_individuals == 0:
        return second
    if second.n_individuals == 0:
        return first
    class_genotypes = None
    if first.class_genotypes is not None and second.class_genotypes is not None:
        class_genotypes = np.concatenate([first.class_genotypes, second.class_genotypes])
    fields = dict(
        n_loci=first.n_loci,
        class_counts=np.concatenate([first.class_counts, second.class_counts]),
        pair_a=np.concatenate([first.pair_a, second.pair_a]),
        pair_b=np.concatenate([first.pair_b, second.pair_b]),
        pair_class=np.concatenate(
            [first.pair_class, second.pair_class + first.n_classes]
        ),
        pair_multiplicity=np.concatenate(
            [first.pair_multiplicity, second.pair_multiplicity]
        ),
        class_genotypes=class_genotypes,
    )
    if not (first.is_class_sorted and second.is_class_sorted):
        return PhaseExpansion(**fields)
    # two class-sorted inputs stay sorted end to end: the second input's
    # classes and pairs follow the first's
    return PhaseExpansion._with_layout(
        np.concatenate([first.class_starts, second.class_starts + first.n_pairs]),
        can_reduceat=first._can_reduceat and second._can_reduceat,
        **fields,
    )


class PhaseExpansionCache:
    """Bounded LRU cache of phase expansions for SNP subsets of one matrix.

    Building an expansion means slicing the genotype matrix, running
    ``np.unique`` over the rows and enumerating up to ``2^(h-1)`` phase pairs
    per class; the GA re-evaluates the same haplotype many times (elitism,
    re-insertion, the affected/unaffected/pooled triple of the LRT), so the
    expansion is worth memoising per sorted SNP tuple.

    Parameters
    ----------
    genotypes:
        The full ``(n_individuals, n_snps)`` genotype matrix the cached
        expansions are column subsets of — either a byte matrix or a 2-bit
        :class:`~repro.genetics.packed.PackedPanel` (misses then build
        through :func:`expand_phases_packed`, never touching byte storage).
    max_size:
        Bound on the number of cached expansions (least-recently-used entries
        are evicted); ``None`` means unbounded.
    """

    def __init__(
        self, genotypes: np.ndarray | PackedPanel, *, max_size: int | None = 256
    ) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive or None")
        if isinstance(genotypes, PackedPanel):
            self._panel: PackedPanel | None = genotypes
            self._genotypes = None
        else:
            self._panel = None
            self._genotypes = np.asarray(genotypes)
            if self._genotypes.ndim != 2:
                raise ValueError("genotypes must be 2-D (individuals x loci)")
        self._cache: LRUCache = LRUCache(max_size)
        self._hits = 0
        self._misses = 0

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    def get(
        self, snps: Sequence[int] | np.ndarray, *, presorted: bool = False
    ) -> PhaseExpansion:
        """Return the (possibly cached) expansion of the given SNP columns.

        ``presorted=True`` promises that ``snps`` is already a sorted tuple of
        ints (the normalised form :meth:`HaplotypeEvaluator._validate_snps`
        produces), skipping the per-lookup re-sort/re-tuple on the hot path —
        the key cost is then paid once per request instead of once per cache
        layer.
        """
        if presorted:
            key = snps if type(snps) is tuple else tuple(snps)
        else:
            key = tuple(sorted(int(s) for s in snps))
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        if self._panel is not None:
            expansion = expand_phases_packed(self._panel, np.asarray(key, dtype=np.intp))
        else:
            expansion = expand_phases(self._genotypes[:, np.asarray(key, dtype=np.intp)])
        self._cache.put(key, expansion)
        return expansion


def expansion_log_likelihood(expansion: PhaseExpansion, frequencies: np.ndarray) -> float:
    """Observed-data log-likelihood of ``frequencies`` under an expansion."""
    expansion = expansion.sorted_by_class()
    if expansion.n_classes == 0:
        return 0.0
    pair_prob = (
        expansion.pair_multiplicity
        * frequencies[expansion.pair_a]
        * frequencies[expansion.pair_b]
    )
    class_prob = expansion.class_reduce(pair_prob)
    return float(np.sum(expansion.class_counts * np.log(np.maximum(class_prob, _LOG_FLOOR))))


# backwards-compatible alias (the seed exposed the helper under this name)
_log_likelihood = expansion_log_likelihood


def estimate_haplotype_frequencies(
    genotypes: np.ndarray,
    *,
    initial_frequencies: np.ndarray | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> EMResult:
    """Estimate multi-locus haplotype frequencies from unphased genotypes.

    Parameters
    ----------
    genotypes:
        ``(n_individuals, n_loci)`` unphased genotype codes.
    initial_frequencies:
        Optional starting point on the ``2**n_loci`` simplex; defaults to the
        uniform distribution.
    max_iter:
        Maximum number of EM iterations.
    tol:
        Convergence threshold on the log-likelihood improvement.

    Returns
    -------
    EMResult
    """
    expansion = expand_phases(genotypes)
    return estimate_from_expansion(
        expansion, initial_frequencies=initial_frequencies, max_iter=max_iter, tol=tol
    )


def estimate_from_expansion(
    expansion: PhaseExpansion,
    *,
    initial_frequencies: np.ndarray | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> EMResult:
    """Run the EM on a pre-computed :class:`PhaseExpansion`.

    Each iteration computes the pair-probability vector once and derives both
    the log-likelihood of the *current* frequencies and the E-step posterior
    from it; per-class totals use a contiguous segmented reduction and the
    M-step haplotype counts use ``np.bincount``.  The iteration schedule,
    convergence test and reported diagnostics are identical to the seed's
    scatter-add kernel (:mod:`repro.stats.em_reference`).
    """
    n_states = n_haplotype_states(expansion.n_loci)
    if initial_frequencies is None:
        frequencies = np.full(n_states, 1.0 / n_states, dtype=np.float64)
    else:
        frequencies = np.asarray(initial_frequencies, dtype=np.float64).copy()
        if frequencies.shape != (n_states,):
            raise ValueError(f"initial_frequencies must have length {n_states}")
        if np.any(frequencies < 0):
            raise ValueError("initial_frequencies must be non-negative")
        total = frequencies.sum()
        if total <= 0:
            raise ValueError("initial_frequencies must not be all zero")
        frequencies /= total

    n_individuals = expansion.n_individuals
    if n_individuals == 0:
        return EMResult(
            frequencies=frequencies,
            log_likelihood=0.0,
            n_iterations=0,
            converged=True,
            n_individuals=0,
            n_loci=expansion.n_loci,
        )

    expansion = expansion.sorted_by_class()
    pair_a = expansion.pair_a
    pair_b = expansion.pair_b
    pair_class = expansion.pair_class
    multiplicity = expansion.pair_multiplicity
    class_counts = expansion.class_counts.astype(np.float64)
    counts_per_pair = class_counts[pair_class]  # loop-invariant gather
    n_pairs = pair_a.shape[0]
    n_classes = expansion.n_classes
    n_chromosomes = 2.0 * n_individuals

    # preallocated per-iteration buffers: the pair counts are small enough
    # that ufunc dispatch and allocation dominate, so every step below writes
    # into a reused buffer (the arithmetic order matches the reference kernel
    # exactly: (multiplicity * f[a]) * f[b], posterior = pair_prob /
    # class_prob[class], weight = posterior * counts[class])
    pair_ab = np.concatenate([pair_a, pair_b])
    freq_ab = np.empty(2 * n_pairs, dtype=np.float64)
    pair_prob = np.empty(n_pairs, dtype=np.float64)
    class_per_pair = np.empty(n_pairs, dtype=np.float64)
    weight = np.empty(n_pairs, dtype=np.float64)
    log_class = np.empty(n_classes, dtype=np.float64)

    log_likelihood = 0.0
    previous_ll: float | None = None
    iteration = 0
    converged = False
    while True:
        # pair probabilities under the current frequencies, computed once and
        # shared by the likelihood and the E-step
        np.take(frequencies, pair_ab, out=freq_ab)
        np.multiply(multiplicity, freq_ab[:n_pairs], out=pair_prob)
        pair_prob *= freq_ab[n_pairs:]
        class_prob = expansion.class_reduce(pair_prob)
        np.maximum(class_prob, _LOG_FLOOR, out=class_prob)
        np.log(class_prob, out=log_class)
        log_class *= class_counts
        # sequential segment sum, not a dot product: bit-identical to the
        # per-problem segments of run_em_stacked (see _WHOLE_SEGMENT)
        log_likelihood = float(np.add.reduceat(log_class, _WHOLE_SEGMENT)[0])

        if previous_ll is not None and abs(log_likelihood - previous_ll) < tol:
            converged = True
            break
        if iteration >= max_iter:
            break
        previous_ll = log_likelihood

        # E-step: posterior probability of each compatible pair within its
        # class, weighted by the class population
        np.take(class_prob, pair_class, out=class_per_pair)
        np.divide(pair_prob, class_per_pair, out=weight)
        weight *= counts_per_pair

        # M-step: expected haplotype counts -> new frequencies
        hap_counts = np.bincount(pair_a, weights=weight, minlength=n_states)
        hap_counts += np.bincount(pair_b, weights=weight, minlength=n_states)
        frequencies = hap_counts / n_chromosomes
        iteration += 1

    return EMResult(
        frequencies=frequencies,
        log_likelihood=log_likelihood,
        n_iterations=iteration,
        converged=converged,
        n_individuals=n_individuals,
        n_loci=expansion.n_loci,
    )


# --------------------------------------------------------------------- #
# the generation-batched multi-problem kernel
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StackedExpansion:
    """A batch of :class:`PhaseExpansion` problems packed into flat arrays.

    The GA's evaluation layers hand the kernel *batches* of independent EM
    problems (one per distinct candidate × status group per generation), each
    of which is tiny: below ~1k pairs the per-iteration numpy dispatch
    overhead dominates the arithmetic.  Stacking the problems — concatenated
    pair/class arrays with per-problem segment offsets, haplotype-state
    indices shifted so every problem owns a disjoint block of one flat
    frequency vector — lets :func:`run_em_stacked` drive **all** problems
    through one numpy dispatch per EM operation.

    The ragged layout is fully general: problems may differ in locus count
    (and therefore state-space size), class count, pair count and chromosome
    total.  Segment boundaries are carried as per-problem lengths; offsets
    are their cumulative sums.

    Attributes
    ----------
    n_loci, n_states, n_individuals:
        Per-problem metadata (``n_states[p] == 2**n_loci[p]``).
    classes_per_problem, pairs_per_problem:
        Per-problem segment lengths of the concatenated class/pair arrays.
    pairs_per_class:
        Pairs in each concatenated class (for segmented class reductions).
    class_counts:
        Concatenated per-class individual counts.
    pair_a, pair_b:
        Haplotype states of each candidate pair as *global* indices into the
        flat frequency vector (local state + the problem's state offset).
    pair_class:
        Global class index of each pair.
    pair_multiplicity:
        1.0 where ``pair_a == pair_b`` else 2.0.
    can_reduceat:
        Whether every non-empty problem supports contiguous segmented
        reductions (class-sorted, no empty class) — true for every expansion
        built by :func:`expand_phases` / :func:`concat_expansions`; the
        kernel falls back to ``np.bincount`` otherwise.
    """

    n_loci: np.ndarray
    n_states: np.ndarray
    n_individuals: np.ndarray
    classes_per_problem: np.ndarray
    pairs_per_problem: np.ndarray
    pairs_per_class: np.ndarray
    class_counts: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_class: np.ndarray
    pair_multiplicity: np.ndarray
    can_reduceat: bool

    @property
    def n_problems(self) -> int:
        return self.n_loci.shape[0]

    @property
    def n_total_states(self) -> int:
        return int(self.n_states.sum())

    @property
    def n_total_pairs(self) -> int:
        return self.pair_a.shape[0]


def stack_expansions(expansions: Sequence[PhaseExpansion]) -> StackedExpansion:
    """Pack a batch of phase expansions into one :class:`StackedExpansion`.

    Problems keep their identity (nothing is merged — contrast with
    :func:`concat_expansions`, which pools two groups into *one* problem);
    empty problems (no complete individuals) are carried through and resolved
    immediately by :func:`run_em_stacked`, exactly like the scalar kernel.
    """
    if len(expansions) == 0:
        raise ValueError("at least one expansion is required")
    exps = [e.sorted_by_class() for e in expansions]
    n_loci = np.array([e.n_loci for e in exps], dtype=np.int64)
    n_states = np.array([n_haplotype_states(e.n_loci) for e in exps], dtype=np.int64)
    n_individuals = np.array([e.n_individuals for e in exps], dtype=np.int64)
    classes_pp = np.array([e.n_classes for e in exps], dtype=np.int64)
    pairs_pp = np.array([e.n_pairs for e in exps], dtype=np.int64)
    state_offsets = np.concatenate([[0], np.cumsum(n_states)])
    class_offsets = np.concatenate([[0], np.cumsum(classes_pp)])
    pair_class = np.concatenate(
        [e.pair_class + class_offsets[i] for i, e in enumerate(exps)]
    )
    return StackedExpansion(
        n_loci=n_loci,
        n_states=n_states,
        n_individuals=n_individuals,
        classes_per_problem=classes_pp,
        pairs_per_problem=pairs_pp,
        # the pairs of each class, counted over the whole batch in one pass
        pairs_per_class=np.bincount(pair_class, minlength=int(class_offsets[-1])),
        class_counts=np.concatenate([e.class_counts for e in exps]),
        pair_a=np.concatenate(
            [e.pair_a + state_offsets[i] for i, e in enumerate(exps)]
        ),
        pair_b=np.concatenate(
            [e.pair_b + state_offsets[i] for i, e in enumerate(exps)]
        ),
        pair_class=pair_class,
        pair_multiplicity=np.concatenate([e.pair_multiplicity for e in exps]),
        can_reduceat=all(e._can_reduceat for e in exps if e.n_pairs > 0),
    )


def _stacked_initial_frequencies(
    stacked: StackedExpansion,
    initial_frequencies: "Sequence[np.ndarray | None] | None",
) -> np.ndarray:
    """The flat per-problem starting frequencies, validated like the scalar kernel."""
    total_states = stacked.n_total_states
    frequencies = np.empty(total_states, dtype=np.float64)
    state_offsets = np.concatenate([[0], np.cumsum(stacked.n_states)])
    if initial_frequencies is not None and len(initial_frequencies) != stacked.n_problems:
        raise ValueError(
            f"initial_frequencies must provide one entry per problem "
            f"({stacked.n_problems}), got {len(initial_frequencies)}"
        )
    for p in range(stacked.n_problems):
        n_states = int(stacked.n_states[p])
        segment = frequencies[state_offsets[p]: state_offsets[p + 1]]
        initial = None if initial_frequencies is None else initial_frequencies[p]
        if initial is None:
            segment[:] = 1.0 / n_states
            continue
        initial = np.asarray(initial, dtype=np.float64)
        if initial.shape != (n_states,):
            raise ValueError(f"initial_frequencies must have length {n_states}")
        if np.any(initial < 0):
            raise ValueError("initial_frequencies must be non-negative")
        total = initial.sum()
        if total <= 0:
            raise ValueError("initial_frequencies must not be all zero")
        segment[:] = initial / total
    return frequencies


def run_em_stacked(
    stacked: StackedExpansion,
    *,
    initial_frequencies: "Sequence[np.ndarray | None] | None" = None,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> list[EMResult]:
    """Run the EM on every problem of a stacked batch, one dispatch per op.

    Per iteration the kernel performs the *same arithmetic per problem* as
    :func:`estimate_from_expansion` — pair-probability gather, segmented
    class reduction, floored log-likelihood, posterior E-step, ``bincount``
    M-step — but over the concatenated arrays, so the whole batch pays one
    numpy dispatch per operation instead of one per problem.  Every segmented
    operation it uses is bit-stable under concatenation (segment sums depend
    only on the segment's own values), so each problem reproduces the scalar
    kernel's trajectory **exactly**: identical per-problem iteration counts,
    convergence flags, log-likelihoods and frequencies, independent of how
    the batch is composed.

    Problems converge at different iterations; converged problems are
    compacted out of the active arrays, so late iterations only pay for the
    stragglers.

    Parameters
    ----------
    stacked:
        The packed batch (see :func:`stack_expansions`).
    initial_frequencies:
        Optional per-problem warm starts (``None`` entries mean uniform).
    max_iter, tol:
        EM control parameters, shared by every problem in the batch.

    Returns
    -------
    list[EMResult] in problem order.
    """
    n_problems = stacked.n_problems
    frequencies = _stacked_initial_frequencies(stacked, initial_frequencies)
    results: list[EMResult | None] = [None] * n_problems

    # --- active-subset state (mutated by compaction) ------------------- #
    active = np.arange(n_problems)
    states_pp = stacked.n_states.copy()
    classes_pp = stacked.classes_per_problem.copy()
    pairs_pp = stacked.pairs_per_problem.copy()
    pairs_pc = stacked.pairs_per_class.copy()
    class_counts = stacked.class_counts.astype(np.float64)
    pair_a = stacked.pair_a
    pair_b = stacked.pair_b
    pair_class = stacked.pair_class
    multiplicity = stacked.pair_multiplicity
    n_chromosomes = 2.0 * stacked.n_individuals.astype(np.float64)
    chrom_per_state = np.repeat(n_chromosomes, states_pp)
    counts_per_pair = class_counts[pair_class]
    prev_ll = np.zeros(n_problems, dtype=np.float64)
    state_offsets = np.concatenate([[0], np.cumsum(states_pp)])
    class_starts = np.concatenate([[0], np.cumsum(pairs_pc)[:-1]]).astype(np.intp)
    problem_class_starts = np.concatenate(
        [[0], np.cumsum(classes_pp)[:-1]]
    ).astype(np.intp)

    def finish(local: int, iteration: int, ll: float, converged: bool) -> None:
        p = int(active[local])
        segment = frequencies[state_offsets[local]: state_offsets[local + 1]]
        results[p] = EMResult(
            frequencies=segment.copy(),
            log_likelihood=ll,
            n_iterations=iteration,
            converged=converged,
            n_individuals=int(stacked.n_individuals[p]),
            n_loci=int(stacked.n_loci[p]),
        )

    def compact(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drop finished problems; returns (pair_keep, class_keep) masks."""
        nonlocal active, states_pp, classes_pp, pairs_pp, pairs_pc, class_counts
        nonlocal pair_a, pair_b, pair_class, multiplicity, counts_per_pair
        nonlocal n_chromosomes, chrom_per_state, frequencies, prev_ll
        nonlocal state_offsets, class_starts, problem_class_starts
        state_keep = np.repeat(keep, states_pp)
        class_keep = np.repeat(keep, classes_pp)
        pair_keep = np.repeat(keep, pairs_pp)
        state_map = np.cumsum(state_keep) - 1
        class_map = np.cumsum(class_keep) - 1
        pair_a = state_map[pair_a[pair_keep]]
        pair_b = state_map[pair_b[pair_keep]]
        pair_class = class_map[pair_class[pair_keep]]
        multiplicity = multiplicity[pair_keep]
        counts_per_pair = counts_per_pair[pair_keep]
        class_counts = class_counts[class_keep]
        pairs_pc = pairs_pc[class_keep]
        frequencies = frequencies[state_keep]
        chrom_per_state = chrom_per_state[state_keep]
        active = active[keep]
        states_pp = states_pp[keep]
        classes_pp = classes_pp[keep]
        pairs_pp = pairs_pp[keep]
        n_chromosomes = n_chromosomes[keep]
        prev_ll = prev_ll[keep]
        state_offsets = np.concatenate([[0], np.cumsum(states_pp)])
        class_starts = np.concatenate([[0], np.cumsum(pairs_pc)[:-1]]).astype(np.intp)
        problem_class_starts = np.concatenate(
            [[0], np.cumsum(classes_pp)[:-1]]
        ).astype(np.intp)
        return pair_keep, class_keep

    # problems with no complete individuals finish immediately (the scalar
    # kernel's early return: ll 0.0, zero iterations, converged)
    empty = stacked.n_individuals == 0
    if empty.any():
        for local in np.flatnonzero(empty):
            finish(int(local), 0, 0.0, True)
        compact(~empty)
    if active.shape[0] == 0:
        return results  # type: ignore[return-value]

    # Finished problems are compacted out *lazily*: compaction costs several
    # O(active) passes (masks, remaps, cumsums), so it only pays for itself
    # once the finished problems own a decent share of the pair work.  Until
    # then they simply keep iterating (their results were already recorded
    # from a copy; the extra iterations are wasted but cheap, and the floored
    # class probabilities keep the arithmetic NaN-free).
    done = np.zeros(active.shape[0], dtype=bool)
    n_total_states = int(states_pp.sum())
    total_pairs = int(pairs_pp.sum())
    iteration = 0
    while True:
        # pair probabilities under the current frequencies, shared by the
        # likelihood and the E-step — arithmetic order matches the scalar
        # kernel exactly: (multiplicity * f[a]) * f[b]
        pair_prob = multiplicity * frequencies[pair_a]
        pair_prob *= frequencies[pair_b]
        if stacked.can_reduceat:
            class_prob = np.add.reduceat(pair_prob, class_starts)
        else:
            class_prob = np.bincount(
                pair_class, weights=pair_prob, minlength=class_counts.shape[0]
            )
        np.maximum(class_prob, _LOG_FLOOR, out=class_prob)
        log_class = np.log(class_prob)
        log_class *= class_counts
        log_likelihood = np.add.reduceat(log_class, problem_class_starts)

        if iteration > 0:
            converged = np.abs(log_likelihood - prev_ll) < tol
        else:
            converged = np.zeros(active.shape[0], dtype=bool)
        if iteration >= max_iter:
            finished_now = ~done
        else:
            finished_now = converged & ~done

        if finished_now.any():
            for local in np.flatnonzero(finished_now):
                finish(
                    int(local),
                    iteration,
                    float(log_likelihood[local]),
                    bool(converged[local]),
                )
            done |= finished_now
            if done.all():
                break
            if 4 * int(pairs_pp[done].sum()) >= total_pairs:
                keep = ~done
                prev_ll = log_likelihood  # compact() subsets it via keep
                pair_keep, class_keep = compact(keep)
                pair_prob = pair_prob[pair_keep]
                class_prob = class_prob[class_keep]
                done = np.zeros(active.shape[0], dtype=bool)
                n_total_states = int(states_pp.sum())
                total_pairs = int(pairs_pp.sum())
            else:
                prev_ll = log_likelihood
        else:
            prev_ll = log_likelihood

        # E-step: posterior probability of each compatible pair within its
        # class, weighted by the class population
        weight = pair_prob / class_prob[pair_class]
        weight *= counts_per_pair

        # M-step: expected haplotype counts -> new frequencies
        hap_counts = np.bincount(pair_a, weights=weight, minlength=n_total_states)
        hap_counts += np.bincount(pair_b, weights=weight, minlength=n_total_states)
        frequencies = hap_counts / chrom_per_state
        iteration += 1

    return results  # type: ignore[return-value]
