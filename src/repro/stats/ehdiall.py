"""EH-DIALL: estimated-haplotype analysis of a group of individuals.

EH-DIALL (the "EH" program of Terwilliger & Ott, as used by the paper) takes
the genotypes of a sample of individuals at the SNPs of a candidate haplotype
and

1. estimates per-marker allele frequencies,
2. estimates haplotype frequencies **without** allelic association
   (hypothesis ``H0``: every haplotype frequency is the product of its allele
   frequencies), and
3. estimates haplotype frequencies **with** allelic association
   (hypothesis ``H1``: frequencies free on the simplex, fitted by the EM of
   :mod:`repro.stats.em`),

reporting the log-likelihood of the data under both hypotheses and the
likelihood-ratio chi-square for association between the markers.

In the paper's evaluation pipeline (Figure 3), EH-DIALL is run independently
on the affected and unaffected groups; the estimated haplotype distributions
of the two runs are then concatenated into a contingency table for CLUMP.

Performance notes
-----------------
The expensive part of a run is the phase expansion and the EM over it, so the
module is split into two entry points: :func:`run_ehdiall` expands the
genotypes **once** (the seed expanded twice — once for the H0 likelihood and
once more inside the H1 EM) and delegates to :func:`ehdiall_from_expansion`,
which works entirely from a pre-computed — typically cached —
:class:`~repro.stats.em.PhaseExpansion` and accepts warm-start frequencies
for the EM.  The evaluation pipeline (:mod:`repro.stats.evaluation`) feeds it
cached per-group expansions and builds the pooled case+control run by
concatenating the group expansions instead of re-expanding.

A run pays for the H1 EM only: :class:`EHDiallResult` keeps the fit and its
expansion and computes the allele frequencies, the H0 likelihood and the
association LRT the first time one of them is read.  The GA's fitness reads
none of them (CLUMP takes the H1 expected counts, the case/control LRT the H1
likelihoods), so the fitness path never computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..genetics.alleles import n_haplotype_states
from ..genetics.dataset import GenotypeDataset
from .chi2 import chi2_sf
from .em import (
    EMResult,
    PhaseExpansion,
    estimate_from_expansion,
    expand_phases,
    expansion_log_likelihood,
    run_em_stacked,
    stack_expansions,
)

__all__ = [
    "EHDiallResult",
    "run_ehdiall",
    "ehdiall_from_expansion",
    "ehdiall_batch",
    "h0_frequencies",
]


@dataclass(frozen=True)
class EHDiallResult:
    """Result of an EH-DIALL run on one group of individuals.

    Built from the H1 fit and the expansion it ran on; the H0 side of the
    report is derived from them when first read and then kept.

    Attributes
    ----------
    em:
        The H1 (association) EM fit.
    expansion:
        The phase expansion the fit ran on.
    allele_frequencies:
        Per-locus frequency of allele ``2`` estimated from the same
        individuals (gene counting).
    h0_log_likelihood:
        Log-likelihood of the data under independence of the loci.
    h1_log_likelihood:
        Log-likelihood under the EM-fitted haplotype frequencies.
    lrt_statistic:
        ``2 * (h1 - h0)`` likelihood-ratio chi-square for allelic association.
    lrt_df:
        Degrees of freedom of the LRT: ``(2**L - 1) - L``.
    lrt_p_value:
        Nominal chi-square p-value of the LRT.
    """

    em: EMResult
    expansion: PhaseExpansion

    @property
    def haplotype_frequencies(self) -> np.ndarray:
        """Estimated haplotype frequencies under H1."""
        return self.em.frequencies

    @property
    def n_individuals(self) -> int:
        return self.em.n_individuals

    @property
    def n_chromosomes(self) -> int:
        return self.em.n_chromosomes

    @property
    def h1_log_likelihood(self) -> float:
        return self.em.log_likelihood

    @cached_property
    def allele_frequencies(self) -> np.ndarray:
        return self.expansion.allele_frequencies()

    @cached_property
    def h0_log_likelihood(self) -> float:
        allele_freqs = self.allele_frequencies
        if self.expansion.n_individuals == 0 or np.any(np.isnan(allele_freqs)):
            return 0.0
        return expansion_log_likelihood(self.expansion, h0_frequencies(allele_freqs))

    @cached_property
    def lrt_statistic(self) -> float:
        return max(2.0 * (self.h1_log_likelihood - self.h0_log_likelihood), 0.0)

    @cached_property
    def lrt_df(self) -> int:
        n_loci = self.expansion.n_loci
        return max(n_haplotype_states(n_loci) - 1 - n_loci, 0)

    @cached_property
    def lrt_p_value(self) -> float:
        return chi2_sf(self.lrt_statistic, self.lrt_df)

    def expected_haplotype_counts(self) -> np.ndarray:
        """Expected haplotype counts under H1 (frequencies × chromosomes)."""
        return self.em.expected_counts()


def h0_frequencies(allele_frequencies: np.ndarray) -> np.ndarray:
    """Haplotype frequencies under locus independence (H0).

    ``allele_frequencies[i]`` is the frequency of allele ``2`` at locus ``i``;
    the returned array has length ``2**L`` indexed by haplotype state.
    """
    allele_frequencies = np.asarray(allele_frequencies, dtype=np.float64)
    n_loci = allele_frequencies.shape[0]
    states = np.arange(n_haplotype_states(n_loci))
    freqs = np.ones(states.shape[0], dtype=np.float64)
    for locus in range(n_loci):
        carries_2 = (states >> locus) & 1
        p2 = allele_frequencies[locus]
        freqs *= np.where(carries_2 == 1, p2, 1.0 - p2)
    return freqs


def ehdiall_from_expansion(
    expansion: PhaseExpansion,
    *,
    max_iter: int = 200,
    tol: float = 1e-8,
    initial_frequencies: np.ndarray | None = None,
) -> EHDiallResult:
    """Run EH-DIALL from a pre-computed (typically cached) phase expansion.

    Parameters
    ----------
    expansion:
        Phase expansion of the group's genotypes at the candidate SNPs.
        Reading the H0 side of the report needs its ``class_genotypes``
        (expansions from :func:`~repro.stats.em.expand_phases` and
        :func:`~repro.stats.em.concat_expansions` carry them).
    max_iter, tol:
        EM control parameters.
    initial_frequencies:
        Optional warm start for the H1 EM (e.g. the final frequencies of an
        earlier run of the same haplotype); ``None`` starts from the uniform
        distribution, as every fitness evaluation does.
    """
    em = estimate_from_expansion(
        expansion, initial_frequencies=initial_frequencies, max_iter=max_iter, tol=tol
    )
    return _assemble_result(expansion, em)


def _assemble_result(expansion: PhaseExpansion, em: EMResult) -> EHDiallResult:
    """Wrap a fitted H1 EM into the EH-DIALL report (H0 and LRT derive on read)."""
    return EHDiallResult(em=em, expansion=expansion)


def ehdiall_batch(
    expansions: Sequence[PhaseExpansion],
    *,
    max_iter: int = 200,
    tol: float = 1e-8,
    initial_frequencies: "Sequence[np.ndarray | None] | None" = None,
) -> list[EHDiallResult]:
    """Run EH-DIALL on a batch of independent problems through one EM kernel call.

    The expensive part of each run — the iterated H1 EM — is stacked
    (:func:`~repro.stats.em.stack_expansions` +
    :func:`~repro.stats.em.run_em_stacked`) so the whole batch pays one numpy
    dispatch per EM operation; each result derives its H0 likelihood and LRT
    on its own, and only if they are read.  Every result is **bit-identical**
    to the corresponding :func:`ehdiall_from_expansion` call: the stacked
    kernel reproduces the scalar kernel's arithmetic exactly, so batching is
    purely a throughput decision and batch composition never changes a
    result.

    A batch of one delegates to the scalar path, and problems whose expansion
    does not support contiguous segmented reductions (possible only for
    hand-built expansions with empty classes — never those built by
    :func:`~repro.stats.em.expand_phases`) run scalar too, because the
    scalar kernel's ``bincount`` fallback and the stacked reduction are not
    bit-interchangeable.

    Parameters
    ----------
    expansions:
        Phase expansions of the problems (ragged: loci/class/pair counts and
        chromosome totals may all differ).
    max_iter, tol:
        EM control parameters, shared by the whole batch.
    initial_frequencies:
        Optional per-problem EM warm starts (``None`` entries mean uniform).
    """
    expansions = list(expansions)
    if initial_frequencies is not None and len(initial_frequencies) != len(expansions):
        raise ValueError(
            f"initial_frequencies must provide one entry per expansion "
            f"({len(expansions)}), got {len(initial_frequencies)}"
        )

    def scalar(index: int) -> EHDiallResult:
        initial = None if initial_frequencies is None else initial_frequencies[index]
        return ehdiall_from_expansion(
            expansions[index], max_iter=max_iter, tol=tol, initial_frequencies=initial
        )

    if len(expansions) < 2:
        return [scalar(i) for i in range(len(expansions))]

    stackable = [
        i
        for i, e in enumerate(expansions)
        if e.n_individuals == 0 or e.sorted_by_class()._can_reduceat
    ]
    stackable_set = set(stackable)
    results: list[EHDiallResult | None] = [None] * len(expansions)
    for i in range(len(expansions)):
        if i not in stackable_set:
            results[i] = scalar(i)
    if len(stackable) == 1:
        results[stackable[0]] = scalar(stackable[0])
    elif stackable:
        stacked = stack_expansions([expansions[i] for i in stackable])
        initials = (
            None
            if initial_frequencies is None
            else [initial_frequencies[i] for i in stackable]
        )
        ems = run_em_stacked(
            stacked, initial_frequencies=initials, max_iter=max_iter, tol=tol
        )
        for i, em in zip(stackable, ems):
            results[i] = _assemble_result(expansions[i], em)
    return results  # type: ignore[return-value]


def run_ehdiall(
    source: GenotypeDataset | np.ndarray,
    snps: Sequence[int] | np.ndarray | None = None,
    *,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> EHDiallResult:
    """Run EH-DIALL on one group of individuals.

    Parameters
    ----------
    source:
        Either a :class:`GenotypeDataset` (in which case ``snps`` selects the
        haplotype's SNP columns) or a pre-extracted ``(n_individuals, L)``
        genotype array.
    snps:
        SNP column indices of the candidate haplotype (required when
        ``source`` is a dataset).
    max_iter, tol:
        EM control parameters.
    """
    if isinstance(source, GenotypeDataset):
        if snps is None:
            raise ValueError("snps must be provided when source is a GenotypeDataset")
        genotypes = source.genotypes_at(np.asarray(snps, dtype=np.intp))
    else:
        genotypes = np.asarray(source)
        if snps is not None:
            genotypes = genotypes[:, np.asarray(snps, dtype=np.intp)]

    expansion = expand_phases(genotypes)
    return ehdiall_from_expansion(expansion, max_iter=max_iter, tol=tol)
