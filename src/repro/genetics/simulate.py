"""Synthetic case/control genotype data with a planted causal haplotype.

The paper evaluates its GA on a proprietary diabetes/obesity dataset from the
Biological Institute of Lille (106 individuals × 51 SNPs for the reported
study, plus larger 249-SNP files).  That data is not public, so this module
provides the substitution documented in ``DESIGN.md``: a forward simulator
that produces case/control genotype datasets with

* block-wise linkage disequilibrium along the SNP panel (haplotypes are built
  by a copy-with-recombination process inside blocks),
* realistic allele-frequency spectra, and
* a *planted causal haplotype*: a chosen set of SNPs whose joint risk
  configuration multiplies the carrier's disease odds, so that the
  EH-DIALL/CLUMP fitness landscape has a known ground-truth optimum.

Two canned generators mirror the paper's datasets:

* :func:`lille_like_study` — 51 SNPs, 53 affected + 53 unaffected (+ optional
  unknown-status individuals), causal haplotype of 4 SNPs;
* :func:`large_study_249` — 249 SNPs, 176 individuals, same structure as the
  paper's larger files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alleles import (
    GENOTYPE_MISSING,
    STATUS_AFFECTED,
    STATUS_UNAFFECTED,
    STATUS_UNKNOWN,
)
from .dataset import GenotypeDataset

__all__ = [
    "PopulationModel",
    "DiseaseModel",
    "SimulatedStudy",
    "simulate_haplotypes",
    "simulate_case_control_study",
    "lille_like_study",
    "large_study_249",
]


@dataclass(frozen=True)
class PopulationModel:
    """Neutral population model: SNP panel with block-wise LD.

    Attributes
    ----------
    n_snps:
        Number of SNPs on the panel.
    block_size:
        Number of consecutive SNPs per LD block.  Within a block, each
        haplotype's allele at SNP ``j`` copies the allele at SNP ``j-1`` with
        probability ``within_block_correlation`` and is drawn fresh otherwise;
        across block boundaries alleles are independent.
    within_block_correlation:
        Copy probability inside a block, in ``[0, 1)``.
    min_allele_frequency, max_allele_frequency:
        Range from which the frequency of allele ``2`` at each SNP is drawn
        uniformly.
    """

    n_snps: int
    block_size: int = 5
    within_block_correlation: float = 0.6
    min_allele_frequency: float = 0.15
    max_allele_frequency: float = 0.5

    def __post_init__(self) -> None:
        if self.n_snps <= 0:
            raise ValueError("n_snps must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0.0 <= self.within_block_correlation < 1.0:
            raise ValueError("within_block_correlation must be in [0, 1)")
        if not 0.0 < self.min_allele_frequency <= self.max_allele_frequency < 1.0:
            raise ValueError("allele frequency bounds must satisfy 0 < min <= max < 1")

    def draw_allele_frequencies(self, rng: np.random.Generator) -> np.ndarray:
        """Frequency of allele ``2`` at each SNP."""
        return rng.uniform(self.min_allele_frequency, self.max_allele_frequency, self.n_snps)


@dataclass(frozen=True)
class DiseaseModel:
    """Multi-locus disease model with a single causal haplotype.

    An individual carries 0, 1 or 2 copies of the *risk haplotype*: a copy is
    carried by each of its two chromosomes whose alleles at ``causal_snps``
    match ``risk_alleles`` exactly.  The disease probability is::

        P(affected | k copies) = baseline_penetrance * relative_risk**k

    capped at ``max_penetrance``.  A multiplicative model with a large
    relative risk yields the strong multi-SNP association signal the paper's
    dataset evidently contains (fitness values of 50-160 for 106 individuals).

    Attributes
    ----------
    causal_snps:
        Indices of the SNPs forming the causal haplotype (sorted, unique).
    risk_alleles:
        Allele carried at each causal SNP by the risk haplotype
        (``1`` or ``2``); same length as ``causal_snps``.
    baseline_penetrance:
        Disease probability for non-carriers.
    relative_risk:
        Multiplicative odds increase per risk-haplotype copy.
    max_penetrance:
        Upper cap on the disease probability.
    risk_haplotype_frequency:
        When positive, each simulated chromosome is overwritten with the risk
        alleles at the causal SNPs with this probability.  This plants the
        risk haplotype at a controlled population frequency (and creates the
        strong LD between its SNPs that a real disease haplotype block has);
        when 0 the risk haplotype only occurs by chance combination of the
        individual alleles, which gives a much weaker signal.
    """

    causal_snps: tuple[int, ...]
    risk_alleles: tuple[int, ...]
    baseline_penetrance: float = 0.05
    relative_risk: float = 6.0
    max_penetrance: float = 0.95
    risk_haplotype_frequency: float = 0.0

    def __post_init__(self) -> None:
        if len(self.causal_snps) == 0:
            raise ValueError("causal_snps must not be empty")
        if len(set(self.causal_snps)) != len(self.causal_snps):
            raise ValueError("causal_snps must be unique")
        if tuple(sorted(self.causal_snps)) != tuple(self.causal_snps):
            raise ValueError("causal_snps must be sorted in ascending order")
        if len(self.risk_alleles) != len(self.causal_snps):
            raise ValueError("risk_alleles must have the same length as causal_snps")
        if not all(a in (1, 2) for a in self.risk_alleles):
            raise ValueError("risk_alleles must contain only 1 or 2")
        if not 0.0 < self.baseline_penetrance < 1.0:
            raise ValueError("baseline_penetrance must be in (0, 1)")
        if self.relative_risk < 1.0:
            raise ValueError("relative_risk must be >= 1")
        if not self.baseline_penetrance <= self.max_penetrance <= 1.0:
            raise ValueError("max_penetrance must be in [baseline_penetrance, 1]")
        if not 0.0 <= self.risk_haplotype_frequency < 1.0:
            raise ValueError("risk_haplotype_frequency must be in [0, 1)")

    @property
    def size(self) -> int:
        """Number of SNPs in the causal haplotype."""
        return len(self.causal_snps)

    def risk_copies(self, haplotype_pair: np.ndarray) -> int:
        """Number of risk-haplotype copies carried by a (2, n_snps) allele-pair."""
        snps = np.asarray(self.causal_snps, dtype=np.intp)
        target = np.asarray(self.risk_alleles, dtype=np.int8)
        copies = 0
        for chrom in range(2):
            if np.array_equal(haplotype_pair[chrom, snps], target):
                copies += 1
        return copies

    def penetrance(self, copies: int) -> float:
        """Disease probability given the number of risk-haplotype copies."""
        if copies < 0:
            raise ValueError("copies must be non-negative")
        return float(min(self.baseline_penetrance * self.relative_risk**copies,
                         self.max_penetrance))


@dataclass(frozen=True)
class SimulatedStudy:
    """A simulated case/control study and its generating truth.

    Attributes
    ----------
    dataset:
        The generated :class:`~repro.genetics.dataset.GenotypeDataset`.
    population_model:
        The neutral population model used.
    disease_model:
        The planted disease model — ``disease_model.causal_snps`` is the
        ground-truth haplotype the search methods should recover.
    seed:
        The RNG seed the study was generated from.
    """

    dataset: GenotypeDataset
    population_model: PopulationModel
    disease_model: DiseaseModel
    seed: int

    @property
    def causal_snps(self) -> tuple[int, ...]:
        return self.disease_model.causal_snps


def simulate_haplotypes(
    model: PopulationModel,
    n_haplotypes: int,
    rng: np.random.Generator,
    allele_frequencies: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate phased haplotypes under the neutral population model.

    Returns
    -------
    numpy.ndarray
        ``(n_haplotypes, n_snps)`` array of allele codes ``1``/``2``.
    """
    if n_haplotypes <= 0:
        raise ValueError("n_haplotypes must be positive")
    if allele_frequencies is None:
        allele_frequencies = model.draw_allele_frequencies(rng)
    freq2 = np.asarray(allele_frequencies, dtype=np.float64)
    if freq2.shape != (model.n_snps,):
        raise ValueError("allele_frequencies must have length n_snps")

    haplos = np.empty((n_haplotypes, model.n_snps), dtype=np.int8)
    fresh = (rng.random((n_haplotypes, model.n_snps)) < freq2).astype(np.int8)  # 1 == allele 2
    copy_mask = rng.random((n_haplotypes, model.n_snps)) < model.within_block_correlation

    carries_2 = np.empty((n_haplotypes, model.n_snps), dtype=np.int8)
    for j in range(model.n_snps):
        if j % model.block_size == 0:
            carries_2[:, j] = fresh[:, j]
        else:
            carries_2[:, j] = np.where(copy_mask[:, j], carries_2[:, j - 1], fresh[:, j])
    haplos[:] = np.where(carries_2 == 1, 2, 1)
    return haplos


def _simulate_individual_batch(
    model: PopulationModel,
    disease: DiseaseModel,
    allele_frequencies: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a batch of individuals; returns (genotypes, affected flags)."""
    h1 = simulate_haplotypes(model, batch_size, rng, allele_frequencies)
    h2 = simulate_haplotypes(model, batch_size, rng, allele_frequencies)
    snps = np.asarray(disease.causal_snps, dtype=np.intp)
    target = np.asarray(disease.risk_alleles, dtype=np.int8)
    if disease.risk_haplotype_frequency > 0.0:
        # plant the intact risk haplotype on a controlled fraction of chromosomes
        for haplotypes in (h1, h2):
            planted = rng.random(batch_size) < disease.risk_haplotype_frequency
            haplotypes[np.ix_(planted, snps)] = target
    carries1 = np.all(h1[:, snps] == target, axis=1)
    carries2 = np.all(h2[:, snps] == target, axis=1)
    copies = carries1.astype(np.int64) + carries2.astype(np.int64)
    pen = np.minimum(
        disease.baseline_penetrance * disease.relative_risk ** copies,
        disease.max_penetrance,
    )
    affected = rng.random(batch_size) < pen
    genotypes = (h1 == 2).astype(np.int8) + (h2 == 2).astype(np.int8)
    return genotypes, affected


def simulate_case_control_study(
    *,
    population_model: PopulationModel,
    disease_model: DiseaseModel,
    n_affected: int,
    n_unaffected: int,
    n_unknown: int = 0,
    missing_rate: float = 0.0,
    seed: int = 0,
    max_batches: int = 10_000,
    batch_size: int = 256,
) -> SimulatedStudy:
    """Simulate a case/control study by rejection sampling to target group sizes.

    Parameters
    ----------
    population_model, disease_model:
        Generating models.
    n_affected, n_unaffected:
        Number of cases and controls to collect.
    n_unknown:
        Additional individuals whose status is recorded as unknown (they are
        drawn from the general population, as in the paper's dataset where 70
        of 176 individuals have unknown status).
    missing_rate:
        Per-genotype probability of being masked as missing.
    seed:
        RNG seed; the whole study is a deterministic function of it.
    max_batches, batch_size:
        Rejection-sampling budget; a :class:`RuntimeError` is raised if the
        target group sizes cannot be reached (e.g. penetrances incompatible
        with the requested case count).
    """
    if n_affected < 0 or n_unaffected < 0 or n_unknown < 0:
        raise ValueError("group sizes must be non-negative")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError("missing_rate must be in [0, 1)")
    if max(disease_model.causal_snps) >= population_model.n_snps:
        raise ValueError("causal SNP index outside the SNP panel")

    rng = np.random.default_rng(seed)
    allele_freqs = population_model.draw_allele_frequencies(rng)

    cases: list[np.ndarray] = []
    controls: list[np.ndarray] = []
    unknowns: list[np.ndarray] = []

    batches = 0
    while (
        len(cases) < n_affected
        or len(controls) < n_unaffected
        or len(unknowns) < n_unknown
    ):
        if batches >= max_batches:
            raise RuntimeError(
                "rejection sampling budget exhausted; the disease model is "
                "incompatible with the requested group sizes"
            )
        genotypes, affected = _simulate_individual_batch(
            population_model, disease_model, allele_freqs, batch_size, rng
        )
        for row, is_case in zip(genotypes, affected):
            if is_case and len(cases) < n_affected:
                cases.append(row)
            elif not is_case and len(controls) < n_unaffected:
                controls.append(row)
            elif len(unknowns) < n_unknown:
                unknowns.append(row)
        batches += 1

    genotype_rows = cases + controls + unknowns
    status = (
        [STATUS_AFFECTED] * n_affected
        + [STATUS_UNAFFECTED] * n_unaffected
        + [STATUS_UNKNOWN] * n_unknown
    )
    genotypes = np.asarray(genotype_rows, dtype=np.int8)
    if genotypes.size == 0:
        genotypes = genotypes.reshape(0, population_model.n_snps)

    if missing_rate > 0.0 and genotypes.size:
        mask = rng.random(genotypes.shape) < missing_rate
        genotypes = np.where(mask, GENOTYPE_MISSING, genotypes).astype(np.int8)

    dataset = GenotypeDataset(
        genotypes,
        np.asarray(status, dtype=np.int8),
        snp_names=[f"snp{i}" for i in range(population_model.n_snps)],
        individual_ids=[f"ind{i}" for i in range(len(status))],
    )
    return SimulatedStudy(
        dataset=dataset,
        population_model=population_model,
        disease_model=disease_model,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Canned studies mirroring the paper's datasets
# --------------------------------------------------------------------------- #
#: Causal SNPs planted in the lille-like study.  They echo the SNP indices the
#: paper reports in its best haplotypes (8, 12, 15, 43 appear repeatedly in
#: Table 2), which makes the reproduced tables easy to compare side by side.
LILLE_CAUSAL_SNPS: tuple[int, ...] = (8, 12, 15, 43)


def lille_like_study(
    *,
    seed: int = 2004,
    n_affected: int = 53,
    n_unaffected: int = 53,
    n_unknown: int = 0,
    n_snps: int = 51,
    relative_risk: float = 5.0,
    risk_haplotype_frequency: float = 0.22,
    missing_rate: float = 0.0,
) -> SimulatedStudy:
    """The 106 × 51 dataset standing in for the paper's Lille diabetes data.

    The default parameters reproduce the paper's reported study: 53 affected
    and 53 healthy individuals typed on 51 SNPs; pass ``n_unknown=70`` to add
    the paper's unknown-status individuals (they do not enter the evaluation).
    """
    causal = tuple(s for s in LILLE_CAUSAL_SNPS if s < n_snps)
    if not causal:
        raise ValueError("n_snps too small for the canned causal haplotype")
    model = PopulationModel(n_snps=n_snps)
    disease = DiseaseModel(
        causal_snps=causal,
        risk_alleles=tuple(2 for _ in causal),
        baseline_penetrance=0.08,
        relative_risk=relative_risk,
        risk_haplotype_frequency=risk_haplotype_frequency,
    )
    return simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=n_affected,
        n_unaffected=n_unaffected,
        n_unknown=n_unknown,
        missing_rate=missing_rate,
        seed=seed,
    )


def large_study_249(
    *,
    seed: int = 2004,
    n_affected: int = 53,
    n_unaffected: int = 53,
    n_unknown: int = 70,
    relative_risk: float = 5.0,
    risk_haplotype_frequency: float = 0.22,
) -> SimulatedStudy:
    """A 249-SNP study mirroring the paper's larger data files."""
    n_snps = 249
    causal = (8, 57, 112, 201)
    model = PopulationModel(n_snps=n_snps)
    disease = DiseaseModel(
        causal_snps=causal,
        risk_alleles=tuple(2 for _ in causal),
        baseline_penetrance=0.08,
        relative_risk=relative_risk,
        risk_haplotype_frequency=risk_haplotype_frequency,
    )
    return simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=n_affected,
        n_unaffected=n_unaffected,
        n_unknown=n_unknown,
        seed=seed,
    )
