"""Cross-module consistency and invariance properties.

These tests tie independent implementations of the same quantity to each
other (e.g. the specialised two-locus EM used for LD against the general
multi-locus EM used by EH-DIALL) and check invariances that any correct
implementation of the pipeline must satisfy (permutation of individuals,
ordering of SNPs, relabelling of contingency-table columns).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genetics.dataset import GenotypeDataset
from repro.genetics.ld import two_locus_haplotype_frequencies
from repro.stats.chi2 import pearson_chi2
from repro.stats.clump import t1_statistic, t4_statistic
from repro.stats.contingency import ContingencyTable
from repro.stats.ehdiall import h0_frequencies
from repro.stats.em import estimate_haplotype_frequencies
from repro.stats.evaluation import HaplotypeEvaluator


def _random_genotypes(rng, n_individuals, n_loci, missing_rate=0.0):
    p = rng.uniform(0.2, 0.8, size=n_loci)
    h1 = (rng.random((n_individuals, n_loci)) < p).astype(np.int8)
    h2 = (rng.random((n_individuals, n_loci)) < p).astype(np.int8)
    genotypes = (h1 + h2).astype(np.int8)
    if missing_rate:
        mask = rng.random(genotypes.shape) < missing_rate
        genotypes = np.where(mask, -1, genotypes).astype(np.int8)
    return genotypes


class TestEMConsistency:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_two_locus_em_matches_general_em(self, seed):
        """ld.two_locus_haplotype_frequencies and stats.em agree on 2 loci."""
        rng = np.random.default_rng(seed)
        genotypes = _random_genotypes(rng, 60, 2, missing_rate=0.05)
        pair_freqs, n_chrom = two_locus_haplotype_frequencies(
            genotypes[:, 0], genotypes[:, 1], max_iter=500
        )
        em = estimate_haplotype_frequencies(genotypes, max_iter=500, tol=1e-12)
        # map the general EM's state indexing (bit i = allele 2 at locus i) onto
        # the (allele at locus 1, allele at locus 2) table of the two-locus EM
        general = np.array(
            [
                [em.frequencies[0], em.frequencies[2]],  # allele 1 at locus 0
                [em.frequencies[1], em.frequencies[3]],  # allele 2 at locus 0
            ]
        )
        if n_chrom == 0:
            return
        np.testing.assert_allclose(general, pair_freqs, atol=5e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
    def test_h0_frequencies_form_a_distribution(self, seed, n_loci):
        rng = np.random.default_rng(seed)
        freqs = h0_frequencies(rng.uniform(0.0, 1.0, size=n_loci))
        assert freqs.shape == (2**n_loci,)
        assert np.all(freqs >= 0)
        assert freqs.sum() == pytest.approx(1.0)


class TestEvaluationInvariances:
    def test_invariant_to_snp_order(self, small_evaluator, rng):
        for _ in range(3):
            snps = rng.choice(14, size=4, replace=False).tolist()
            shuffled = list(snps)
            rng.shuffle(shuffled)
            assert small_evaluator.evaluate(snps) == pytest.approx(
                small_evaluator.evaluate(shuffled)
            )

    def test_invariant_to_individual_permutation(self, small_dataset, rng):
        order = rng.permutation(small_dataset.n_individuals)
        permuted = small_dataset.select_individuals(order)
        a = HaplotypeEvaluator(small_dataset).evaluate((2, 5, 9))
        b = HaplotypeEvaluator(permuted).evaluate((2, 5, 9))
        assert a == pytest.approx(b, rel=1e-9)

    def test_snp_relabelling_does_not_change_fitness(self, small_dataset):
        """Evaluating columns (5, 9) equals evaluating the same columns after
        reordering the dataset's SNPs, with indices mapped accordingly."""
        reordered = small_dataset.select_snps([9, 5, 0, 1])
        a = HaplotypeEvaluator(small_dataset).evaluate((5, 9))
        b = HaplotypeEvaluator(reordered).evaluate((0, 1))
        assert a == pytest.approx(b, rel=1e-9)

    def test_swapping_case_control_labels_preserves_t1(self, small_dataset):
        """T1 is symmetric in the two rows of the table."""
        flipped_status = np.where(small_dataset.status == 1, 0, 1).astype(np.int8)
        flipped = GenotypeDataset(
            small_dataset.genotypes.copy(), flipped_status,
            snp_names=small_dataset.snp_names,
        )
        a = HaplotypeEvaluator(small_dataset).evaluate((2, 5, 9))
        b = HaplotypeEvaluator(flipped).evaluate((2, 5, 9))
        assert a == pytest.approx(b, rel=1e-9)


@st.composite
def _evaluation_workload(draw):
    """A small panel plus a request stream with repeats, for cache stress."""
    n_snps = draw(st.integers(min_value=3, max_value=8))
    n_affected = draw(st.integers(min_value=2, max_value=15))
    n_unaffected = draw(st.integers(min_value=2, max_value=15))
    missing_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    genotypes = _random_genotypes(
        rng, n_affected + n_unaffected, n_snps, missing_rate=missing_rate
    )
    status = np.array([1] * n_affected + [0] * n_unaffected, dtype=np.int8)
    haplotype = st.lists(
        st.integers(min_value=0, max_value=n_snps - 1),
        min_size=1, max_size=min(n_snps, 4), unique=True,
    ).map(lambda snps: tuple(sorted(snps)))
    distinct = draw(st.lists(haplotype, min_size=1, max_size=6, unique=True))
    requests = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=25))
    return GenotypeDataset(genotypes, status), requests


class TestFitnessIsPure:
    @settings(max_examples=60, deadline=None)
    @given(
        _evaluation_workload(),
        st.sampled_from([0, 1, 2]),
        st.sampled_from(["t1", "lrt"]),
        st.integers(min_value=1, max_value=5),
    )
    def test_value_survives_cache_eviction(self, workload, cache_size, statistic, chunk):
        """Tiny caches evict and re-evaluate constantly; no value may move.

        Requests go to one small-cache evaluator in chunks, alternating the
        scalar ``evaluate`` loop and the batched ``evaluate_many``; every
        value must equal a fresh evaluator's value for that haplotype.
        """
        dataset, requests = workload
        stressed = HaplotypeEvaluator(dataset, statistic=statistic, cache_size=cache_size)
        values: list[float] = []
        for number, start in enumerate(range(0, len(requests), chunk)):
            part = requests[start: start + chunk]
            if number % 2:
                values += stressed.evaluate_many(part)
            else:
                values += [stressed.evaluate(snps) for snps in part]
        fresh = {
            snps: HaplotypeEvaluator(dataset, statistic=statistic).evaluate(snps)
            for snps in set(requests)
        }
        np.testing.assert_array_equal(values, [fresh[snps] for snps in requests])


class TestContingencyInvariances:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_statistics_invariant_to_column_permutation(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 30, size=(2, 8)).astype(float)
        if counts.sum(axis=1).min() == 0 or counts.sum() == 0:
            return
        table = ContingencyTable(counts)
        order = rng.permutation(8)
        permuted = ContingencyTable(counts[:, order])
        assert t1_statistic(table).statistic == pytest.approx(
            t1_statistic(permuted).statistic
        )
        assert t4_statistic(table).statistic == pytest.approx(
            t4_statistic(permuted).statistic
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chi2_scales_linearly_with_counts(self, seed):
        """Doubling every cell doubles the Pearson statistic (homogeneity)."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 30, size=(2, 5)).astype(float)
        base = pearson_chi2(ContingencyTable(counts)).statistic
        doubled = pearson_chi2(ContingencyTable(2 * counts)).statistic
        assert doubled == pytest.approx(2 * base, rel=1e-9)
