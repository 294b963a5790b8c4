"""Edge-case and failure-injection tests across the pipeline.

Real genotype data is messy: missing genotypes, monomorphic SNPs, tiny
groups, perfectly duplicated markers.  These tests check that every stage of
the pipeline — LD, EM, CLUMP, the evaluator and the GA — degrades gracefully
instead of crashing or producing invalid statistics.
"""

import numpy as np
import pytest

from repro.core.config import GAConfig
from repro.core.ga import AdaptiveMultiPopulationGA
from repro.genetics.alleles import GENOTYPE_MISSING
from repro.genetics.dataset import GenotypeDataset
from repro.genetics.frequencies import allele_frequencies
from repro.genetics.ld import pairwise_ld
from repro.genetics.simulate import (
    DiseaseModel,
    PopulationModel,
    lille_like_study,
    simulate_case_control_study,
)
from repro.scan import run_scan
from repro.stats.ehdiall import run_ehdiall
from repro.stats.evaluation import HaplotypeEvaluator


@pytest.fixture(scope="module")
def messy_study():
    """A small study with 10% missing genotypes."""
    model = PopulationModel(n_snps=10, block_size=3)
    disease = DiseaseModel(
        causal_snps=(1, 4), risk_alleles=(2, 2),
        baseline_penetrance=0.1, relative_risk=5.0, risk_haplotype_frequency=0.3,
    )
    return simulate_case_control_study(
        population_model=model, disease_model=disease,
        n_affected=25, n_unaffected=25, missing_rate=0.10, seed=13,
    )


@pytest.fixture(scope="module")
def failed_snp_dataset():
    """The serve-smoke panel with SNP 4 missing for everyone (a failed SNP)."""
    dataset = lille_like_study(seed=9, n_affected=12, n_unaffected=12, n_snps=14).dataset
    genotypes = dataset.genotypes.copy()
    genotypes[:, 4] = GENOTYPE_MISSING
    return GenotypeDataset(genotypes, dataset.status)


class TestMissingData:
    def test_evaluation_with_missing_genotypes(self, messy_study):
        evaluator = HaplotypeEvaluator(messy_study.dataset)
        record = evaluator.evaluate_detailed((1, 4, 7))
        assert np.isfinite(record.fitness)
        assert record.fitness >= 0.0
        # the expected counts cover only the complete-data individuals
        assert record.table.total <= 2 * messy_study.dataset.n_individuals

    def test_ehdiall_uses_only_complete_rows(self, messy_study):
        result = run_ehdiall(messy_study.dataset, (0, 1, 2))
        assert result.n_individuals <= messy_study.dataset.n_individuals
        assert result.n_individuals > 0
        assert result.haplotype_frequencies.sum() == pytest.approx(1.0)

    def test_ga_runs_on_missing_data(self, messy_study):
        evaluator = HaplotypeEvaluator(messy_study.dataset)
        config = GAConfig(
            population_size=16, min_haplotype_size=2, max_haplotype_size=3,
            termination_stagnation=3, max_generations=6, seed=1,
        )
        result = AdaptiveMultiPopulationGA(
            evaluator, n_snps=10, config=config
        ).run()
        assert set(result.best_per_size) == {2, 3}

    def test_all_missing_at_selected_snps(self):
        genotypes = np.array(
            [[-1, 0, 1], [-1, 1, 1], [-1, 2, 0], [-1, 0, 2]], dtype=np.int8
        )
        dataset = GenotypeDataset(genotypes, [1, 1, 0, 0])
        result = run_ehdiall(dataset, (0,))
        assert result.n_individuals == 0
        assert result.h1_log_likelihood == 0.0

    @pytest.mark.parametrize("statistic", ["t1", "t2", "t3", "t4"])
    def test_haplotype_with_a_failed_snp_scores_zero(self, failed_snp_dataset, statistic):
        # no individual is typed at every SNP: an empty table, no evidence
        batch = [(3, 4), (4, 5, 6), (0, 3)]
        many = HaplotypeEvaluator(failed_snp_dataset, statistic=statistic).evaluate_many(batch)
        evaluator = HaplotypeEvaluator(failed_snp_dataset, statistic=statistic)
        single = [evaluator.evaluate(snps) for snps in batch]
        record = evaluator.evaluate_detailed((3, 4))
        assert many == single
        assert many[:2] == [0.0, 0.0] and many[2] > 0.0
        assert record.fitness == 0.0 and record.table.total == 0.0
        result = getattr(record.clump, statistic)
        assert (result.statistic, result.df, result.p_value) == (0.0, 0, 1.0)
        assert evaluator.significance((3, 4), n_simulations=5) == {
            name: 1.0 for name in ("t1", "t2", "t3", "t4")
        }

    def test_scan_over_a_failed_snp_completes(self, failed_snp_dataset):
        config = GAConfig(
            population_size=8, min_haplotype_size=2, max_haplotype_size=3,
            termination_stagnation=2, max_generations=3, point_mutation_trials=1,
        )
        reports = [
            run_scan(failed_snp_dataset, window_size=6, overlap=3, config=config,
                     seed=11, **substrate)
            for substrate in ({}, {"backend": "process-shm", "n_workers": 2})
        ]
        assert reports[0].fingerprint() == reports[1].fingerprint()


class TestDegenerateMarkers:
    def test_monomorphic_snp_ld_is_zero(self):
        genotypes = np.column_stack([
            np.zeros(40, dtype=np.int8),                       # monomorphic SNP
            np.random.default_rng(0).integers(0, 3, 40).astype(np.int8),
        ])
        dataset = GenotypeDataset(genotypes, [1] * 20 + [0] * 20)
        stats = pairwise_ld(dataset, 0, 1)
        assert stats.r_squared == pytest.approx(0.0)
        assert np.isfinite(stats.d)

    def test_monomorphic_snp_evaluation_is_finite(self):
        rng = np.random.default_rng(1)
        genotypes = np.column_stack([
            np.full(40, 2, dtype=np.int8),                     # fixed allele 2
            rng.integers(0, 3, 40).astype(np.int8),
            rng.integers(0, 3, 40).astype(np.int8),
        ])
        dataset = GenotypeDataset(genotypes, [1] * 20 + [0] * 20)
        evaluator = HaplotypeEvaluator(dataset)
        value = evaluator.evaluate((0, 1))
        assert np.isfinite(value)
        assert value >= 0.0

    def test_duplicated_marker_has_perfect_ld(self):
        rng = np.random.default_rng(2)
        column = rng.integers(0, 3, 60).astype(np.int8)
        dataset = GenotypeDataset(np.column_stack([column, column]), [1] * 30 + [0] * 30)
        stats = pairwise_ld(dataset, 0, 1)
        assert stats.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_allele_frequency_of_constant_marker(self):
        dataset = GenotypeDataset(np.zeros((10, 1), dtype=np.int8), [1] * 5 + [0] * 5)
        assert allele_frequencies(dataset)[0] == pytest.approx(0.0)


class TestTinyGroups:
    def test_evaluator_with_minimal_groups(self):
        rng = np.random.default_rng(3)
        genotypes = rng.integers(0, 3, size=(4, 6)).astype(np.int8)
        dataset = GenotypeDataset(genotypes, [1, 1, 0, 0])
        evaluator = HaplotypeEvaluator(dataset)
        assert np.isfinite(evaluator.evaluate((0, 1)))

    def test_unknown_status_individuals_do_not_enter_evaluation(self, messy_study):
        dataset = messy_study.dataset
        with_unknown = GenotypeDataset(
            np.vstack([dataset.genotypes, dataset.genotypes[:5]]),
            np.concatenate([dataset.status, np.full(5, GENOTYPE_MISSING, dtype=np.int8)]),
        )
        a = HaplotypeEvaluator(dataset).evaluate((1, 4))
        b = HaplotypeEvaluator(with_unknown).evaluate((1, 4))
        assert a == pytest.approx(b)

    def test_single_snp_panel_ga_rejected(self, messy_study):
        evaluator = HaplotypeEvaluator(messy_study.dataset)
        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(evaluator, n_snps=1)
