"""Tests of the full haplotype evaluation pipeline (paper Figure 3)."""

import numpy as np
import pytest

from repro.genetics.dataset import GenotypeDataset
from repro.stats.evaluation import HaplotypeEvaluator

from conftest import SMALL_CAUSAL


class TestConstruction:
    def test_rejects_unknown_statistic(self, small_dataset):
        with pytest.raises(ValueError):
            HaplotypeEvaluator(small_dataset, statistic="t9")

    def test_rejects_single_group_dataset(self, small_dataset):
        affected_only = small_dataset.affected()
        with pytest.raises(ValueError):
            HaplotypeEvaluator(affected_only)


class TestValidation:
    def test_rejects_empty_haplotype(self, small_evaluator):
        with pytest.raises(ValueError):
            small_evaluator.evaluate(())

    def test_rejects_duplicates(self, small_evaluator):
        with pytest.raises(ValueError):
            small_evaluator.evaluate((1, 1, 2))

    def test_rejects_out_of_range(self, small_evaluator):
        with pytest.raises(ValueError):
            small_evaluator.evaluate((0, 99))


class TestEvaluation:
    def test_deterministic(self, small_evaluator):
        assert small_evaluator.evaluate((0, 3, 7)) == small_evaluator.evaluate((0, 3, 7))

    def test_order_invariant(self, small_evaluator):
        assert small_evaluator.evaluate((7, 0, 3)) == small_evaluator.evaluate((0, 3, 7))

    def test_callable_interface(self, small_evaluator):
        assert small_evaluator((0, 1)) == small_evaluator.evaluate((0, 1))

    def test_planted_haplotype_beats_random(self, small_evaluator):
        causal = small_evaluator.evaluate(SMALL_CAUSAL)
        random_hap = small_evaluator.evaluate((0, 6, 12))
        assert causal > random_hap

    def test_detailed_record_consistency(self, small_evaluator):
        record = small_evaluator.evaluate_detailed(SMALL_CAUSAL)
        assert record.snps == tuple(sorted(SMALL_CAUSAL))
        assert record.size == len(SMALL_CAUSAL)
        assert record.fitness == pytest.approx(record.clump.statistic("t1"))
        assert record.table.counts.shape == (2, 2 ** len(SMALL_CAUSAL))
        assert record.elapsed_seconds >= 0.0
        # contingency rows carry one expected count per chromosome of each group
        dataset = small_evaluator.dataset
        assert record.table.row_totals[0] == pytest.approx(2 * dataset.n_affected)
        assert record.table.row_totals[1] == pytest.approx(2 * dataset.n_unaffected)

    def test_statistic_selection_changes_fitness(self, small_dataset):
        t1_eval = HaplotypeEvaluator(small_dataset, statistic="t1")
        t4_eval = HaplotypeEvaluator(small_dataset, statistic="t4")
        record = t1_eval.evaluate_detailed(SMALL_CAUSAL)
        assert t4_eval.evaluate(SMALL_CAUSAL) == pytest.approx(record.clump.statistic("t4"))

    def test_counter_increments(self, small_dataset):
        evaluator = HaplotypeEvaluator(small_dataset)
        assert evaluator.n_evaluations == 0
        evaluator.evaluate((0, 1))
        evaluator.evaluate((2, 3))
        assert evaluator.n_evaluations == 2
        evaluator.reset_counter()
        assert evaluator.n_evaluations == 0

    def test_fitness_grows_with_haplotype_size(self, small_evaluator):
        """The paper's key observation: the fitness scale grows with the size."""
        rng = np.random.default_rng(0)
        means = []
        for size in (2, 4):
            values = []
            for _ in range(12):
                snps = tuple(sorted(rng.choice(14, size=size, replace=False).tolist()))
                values.append(small_evaluator.evaluate(snps))
            means.append(np.mean(values))
        assert means[1] > means[0]

    def test_build_table_matches_detailed(self, small_evaluator):
        table = small_evaluator.build_table((0, 1, 2))
        record = small_evaluator.evaluate_detailed((0, 1, 2))
        np.testing.assert_allclose(table.counts, record.table.counts)

    def test_default_lrt_matches_cold_pooled_fit(self, small_dataset):
        """The LRT must equal three cold EM fits.

        Regression guard: a warm-started pooled EM can stall in a different
        optimum and shift the statistic, so the evaluator starts every EM
        from the uniform distribution and reproduces the seed pipeline's
        values.
        """
        from repro.stats.ehdiall import run_ehdiall

        snps = (0, 3, 7)
        evaluator = HaplotypeEvaluator(small_dataset, statistic="lrt")
        affected = run_ehdiall(small_dataset.affected(), snps)
        unaffected = run_ehdiall(small_dataset.unaffected(), snps)
        pooled = run_ehdiall(small_dataset.with_known_status(), snps)
        expected = max(
            2.0 * (affected.h1_log_likelihood + unaffected.h1_log_likelihood
                   - pooled.h1_log_likelihood),
            0.0,
        )
        assert evaluator.evaluate(snps) == pytest.approx(expected, abs=1e-6)


class TestSignificance:
    def test_planted_haplotype_is_significant(self, small_evaluator):
        p = small_evaluator.significance(SMALL_CAUSAL, n_simulations=200, seed=4)
        assert p["t1"] < 0.05


class TestPickling:
    def test_evaluator_survives_pickling(self, small_evaluator):
        import pickle

        clone = pickle.loads(pickle.dumps(small_evaluator))
        assert clone.evaluate(SMALL_CAUSAL) == pytest.approx(
            small_evaluator.evaluate(SMALL_CAUSAL)
        )
