"""Micro-benchmarks of the substrates (not a paper table; performance guards).

These benchmarks track the cost of the individual pipeline stages — the
haplotype-frequency EM, the CLUMP statistics, the pairwise LD matrix and the
end-to-end evaluation — so that regressions in the expensive inner loops are
visible independently of the GA-level experiments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.genetics.ld import ld_matrix
from repro.stats.clump import clump_statistics, monte_carlo_p_values
from repro.stats.contingency import ContingencyTable
from repro.stats.em import estimate_haplotype_frequencies
from repro.stats.evaluation import HaplotypeEvaluator


@pytest.mark.parametrize("n_loci", (3, 5, 7))
def test_em_haplotype_frequencies(benchmark, study, n_loci):
    genotypes = study.dataset.genotypes_at(tuple(range(n_loci)))
    result = benchmark(estimate_haplotype_frequencies, genotypes)
    assert result.frequencies.sum() == pytest.approx(1.0)


def test_clump_statistics(benchmark):
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 25, size=(2, 32)).astype(float)
    table = ContingencyTable(counts)

    def all_statistics():
        # the result is lazy: read every statistic and p-value so the timing
        # covers the CLUMP computation, not just building the object
        result = clump_statistics(table)
        return [(s.statistic, s.p_value) for s in (result.t1, result.t2, result.t3, result.t4)]

    values = benchmark(all_statistics)
    assert all(statistic >= 0.0 and 0.0 <= p <= 1.0 for statistic, p in values)


def test_clump_monte_carlo(benchmark):
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 25, size=(2, 16)).astype(float)
    table = ContingencyTable(counts)
    p_values = benchmark.pedantic(
        monte_carlo_p_values,
        kwargs=dict(table=table, n_simulations=200, seed=0),
        rounds=1,
        iterations=1,
    )
    assert all(0 < p <= 1 for p in p_values.values())


def test_pairwise_ld_matrix(benchmark, study):
    subset = study.dataset.select_snps(range(20))
    matrix = benchmark.pedantic(ld_matrix, args=(subset,), rounds=1, iterations=1)
    assert matrix.shape == (20, 20)


def test_end_to_end_evaluation_size5(benchmark, evaluator):
    value = benchmark(evaluator.evaluate, (3, 11, 22, 35, 47))
    assert value >= 0.0


def test_evaluator_construction(benchmark, study):
    evaluator = benchmark(HaplotypeEvaluator, study.dataset)
    assert evaluator.n_snps == study.dataset.n_snps
