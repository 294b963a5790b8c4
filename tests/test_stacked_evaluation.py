"""The generation-batched evaluation path: ``evaluate_many`` and its consumers.

``HaplotypeEvaluator.evaluate_many`` must be observably identical to the
sequential ``evaluate`` loop — same fitness values (bit-identical, courtesy of
the stacked kernel's exact parity), same cache population, same
``n_evaluations``/``n_em_runs`` accounting — across every statistic and
warm-start mode.  On top of that sit the routing layers: the serial evaluator
(and therefore every farm slave's chunk fast path) must send distinct batches
through it and surface the stacked-EM counters in
:class:`~repro.parallel.base.EvaluationStats`, and the cost-model-driven farm
chunking must never change values or counter parity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.base import EvaluationStats, evaluate_batch_with
from repro.parallel.farm import cost_balanced_chunks
from repro.parallel.master_slave import MasterSlaveEvaluator
from repro.parallel.pvm import EvaluationCostModel
from repro.parallel.serial import SerialEvaluator
from repro.runtime.service import backend_summary_line
from repro.stats.ehdiall import ehdiall_batch, ehdiall_from_expansion
from repro.stats.em import expand_phases
from repro.stats.evaluation import HaplotypeEvaluator


def _random_batch(n_snps: int, count: int, seed: int, sizes=(2, 7)) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    return [
        sorted(
            rng.choice(n_snps, size=int(rng.integers(sizes[0], sizes[1])), replace=False).tolist()
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def batch(small_dataset):
    return _random_batch(small_dataset.n_snps, 40, seed=7)


class TestEvaluateMany:
    @pytest.mark.parametrize(
        "statistic,warm_start",
        [
            ("t1", False),
            ("t2", False),
            ("t3", False),
            ("t4", False),
            ("lrt", False),
            ("lrt", True),
            ("t1", "full"),
            ("lrt", "full"),
        ],
    )
    def test_matches_sequential_loop(self, small_dataset, batch, statistic, warm_start):
        sequential = HaplotypeEvaluator(
            small_dataset, statistic=statistic, warm_start=warm_start
        )
        batched = HaplotypeEvaluator(
            small_dataset, statistic=statistic, warm_start=warm_start
        )
        expected = [sequential.evaluate(snps) for snps in batch]
        actual = batched.evaluate_many(batch)
        assert actual == expected  # bit-identical, not approx
        assert batched.n_evaluations == sequential.n_evaluations
        assert batched.n_em_runs == sequential.n_em_runs
        assert batched.n_stacked_em >= 1
        assert batched.n_stacked_problems >= len(set(map(tuple, batch)))

    @pytest.mark.parametrize("statistic", ["t1", "t2", "t3", "t4"])
    def test_computes_only_the_selected_statistic(
        self, small_dataset, batch, statistic, monkeypatch
    ):
        """The fitness path computes one CLUMP statistic, no p-value and no label."""
        expected = HaplotypeEvaluator(small_dataset, statistic=statistic).evaluate_many(batch)

        def forbidden(*args, **kwargs):
            raise AssertionError("computed a value the fitness does not read")

        for other in {"t1", "t2", "t3", "t4"} - {statistic}:
            monkeypatch.setattr(f"repro.stats.clump.{other}_statistic", forbidden)
        for module in ("repro.stats.chi2", "repro.stats.ehdiall"):
            monkeypatch.setattr(f"{module}.chi2_sf", forbidden)
        monkeypatch.setattr("repro.stats.evaluation.all_haplotype_labels", forbidden)
        evaluator = HaplotypeEvaluator(small_dataset, statistic=statistic)
        assert evaluator.evaluate_many(batch) == expected

    @pytest.mark.parametrize("statistic", ["t1", "t2", "t3", "t4", "lrt"])
    def test_fitness_path_computes_no_h0(self, small_dataset, batch, statistic, monkeypatch):
        """No fitness reads EH-DIALL's H0 side, so no fitness computes it."""
        expected = HaplotypeEvaluator(small_dataset, statistic=statistic).evaluate_many(batch)

        def forbidden(*args, **kwargs):
            raise AssertionError("computed an H0 value the fitness does not read")

        monkeypatch.setattr("repro.stats.ehdiall.h0_frequencies", forbidden)
        monkeypatch.setattr("repro.stats.ehdiall.expansion_log_likelihood", forbidden)
        monkeypatch.setattr("repro.stats.em.PhaseExpansion.allele_frequencies", forbidden)
        evaluator = HaplotypeEvaluator(small_dataset, statistic=statistic)
        assert evaluator.evaluate_many(batch) == expected

    def test_duplicates_collapse_like_the_result_cache(self, small_dataset):
        base = _random_batch(small_dataset.n_snps, 10, seed=11)
        batch = base + base[:4]
        sequential = HaplotypeEvaluator(small_dataset)
        batched = HaplotypeEvaluator(small_dataset)
        expected = [sequential.evaluate(snps) for snps in batch]
        assert batched.evaluate_many(batch) == expected
        assert batched.n_evaluations == len(batch)
        assert batched.n_em_runs == sequential.n_em_runs

    def test_caches_disabled_refits_every_request(self, small_dataset):
        base = _random_batch(small_dataset.n_snps, 6, seed=12)
        batch = base + base[:3]
        sequential = HaplotypeEvaluator(small_dataset, cache_size=0)
        batched = HaplotypeEvaluator(small_dataset, cache_size=0)
        expected = [sequential.evaluate(snps) for snps in batch]
        assert batched.evaluate_many(batch) == expected
        # with reuse off, the sequential loop refits duplicates — so must we
        assert batched.n_em_runs == sequential.n_em_runs

    def test_batch_of_one_matches_scalar(self, small_dataset):
        evaluator = HaplotypeEvaluator(small_dataset)
        [value] = evaluator.evaluate_many([[1, 4, 6]])
        assert value == HaplotypeEvaluator(small_dataset).evaluate([1, 4, 6])
        # even one candidate has two group problems worth stacking
        assert evaluator.n_stacked_em == 1
        assert evaluator.n_stacked_problems == 2

    def test_populates_the_same_caches(self, small_dataset, batch):
        batched = HaplotypeEvaluator(small_dataset)
        batched.evaluate_many(batch)
        runs_after_batch = batched.n_em_runs
        # every candidate is now answered from the result cache
        for snps in batch:
            batched.evaluate(snps)
        assert batched.n_em_runs == runs_after_batch

    def test_empty_batch(self, small_dataset):
        assert HaplotypeEvaluator(small_dataset).evaluate_many([]) == []

    def test_validation_still_applies(self, small_dataset):
        evaluator = HaplotypeEvaluator(small_dataset)
        with pytest.raises(ValueError):
            evaluator.evaluate_many([[0, 1], [3, 3]])
        with pytest.raises(ValueError):
            evaluator.evaluate_many([[0, small_dataset.n_snps]])

    def test_interleaves_with_sequential_use(self, small_dataset, batch):
        # a mixed call pattern must stay consistent with the pure loop
        reference = HaplotypeEvaluator(small_dataset)
        mixed = HaplotypeEvaluator(small_dataset)
        expected = [reference.evaluate(snps) for snps in batch]
        half = len(batch) // 2
        first = [mixed.evaluate(snps) for snps in batch[:5]]
        middle = mixed.evaluate_many(batch[:half])
        rest = mixed.evaluate_many(batch[half:])
        assert first == expected[:5]
        assert middle + rest == expected


class TestEhdiallBatch:
    def test_matches_scalar_results(self, small_dataset):
        affected = small_dataset.affected()
        expansions = [
            expand_phases(affected.genotypes_at(np.asarray(snps)))
            for snps in _random_batch(small_dataset.n_snps, 8, seed=21)
        ]
        batched = ehdiall_batch(expansions)
        for expansion, result in zip(expansions, batched):
            scalar = ehdiall_from_expansion(expansion)
            assert result.h1_log_likelihood == scalar.h1_log_likelihood
            assert result.h0_log_likelihood == scalar.h0_log_likelihood
            assert result.lrt_statistic == scalar.lrt_statistic
            assert result.lrt_p_value == scalar.lrt_p_value
            np.testing.assert_array_equal(
                result.allele_frequencies, scalar.allele_frequencies
            )
            assert result.em.n_iterations == scalar.em.n_iterations
            np.testing.assert_array_equal(
                result.em.frequencies, scalar.em.frequencies
            )

    def test_empty_class_expansion_routed_scalar(self, small_dataset):
        # a hand-built expansion with an empty genotype class breaks the
        # contiguous segmented reduction (_can_reduceat is False), so it must
        # take the scalar kernel's bincount fallback instead of joining the
        # stack — where its empty segment would corrupt the reduction
        from repro.stats.em import PhaseExpansion

        affected = small_dataset.affected()
        base = expand_phases(affected.genotypes_at(np.asarray([0, 1])))
        with_empty_class = PhaseExpansion(
            n_loci=base.n_loci,
            class_counts=np.append(base.class_counts, 2),
            pair_a=base.pair_a,
            pair_b=base.pair_b,
            pair_class=base.pair_class,
            pair_multiplicity=base.pair_multiplicity,
            class_genotypes=np.vstack(
                [base.class_genotypes, np.array([[1, 1]], dtype=base.class_genotypes.dtype)]
            ),
        )
        assert not with_empty_class._can_reduceat
        normal = expand_phases(affected.genotypes_at(np.asarray([2, 3])))
        batched = ehdiall_batch([with_empty_class, normal, normal])
        scalar = ehdiall_from_expansion(with_empty_class)
        assert batched[0].h1_log_likelihood == scalar.h1_log_likelihood
        assert batched[0].em.n_iterations == scalar.em.n_iterations
        assert batched[1].h1_log_likelihood == batched[2].h1_log_likelihood

    def test_initial_frequencies_length_checked(self, small_dataset):
        affected = small_dataset.affected()
        expansions = [
            expand_phases(affected.genotypes_at(np.asarray(snps)))
            for snps in _random_batch(small_dataset.n_snps, 3, seed=22)
        ]
        with pytest.raises(ValueError):
            ehdiall_batch(expansions, initial_frequencies=[None])


class TestBatchedRouting:
    def test_serial_evaluator_routes_and_counts(self, small_dataset, batch):
        evaluator = HaplotypeEvaluator(small_dataset)
        serial = SerialEvaluator(evaluator)
        reference = [HaplotypeEvaluator(small_dataset).evaluate(snps) for snps in batch]
        assert serial.evaluate_batch(batch) == reference
        assert serial.stats.n_stacked_em == evaluator.n_stacked_em > 0
        assert serial.stats.n_stacked_problems == evaluator.n_stacked_problems
        assert serial.stats.mean_stacked_batch_size > 1.0

    def test_single_distinct_batch_skips_stacking(self, small_dataset):
        serial = SerialEvaluator(HaplotypeEvaluator(small_dataset))
        values = serial.evaluate_batch([[2, 5, 9]] * 6)
        assert len(set(values)) == 1
        assert serial.stats.n_stacked_em == 0
        assert serial.stats.n_dedup_hits == 5

    def test_plain_callable_unaffected(self):
        calls = []

        def fitness(snps):
            calls.append(tuple(snps))
            return float(sum(snps))

        values, stacked_calls, stacked_problems = evaluate_batch_with(
            fitness, [(0, 1), (2, 3)]
        )
        assert values == [1.0, 5.0]
        assert stacked_calls == stacked_problems == 0
        assert len(calls) == 2

    def test_farm_backend_parity_and_counters(self, small_dataset, batch):
        serial = SerialEvaluator(HaplotypeEvaluator(small_dataset))
        reference = serial.evaluate_batch(batch)
        with MasterSlaveEvaluator(HaplotypeEvaluator(small_dataset), n_workers=2) as farm:
            assert farm.evaluate_batch(batch) == reference
            assert farm.stats.counters() == serial.stats.counters()
            assert farm.stats.n_stacked_em >= 1

    def test_cost_chunked_steal_farm_parity(self, small_dataset, batch):
        serial = SerialEvaluator(HaplotypeEvaluator(small_dataset))
        reference = serial.evaluate_batch(batch)
        with MasterSlaveEvaluator(
            HaplotypeEvaluator(small_dataset),
            n_workers=2,
            steal=True,
            cost_model=EvaluationCostModel(),
        ) as farm:
            assert farm.evaluate_batch(batch) == reference
            assert farm.stats.counters() == serial.stats.counters()


class TestCostBalancedChunks:
    def test_equalises_modelled_cost(self):
        model = EvaluationCostModel()
        sizes = [3, 3, 3, 3, 7, 3, 3, 3, 3, 7, 3, 3]
        costs = [model.cost(s) for s in sizes]
        target = sum(costs) / 4
        chunks = cost_balanced_chunks(list(range(len(sizes))), costs, target)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(sizes)))
        # every chunk but the last carries at least the target's worth of work
        for chunk in chunks[:-1]:
            assert sum(costs[i] for i in chunk) >= target
        # an expensive size-7 haplotype must not drag a long cheap tail with it
        for chunk in chunks:
            chunk_costs = [costs[i] for i in chunk]
            if max(chunk_costs) == model.cost(7):
                assert len(chunk) <= 6

    def test_degenerate_inputs(self):
        assert cost_balanced_chunks([], [], 1.0) == []
        assert cost_balanced_chunks([1, 2], [0.1, 0.1], 0.0) == [[1, 2]]
        assert cost_balanced_chunks([5], [9.0], 1.0) == [[5]]

    def test_explicit_chunk_size_unchanged(self, small_dataset, batch):
        # a fixed chunk_size must keep the count-based slicing exactly
        with MasterSlaveEvaluator(
            HaplotypeEvaluator(small_dataset),
            n_workers=2,
            chunk_size=3,
        ) as farm:
            reference = SerialEvaluator(HaplotypeEvaluator(small_dataset)).evaluate_batch(batch)
            assert farm.evaluate_batch(batch) == reference


class TestStackedStats:
    def test_merge_since_copy_cover_stacked_counters(self):
        stats = EvaluationStats()
        stats.record_batch(4, 0.1, n_stacked_em=2, n_stacked_problems=10)
        snapshot = stats.copy()
        stats.record_batch(2, 0.1, n_stacked_em=1, n_stacked_problems=3)
        delta = stats.since(snapshot)
        assert delta.n_stacked_em == 1 and delta.n_stacked_problems == 3
        merged = EvaluationStats()
        merged.merge(stats)
        assert merged.n_stacked_em == 3 and merged.n_stacked_problems == 13
        assert merged.mean_stacked_batch_size == pytest.approx(13 / 3)
        assert EvaluationStats().mean_stacked_batch_size == 0.0
        # the cross-backend parity contract stays stacking-agnostic
        assert "n_stacked_em" not in stats.counters()

    def test_summary_line_shows_batch_occupancy(self):
        stats = EvaluationStats()
        stats.record_batch(10, 0.1, n_requests=12, n_stacked_em=2, n_stacked_problems=24)
        line = backend_summary_line("serial", stats)
        assert "2 stacked EM calls" in line
        assert "mean batch 12.0 problems" in line
        bare = backend_summary_line("serial", EvaluationStats())
        assert "stacked" not in bare
