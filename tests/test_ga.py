"""Integration tests of the adaptive multi-population GA."""

import pytest

from repro.core.config import GAConfig
from repro.core.ga import AdaptiveMultiPopulationGA
from repro.parallel.serial import SerialEvaluator
from repro.stats.cache import CachedEvaluator

from conftest import SMALL_CAUSAL

N_SNPS = 14


def _config(**overrides):
    defaults = dict(
        population_size=24,
        min_haplotype_size=2,
        max_haplotype_size=4,
        termination_stagnation=6,
        max_generations=20,
        random_immigrant_stagnation=3,
        seed=5,
    )
    defaults.update(overrides)
    return GAConfig(**defaults)


@pytest.fixture(scope="module")
def quick_result(small_evaluator_module):
    ga = AdaptiveMultiPopulationGA(
        small_evaluator_module, n_snps=N_SNPS, config=_config()
    )
    return ga.run(), ga


@pytest.fixture(scope="module")
def small_evaluator_module(request):
    # reuse the session-scoped evaluator fixture through the module scope
    return request.getfixturevalue("small_evaluator")


class TestConstruction:
    def test_requires_fitness_or_evaluator(self):
        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(n_snps=N_SNPS)

    def test_rejects_small_panel(self, small_evaluator):
        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(small_evaluator, n_snps=1)

    def test_rejects_max_size_above_panel(self, small_evaluator):
        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(
                small_evaluator, n_snps=3, config=_config(max_haplotype_size=4)
            )

    def test_rejects_mismatched_constraints(self, small_evaluator, small_constraints):
        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(
                small_evaluator, n_snps=10, constraints=small_constraints,
                config=_config(),
            )

    def test_rejects_backend_alongside_explicit_evaluator(self, small_evaluator):
        from repro.parallel.serial import SerialEvaluator

        with pytest.raises(ValueError):
            AdaptiveMultiPopulationGA(
                n_snps=N_SNPS, evaluator=SerialEvaluator(small_evaluator),
                backend="serial",
            )

    def test_backend_name_resolves_the_evaluator(self, small_evaluator):
        from repro.parallel.master_slave import MasterSlaveEvaluator

        with AdaptiveMultiPopulationGA(
            small_evaluator, n_snps=N_SNPS, backend="process",
            backend_options={"n_workers": 2},
        ) as ga:
            assert isinstance(ga.evaluator, MasterSlaveEvaluator)

    def test_close_releases_only_owned_evaluators(self, small_evaluator):
        from repro.parallel.serial import SerialEvaluator

        owned = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS)
        closed = []
        owned.evaluator.register_close_callback(lambda: closed.append("owned"))
        owned.close()
        assert closed == ["owned"]

        supplied = SerialEvaluator(small_evaluator)
        supplied.register_close_callback(lambda: closed.append("supplied"))
        ga = AdaptiveMultiPopulationGA(n_snps=N_SNPS, evaluator=supplied)
        ga.close()
        assert closed == ["owned"]  # the caller's evaluator is left untouched


class TestRunBehaviour:
    def test_produces_one_best_per_size(self, quick_result):
        result, _ga = quick_result
        assert set(result.best_per_size) == {2, 3, 4}
        for size, individual in result.best_per_size.items():
            assert individual.size == size
            assert individual.is_evaluated

    def test_history_and_counters_consistent(self, quick_result):
        result, ga = quick_result
        assert result.n_generations == len(result.history)
        assert result.n_evaluations == ga.n_evaluations
        assert result.termination_reason in {
            "stagnation", "max_generations", "max_evaluations"
        }
        assert result.elapsed_seconds > 0.0
        # evaluation counts are non-decreasing over generations
        evaluations = result.history.evaluations_trajectory()
        assert all(b >= a for a, b in zip(evaluations, evaluations[1:]))
        # evaluations_to_best never exceeds the total
        for size, count in result.evaluations_to_best.items():
            assert 0 <= count <= result.n_evaluations

    def test_best_fitness_never_decreases(self, quick_result):
        result, _ga = quick_result
        for size in (2, 3, 4):
            trajectory = result.history.best_fitness_trajectory(size)
            assert all(b >= a - 1e-9 for a, b in zip(trajectory, trajectory[1:]))

    def test_population_sizes_respect_capacities(self, quick_result):
        _result, ga = quick_result
        population = ga.population
        assert population is not None
        for sub in population:
            assert len(sub) <= sub.capacity
            snp_sets = [member.snps for member in sub]
            assert len(snp_sets) == len(set(snp_sets))  # no duplicates
            for member in sub:
                assert member.size == sub.haplotype_size

    def test_operator_rates_sum_to_global_rate(self, quick_result):
        result, _ga = quick_result
        config = result.config
        for record in result.history:
            assert sum(record.mutation_rates.values()) == pytest.approx(
                config.mutation_rate, abs=1e-9
            )
            assert sum(record.crossover_rates.values()) == pytest.approx(
                config.crossover_rate, abs=1e-9
            )

    def test_determinism_same_seed(self, small_evaluator):
        results = []
        for _ in range(2):
            ga = AdaptiveMultiPopulationGA(
                small_evaluator, n_snps=N_SNPS, config=_config(max_generations=6)
            )
            results.append(ga.run())
        a, b = results
        assert {s: ind.snps for s, ind in a.best_per_size.items()} == {
            s: ind.snps for s, ind in b.best_per_size.items()
        }
        assert a.n_evaluations == b.n_evaluations

    def test_different_seeds_explore_differently(self, small_evaluator):
        a = AdaptiveMultiPopulationGA(
            small_evaluator, n_snps=N_SNPS, config=_config(seed=1, max_generations=6)
        ).run()
        b = AdaptiveMultiPopulationGA(
            small_evaluator, n_snps=N_SNPS, config=_config(seed=2, max_generations=6)
        ).run()
        assert a.n_evaluations != b.n_evaluations or a.best_per_size != b.best_per_size

    def test_max_evaluations_cap_respected(self, small_evaluator):
        config = _config(max_evaluations=80, max_generations=50)
        ga = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS, config=config)
        result = ga.run()
        assert result.termination_reason in {"max_evaluations", "stagnation"}
        # the cap is checked between generations, so allow one generation of overshoot
        assert result.n_evaluations <= 80 + 3 * config.n_offspring * (
            1 + config.point_mutation_trials
        )

    def test_finds_planted_haplotype(self, small_evaluator):
        """On the small study the GA must recover the planted 3-SNP haplotype."""
        config = _config(
            population_size=30, max_haplotype_size=4,
            termination_stagnation=8, max_generations=30, seed=11,
        )
        cached = CachedEvaluator(small_evaluator)
        ga = AdaptiveMultiPopulationGA(cached, n_snps=N_SNPS, config=config)
        result = ga.run()
        best3 = result.best_per_size[3]
        # the GA must find a size-3 haplotype at least as good as the planted one,
        # and the planted signal must show up in it
        planted_fitness = small_evaluator.evaluate(SMALL_CAUSAL)
        assert best3.fitness_value() >= planted_fitness - 1e-9
        assert set(best3.snps) & set(SMALL_CAUSAL)

    def test_runs_with_constraints(self, small_evaluator, small_constraints):
        ga = AdaptiveMultiPopulationGA(
            small_evaluator,
            n_snps=N_SNPS,
            config=_config(max_generations=5),
            constraints=small_constraints,
        )
        result = ga.run()
        for individual in result.best_per_size.values():
            assert small_constraints.is_valid(individual.snps)

    def test_continuation_run_keeps_progress(self, small_evaluator):
        ga = AdaptiveMultiPopulationGA(
            small_evaluator, n_snps=N_SNPS, config=_config(max_generations=4)
        )
        first = ga.run()
        best_before = {s: ind.fitness_value() for s, ind in first.best_per_size.items()}
        second = ga.run(reset=False)
        assert ga.n_evaluations >= first.n_evaluations
        for size, fitness in best_before.items():
            assert second.best_per_size[size].fitness_value() >= fitness - 1e-9

    def test_batch_evaluator_injection(self, small_evaluator):
        serial = SerialEvaluator(small_evaluator)
        ga = AdaptiveMultiPopulationGA(
            n_snps=N_SNPS, config=_config(max_generations=3), evaluator=serial
        )
        result = ga.run()
        # every fitness request went through the injected evaluator ...
        assert serial.stats.n_requests == result.n_evaluations
        # ... and the batch fast path answered some of them without
        # re-evaluating (generation-level dedup + cross-batch cache)
        assert serial.stats.n_evaluations <= serial.stats.n_requests
        assert ga.n_distinct_evaluations == serial.stats.n_evaluations

    def test_batch_fast_path_disabled_counts_every_request(self, small_evaluator):
        serial = SerialEvaluator(small_evaluator, dedup=False, cache_size=0)
        ga = AdaptiveMultiPopulationGA(
            n_snps=N_SNPS, config=_config(max_generations=3), evaluator=serial
        )
        result = ga.run()
        assert serial.stats.n_evaluations == result.n_evaluations


class TestSchemeToggles:
    def test_disabling_size_mutations_removes_operators(self, small_evaluator):
        config = _config().with_scheme(size_mutations=False)
        ga = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS, config=config)
        assert set(ga.mutation_controller.operator_names) == {"point_mutation"}

    def test_disabling_inter_population_crossover(self, small_evaluator):
        config = _config().with_scheme(inter_population_crossover=False)
        ga = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS, config=config)
        assert set(ga.crossover_controller.operator_names) == {"intra_population_crossover"}

    def test_disabling_random_immigrants(self, small_evaluator):
        config = _config(max_generations=8).with_scheme(random_immigrants=False)
        ga = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS, config=config)
        result = ga.run()
        assert result.history.n_immigrant_triggers() == 0
        assert ga.immigrant_policy.n_triggers == 0

    def test_full_scheme_triggers_immigrants_under_stagnation(self, small_evaluator):
        config = _config(
            random_immigrant_stagnation=2, termination_stagnation=8, max_generations=25,
        )
        ga = AdaptiveMultiPopulationGA(small_evaluator, n_snps=N_SNPS, config=config)
        result = ga.run()
        if result.termination_reason == "stagnation":
            assert result.history.n_immigrant_triggers() >= 1
