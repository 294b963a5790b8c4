"""Tests of RunRequest -> RunResult execution on a request-scoped scheduler.

A one-off run is a :class:`RunScheduler` held in a ``with`` block: the
substrate starts, executes the request and is always released.
"""

import pytest

from repro.core.config import GAConfig
from repro.runtime.service import RunRequest, RunScheduler


@pytest.fixture(scope="module")
def quick_config():
    return GAConfig(
        population_size=16,
        max_haplotype_size=3,
        termination_stagnation=3,
        max_generations=5,
    )


def _run(dataset, request, **scheduler_options):
    with RunScheduler(dataset, **scheduler_options) as scheduler:
        return scheduler.run(request)


class TestRequestScopedRun:
    def test_single_run(self, small_dataset, quick_config):
        result = _run(small_dataset, RunRequest(config=quick_config, seed=1))
        assert result.backend == "serial"
        assert len(result.runs) == 1
        assert result.result.n_generations >= 1
        assert result.stats.n_requests == result.result.n_evaluations
        assert 0.0 <= result.reuse_rate < 1.0
        assert result.elapsed_seconds > 0.0

    def test_repeated_runs_are_seed_offset(self, small_dataset, quick_config):
        repeated = _run(small_dataset, RunRequest(config=quick_config, seed=5, n_runs=2))
        single_a = _run(small_dataset, RunRequest(config=quick_config, seed=5))
        single_b = _run(small_dataset, RunRequest(config=quick_config, seed=6))
        assert len(repeated.runs) == 2
        assert repeated.runs[0].best_per_size == single_a.result.best_per_size
        assert repeated.runs[1].best_per_size == single_b.result.best_per_size
        assert repeated.n_evaluations == sum(r.n_evaluations for r in repeated.runs)

    def test_stats_are_request_scoped(self, small_dataset, quick_config):
        first = _run(small_dataset, RunRequest(config=quick_config, seed=1))
        second = _run(small_dataset, RunRequest(config=quick_config, seed=1))
        # each result reports only its own request's work
        assert second.stats.n_requests == first.stats.n_requests

    def test_best_per_size_aggregates_over_runs(self, small_dataset, quick_config):
        result = _run(small_dataset, RunRequest(config=quick_config, seed=3, n_runs=2))
        best = result.best_per_size()
        for size, individual in best.items():
            assert len(individual.snps) == size
            for run in result.runs:
                contender = run.best_per_size.get(size)
                if contender is not None:
                    assert individual.fitness_value() >= contender.fitness_value() - 1e-12

    def test_backend_invariance(self, small_dataset, quick_config):
        request = RunRequest(config=quick_config, seed=2)
        serial = _run(small_dataset, request)
        farmed = _run(small_dataset, request, backend="process", n_workers=2)
        assert farmed.backend == "process"
        assert serial.result.best_per_size == farmed.result.best_per_size
        assert serial.result.n_evaluations == farmed.result.n_evaluations

    def test_summary_line_surfaces_reuse(self, small_dataset, quick_config):
        result = _run(small_dataset, RunRequest(config=quick_config, seed=1))
        line = result.summary_line()
        assert "requests" in line and "evaluations" in line and "serial" in line

    def test_validation(self, small_dataset, quick_config):
        with pytest.raises(ValueError):
            _run(small_dataset, RunRequest(config=quick_config, n_runs=0))
