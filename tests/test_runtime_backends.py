"""Tests of the execution-backend registry and cross-backend parity."""

from multiprocessing import shared_memory

import pytest

from repro.core.config import GAConfig
from repro.genetics.simulate import lille_like_study
from repro.parallel.master_slave import MasterSlaveEvaluator
from repro.parallel.serial import SerialEvaluator
from repro.runtime import backends
from repro.runtime.backends import (
    backend_names,
    create_evaluator,
    register_backend,
    resolve_backend,
)
from repro.runtime.service import RunRequest, RunScheduler
from repro.runtime.spec import EvaluatorSpec
from repro.stats.evaluation import HaplotypeEvaluator

#: every registered backend that runs without worker hosts
LOCAL_BACKENDS = [name for name in backend_names() if name != "remote"]


def _generation_batches():
    """Two overlapping generation-shaped batches with duplicates."""
    first = [
        (0, 1), (2, 5), (1, 3, 9), (0, 1), (4, 7), (2, 5), (6, 8, 11), (3, 10),
    ]
    second = [(2, 5), (0, 1), (5, 12), (1, 3, 9), (7, 13)]
    return first, second


class TestRegistry:
    def test_all_four_backends_registered(self):
        # three behaviours, and process-shm as a second name for the farm
        assert set(backend_names()) >= {"serial", "process", "process-shm", "remote"}
        assert resolve_backend("process-shm") is resolve_backend("process")

    @pytest.mark.parametrize("name", ['threads', 'async'])
    def test_deleted_backends_are_unknown(self, name):
        with pytest.raises(KeyError, match="available: .*process.*serial"):
            create_evaluator(name, _product_fitness)

    def test_run_request_carries_no_execution_settings(self):
        with pytest.raises(TypeError):
            RunRequest(backend="process")

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(KeyError, match="serial"):
            resolve_backend("cluster-of-doom")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_backend("serial", lambda request: None)

    def test_replace_allows_reregistration(self):
        original = resolve_backend("serial")
        register_backend("serial", original, replace=True)
        assert resolve_backend("serial") is original

    def test_spec_source_requires_dataset(self):
        with pytest.raises(TypeError):
            create_evaluator("serial", EvaluatorSpec())

    def test_invalid_source_type(self):
        with pytest.raises(TypeError):
            create_evaluator("serial", 42)


class TestBackendParity:
    """All backends must return identical fitnesses and merged stats."""

    @pytest.fixture(scope="class")
    def reference(self, request):
        small_evaluator = request.getfixturevalue("small_evaluator")
        first, second = _generation_batches()
        evaluator = create_evaluator("serial", small_evaluator)
        values = (evaluator.evaluate_batch(first), evaluator.evaluate_batch(second))
        return values, evaluator.stats.counters()

    @pytest.mark.parametrize("backend", LOCAL_BACKENDS)
    def test_matches_serial(self, backend, small_evaluator, reference):
        (first_ref, second_ref), counters_ref = reference
        first, second = _generation_batches()
        # a spec plus a dataset, and a live evaluator, on every local backend
        for source, dataset in (
            (EvaluatorSpec(), small_evaluator.dataset),
            (small_evaluator, None),
        ):
            evaluator = create_evaluator(backend, source, dataset=dataset, n_workers=2)
            try:
                assert evaluator.evaluate_batch(first) == pytest.approx(first_ref, rel=1e-12)
                assert evaluator.evaluate_batch(second) == pytest.approx(second_ref, rel=1e-12)
                assert evaluator.stats.counters() == counters_ref
            finally:
                evaluator.close()

    def test_chunked_stats_merge_to_serial(self, small_evaluator):
        """Per-chunk worker stats must merge exactly to the serial path's."""
        first, second = _generation_batches()
        serial = SerialEvaluator(small_evaluator)
        serial.evaluate_batch(first)
        serial.evaluate_batch(second)
        chunked = create_evaluator(
            "process", small_evaluator, n_workers=2, chunk_size=2
        )
        try:
            chunked.evaluate_batch(first)
            chunked.evaluate_batch(second)
            assert chunked.stats.counters() == serial.stats.counters()
            assert chunked.stats.backend_seconds > 0.0
        finally:
            chunked.close()

    def test_callable_source_on_process_backend(self):
        batch = [(0, 1), (2,), (0, 1), (3, 4)]
        serial = SerialEvaluator(_product_fitness)
        expected = serial.evaluate_batch(batch)
        # both names of the farm ship a bare picklable callable to the slaves
        for backend in ("process", "process-shm"):
            evaluator = create_evaluator(backend, _product_fitness, n_workers=2)
            try:
                assert isinstance(evaluator, MasterSlaveEvaluator)
                assert evaluator.evaluate_batch(batch) == pytest.approx(expected)
            finally:
                evaluator.close()

    def test_process_attaches_slaves_to_one_shared_store(
        self, small_dataset, monkeypatch
    ):
        stores = []

        class RecordingStore(backends.SharedGenotypeStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(backends, "SharedGenotypeStore", RecordingStore)
        batch = [(0, 1), (2, 5), (1, 3, 9)]
        expected = SerialEvaluator(HaplotypeEvaluator(small_dataset)).evaluate_batch(batch)
        evaluator = create_evaluator(
            "process", EvaluatorSpec(), dataset=small_dataset, n_workers=2
        )
        try:
            assert len(stores) == 1
            assert evaluator.evaluate_batch(batch) == expected
        finally:
            evaluator.close()
        assert len(stores) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=stores[0].name)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_live_evaluator_over_another_dataset(self, backend):
        """Every backend evaluates the ``dataset`` it is given, even when the
        live source evaluator was built over a different panel."""
        full = lille_like_study(seed=3, n_snps=20).dataset
        view = full.window(5, 15)
        live = HaplotypeEvaluator(full)
        batch = [(0, 1), (2, 5, 7), (3, 4)]
        expected = HaplotypeEvaluator(view).evaluate_many(batch)
        evaluator = create_evaluator(backend, live, dataset=view, n_workers=2)
        try:
            assert evaluator.evaluate_batch(batch) == expected
        finally:
            evaluator.close()

    def test_live_source_schedulers_agree_across_backends(self):
        full = lille_like_study(seed=3, n_snps=20).dataset
        view = full.window(5, 15)
        live = HaplotypeEvaluator(full)
        config = GAConfig(
            population_size=10, max_haplotype_size=3,
            termination_stagnation=2, max_generations=3,
        )
        best = {}
        for backend in ("serial", "process"):
            with RunScheduler(view, source=live, backend=backend, n_workers=2) as scheduler:
                result = scheduler.run(RunRequest(config=config, seed=1))
            best[backend] = {
                size: (individual.snps, individual.fitness_value())
                for size, individual in result.best_per_size().items()
            }
        assert best["serial"] == best["process"]


def _product_fitness(snps):
    value = 1.0
    for s in snps:
        value *= (s + 1)
    return value


class TestSpec:
    def test_roundtrip_from_evaluator(self, small_evaluator):
        spec = EvaluatorSpec.from_evaluator(small_evaluator)
        assert spec == EvaluatorSpec()
        rebuilt = spec.build(small_evaluator.dataset)
        assert rebuilt.evaluate((0, 1)) == pytest.approx(small_evaluator.evaluate((0, 1)))

    def test_with_statistic(self):
        assert EvaluatorSpec().with_statistic("lrt").statistic == "lrt"

    def test_spec_preserves_nondefault_parameters(self, small_dataset):
        from repro.stats.evaluation import HaplotypeEvaluator

        evaluator = HaplotypeEvaluator(
            small_dataset, statistic="t3", em_max_iter=77, cache_size=9
        )
        spec = EvaluatorSpec.from_evaluator(evaluator)
        assert spec.statistic == "t3"
        assert spec.em_max_iter == 77
        assert spec.cache_size == 9
