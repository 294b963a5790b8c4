"""Tests of the execution-backend registry and cross-backend parity."""

import pytest

from repro.parallel.master_slave import MasterSlaveEvaluator
from repro.parallel.serial import SerialEvaluator
from repro.runtime.backends import (
    backend_names,
    create_evaluator,
    register_backend,
    resolve_backend,
)
from repro.runtime.spec import EvaluatorSpec


def _generation_batches():
    """Two overlapping generation-shaped batches with duplicates."""
    first = [
        (0, 1), (2, 5), (1, 3, 9), (0, 1), (4, 7), (2, 5), (6, 8, 11), (3, 10),
    ]
    second = [(2, 5), (0, 1), (5, 12), (1, 3, 9), (7, 13)]
    return first, second


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert set(backend_names()) >= {"serial", "threads", "process", "process-shm"}

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

    def test_process_shm_rejects_bare_callable(self):
        with pytest.raises(TypeError, match="process-shm"):
            create_evaluator("process-shm", lambda snps: 0.0)

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

    @pytest.mark.parametrize("backend", ["threads", "process", "process-shm"])
    def test_matches_serial(self, backend, small_evaluator, reference):
        (first_ref, second_ref), counters_ref = reference
        first, second = _generation_batches()
        evaluator = create_evaluator(backend, small_evaluator, n_workers=2)
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
        evaluator = create_evaluator("process", _product_fitness, n_workers=2)
        try:
            assert isinstance(evaluator, MasterSlaveEvaluator)
            assert evaluator.evaluate_batch(batch) == pytest.approx(expected)
        finally:
            evaluator.close()


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
