"""Tests of the simulated PVM cluster and its evaluation cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.pvm import EvaluationCostModel, SimulatedPVM


class TestEvaluationCostModel:
    def test_exponential_growth(self):
        model = EvaluationCostModel(base_seconds=0.001, growth_factor=2.0)
        assert model.cost(1) == pytest.approx(0.001)
        assert model.cost(4) == pytest.approx(0.008)
        np.testing.assert_allclose(model.costs([1, 2, 3]), [0.001, 0.002, 0.004])

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationCostModel(base_seconds=0.0)
        with pytest.raises(ValueError):
            EvaluationCostModel(growth_factor=0.5)
        with pytest.raises(ValueError):
            EvaluationCostModel().cost(0)
        with pytest.raises(ValueError):
            EvaluationCostModel().costs([2, -1])

    def test_fit_recovers_parameters(self):
        true = EvaluationCostModel(base_seconds=0.002, growth_factor=2.4)
        sizes = [2, 3, 4, 5, 6, 7]
        seconds = [true.cost(s) for s in sizes]
        fitted = EvaluationCostModel.fit(sizes, seconds)
        assert fitted.base_seconds == pytest.approx(true.base_seconds, rel=1e-6)
        assert fitted.growth_factor == pytest.approx(true.growth_factor, rel=1e-6)

    def test_fit_of_flat_timings_stays_in_the_model_domain(self):
        """A negative log-linear slope is clamped to growth 1.0, with the
        constant-cost least-squares base (the geometric mean)."""
        seconds = [3e-3, 2.9e-3, 2.8e-3]
        fitted = EvaluationCostModel.fit([2, 3, 4], seconds)
        assert fitted.growth_factor == 1.0
        assert fitted.base_seconds == pytest.approx(float(np.prod(seconds) ** (1 / 3)))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            EvaluationCostModel.fit([3], [0.01])
        with pytest.raises(ValueError):
            EvaluationCostModel.fit([3, 4], [0.01, 0.0])

    def test_json_round_trip(self):
        model = EvaluationCostModel(base_seconds=0.0025, growth_factor=2.3)
        payload = model.to_json()
        assert payload == {"base_seconds": 0.0025, "growth_factor": 2.3}
        restored = EvaluationCostModel.from_json(payload)
        assert restored.base_seconds == model.base_seconds
        assert restored.growth_factor == model.growth_factor

    def test_from_json_names_the_missing_key(self):
        with pytest.raises(ValueError, match="growth_factor"):
            EvaluationCostModel.from_json({"base_seconds": 0.001})
        with pytest.raises(ValueError, match="base_seconds"):
            EvaluationCostModel.from_json({"growth_factor": 2.0})

    def test_from_json_validates_values(self):
        with pytest.raises(ValueError):
            EvaluationCostModel.from_json(
                {"base_seconds": 0.0, "growth_factor": 2.0}
            )

    def test_paper_figure4_shape(self):
        """The default model reflects Figure 4: ~6 ms at size 3, ~200 ms at size 7."""
        model = EvaluationCostModel.fit([3, 7], [0.006, 0.201])
        assert 2.0 < model.growth_factor < 3.0
        assert model.cost(7) / model.cost(3) == pytest.approx(0.201 / 0.006, rel=1e-9)


class TestSimulatedPVM:
    def test_single_slave_makespan_is_serial_plus_overhead(self):
        cluster = SimulatedPVM(1, message_latency_seconds=0.0)
        schedule = cluster.schedule_costs([0.1, 0.2, 0.3])
        assert schedule.makespan_seconds == pytest.approx(0.6)
        assert schedule.speedup == pytest.approx(1.0)
        assert schedule.efficiency == pytest.approx(1.0)

    def test_equal_tasks_split_evenly(self):
        cluster = SimulatedPVM(4, message_latency_seconds=0.0)
        schedule = cluster.schedule_costs([0.1] * 8)
        assert schedule.makespan_seconds == pytest.approx(0.2)
        assert schedule.speedup == pytest.approx(4.0)
        assert all(t.n_tasks == 2 for t in schedule.timelines)
        assert schedule.load_imbalance == pytest.approx(1.0)

    def test_message_latency_limits_speedup(self):
        fast = SimulatedPVM(8, message_latency_seconds=0.0)
        slow = SimulatedPVM(8, message_latency_seconds=0.05)
        costs = [0.01] * 32
        assert slow.schedule_costs(costs).speedup < fast.schedule_costs(costs).speedup

    def test_speedup_is_monotone_in_slaves_without_latency(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(2, 7, size=60)
        cluster = SimulatedPVM(1, message_latency_seconds=0.0)
        curve = cluster.speedup_curve(sizes, [1, 2, 4, 8])
        values = [curve[n] for n in (1, 2, 4, 8)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert curve[1] == pytest.approx(1.0)

    def test_schedule_batch_uses_cost_model(self):
        cluster = SimulatedPVM(2, cost_model=EvaluationCostModel(0.001, 2.0),
                               message_latency_seconds=0.0)
        schedule = cluster.schedule_batch([3, 3])
        assert schedule.serial_seconds == pytest.approx(2 * 0.004)
        assert schedule.makespan_seconds == pytest.approx(0.004)

    def test_empty_batch(self):
        cluster = SimulatedPVM(2)
        schedule = cluster.schedule_costs([])
        assert schedule.makespan_seconds == 0.0
        assert schedule.speedup == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedPVM(0)
        with pytest.raises(ValueError):
            SimulatedPVM(2, message_latency_seconds=-1.0)
        with pytest.raises(ValueError):
            SimulatedPVM(2).schedule_costs([[0.1]])
        with pytest.raises(ValueError):
            SimulatedPVM(2).schedule_costs([-0.1])

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=1, max_size=40),
    )
    def test_speedup_never_exceeds_slave_count(self, n_slaves, costs):
        cluster = SimulatedPVM(n_slaves, message_latency_seconds=0.0)
        schedule = cluster.schedule_costs(costs)
        assert schedule.speedup <= n_slaves + 1e-9
        assert schedule.makespan_seconds >= max(costs) - 1e-12
