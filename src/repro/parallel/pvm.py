"""Deterministic simulation of the paper's PVM master/slave cluster.

The paper runs its GA on a PVM (Parallel Virtual Machine) cluster that we do
not have; worse, real wall-clock speedups depend on whatever machine the
reproduction happens to run on.  To make the *parallel implementation* part of
the paper reproducible we model the cluster explicitly:

* each evaluation task has a compute cost (seconds) given by a
  :class:`EvaluationCostModel`, which can be calibrated from real measured
  evaluation times (Figure 4) so the simulated cluster matches the paper's
  exponential cost-vs-size behaviour;
* the master hands tasks to idle slaves one at a time (the paper's protocol)
  and every hand-off pays a configurable message latency both ways;
* the generation barrier makes the batch's makespan equal to the time the
  last slave finishes.

The simulation is an event-free greedy list scheduler (tasks are assigned in
submission order to the earliest-available slave), which is exactly the
behaviour of a synchronous PVM farm with a single outstanding task per slave.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EvaluationCostModel",
    "SlaveTimeline",
    "SimulatedSchedule",
    "SimulatedPVM",
]


@dataclass(frozen=True)
class EvaluationCostModel:
    """Exponential model of the evaluation cost as a function of haplotype size.

    ``cost(size) = base_seconds * growth_factor ** (size - 1)``

    The defaults are calibrated on the paper's Figure 4 (about 6 ms for a
    size-3 haplotype growing to about 201 ms at size 7 on their hardware,
    i.e. a growth factor of roughly 2.4 per additional SNP).
    """

    base_seconds: float = 1.0e-3
    growth_factor: float = 2.4

    def __post_init__(self) -> None:
        if self.base_seconds <= 0:
            raise ValueError("base_seconds must be positive")
        if self.growth_factor < 1.0:
            raise ValueError("growth_factor must be >= 1")

    def cost(self, haplotype_size: int) -> float:
        """Predicted evaluation time (seconds) of a haplotype of the given size."""
        if haplotype_size <= 0:
            raise ValueError("haplotype_size must be positive")
        return self.base_seconds * self.growth_factor ** (haplotype_size - 1)

    def costs(self, haplotype_sizes: Sequence[int] | np.ndarray) -> np.ndarray:
        sizes = np.asarray(haplotype_sizes, dtype=np.int64)
        if np.any(sizes <= 0):
            raise ValueError("haplotype sizes must be positive")
        return self.base_seconds * np.power(self.growth_factor, sizes - 1, dtype=np.float64)

    def to_json(self) -> dict:
        """A JSON-serialisable snapshot (see :meth:`from_json`)."""
        return {
            "base_seconds": float(self.base_seconds),
            "growth_factor": float(self.growth_factor),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "EvaluationCostModel":
        """Rebuild a model persisted by :meth:`to_json`.

        Lets a calibration measured once (e.g. by the scheduler's probe) be
        reused across invocations and shipped to remote dispatchers instead
        of re-probing every run: ``scan --cost-model model.json``.
        """
        try:
            return cls(
                base_seconds=float(payload["base_seconds"]),
                growth_factor=float(payload["growth_factor"]),
            )
        except KeyError as exc:
            raise ValueError(
                f"cost-model JSON must contain base_seconds and growth_factor, "
                f"missing {exc.args[0]!r}"
            ) from None

    @classmethod
    def fit(cls, sizes: Sequence[int], seconds: Sequence[float]) -> "EvaluationCostModel":
        """Calibrate the model on measured (size, seconds) pairs by log-linear fit.

        The fit is least squares constrained to the model's domain
        (``growth_factor >= 1``): when flat or noisy timings give a negative
        slope, the best admissible fit is a constant cost at the geometric
        mean of the measurements.
        """
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        seconds_arr = np.asarray(seconds, dtype=np.float64)
        if sizes_arr.shape != seconds_arr.shape or sizes_arr.size < 2:
            raise ValueError("need at least two (size, seconds) pairs of equal length")
        if np.any(seconds_arr <= 0):
            raise ValueError("measured times must be positive")
        log_seconds = np.log(seconds_arr)
        slope, intercept = np.polyfit(sizes_arr - 1, log_seconds, 1)
        if slope < 0:
            return cls(base_seconds=float(np.exp(log_seconds.mean())), growth_factor=1.0)
        return cls(base_seconds=float(np.exp(intercept)), growth_factor=float(np.exp(slope)))


@dataclass(frozen=True)
class SlaveTimeline:
    """Per-slave accounting of a simulated batch."""

    slave_id: int
    n_tasks: int
    busy_seconds: float
    finish_time: float


@dataclass(frozen=True)
class SimulatedSchedule:
    """Outcome of scheduling one batch on the simulated cluster.

    Attributes
    ----------
    makespan_seconds:
        Time at which the last slave finishes (the synchronous barrier time).
    serial_seconds:
        Total compute time of the batch (what a single processor would take,
        excluding messaging).
    timelines:
        Per-slave busy time and task counts.
    """

    makespan_seconds: float
    serial_seconds: float
    timelines: tuple[SlaveTimeline, ...]

    @property
    def n_slaves(self) -> int:
        return len(self.timelines)

    @property
    def speedup(self) -> float:
        """Serial time divided by the parallel makespan."""
        return 0.0 if self.makespan_seconds <= 0 else self.serial_seconds / self.makespan_seconds

    @property
    def efficiency(self) -> float:
        """Speedup divided by the number of slaves."""
        return 0.0 if self.n_slaves == 0 else self.speedup / self.n_slaves

    @property
    def load_imbalance(self) -> float:
        """Max slave busy time divided by mean busy time (1.0 = perfectly balanced)."""
        busy = np.asarray([t.busy_seconds for t in self.timelines])
        mean = busy.mean() if busy.size else 0.0
        return 0.0 if mean <= 0 else float(busy.max() / mean)


class SimulatedPVM:
    """Deterministic master/slave cluster model.

    Parameters
    ----------
    n_slaves:
        Number of slave processors.
    cost_model:
        Evaluation cost model (see :class:`EvaluationCostModel`).
    message_latency_seconds:
        One-way latency of a master-to-slave (or slave-to-master) message.
        Each task pays two latencies (send the individual, return the
        fitness), which is what bounds the useful number of slaves for cheap
        evaluations.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        cost_model: EvaluationCostModel | None = None,
        message_latency_seconds: float = 1.0e-4,
    ) -> None:
        if n_slaves <= 0:
            raise ValueError("n_slaves must be positive")
        if message_latency_seconds < 0:
            raise ValueError("message_latency_seconds must be non-negative")
        self.n_slaves = int(n_slaves)
        self.cost_model = cost_model or EvaluationCostModel()
        self.message_latency_seconds = float(message_latency_seconds)

    # ------------------------------------------------------------------ #
    def schedule_costs(self, task_costs: Sequence[float] | np.ndarray) -> SimulatedSchedule:
        """Schedule tasks with explicit compute costs on the simulated cluster."""
        costs = np.asarray(task_costs, dtype=np.float64)
        if costs.ndim != 1:
            raise ValueError("task_costs must be 1-D")
        if np.any(costs < 0):
            raise ValueError("task costs must be non-negative")
        per_task_overhead = 2.0 * self.message_latency_seconds

        # greedy list scheduling: next task goes to the earliest-available slave
        heap: list[tuple[float, int]] = [(0.0, s) for s in range(self.n_slaves)]
        heapq.heapify(heap)
        busy = np.zeros(self.n_slaves, dtype=np.float64)
        n_tasks = np.zeros(self.n_slaves, dtype=np.int64)
        finish = np.zeros(self.n_slaves, dtype=np.float64)
        for cost in costs:
            available_at, slave = heapq.heappop(heap)
            task_time = cost + per_task_overhead
            done = available_at + task_time
            busy[slave] += task_time
            n_tasks[slave] += 1
            finish[slave] = done
            heapq.heappush(heap, (done, slave))

        timelines = tuple(
            SlaveTimeline(
                slave_id=s,
                n_tasks=int(n_tasks[s]),
                busy_seconds=float(busy[s]),
                finish_time=float(finish[s]),
            )
            for s in range(self.n_slaves)
        )
        makespan = float(finish.max()) if costs.size else 0.0
        serial = float(costs.sum() + per_task_overhead * 0)  # serial run pays no messages
        return SimulatedSchedule(
            makespan_seconds=makespan,
            serial_seconds=serial,
            timelines=timelines,
        )

    def schedule_batch(self, haplotype_sizes: Sequence[int] | np.ndarray) -> SimulatedSchedule:
        """Schedule a batch of evaluations described only by their haplotype sizes."""
        costs = self.cost_model.costs(haplotype_sizes)
        return self.schedule_costs(costs)

    # ------------------------------------------------------------------ #
    def speedup_curve(
        self,
        haplotype_sizes: Sequence[int] | np.ndarray,
        slave_counts: Sequence[int],
    ) -> dict[int, float]:
        """Speedup of the same batch for several cluster sizes.

        Convenience helper for the speedup study: returns
        ``{n_slaves: speedup}`` using this instance's cost model and latency.
        """
        out: dict[int, float] = {}
        for n in slave_counts:
            cluster = SimulatedPVM(
                n,
                cost_model=self.cost_model,
                message_latency_seconds=self.message_latency_seconds,
            )
            out[int(n)] = cluster.schedule_batch(haplotype_sizes).speedup
        return out
