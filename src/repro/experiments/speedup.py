"""Section 4.5 — parallel master/slave evaluation speedup.

The paper's synchronous master/slave farm exists to bring the wall-clock time
of a run down to something reasonable; it does not report a speedup figure,
but the parallel implementation is one of the claimed contributions, so this
harness measures it in two complementary ways:

* **simulated** — schedule a realistic generation-sized batch of evaluations
  on the deterministic PVM model (:class:`~repro.parallel.pvm.SimulatedPVM`)
  for a range of cluster sizes; the evaluation cost model can be calibrated
  from the measured Figure-4 times so the simulated cluster reflects the real
  per-size costs.  This is exactly reproducible on any machine.
* **measured** — time the same batch through the real
  :class:`~repro.parallel.master_slave.MasterSlaveEvaluator` with 1…N worker
  processes on the host machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..genetics.simulate import SimulatedStudy
from ..parallel.master_slave import default_worker_count
from ..parallel.pvm import EvaluationCostModel, SimulatedPVM
from ..parallel.timing import SpeedupReport
from ..runtime.backends import create_evaluator
from ..runtime.spec import EvaluatorSpec
from .datasets import DEFAULT_SEED, lille51
from .reporting import format_table

__all__ = [
    "SimulatedSpeedupResult",
    "MeasuredSpeedupResult",
    "generation_batch",
    "run_simulated_speedup",
    "run_measured_speedup",
]


def generation_batch(
    *,
    n_offspring: int = 68,
    sizes: Sequence[int] = (2, 3, 4, 5, 6),
    size_weights: Sequence[float] | None = None,
    seed: int = DEFAULT_SEED,
    n_snps: int = 51,
) -> list[tuple[int, ...]]:
    """A realistic one-generation batch of haplotypes to evaluate.

    The default batch size (68) matches the paper-scale configuration
    (population 150, crossover rate 0.9 → about 67 crossover applications per
    generation); sizes are drawn with weights following the sub-population
    allocation (larger sizes are more numerous).
    """
    if n_offspring < 1:
        raise ValueError("n_offspring must be positive")
    rng = np.random.default_rng(seed)
    sizes = list(sizes)
    if size_weights is None:
        weights = np.asarray(sizes, dtype=np.float64)
    else:
        weights = np.asarray(size_weights, dtype=np.float64)
    if weights.shape != (len(sizes),):
        raise ValueError("size_weights must have one entry per size")
    weights = weights / weights.sum()
    batch: list[tuple[int, ...]] = []
    for _ in range(n_offspring):
        size = int(rng.choice(sizes, p=weights))
        batch.append(tuple(sorted(rng.choice(n_snps, size=size, replace=False).tolist())))
    return batch


@dataclass(frozen=True)
class SimulatedSpeedupResult:
    """Speedup of one batch on the simulated PVM cluster."""

    worker_counts: tuple[int, ...]
    speedups: dict[int, float]
    efficiencies: dict[int, float]
    cost_model: EvaluationCostModel
    batch_size: int

    def format(self) -> str:
        headers = ["slaves", "speedup", "efficiency"]
        rows = [[n, self.speedups[n], self.efficiencies[n]] for n in self.worker_counts]
        return format_table(
            headers, rows,
            title=f"Simulated PVM speedup ({self.batch_size} evaluations per generation)",
        )


def run_simulated_speedup(
    *,
    worker_counts: Sequence[int] = (1, 2, 4, 8, 16),
    batch: Sequence[tuple[int, ...]] | None = None,
    cost_model: EvaluationCostModel | None = None,
    message_latency_seconds: float = 1.0e-4,
    seed: int = DEFAULT_SEED,
) -> SimulatedSpeedupResult:
    """Schedule a generation batch on simulated clusters of several sizes."""
    if not worker_counts:
        raise ValueError("worker_counts must not be empty")
    batch = list(batch) if batch is not None else generation_batch(seed=seed)
    sizes = [len(snps) for snps in batch]
    cost_model = cost_model or EvaluationCostModel()
    speedups: dict[int, float] = {}
    efficiencies: dict[int, float] = {}
    for n in worker_counts:
        cluster = SimulatedPVM(
            int(n), cost_model=cost_model, message_latency_seconds=message_latency_seconds
        )
        schedule = cluster.schedule_batch(sizes)
        speedups[int(n)] = schedule.speedup
        efficiencies[int(n)] = schedule.efficiency
    return SimulatedSpeedupResult(
        worker_counts=tuple(int(n) for n in worker_counts),
        speedups=speedups,
        efficiencies=efficiencies,
        cost_model=cost_model,
        batch_size=len(batch),
    )


@dataclass(frozen=True)
class MeasuredSpeedupResult:
    """Wall-clock speedup measured with a real parallel backend."""

    report: SpeedupReport
    batch_size: int
    n_repeats: int
    backend: str = "process"

    def format(self) -> str:
        speedups = self.report.speedups()
        efficiencies = self.report.efficiencies()
        headers = ["workers", "speedup", "efficiency"]
        rows = [[n, speedups[n], efficiencies[n]] for n in sorted(speedups)]
        return format_table(
            headers, rows,
            title=(
                f"Measured {self.backend} backend speedup "
                f"({self.batch_size} evaluations per batch)"
            ),
        )


def run_measured_speedup(
    *,
    study: SimulatedStudy | None = None,
    worker_counts: Sequence[int] | None = None,
    batch: Sequence[tuple[int, ...]] | None = None,
    n_repeats: int = 3,
    seed: int = DEFAULT_SEED,
    backend: str = "process",
    chunk_size: int | None = None,
) -> MeasuredSpeedupResult:
    """Time the same evaluation batch through serial and parallel backends.

    ``backend`` names any registered execution backend
    (:mod:`repro.runtime.backends`); one worker always means the in-process
    serial baseline, exactly as in the seed harness.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be positive")
    study = study or lille51(seed)
    # reuse caches would let the repeated timing batches hit memoised
    # results, turning the measurement into a cache benchmark; the speedup
    # study times raw evaluation cost, so every cache layer — the
    # evaluator's, the master-side batch fast path's and the chunked farm's
    # worker-local LRUs — is disabled here
    spec = EvaluatorSpec(cache_size=0)
    batch = list(batch) if batch is not None else generation_batch(
        n_snps=study.dataset.n_snps, seed=seed
    )
    if worker_counts is None:
        cpu = default_worker_count()
        worker_counts = sorted({1, 2, min(4, cpu), cpu})
    report = SpeedupReport()

    import time as _time

    for n_workers in worker_counts:
        evaluator = create_evaluator(
            backend if n_workers > 1 else "serial",
            spec,
            dataset=study.dataset,
            n_workers=int(n_workers),
            chunk_size=chunk_size,
            dedup=False,
            cache_size=0,
            worker_cache_size=0,
        )
        try:
            evaluator.evaluate_batch(batch[: max(2, len(batch) // 8)])  # warm-up
            start = _time.perf_counter()
            for _ in range(n_repeats):
                evaluator.evaluate_batch(batch)
            elapsed = (_time.perf_counter() - start) / n_repeats
        finally:
            evaluator.close()
        report.add(int(n_workers), elapsed)
    return MeasuredSpeedupResult(
        report=report, batch_size=len(batch), n_repeats=n_repeats, backend=backend
    )
