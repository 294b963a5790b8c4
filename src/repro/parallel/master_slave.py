"""Synchronous master/slave parallel evaluation (paper Section 4.5, Figure 6).

The paper's implementation uses C + PVM: slaves are started once at the
beginning of the run, load the data once, and then repeatedly receive work to
evaluate and send fitnesses back; the master blocks until the whole
generation is evaluated (synchronous farm).

This module reproduces that organisation on top of :mod:`multiprocessing`
through the chunked farm (:class:`~repro.parallel.farm.ChunkedWorkerFarm`):
the master partitions a generation's distinct individuals by content
affinity, each slave receives its share as chunks, evaluates them through a
worker-local batch fast path (per-slave expansion/result caches + LRU) and
sends per-chunk stats back, which the master merges into the evaluator's
:class:`~repro.parallel.base.EvaluationStats`.  ``chunk_size=1`` is the
paper's literal protocol of one individual per message.

``evaluate_batch`` gathers every fitness before returning (a synchronous
generation barrier).
"""

from __future__ import annotations

import os
from typing import Sequence

from .base import (
    BaseBatchEvaluator,
    DistinctEvaluation,
    FitnessCallable,
    SnpSet,
    validate_chunk_size,
    validate_worker_count,
)
from .farm import ChunkedWorkerFarm, EvaluatorFactory, FarmRecoveryPolicy
from .pvm import EvaluationCostModel

__all__ = ["MasterSlaveEvaluator", "default_worker_count"]


class _CallableFactory:
    """Picklable factory closing over an already-built fitness callable.

    Pickling the instance ships the callable (and any data it holds) to the
    worker exactly once, at farm start-up.
    """

    def __init__(self, fitness: FitnessCallable) -> None:
        self._fitness = fitness

    def __call__(self) -> FitnessCallable:
        return self._fitness


def default_worker_count() -> int:
    """Default number of slave processes: the machine's CPU count (at least 1)."""
    return max(os.cpu_count() or 1, 1)


class MasterSlaveEvaluator(BaseBatchEvaluator):
    """Multiprocessing implementation of the synchronous master/slave farm.

    Parameters
    ----------
    fitness:
        Picklable fitness callable shipped once to every worker.  Mutually
        exclusive with ``evaluator_factory``.
    evaluator_factory:
        Picklable zero-argument callable; each worker calls it once to build
        its own fitness function.  This is how the ``process`` backend
        rebuilds lightweight evaluator views over a shared-memory genotype
        store instead of receiving a pickled copy of the data.
    n_workers:
        Number of slave processes (default: CPU count).  Must be a positive
        integer.
    chunk_size:
        Number of individuals per message.  ``None`` (the default) sends each
        slave its whole share of a generation as a single chunk (and, in
        steal mode, cuts shares into pieces of ~equal modelled cost under
        ``cost_model``); ``1`` is the paper's one-individual-per-message
        protocol.
    cost_model:
        The evaluation-cost model behind the cost-driven auto chunking
        (default: the paper's Figure-4 calibration).
    worker_cache_size:
        Bound of each slave's local fitness LRU.
    steal, max_inflight:
        Enable the work-stealing dispatch engine — each slave holds at most
        ``max_inflight`` in-flight chunks and idle slaves are refilled from
        the longest affinity queue (see
        :class:`~repro.parallel.farm.ChunkedWorkerFarm`).  Fitness values
        are identical with stealing on or off, as are ``n_requests`` and the
        total answered (``n_evaluations + n_cache_hits``); the *split*
        between the two can shift when a re-requested haplotype reaches the
        slaves, since a stolen chunk is served by the thief's cache or
        re-evaluated there instead of hitting its owner's cache.
    hosts:
        Distributed dispatch: a sequence of ``"host:port"`` worker hosts
        (see :mod:`repro.runtime.remote`).  One slave slot per entry —
        ``n_workers``, if given, must equal ``len(hosts)``.  Slaves run on
        the remote hosts behind authenticated sockets.
    recovery:
        A :class:`~repro.parallel.farm.FarmRecoveryPolicy` making the farm
        survive slave deaths and hangs (lost chunks are replayed
        bit-identically on survivors; see the farm's documentation).  The
        recovery events a batch survived are reported through
        :class:`~repro.parallel.base.EvaluationStats`.
    worker_wrapper:
        A callable applied to the evaluator factory before it is shipped to
        the slaves (``wrapped_factory = worker_wrapper(factory)``); must be
        picklable together with its result.  Exists for the fault-injection
        harness (:mod:`repro.testing.faults`), which wraps slave fitness
        functions with a chaos policy.
    start_method:
        ``multiprocessing`` start method; the default ``"fork"`` (when
        available) avoids re-importing the scientific stack in every worker,
        ``"spawn"`` is used automatically on platforms without ``fork``.
    dedup, cache_size:
        Batch fast-path controls inherited from
        :class:`~repro.parallel.base.BaseBatchEvaluator`: duplicates within a
        generation are collapsed and previously seen haplotypes are answered
        from a master-side cache, so only distinct, unseen individuals are
        scattered to the slaves.

    The evaluator is a context manager and ``close()`` is idempotent, so
    experiment loops cannot leak worker processes::

        with MasterSlaveEvaluator(evaluator, n_workers=4) as farm:
            fitnesses = farm.evaluate_batch(batch)
    """

    def __init__(
        self,
        fitness: FitnessCallable | None = None,
        *,
        evaluator_factory: EvaluatorFactory | None = None,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        worker_cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
        steal: bool = False,
        max_inflight: int = 2,
        cost_model: EvaluationCostModel | None = None,
        recovery: FarmRecoveryPolicy | None = None,
        worker_wrapper=None,
        start_method: str | None = None,
        hosts: Sequence | None = None,
        dedup: bool = True,
        cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
    ) -> None:
        super().__init__(dedup=dedup, cache_size=cache_size)
        if (fitness is None) == (evaluator_factory is None):
            raise ValueError("provide exactly one of fitness or evaluator_factory")
        validate_worker_count(n_workers)
        validate_chunk_size(chunk_size)
        if hosts is not None and n_workers is not None and n_workers != len(hosts):
            raise ValueError(
                f"n_workers={n_workers} conflicts with len(hosts)="
                f"{len(hosts)}; remote pools run one slave per host entry"
            )
        self._n_workers = len(hosts) if hosts is not None else (n_workers or default_worker_count())
        factory = evaluator_factory if evaluator_factory is not None else _CallableFactory(fitness)
        if worker_wrapper is not None:
            factory = worker_wrapper(factory)
        self._closed = False
        farm_kwargs = dict(
            chunk_size=chunk_size,
            worker_cache_size=worker_cache_size,
            steal=steal,
            max_inflight=max_inflight,
            cost_model=cost_model,
            recovery=recovery,
        )
        if hosts is not None:
            # lazy import: the remote transport pulls in the socket layer,
            # which local farms never need
            from ..runtime.remote import RemoteSlavePool

            self._farm: ChunkedWorkerFarm = RemoteSlavePool(factory, hosts, **farm_kwargs)
        else:
            self._farm = ChunkedWorkerFarm(
                factory, self._n_workers, start_method=start_method, **farm_kwargs
            )

    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def steal(self) -> bool:
        """Whether the farm runs the work-stealing dispatch engine."""
        return self._farm.steal

    def recovery_counters(self) -> dict[str, int]:
        """The farm's lifetime recovery counters."""
        return self._farm.recovery_counters()

    def evaluate_batch(self, batch: Sequence[SnpSet]) -> list[float]:
        if self._closed:
            raise RuntimeError("evaluator has been closed")
        return super().evaluate_batch(batch)

    def _evaluate_distinct(self, batch: Sequence[SnpSet]) -> list[float]:
        return self._evaluate_distinct_details(batch).values

    def _evaluate_distinct_details(self, batch: Sequence[SnpSet]) -> DistinctEvaluation:
        tasks = [tuple(int(s) for s in snps) for snps in batch]
        # recovery events are attributed to the batch that survived them;
        # the scheduler's per-job delta scoping serialises evaluate calls,
        # so before/after deltas cannot interleave across jobs
        recovery_before = self._farm.recovery_counters()
        values, chunk_stats = self._farm.evaluate(tasks)
        recovery_after = self._farm.recovery_counters()
        return DistinctEvaluation(
            values=values,
            n_evaluations=chunk_stats.n_evaluations,
            n_cache_hits=chunk_stats.n_cache_hits,
            backend_seconds=chunk_stats.seconds,
            n_stacked_em=chunk_stats.n_stacked_em,
            n_stacked_problems=chunk_stats.n_stacked_problems,
            n_worker_deaths=(
                recovery_after["n_worker_deaths"] - recovery_before["n_worker_deaths"]
            ),
            n_chunks_replayed=(
                recovery_after["n_chunks_replayed"] - recovery_before["n_chunks_replayed"]
            ),
            n_worker_respawns=(
                recovery_after["n_worker_respawns"] - recovery_before["n_worker_respawns"]
            ),
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._farm.close()
        self._run_close_callbacks()

    def terminate(self) -> None:
        """Forcefully terminate the worker processes; idempotent."""
        if not self._closed:
            self._closed = True
            self._farm.terminate()
        self._run_close_callbacks()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown path
        try:
            self.terminate()
        except Exception:
            pass
