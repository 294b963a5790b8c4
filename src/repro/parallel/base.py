"""Common interfaces of the parallel evaluation substrate.

The paper parallelises only the *evaluation phase* of the GA: at every
generation the master holds a batch of new individuals whose fitnesses are
unknown, farms them out to slaves, and waits for every result before
continuing (a synchronous master/slave organisation, Figure 6).  All the GA
needs from the substrate is therefore a single operation — "evaluate this
batch of haplotypes and give me their fitnesses in order" — which is captured
by the :class:`BatchEvaluator` protocol below.  Three implementations are
provided:

* :class:`~repro.parallel.serial.SerialEvaluator` — evaluate in-process;
* :class:`~repro.parallel.master_slave.MasterSlaveEvaluator` — a real
  ``multiprocessing`` worker farm;
* :class:`~repro.parallel.pvm.SimulatedPVM` — a deterministic model of the
  paper's PVM cluster used for reproducible speedup studies.

Batch fast path
---------------
Every evaluator deriving from :class:`BaseBatchEvaluator` shares a
generation-level fast path in :meth:`~BaseBatchEvaluator.evaluate_batch`:
identical individuals within a batch are collapsed to one evaluation, a
master-side fitness cache answers haplotypes seen in earlier generations, and
only the distinct, unseen remainder is handed to the backend's
:meth:`~BaseBatchEvaluator._evaluate_distinct` (the serial loop, the
multiprocessing scatter, ...).  Results are returned in original batch order,
and :class:`EvaluationStats` separates the number of fitness *requests* from
the number of evaluations actually performed — the paper's cost metric.

A haplotype is a *set* of SNPs (every fitness function in this codebase sorts
its input), so the dedup key is the sorted SNP tuple.  Both layers can be
switched off (``dedup=False``, ``cache_size=0``) — the speedup experiments
do, because a cache would turn their repeated timing batches into no-ops.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from ..lru import LRUCache

__all__ = [
    "SnpSet",
    "FitnessCallable",
    "BatchEvaluator",
    "EvaluationStats",
    "DistinctEvaluation",
    "evaluate_batch_with",
    "validate_worker_count",
    "validate_chunk_size",
    "default_mp_context",
]


def validate_worker_count(n_workers: "int | None") -> None:
    """Shared check for every parallel backend's ``n_workers`` parameter."""
    if n_workers is not None and (
        not isinstance(n_workers, int) or isinstance(n_workers, bool) or n_workers < 1
    ):
        raise ValueError(
            f"n_workers must be a positive integer (the number of workers), "
            f"got {n_workers!r}"
        )


def validate_chunk_size(chunk_size: "int | None") -> None:
    """Shared check for every parallel backend's ``chunk_size`` parameter."""
    if chunk_size is not None and (
        not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1
    ):
        raise ValueError(
            f"chunk_size must be a positive integer or None, got {chunk_size!r}"
        )


def default_mp_context(start_method: "str | None" = None):
    """The multiprocessing context every process backend starts workers from.

    ``fork`` (when available) avoids re-importing the scientific stack in
    every worker; platforms without it fall back to ``spawn``.
    """
    from multiprocessing import get_context

    if start_method is not None:
        return get_context(start_method)
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context("spawn")

#: A candidate haplotype: a sequence of SNP indices.
SnpSet = Sequence[int]

#: Any callable mapping a SNP set to a scalar fitness.
FitnessCallable = Callable[[SnpSet], float]


def _key(snps: SnpSet) -> tuple[int, ...]:
    return tuple(sorted(int(s) for s in snps))


def evaluate_batch_with(
    fitness: FitnessCallable, batch: Sequence[SnpSet]
) -> tuple[list[float], int, int]:
    """Evaluate a distinct batch through the fitness function's batched path.

    Fitness functions exposing ``evaluate_many`` (the
    :class:`~repro.stats.evaluation.HaplotypeEvaluator` stacked-EM fast path)
    get the whole batch in one call — results are bit-identical to the
    per-candidate loop, only the dispatch changes; everything else falls back
    to that loop.  Returns ``(values, n_stacked_em, n_stacked_problems)``
    where the counter deltas report the stacked kernel work the call caused
    (0 for plain callables).

    This is the single routing point the serial evaluator and the farm
    slaves' chunk fast path share.
    """
    evaluate_many = getattr(fitness, "evaluate_many", None)
    if evaluate_many is None or len(batch) < 2:
        return [float(fitness(snps)) for snps in batch], 0, 0
    calls_before = getattr(fitness, "n_stacked_em", 0)
    problems_before = getattr(fitness, "n_stacked_problems", 0)
    values = [float(value) for value in evaluate_many(batch)]
    return (
        values,
        getattr(fitness, "n_stacked_em", 0) - calls_before,
        getattr(fitness, "n_stacked_problems", 0) - problems_before,
    )


@dataclass(frozen=True)
class DistinctEvaluation:
    """Outcome of one backend call on a batch of distinct, unseen haplotypes.

    Plain backends only fill :attr:`values`; backends whose workers run their
    own batch fast path (chunked dispatch) additionally report how much work
    the workers *actually* performed, so the master-side
    :class:`EvaluationStats` merge exactly what happened instead of assuming
    one evaluation per dispatched haplotype.

    Attributes
    ----------
    values:
        Fitnesses in dispatch order.
    n_evaluations:
        Evaluations the backend really performed (``None`` means one per
        value, the plain-backend default).
    n_cache_hits:
        Haplotypes answered from worker-side caches instead of being
        re-evaluated.
    backend_seconds:
        Summed worker-side evaluation time (0 when the backend does not
        measure it); on a real cluster this exceeds the wall-clock batch time
        whenever workers overlap.
    n_stacked_em:
        Stacked multi-candidate EM kernel calls the backend performed.
    n_stacked_problems:
        EM problems answered by those stacked calls (their ratio is the mean
        stacked batch occupancy).
    n_worker_deaths / n_chunks_replayed / n_worker_respawns:
        Recovery events the backend survived while evaluating this batch
        (self-healing farm only; 0 everywhere else).
    """

    values: list[float]
    n_evaluations: int | None = None
    n_cache_hits: int = 0
    backend_seconds: float = 0.0
    n_stacked_em: int = 0
    n_stacked_problems: int = 0
    n_worker_deaths: int = 0
    n_chunks_replayed: int = 0
    n_worker_respawns: int = 0


@dataclass
class EvaluationStats:
    """Running counters kept by every batch evaluator.

    Attributes
    ----------
    n_evaluations:
        Number of haplotype evaluations actually performed by the backend
        (distinct, unseen individuals).
    n_requests:
        Number of fitness requests submitted through ``evaluate_batch``;
        ``n_requests - n_evaluations`` is the work saved by the batch fast
        path.
    n_batches:
        Number of batches submitted.
    n_dedup_hits:
        Requests answered by collapsing duplicates within their batch.
    n_cache_hits:
        Requests answered by a fitness cache (master-side or, for chunked
        backends, a worker-side one).
    total_seconds:
        Wall-clock time spent inside ``evaluate_batch`` calls.
    backend_seconds:
        Summed worker-side evaluation time reported by the backend (0 for
        backends that do not measure it).
    n_stacked_em:
        Stacked multi-candidate EM kernel calls performed by the evaluation
        layer (0 for fitness functions without a batched path).
    n_stacked_problems:
        EM problems answered by those stacked calls;
        ``n_stacked_problems / n_stacked_em`` is the mean stacked batch
        occupancy.  Like the timings — and unlike the request/evaluation
        counters — these depend on how work was chunked across workers, so
        they are excluded from :meth:`counters` (the cross-backend parity
        contract).
    n_worker_deaths:
        Slave processes lost (died or reaped as hung) and survived via a
        :class:`~repro.parallel.farm.FarmRecoveryPolicy`.
    n_chunks_replayed:
        Lost in-flight chunks replayed bit-identically on surviving slaves.
    n_worker_respawns:
        Dead slaves restarted in place.  All three recovery counters describe
        *infrastructure* events, not evaluation work — a faulty run performs
        exactly the same requests/evaluations as a fault-free one — so, like
        the stacked-EM counters, they are excluded from :meth:`counters`.
    n_result_cache_hits:
        Whole window/run *results* replayed from a cross-request result cache
        (the scan service's daemon layer) instead of being recomputed.  A
        replayed result performs zero evaluations here, so — like the
        recovery counters — this is a service-layer account excluded from
        :meth:`counters` (a served scan with a warm cache must still
        fingerprint-match a cold one).
    """

    n_evaluations: int = 0
    n_requests: int = 0
    n_batches: int = 0
    n_dedup_hits: int = 0
    n_cache_hits: int = 0
    total_seconds: float = 0.0
    backend_seconds: float = 0.0
    n_stacked_em: int = 0
    n_stacked_problems: int = 0
    n_worker_deaths: int = 0
    n_chunks_replayed: int = 0
    n_worker_respawns: int = 0
    n_result_cache_hits: int = 0

    def record_batch(
        self,
        batch_size: int,
        elapsed: float,
        *,
        n_requests: int | None = None,
        n_dedup_hits: int = 0,
        n_cache_hits: int = 0,
        backend_seconds: float = 0.0,
        n_stacked_em: int = 0,
        n_stacked_problems: int = 0,
        n_worker_deaths: int = 0,
        n_chunks_replayed: int = 0,
        n_worker_respawns: int = 0,
    ) -> None:
        self.n_evaluations += batch_size
        self.n_requests += batch_size if n_requests is None else n_requests
        self.n_batches += 1
        self.n_dedup_hits += n_dedup_hits
        self.n_cache_hits += n_cache_hits
        self.total_seconds += elapsed
        self.backend_seconds += backend_seconds
        self.n_stacked_em += n_stacked_em
        self.n_stacked_problems += n_stacked_problems
        self.n_worker_deaths += n_worker_deaths
        self.n_chunks_replayed += n_chunks_replayed
        self.n_worker_respawns += n_worker_respawns

    def counters(self) -> dict[str, int]:
        """The integer counters as a dict (timings, stacked-EM and recovery
        counters excluded) — the part of the stats that must agree exactly
        between backends on the same workload."""
        return {
            "n_requests": self.n_requests,
            "n_evaluations": self.n_evaluations,
            "n_batches": self.n_batches,
            "n_dedup_hits": self.n_dedup_hits,
            "n_cache_hits": self.n_cache_hits,
        }

    def copy(self) -> "EvaluationStats":
        """Snapshot of the current counters."""
        return EvaluationStats(**self.__dict__)

    def merge(self, other: "EvaluationStats") -> None:
        """Accumulate another stats object's counters into this one (in place).

        Used by the run scheduler to fold the per-batch deltas of one job into
        that job's own stats while many jobs share a single backend evaluator.
        """
        self.n_evaluations += other.n_evaluations
        self.n_requests += other.n_requests
        self.n_batches += other.n_batches
        self.n_dedup_hits += other.n_dedup_hits
        self.n_cache_hits += other.n_cache_hits
        self.total_seconds += other.total_seconds
        self.backend_seconds += other.backend_seconds
        self.n_stacked_em += other.n_stacked_em
        self.n_stacked_problems += other.n_stacked_problems
        self.n_worker_deaths += other.n_worker_deaths
        self.n_chunks_replayed += other.n_chunks_replayed
        self.n_worker_respawns += other.n_worker_respawns
        self.n_result_cache_hits += other.n_result_cache_hits

    def since(self, snapshot: "EvaluationStats") -> "EvaluationStats":
        """Stats accumulated after ``snapshot`` was taken (field-wise difference)."""
        return EvaluationStats(
            n_evaluations=self.n_evaluations - snapshot.n_evaluations,
            n_requests=self.n_requests - snapshot.n_requests,
            n_batches=self.n_batches - snapshot.n_batches,
            n_dedup_hits=self.n_dedup_hits - snapshot.n_dedup_hits,
            n_cache_hits=self.n_cache_hits - snapshot.n_cache_hits,
            total_seconds=self.total_seconds - snapshot.total_seconds,
            backend_seconds=self.backend_seconds - snapshot.backend_seconds,
            n_stacked_em=self.n_stacked_em - snapshot.n_stacked_em,
            n_stacked_problems=self.n_stacked_problems - snapshot.n_stacked_problems,
            n_worker_deaths=self.n_worker_deaths - snapshot.n_worker_deaths,
            n_chunks_replayed=self.n_chunks_replayed - snapshot.n_chunks_replayed,
            n_worker_respawns=self.n_worker_respawns - snapshot.n_worker_respawns,
            n_result_cache_hits=self.n_result_cache_hits - snapshot.n_result_cache_hits,
        )

    @property
    def mean_stacked_batch_size(self) -> float:
        """Mean problems per stacked EM kernel call (0 when none were made)."""
        if self.n_stacked_em == 0:
            return 0.0
        return self.n_stacked_problems / self.n_stacked_em

    @property
    def n_distinct_evaluations(self) -> int:
        """Alias for :attr:`n_evaluations` (evaluations actually performed)."""
        return self.n_evaluations

    @property
    def reuse_rate(self) -> float:
        """Fraction of requests answered without evaluating (dedup + cache)."""
        if self.n_requests == 0:
            return 0.0
        return 1.0 - self.n_evaluations / self.n_requests

    @property
    def mean_seconds_per_evaluation(self) -> float:
        """Amortised wall-clock per *performed* evaluation.

        ``total_seconds`` includes the full ``evaluate_batch`` time — cache
        lookups and batches served entirely from reuse included — so with a
        high reuse rate this reads higher than the backend's raw per-call
        cost; see :attr:`mean_seconds_per_request` for time per request.
        """
        return 0.0 if self.n_evaluations == 0 else self.total_seconds / self.n_evaluations

    @property
    def mean_seconds_per_request(self) -> float:
        """Wall-clock per fitness request (reuse hits included)."""
        return 0.0 if self.n_requests == 0 else self.total_seconds / self.n_requests


@runtime_checkable
class BatchEvaluator(Protocol):
    """Protocol implemented by every evaluation backend."""

    def evaluate_batch(self, batch: Sequence[SnpSet]) -> list[float]:
        """Evaluate a batch of haplotypes, returning fitnesses in batch order."""
        ...

    def evaluate(self, snps: SnpSet) -> float:
        """Evaluate a single haplotype."""
        ...

    @property
    def stats(self) -> EvaluationStats:
        """Running evaluation counters."""
        ...

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""
        ...


class BaseBatchEvaluator(abc.ABC):
    """Shared bookkeeping and batch fast path for concrete evaluators.

    Parameters
    ----------
    dedup:
        Collapse identical individuals within a batch to a single backend
        evaluation (results are fanned back out in order).
    cache_size:
        Bound on the master-side fitness cache consulted before scattering
        (LRU eviction).  Default 4096 entries (a few hundred KB of float
        values — bounded like every other cache layer in the codebase);
        ``None`` means unbounded, ``0`` disables the cache.
    """

    DEFAULT_CACHE_SIZE = 4096

    def __init__(self, *, dedup: bool = True, cache_size: int | None = DEFAULT_CACHE_SIZE) -> None:
        if cache_size is not None and cache_size < 0:
            raise ValueError("cache_size must be non-negative or None")
        self._stats = EvaluationStats()
        self._dedup = bool(dedup)
        self._fitness_cache = LRUCache(cache_size)
        self._close_callbacks: list[Callable[[], None]] = []

    @property
    def stats(self) -> EvaluationStats:
        return self._stats

    @abc.abstractmethod
    def _evaluate_distinct(self, batch: Sequence[SnpSet]) -> list[float]:
        """Evaluate a batch of distinct, unseen haplotypes (backend hook)."""

    def _evaluate_distinct_details(self, batch: Sequence[SnpSet]) -> DistinctEvaluation:
        """Like :meth:`_evaluate_distinct` but with backend-side accounting.

        Backends whose workers run their own batch fast path override this to
        report the evaluations actually performed; plain backends inherit the
        one-evaluation-per-haplotype default.
        """
        return DistinctEvaluation(values=self._evaluate_distinct(batch))

    def evaluate_batch(self, batch: Sequence[SnpSet]) -> list[float]:
        start = time.perf_counter()
        batch = list(batch)
        n_requests = len(batch)
        if n_requests == 0:
            return []

        cache = self._fitness_cache
        results: list[float | None] = [None] * n_requests
        pending: list[SnpSet] = []
        pending_keys: list[tuple[int, ...]] = []
        first_seen: dict[tuple[int, ...], int] = {}
        resolve: list[tuple[int, int]] = []  # (batch position, pending index)
        n_cache_hits = 0
        n_dedup_hits = 0
        for position, snps in enumerate(batch):
            key = _key(snps)
            hit = cache.get(key)
            if hit is not None:
                results[position] = hit
                n_cache_hits += 1
                continue
            if self._dedup and key in first_seen:
                resolve.append((position, first_seen[key]))
                n_dedup_hits += 1
                continue
            index = len(pending)
            first_seen.setdefault(key, index)
            pending.append(snps)
            pending_keys.append(key)
            resolve.append((position, index))

        if pending:
            details = self._evaluate_distinct_details(pending)
        else:
            details = DistinctEvaluation(values=[])
        values = details.values
        for key, value in zip(pending_keys, values):
            cache.put(key, float(value))
        for position, index in resolve:
            results[position] = float(values[index])

        n_performed = (
            len(pending) if details.n_evaluations is None else details.n_evaluations
        )
        self._stats.record_batch(
            n_performed,
            time.perf_counter() - start,
            n_requests=n_requests,
            n_dedup_hits=n_dedup_hits,
            n_cache_hits=n_cache_hits + details.n_cache_hits,
            backend_seconds=details.backend_seconds,
            n_stacked_em=details.n_stacked_em,
            n_stacked_problems=details.n_stacked_problems,
            n_worker_deaths=details.n_worker_deaths,
            n_chunks_replayed=details.n_chunks_replayed,
            n_worker_respawns=details.n_worker_respawns,
        )
        return [float(r) for r in results]  # type: ignore[arg-type]

    def evaluate(self, snps: SnpSet) -> float:
        return self.evaluate_batch([snps])[0]

    def register_close_callback(self, callback: Callable[[], None]) -> None:
        """Register a cleanup hook run (once) when the evaluator is closed.

        Used by the backend layer to tie auxiliary resources — e.g. the
        shared-memory genotype store of the ``process`` backend — to the
        evaluator's lifetime.
        """
        self._close_callbacks.append(callback)

    def _run_close_callbacks(self) -> None:
        callbacks, self._close_callbacks = self._close_callbacks, []
        for callback in callbacks:
            callback()

    def close(self) -> None:
        self._run_close_callbacks()

    def __enter__(self) -> "BaseBatchEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
