"""The run layer: a persistent multi-run scheduler.

``RunRequest`` describes *what* to run: the GA configuration, the number of
repeated runs, the fitness statistic and optionally a locus window of the
panel.  *How* it runs (execution backend, worker count, chunking, packing,
hosts) is configured once, on the :class:`RunScheduler` that executes it.

:class:`RunScheduler` is the persistent execution substrate: it builds **one**
backend evaluator (one worker farm, one shared-memory registration, one
content-affinity cache population) when constructed and keeps it alive across
arbitrarily many submitted requests — exactly the jump from "one region, one
run, one farm spin-up" to the genome-scale scan workload where hundreds of
windowed GA runs multiplex over a single substrate.  Jobs are queued with
:meth:`~RunScheduler.submit` and executed by :meth:`~RunScheduler.as_completed`
(streaming results as they finish, optionally ``jobs`` runs at a time) or
:meth:`~RunScheduler.map` (submission order); :meth:`~RunScheduler.run`
executes one request directly.  The CLI ``run`` command, the scan, the daemon
and the Table-2 / ablation / robustness harnesses all hold a scheduler in a
``with`` block, so backend choice, seeding and stats reporting live in
exactly one place.  The scheduler runs the backends' default dedup and
caches; tuning them (e.g. switching them off to time raw evaluation cost) is
for direct :func:`~repro.runtime.backends.create_evaluator` callers.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..core.config import GAConfig
from ..core.ga import AdaptiveMultiPopulationGA
from ..core.history import GAResult
from ..core.individual import HaplotypeIndividual
from ..genetics.constraints import HaplotypeConstraints
from ..genetics.dataset import GenotypeDataset, as_packed_dataset
from ..parallel.base import BatchEvaluator, EvaluationStats, SnpSet
from ..parallel.farm import FarmRecoveryPolicy
from ..parallel.pvm import EvaluationCostModel
from ..stats.evaluation import HaplotypeEvaluator
from .backends import DEFAULT_BACKEND, create_evaluator
from .spec import EvaluatorSpec

__all__ = [
    "RunRequest",
    "RunResult",
    "RunScheduler",
    "backend_summary_line",
    "estimate_request_cost",
]


def estimate_request_cost(
    request: RunRequest, cost_model: EvaluationCostModel
) -> float:
    """Rough compute-cost estimate (seconds) of one request under a cost model.

    Used as a *relative* scheduling priority, not a forecast: the number of
    evaluations is bounded by the configuration (initial population plus
    offspring for the plausible generation count) and each evaluation is
    priced at the mean per-size cost of the configuration's haplotype range —
    the exponential :class:`~repro.parallel.pvm.EvaluationCostModel` term, so
    a window clamped to large haplotypes dwarfs a small-haplotype window,
    which is exactly the skew the cost-aware executor schedules around.
    """
    config = request.config or GAConfig()
    sizes = config.haplotype_sizes
    mean_cost = sum(cost_model.cost(size) for size in sizes) / len(sizes)
    n_generations = min(config.max_generations, 4 * config.termination_stagnation)
    n_evaluations = config.population_size + config.n_offspring * n_generations
    if config.max_evaluations is not None:
        n_evaluations = min(n_evaluations, config.max_evaluations)
    return request.n_runs * n_evaluations * mean_cost


def backend_summary_line(backend: str, stats: EvaluationStats) -> str:
    """The one-line reuse account printed by ``run`` and ``scan`` alike."""
    line = (
        f"evaluation backend: {backend} — {stats.n_requests} requests -> "
        f"{stats.n_evaluations} evaluations "
        f"({stats.reuse_rate:.1%} answered by dedup/caches)"
    )
    if stats.n_stacked_em > 0:
        line += (
            f"; {stats.n_stacked_em} stacked EM calls, "
            f"mean batch {stats.mean_stacked_batch_size:.1f} problems"
        )
    if stats.n_worker_deaths > 0:
        line += (
            f"; survived {stats.n_worker_deaths} worker death(s) "
            f"({stats.n_chunks_replayed} chunk(s) replayed, "
            f"{stats.n_worker_respawns} respawn(s))"
        )
    if stats.n_result_cache_hits > 0:
        line += (
            f"; {stats.n_result_cache_hits} window result(s) replayed from "
            f"the cross-request cache"
        )
    return line


@dataclass(frozen=True)
class RunRequest:
    """A declarative description of one (possibly repeated) GA execution.

    Attributes
    ----------
    config:
        GA parameters (default: the paper's :class:`GAConfig` defaults).
    n_runs:
        Number of independent runs; run ``i`` uses seed ``seed + i``.
    seed:
        Base seed; ``None`` uses ``config.seed``.
    statistic:
        CLUMP statistic optimised as fitness (ignored when ``spec`` given).
    spec:
        Full evaluator recipe; overrides ``statistic``.
    snp_indices:
        Optional sub-panel restriction (global SNP indices, e.g. a locus
        window of a chromosome-scale scan).  The GA then searches local
        indices ``0 … len(snp_indices) - 1``; fitnesses are computed on the
        corresponding global columns, so results are bit-identical to running
        on a zero-copy window view of the panel.
    constraints:
        Haplotype-validity constraints (default: unconstrained; sized to the
        sub-panel when ``snp_indices`` is given).

    The request carries no execution settings: the :class:`RunScheduler`
    that executes it owns the backend, workers, chunking, packing and hosts.
    """

    config: GAConfig | None = None
    n_runs: int = 1
    seed: int | None = None
    statistic: str = "t1"
    spec: EvaluatorSpec | None = None
    snp_indices: tuple[int, ...] | None = None
    constraints: HaplotypeConstraints | None = None

    def resolved_spec(self) -> EvaluatorSpec:
        return self.spec if self.spec is not None else EvaluatorSpec(statistic=self.statistic)


@dataclass(frozen=True)
class RunResult:
    """Outcome of a :class:`RunRequest`.

    Attributes
    ----------
    runs:
        The per-run GA results, in seed order.
    stats:
        Backend evaluation stats merged over all runs (requests vs
        evaluations actually performed, reuse, timings) — scoped to exactly
        this request's work even when many jobs share a scheduler.
    backend:
        Name of the execution backend used.
    elapsed_seconds:
        Wall-clock time of the whole request.
    """

    runs: tuple[GAResult, ...]
    stats: EvaluationStats
    backend: str
    elapsed_seconds: float
    request: RunRequest = field(repr=False, default_factory=RunRequest)

    @property
    def result(self) -> GAResult:
        """The first run's result (the common single-run case)."""
        return self.runs[0]

    @property
    def n_evaluations(self) -> int:
        """Total fitness requests across runs (the paper's cost metric)."""
        return sum(run.n_evaluations for run in self.runs)

    @property
    def reuse_rate(self) -> float:
        """Fraction of requests answered without evaluating (dedup + caches)."""
        return self.stats.reuse_rate

    def best_per_size(self) -> dict[int, HaplotypeIndividual]:
        """Best individual of every size across all runs."""
        best: dict[int, HaplotypeIndividual] = {}
        for run in self.runs:
            for size, individual in run.best_per_size.items():
                current = best.get(size)
                if current is None or individual.fitness_value() > current.fitness_value():
                    best[size] = individual
        return best

    def summary_line(self) -> str:
        """One-line account of the backend work (surfaced by the CLI)."""
        return backend_summary_line(self.backend, self.stats)


class _JobEvaluator:
    """Per-job view onto the scheduler's shared backend evaluator.

    Implements the :class:`~repro.parallel.base.BatchEvaluator` protocol for
    one scheduled job: it optionally maps window-local SNP indices to global
    panel indices, serialises access to the shared evaluator (many jobs may
    run concurrently) and keeps the job's **own** :class:`EvaluationStats`, so
    each :class:`RunResult` reports exactly the work its request caused even
    though the caches and worker farm are shared.  ``close()`` is a no-op —
    the substrate belongs to the scheduler.
    """

    def __init__(
        self,
        evaluator: BatchEvaluator,
        lock: threading.Lock,
        snp_indices: tuple[int, ...] | None = None,
    ) -> None:
        self._evaluator = evaluator
        self._lock = lock
        self._mapping = tuple(int(s) for s in snp_indices) if snp_indices else None
        self._stats = EvaluationStats()

    @property
    def stats(self) -> EvaluationStats:
        return self._stats

    def evaluate_batch(self, batch: Sequence[SnpSet]) -> list[float]:
        if self._mapping is not None:
            mapping = self._mapping
            batch = [[mapping[int(s)] for s in snps] for snps in batch]
        # the lock both makes the shared evaluator safe under concurrent jobs
        # and guarantees the stats delta below covers exactly this batch
        with self._lock:
            before = self._evaluator.stats.copy()
            values = self._evaluator.evaluate_batch(batch)
            delta = self._evaluator.stats.since(before)
        self._stats.merge(delta)
        return values

    def evaluate(self, snps: SnpSet) -> float:
        return self.evaluate_batch([snps])[0]

    def close(self) -> None:
        pass


class RunScheduler:
    """A persistent multi-run scheduler over one shared execution substrate.

    The scheduler resolves its backend evaluator **once** (worker processes
    started once, shared-memory panel registered once) and executes every
    submitted :class:`RunRequest` against it, so N queued runs — e.g. one GA
    job per locus window of a genome-scale scan — pay one farm spin-up and
    share the master-side fitness cache and the slaves' content-affinity
    caches.  Execution policy (backend, worker count, chunking, packing,
    hosts) lives on the scheduler and nowhere else: a :class:`RunRequest`
    says only what to run.  A one-off run is a scheduler held in a ``with``
    block.

    Parameters
    ----------
    dataset:
        The full genotype panel every job evaluates against.
    source:
        Evaluator recipe: an :class:`EvaluatorSpec`, a live
        :class:`HaplotypeEvaluator` (its caches are then shared with the
        ``serial`` backend when it was built over ``dataset``) or ``None`` (a
        default spec with ``statistic``).
    statistic:
        CLUMP statistic when no ``source`` is given.
    backend, n_workers, chunk_size:
        Execution substrate configuration (see
        :func:`repro.runtime.backends.create_evaluator`).  The substrate runs
        with the backends' default dedup and fitness caches.
    jobs:
        Maximum number of requests executed concurrently by
        :meth:`as_completed` / :meth:`map`.  Fitness batches are serialised
        through the shared substrate either way; extra jobs overlap GA
        bookkeeping (selection, variation, replacement) with other jobs'
        evaluation batches.  Results are bit-identical for any ``jobs`` value
        — every run is a deterministic function of its seed.
    cost_model:
        Optional calibrated :class:`~repro.parallel.pvm.EvaluationCostModel`.
        With ``jobs > 1`` the drain becomes a cost-aware executor: idle job
        slots take the *most expensive* queued request first (longest-
        processing-time-first keeps one huge window from becoming the
        straggler that outlives every other job), using
        :func:`estimate_request_cost` unless :meth:`submit` received an
        explicit ``cost``.  Results stay bit-identical — only the completion
        order changes.  ``jobs == 1`` always drains in submission order.
    recovery:
        Optional :class:`~repro.parallel.farm.FarmRecoveryPolicy` for the
        process-farm backends: the substrate survives slave deaths and hangs
        (lost chunks replayed bit-identically on survivors, optional
        respawns) and keeps draining on a shrunken farm.  The recovery events
        each job survived appear in its :class:`RunResult` stats
        (``n_worker_deaths`` / ``n_chunks_replayed`` / ``n_worker_respawns``)
        and in the scheduler-lifetime :attr:`stats`.
    worker_wrapper:
        Optional picklable wrapper applied to the worker evaluator factory
        before it ships to the slaves (fault-injection harness; see
        :mod:`repro.testing.faults`).
    hosts:
        ``backend="remote"`` only: the worker hosts as ``"host:port"``
        specs, one slave per entry (see :mod:`repro.runtime.remote`).
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        *,
        source: HaplotypeEvaluator | EvaluatorSpec | None = None,
        statistic: str = "t1",
        backend: str = DEFAULT_BACKEND,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        jobs: int = 1,
        cost_model: EvaluationCostModel | None = None,
        recovery: FarmRecoveryPolicy | None = None,
        worker_wrapper=None,
        packed: bool = False,
        hosts: Sequence[str] | None = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        if source is None:
            source = EvaluatorSpec(statistic=statistic)
        if isinstance(source, HaplotypeEvaluator):
            self._spec = EvaluatorSpec.from_evaluator(source)
        elif isinstance(source, EvaluatorSpec):
            self._spec = source.normalized()
        else:
            raise TypeError(
                f"source must be a HaplotypeEvaluator, EvaluatorSpec or None, "
                f"got {type(source).__name__}"
            )
        if packed:
            # run the whole substrate on the 2-bit panel: shm segments hold
            # packed bytes and expansions are counted from packed columns
            dataset = as_packed_dataset(dataset)
        self._dataset = dataset
        self._backend = backend
        self._packed = bool(packed)
        self._jobs = jobs
        self._cost_model = cost_model
        self._lock = threading.Lock()
        # guards the pending queue (job threads pull from it while the
        # consumer may keep submitting); _lock stays dedicated to serialising
        # the shared evaluator
        self._queue_lock = threading.Lock()
        self._pending: list[tuple[int, RunRequest, float | None]] = []
        # results of jobs that finished during an abandoned concurrent drain;
        # handed out first by the next as_completed()
        self._unclaimed: dict[int, RunResult] = {}
        self._next_job_id = 0
        self._n_completed = 0
        self._closed = False
        self._evaluator = create_evaluator(
            backend,
            source,
            dataset=dataset,
            n_workers=n_workers,
            chunk_size=chunk_size,
            # the scheduler's (possibly calibrated) cost model also drives
            # the chunked farms' cost-balanced auto chunking
            cost_model=cost_model,
            recovery=recovery,
            worker_wrapper=worker_wrapper,
            packed=packed,
            hosts=hosts,
        )

    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> GenotypeDataset:
        return self._dataset

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def packed(self) -> bool:
        """Whether the substrate runs on the 2-bit packed panel."""
        return self._packed

    @property
    def spec(self) -> EvaluatorSpec:
        return self._spec

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def n_unclaimed(self) -> int:
        """Results of finished jobs an abandoned drain has not handed out yet."""
        return len(self._unclaimed)

    @property
    def n_completed(self) -> int:
        return self._n_completed

    @property
    def stats(self) -> EvaluationStats:
        """Substrate-lifetime stats (all jobs since the scheduler started)."""
        return self._evaluator.stats.copy()

    def summary_line(self) -> str:
        """Scheduler-lifetime reuse account (same format as ``run``'s)."""
        return backend_summary_line(self._backend, self._evaluator.stats)

    def farm_health(self) -> dict:
        """Liveness of the execution substrate (the health probe's farm card).

        Worker counts and lifetime recovery counters for farm backends; for
        the ``remote`` backend additionally the per-host statuses (heartbeat
        age, reconnect backoff) from
        :meth:`~repro.runtime.remote.RemoteSlavePool.check_hosts` — which
        also runs a health pass, so probing the daemon reaps silent hosts
        and re-admits recovered ones even between batches.
        """
        evaluator = self._evaluator
        farm = getattr(evaluator, "_farm", None)
        health: dict = {
            "backend": self._backend,
            "n_workers": getattr(evaluator, "n_workers", 1),
            "n_alive_workers": None,
            "recovery": None,
            "hosts": None,
        }
        if farm is not None:
            health["n_alive_workers"] = farm.n_alive_workers
            health["recovery"] = farm.recovery_counters()
            check_hosts = getattr(farm, "check_hosts", None)
            if check_hosts is not None:
                health["hosts"] = check_hosts()
                health["n_alive_workers"] = farm.n_alive_workers
        return health

    def probe_evaluator(self) -> BatchEvaluator:
        """A job-scoped view of the substrate for calibration/timing probes.

        Batches travel the exact dispatch path scheduled runs use (lock,
        chunking, worker farm); the view keeps its own stats, so probe work
        appears in :attr:`stats` but not in any job's :class:`RunResult`.
        """
        return _JobEvaluator(self._evaluator, self._lock)

    # ------------------------------------------------------------------ #
    def _validate(self, request: RunRequest) -> None:
        if self._closed:
            raise RuntimeError("the scheduler has been closed")
        if request.n_runs < 1:
            raise ValueError("n_runs must be positive")
        spec = request.resolved_spec().normalized()
        if spec != self._spec:
            raise ValueError(
                f"request spec {spec} does not match the scheduler's substrate "
                f"spec {self._spec}; use one scheduler per evaluator recipe"
            )
        if request.snp_indices is not None:
            indices = request.snp_indices
            if len(indices) < 2:
                raise ValueError("snp_indices must select at least two SNPs")
            if len(set(indices)) != len(indices):
                raise ValueError("snp_indices must be distinct")
            if min(indices) < 0 or max(indices) >= self._dataset.n_snps:
                raise ValueError(
                    f"snp_indices out of range [0, {self._dataset.n_snps})"
                )

    def submit(self, request: RunRequest, *, cost: float | None = None) -> int:
        """Queue a request; returns its job id (used by :meth:`as_completed`).

        ``cost`` is the request's scheduling priority for cost-aware drains
        (higher runs earlier when ``jobs > 1``); when omitted it is estimated
        from the scheduler's ``cost_model`` (no model: first-in, first-out).
        Submitting *during* a drain is supported — job threads pull from the
        live queue, so a consumer can keep a bounded number of jobs in flight
        while streaming results (the scan runner's spill mode).
        """
        self._validate(request)
        if cost is None and self._cost_model is not None:
            cost = estimate_request_cost(request, self._cost_model)
        with self._queue_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
            self._pending.append((job_id, request, cost))
        return job_id

    def _pop_next(self) -> tuple[int, RunRequest, float | None] | None:
        """Take the next queued job: the priciest known cost, else FIFO."""
        with self._queue_lock:
            if not self._pending:
                return None
            best = 0
            best_cost = self._pending[0][2]
            for index, (_job_id, _request, cost) in enumerate(self._pending):
                if cost is not None and (best_cost is None or cost > best_cost):
                    best, best_cost = index, cost
            return self._pending.pop(best)

    def _execute(self, request: RunRequest) -> RunResult:
        start = time.perf_counter()
        config = request.config or GAConfig()
        base_seed = config.seed if request.seed is None else request.seed
        n_snps = (
            len(request.snp_indices)
            if request.snp_indices is not None
            else self._dataset.n_snps
        )
        constraints = request.constraints or HaplotypeConstraints.unconstrained(n_snps)
        evaluator = _JobEvaluator(self._evaluator, self._lock, request.snp_indices)
        runs: list[GAResult] = []
        for run_index in range(request.n_runs):
            ga = AdaptiveMultiPopulationGA(
                n_snps=n_snps,
                config=config.with_seed(base_seed + run_index),
                constraints=constraints,
                evaluator=evaluator,
            )
            runs.append(ga.run())
        return RunResult(
            runs=tuple(runs),
            stats=evaluator.stats,
            backend=self._backend,
            elapsed_seconds=time.perf_counter() - start,
            request=request,
        )

    def run(self, request: RunRequest) -> RunResult:
        """Execute one request synchronously, bypassing the queue.

        Safe to call from many threads at once (the scan service runs one
        handler thread per client connection): evaluation batches serialise
        through the shared substrate, concurrent requests overlap their GA
        bookkeeping, and each result's stats cover exactly its own work.
        """
        self._validate(request)
        result = self._execute(request)
        with self._queue_lock:
            self._n_completed += 1
        return result

    def as_completed(self) -> Iterator[tuple[int, RunResult]]:
        """Execute every queued job, yielding ``(job_id, result)`` as they finish.

        With ``jobs == 1`` the queue is drained in submission order; with more
        jobs, up to ``jobs`` job threads pull from the queue — the most
        expensive known request first when a cost model or explicit costs are
        present — and results stream in completion order.  Either way each
        yielded result is bit-identical to a standalone execution of its
        request.  Jobs submitted while the drain is running join it (the
        consumer may keep a bounded window of jobs in flight).  Abandoning the
        iterator early (``break``, an exception in the consumer) loses
        nothing: unstarted jobs stay in the queue, and jobs that were already
        in flight finish and hand their results to the next drain.
        """
        while self._unclaimed:
            job_id = min(self._unclaimed)
            result = self._unclaimed.pop(job_id)
            self._n_completed += 1
            yield job_id, result
        if self._jobs == 1:
            while True:
                with self._queue_lock:
                    if not self._pending:
                        return
                    job_id, request, cost = self._pending.pop(0)
                try:
                    result = self._execute(request)
                except BaseException:
                    # same retry semantics as the concurrent path: a failed
                    # job stays in the queue and re-runs on the next drain
                    with self._queue_lock:
                        self._pending.insert(0, (job_id, request, cost))
                    raise
                self._n_completed += 1
                yield job_id, result
        yield from self._drain_concurrently()

    def _drain_concurrently(self) -> Iterator[tuple[int, RunResult]]:
        """The ``jobs > 1`` drain: job threads steal queued work by priority.

        Runs in rounds: a thread that polls the queue empty exits, but before
        the generator finishes it re-checks the queue — a submission that
        raced past the exiting threads (the consumer topping up mid-drain)
        starts a fresh round instead of being silently stranded.
        """
        while True:
            with self._queue_lock:
                if not self._pending:
                    return
            yield from self._drain_round()

    def _drain_round(self) -> Iterator[tuple[int, RunResult]]:
        results: queue_module.SimpleQueue = queue_module.SimpleQueue()
        stop = threading.Event()
        sentinel = object()

        def job_thread() -> None:
            try:
                while not stop.is_set():
                    entry = self._pop_next()
                    if entry is None:
                        return
                    job_id, request, cost = entry
                    try:
                        result = self._execute(request)
                    except BaseException as exc:  # re-raised by the consumer
                        results.put((job_id, request, cost, None, exc))
                    else:
                        results.put((job_id, request, cost, result, None))
            finally:
                results.put(sentinel)

        threads = [
            threading.Thread(target=job_thread, daemon=True, name=f"run-job-{i}")
            for i in range(self._jobs)
        ]
        for thread in threads:
            thread.start()
        n_live = len(threads)
        failed: tuple[int, RunRequest, float | None] | None = None
        try:
            while n_live > 0 or not results.empty():
                item = results.get()
                if item is sentinel:
                    n_live -= 1
                    continue
                job_id, request, cost, result, exc = item
                if exc is not None:
                    # the failed job re-queues (and re-raises here); in-flight
                    # siblings finish in the cleanup below and surface on the
                    # next drain
                    failed = (job_id, request, cost)
                    raise exc
                self._n_completed += 1
                yield job_id, result
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            requeued = [] if failed is None else [failed]
            while not results.empty():
                item = results.get()
                if item is sentinel:
                    continue
                job_id, request, cost, result, exc = item
                if exc is not None:
                    requeued.append((job_id, request, cost))
                else:
                    self._unclaimed[job_id] = result
            if requeued:
                with self._queue_lock:
                    self._pending = sorted(requeued) + self._pending

    def map(self, requests: Iterable[RunRequest]) -> list[RunResult]:
        """Execute requests (plus anything already queued) in submission order."""
        for request in requests:
            self.submit(request)
        results: dict[int, RunResult] = dict(self.as_completed())
        return [results[job_id] for job_id in sorted(results)]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the shared substrate (worker farm, shm segment); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._evaluator.close()

    def __enter__(self) -> "RunScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
