"""Scan execution: one GA job per window over one shared substrate.

``run_scan`` is the front door of the genome-scale scan subsystem: it plans
the windows, opens (or borrows) a persistent
:class:`~repro.runtime.service.RunScheduler`, submits one
:class:`~repro.runtime.service.RunRequest` per window and folds the streamed
per-window results into a :class:`~repro.scan.report.ScanReport`.  All
windows share a single worker farm, a single shared-memory panel
registration and the substrate's dedup/LRU caches — overlapping windows
re-request many of the same haplotypes (in global indices), so later windows
are answered partly from the cache population earlier windows built.

Window-local results are translated back to global panel indices here, so
everything downstream (the report, the CLI, the benchmarks) speaks global
locus coordinates.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..core.config import GAConfig
from ..genetics.dataset import GenotypeDataset, LocusWindow
from ..parallel.farm import FarmRecoveryPolicy
from ..parallel.pvm import EvaluationCostModel
from ..runtime.backends import DEFAULT_BACKEND
from ..runtime.service import RunResult, RunScheduler, estimate_request_cost
from .checkpoint import ScanJournal, checkpoint_meta
from .planner import ScanPlan, plan_scan
from .report import ScanReport, WindowResult

__all__ = ["run_scan", "execute_plan", "DEFAULT_MAX_PENDING"]

#: Optional progress hook: called with each window's result as it completes.
ProgressCallback = Callable[[WindowResult], None]

#: Default bound on the number of window jobs submitted but not yet finished:
#: enough to keep any realistic job concurrency fed, small enough that a
#: 10k-window plan never materialises all its requests at once.
DEFAULT_MAX_PENDING = 256


def _window_result(window: LocusWindow, run: RunResult) -> WindowResult:
    """Fold one window job's RunResult into global-index form."""
    best_per_size: dict[int, tuple[tuple[int, ...], float]] = {}
    for size, individual in run.best_per_size().items():
        best_per_size[size] = (
            window.to_global(individual.snps),
            individual.fitness_value(),
        )
    best_size = max(best_per_size, key=lambda s: best_per_size[s][1])
    best_snps, best_fitness = best_per_size[best_size]
    n_generations = sum(r.n_generations for r in run.runs)
    return WindowResult(
        window=window,
        best_snps=best_snps,
        best_fitness=best_fitness,
        best_per_size=best_per_size,
        n_evaluations=run.stats.n_requests,
        n_distinct_evaluations=run.stats.n_evaluations,
        n_generations=n_generations,
        seed=run.request.seed if run.request.seed is not None else 0,
        elapsed_seconds=run.elapsed_seconds,
    )


def execute_plan(
    plan: ScanPlan,
    scheduler: RunScheduler,
    *,
    progress: ProgressCallback | None = None,
    max_pending: int | None = DEFAULT_MAX_PENDING,
    cost_model: EvaluationCostModel | None = None,
    checkpoint_path=None,
    resume: bool = False,
) -> tuple[WindowResult, ...]:
    """Run every window job of ``plan`` on ``scheduler``; window order output.

    Results stream through ``progress`` in completion order (whatever the
    scheduler's job concurrency makes that); the returned tuple is always in
    window order and bit-identical regardless of it.

    ``max_pending`` bounds how many window jobs are submitted but not yet
    finished: the plan's request stream is consumed lazily and topped up as
    results come back, so a 10k-window plan holds a bounded deque of live
    jobs instead of materialising every request up front (``None`` submits
    everything at once).  With a ``cost_model``, each job carries its
    :meth:`~repro.scan.planner.ScanPlan.window_cost` estimate and a
    multi-job scheduler starts the most expensive queued window first.

    ``checkpoint_path`` journals every completed window to a crash-safe JSONL
    file (:class:`~repro.scan.checkpoint.ScanJournal`) as it finishes; with
    ``resume=True`` windows already in the journal are restored instead of
    re-run (``progress`` still sees them, first) and the merged output is
    bit-identical to an uninterrupted run.

    The scheduler's queue (and any unclaimed results of an abandoned drain)
    must be empty: draining them would consume — and lose — results of jobs
    the caller submitted before the scan.
    """
    if scheduler.n_pending or scheduler.n_unclaimed:
        raise ValueError(
            f"the scheduler has {scheduler.n_pending} queued job(s) and "
            f"{scheduler.n_unclaimed} unclaimed result(s); drain them before "
            f"running a scan on it (the scan would consume them)"
        )
    if max_pending is not None and max_pending < 1:
        raise ValueError(f"max_pending must be a positive integer or None, got {max_pending!r}")
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires a checkpoint_path")
    journal = None
    completed: dict[int, WindowResult] = {}
    if checkpoint_path is not None:
        # the journal pins the substrate representation and the panel's
        # content hash: a resume against a byte journal with --packed (or
        # against a different panel entirely) fails loudly instead of
        # silently merging results from incompatible substrates
        journal, completed = ScanJournal.open(
            checkpoint_path,
            checkpoint_meta(
                plan,
                scheduler.dataset.n_snps,
                panel="packed" if scheduler.packed else "byte",
                panel_fingerprint=scheduler.dataset.fingerprint(),
            ),
            resume=resume,
        )
    try:
        results: dict[int, WindowResult] = {}
        for index in sorted(completed):
            restored = completed[index]
            results[index] = restored
            if progress is not None:
                progress(restored)
        request_stream = iter(
            (window, request)
            for window, request in plan.requests()
            if window.index not in results
        )
        windows_by_job: dict[int, LocusWindow] = {}
        n_outstanding = 0
        exhausted = False

        def top_up() -> None:
            nonlocal n_outstanding, exhausted
            while not exhausted and (max_pending is None or n_outstanding < max_pending):
                try:
                    window, request = next(request_stream)
                except StopIteration:
                    exhausted = True
                    return
                # price the request already in hand (equivalent to
                # plan.window_cost without rebuilding the window's request)
                cost = (
                    None if cost_model is None
                    else estimate_request_cost(request, cost_model)
                )
                windows_by_job[scheduler.submit(request, cost=cost)] = window
                n_outstanding += 1

        top_up()
        while n_outstanding:
            # one drain usually finishes the scan (mid-drain submissions join
            # it); re-drain if its job threads raced out while work remained
            for job_id, run in scheduler.as_completed():
                window = windows_by_job.pop(job_id)
                result = _window_result(window, run)
                results[window.index] = result
                if journal is not None:
                    journal.append(result)
                n_outstanding -= 1
                if progress is not None:
                    progress(result)
                top_up()
        return tuple(results[index] for index in sorted(results))
    finally:
        if journal is not None:
            journal.close()


def run_scan(
    dataset: GenotypeDataset | None,
    *,
    window_size: int,
    overlap: int = 0,
    config: GAConfig | None = None,
    seed: int = 0,
    statistic: str = "t1",
    n_runs: int = 1,
    backend: str = DEFAULT_BACKEND,
    n_workers: int | None = None,
    chunk_size: int | None = None,
    jobs: int = 1,
    scheduler: RunScheduler | None = None,
    client=None,
    progress: ProgressCallback | None = None,
    max_pending: int | None = DEFAULT_MAX_PENDING,
    cost_model: EvaluationCostModel | None = None,
    recovery: FarmRecoveryPolicy | None = None,
    checkpoint_path=None,
    resume: bool = False,
    packed: bool = False,
    hosts: Sequence[str] | None = None,
    client_timeout: float | None = None,
) -> ScanReport:
    """Scan a panel with one GA job per overlapping locus window.

    Parameters mirror :func:`repro.scan.planner.plan_scan` (geometry, GA
    configuration, seeding) plus the execution substrate (``backend``,
    ``n_workers``, ``chunk_size``, ``jobs``).  Passing an existing
    ``scheduler`` reuses its warm substrate (and ignores the execution
    parameters); otherwise a scheduler is created for the scan and released
    afterwards.

    Window jobs flow through the bounded, cost-prioritised pipeline of
    :func:`execute_plan`: at most ``max_pending`` jobs are live at a time,
    and with ``jobs > 1`` the priciest windows under ``cost_model`` start
    first (default: the paper's Figure-4
    :class:`~repro.parallel.pvm.EvaluationCostModel`, so clamped small
    windows defer to full-size ones).  Neither knob changes the report —
    per-window results are a pure function of their seeds.

    Robustness: ``recovery`` installs a
    :class:`~repro.parallel.farm.FarmRecoveryPolicy` on a scan-owned
    scheduler's process farm (ignored when an existing ``scheduler`` is
    passed — its substrate is already built), so slave deaths mid-scan are
    survived with a bit-identical report.  ``checkpoint_path`` journals each
    completed window durably and ``resume=True`` restores journaled windows
    instead of re-running them — a scan killed halfway resumes to the same
    report an uninterrupted run produces (window results are pure functions
    of their seeds).

    ``packed=True`` runs the scan on the 2-bit packed genotype substrate
    (~4× smaller shared-memory panels, packed class-counting kernels) with a
    bit-identical report; like ``recovery``, it configures a scan-owned
    scheduler and is ignored when an existing ``scheduler`` is passed.

    ``hosts`` (with ``backend="remote"``) scans against remote worker hosts
    (``"host:port"`` specs, one slave per entry).  It rides the same
    scan-owned-scheduler rule as ``recovery``/``packed``, and the report
    stays bit-identical — per-window results are pure functions of
    their seeds.  A persisted, calibrated ``cost_model``
    (:meth:`~repro.parallel.pvm.EvaluationCostModel.from_json`) both
    prioritises window jobs and drives the farm's cost-balanced chunking.

    ``client`` (a :class:`~repro.runtime.client.ScanClient`) submits the scan
    to a running ``repro serve`` daemon instead of building any local
    substrate: the daemon's warm farm executes (or replays from its result
    cache) every window, and all execution parameters — and ``dataset``,
    which may be ``None`` — are ignored in favour of the service's.  The
    report is fingerprint-identical to the in-process scan of the same
    (geometry, config, seed).  Checkpointing is the daemon's concern, so
    ``client`` is mutually exclusive with ``scheduler`` and
    ``checkpoint_path``.  ``client_timeout`` bounds the whole served scan
    (seconds): the client's deadline/retry machinery
    (:class:`~repro.runtime.client.RetryPolicy`) re-submits idempotently on
    transport loss and raises
    :class:`~repro.runtime.client.DeadlineExceeded` past the budget.
    """
    if client is not None:
        if scheduler is not None:
            raise ValueError("pass either client or scheduler, not both")
        if checkpoint_path is not None or resume:
            raise ValueError(
                "checkpointing happens daemon-side; client scans cannot take "
                "checkpoint_path/resume"
            )
        return client.scan(
            window_size=window_size,
            overlap=overlap,
            config=config,
            seed=seed,
            statistic=statistic,
            n_runs=n_runs,
            progress=progress,
            timeout=client_timeout,
        )
    if dataset is None:
        raise ValueError("dataset may only be omitted when a client is given")
    if cost_model is None and jobs > 1:
        cost_model = EvaluationCostModel()
    start = time.perf_counter()
    plan = plan_scan(
        dataset.n_snps,
        window_size=window_size,
        overlap=overlap,
        config=config,
        seed=seed,
        statistic=statistic,
        n_runs=n_runs,
    )
    owns_scheduler = scheduler is None
    if scheduler is None:
        scheduler = RunScheduler(
            dataset,
            statistic=statistic,
            backend=backend,
            n_workers=n_workers,
            chunk_size=chunk_size,
            jobs=jobs,
            cost_model=cost_model,
            recovery=recovery,
            packed=packed,
            hosts=hosts,
        )
    stats_before = scheduler.stats
    try:
        windows = execute_plan(
            plan,
            scheduler,
            progress=progress,
            max_pending=max_pending,
            cost_model=cost_model,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )
        stats = scheduler.stats.since(stats_before)
    finally:
        if owns_scheduler:
            scheduler.close()
    return ScanReport(
        windows=windows,
        backend=scheduler.backend,
        n_jobs=scheduler.jobs,
        stats=stats,
        elapsed_seconds=time.perf_counter() - start,
        n_snps=dataset.n_snps,
        window_size=window_size,
        overlap=overlap,
        statistic=statistic,
        seed=int(seed),
    )
