"""Scan results: per-window records, the genome-wide report, cost calibration.

:class:`WindowResult` is one window's outcome in **global** panel indices;
:class:`ScanReport` aggregates them into the genome-wide LD view (best
haplotype per window, per size, overall) with per-window timing — the
windowed analogue of the paper's Table 2.

The module also keeps the paper's PVM speedup model exercised against the
scan dispatch path: :func:`record_cost_trace` times probe batches of each
haplotype size through a live :class:`~repro.runtime.service.RunScheduler`
substrate (a recorded scan-shaped trace), :meth:`CostTrace.fit_cost_model`
calibrates :class:`~repro.parallel.pvm.EvaluationCostModel` from it, and
:func:`simulate_scan_on_cluster` schedules the scan's per-window evaluation
batches on the deterministic :class:`~repro.parallel.pvm.SimulatedPVM`
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..genetics.dataset import LocusWindow
from ..parallel.base import EvaluationStats
from ..parallel.pvm import EvaluationCostModel, SimulatedPVM
from ..runtime.service import RunScheduler, backend_summary_line

__all__ = [
    "WindowResult",
    "ScanReport",
    "window_result_to_json",
    "window_result_from_json",
    "CostTrace",
    "record_cost_trace",
    "SimulatedScanSpeedup",
    "simulate_scan_on_cluster",
]


@dataclass(frozen=True)
class WindowResult:
    """Outcome of one window's GA job (haplotypes in global panel indices)."""

    window: LocusWindow
    best_snps: tuple[int, ...]
    best_fitness: float
    best_per_size: dict[int, tuple[tuple[int, ...], float]]
    n_evaluations: int
    n_distinct_evaluations: int
    n_generations: int
    seed: int
    elapsed_seconds: float

    @property
    def reuse_rate(self) -> float:
        """Fraction of the window's requests answered by dedup/caches."""
        if self.n_evaluations == 0:
            return 0.0
        return 1.0 - self.n_distinct_evaluations / self.n_evaluations


def window_result_to_json(result: WindowResult) -> dict:
    """One window's JSON payload — the unit both :meth:`ScanReport.to_json`
    and the scan checkpoint journal persist."""
    return {
        "index": result.window.index,
        "start": result.window.start,
        "stop": result.window.stop,
        "best_snps": list(result.best_snps),
        "best_fitness": result.best_fitness,
        "best_per_size": {
            str(size): [list(snps), fitness]
            for size, (snps, fitness) in sorted(result.best_per_size.items())
        },
        "n_evaluations": result.n_evaluations,
        "n_distinct_evaluations": result.n_distinct_evaluations,
        "n_generations": result.n_generations,
        "seed": result.seed,
        "elapsed_seconds": result.elapsed_seconds,
    }


def window_result_from_json(payload: dict) -> WindowResult:
    """Rebuild one window from its :func:`window_result_to_json` payload."""
    return WindowResult(
        window=LocusWindow(
            index=int(payload["index"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
        ),
        best_snps=tuple(int(s) for s in payload["best_snps"]),
        best_fitness=float(payload["best_fitness"]),
        best_per_size={
            int(size): (tuple(int(s) for s in snps), float(fitness))
            for size, (snps, fitness) in payload.get("best_per_size", {}).items()
        },
        n_evaluations=int(payload["n_evaluations"]),
        n_distinct_evaluations=int(payload.get("n_distinct_evaluations", 0)),
        n_generations=int(payload.get("n_generations", 0)),
        seed=int(payload.get("seed", 0)),
        elapsed_seconds=float(payload["elapsed_seconds"]),
    )


@dataclass(frozen=True)
class ScanReport:
    """Genome-wide aggregation of a windowed scan.

    Attributes
    ----------
    windows:
        Per-window results, in window order (regardless of completion order).
    backend, n_jobs:
        Execution substrate the scan ran on.
    stats:
        Evaluation stats merged over every window job (substrate-scoped).
    elapsed_seconds:
        Wall-clock time of the whole scan (farm spin-up included).
    n_snps, window_size, overlap, statistic, seed:
        The scan's geometry and seeding, echoed for reproducibility.
    n_cached_windows:
        Windows replayed from a scan service's cross-request result cache
        (0 for in-process scans and cold-cache service scans).  A daemon
        counts the windows it restores from its own journal here too.
    n_restored_windows:
        Windows an in-process scan restored from its checkpoint journal
        instead of running them (0 without ``resume``).  Like
        ``n_cached_windows``, it is excluded from the fingerprint.
    admission_wait_seconds:
        Time the request spent queued by a scan service's admission
        controller before execution began (0 in-process).
    n_client_retries:
        Transport-level retries the service client spent completing this
        scan (0 in-process and on a fault-free served scan).  Retried
        windows replay from the daemon's result cache/journal, so retries
        never change the fingerprint — like the timings, this is excluded
        from it.
    """

    windows: tuple[WindowResult, ...]
    backend: str
    n_jobs: int
    stats: EvaluationStats
    elapsed_seconds: float
    n_snps: int
    window_size: int
    overlap: int
    statistic: str
    seed: int
    n_cached_windows: int = 0
    n_restored_windows: int = 0
    admission_wait_seconds: float = 0.0
    n_client_retries: int = 0

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def n_evaluations(self) -> int:
        """Total fitness requests across windows (the paper's cost metric)."""
        return sum(w.n_evaluations for w in self.windows)

    def best_window(self) -> WindowResult:
        """The window holding the genome-wide best haplotype."""
        if not self.windows:
            raise ValueError("the scan produced no windows")
        return max(self.windows, key=lambda w: w.best_fitness)

    def top_windows(self, k: int = 10) -> tuple[WindowResult, ...]:
        """The ``k`` windows with the best haplotypes, best first."""
        return tuple(
            sorted(self.windows, key=lambda w: w.best_fitness, reverse=True)[:k]
        )

    def best_per_size(self) -> dict[int, tuple[tuple[int, ...], float]]:
        """Genome-wide best haplotype of every size across all windows."""
        best: dict[int, tuple[tuple[int, ...], float]] = {}
        for window in self.windows:
            for size, (snps, fitness) in window.best_per_size.items():
                current = best.get(size)
                if current is None or fitness > current[1]:
                    best[size] = (snps, fitness)
        return best

    def summary_line(self) -> str:
        """The same reuse account ``run`` prints, over the whole scan."""
        return backend_summary_line(self.backend, self.stats)

    def fingerprint(self) -> dict:
        """The deterministic subset of the report — identical across backends,
        job counts, worker deaths (replayed chunks are bit-identical by
        purity) and checkpoint resumes of the same planned scan.

        Timings are excluded, as is each window's ``n_distinct_evaluations``:
        which cache answers a re-requested haplotype depends on where its
        chunk physically ran (stealing, replay after a death), while
        ``n_evaluations`` (fitness *requests*) and ``n_generations`` are
        functions of the per-window seed alone.
        """
        return {
            "n_snps": self.n_snps,
            "window_size": self.window_size,
            "overlap": self.overlap,
            "statistic": self.statistic,
            "seed": self.seed,
            "windows": [
                {
                    "index": w.window.index,
                    "start": w.window.start,
                    "stop": w.window.stop,
                    "best_snps": list(w.best_snps),
                    "best_fitness": w.best_fitness,
                    "best_per_size": {
                        str(size): [list(snps), fitness]
                        for size, (snps, fitness) in sorted(w.best_per_size.items())
                    },
                    "n_evaluations": w.n_evaluations,
                    "n_generations": w.n_generations,
                    "seed": w.seed,
                }
                for w in self.windows
            ],
        }

    def format(self, *, top: int = 10) -> str:
        """Human-readable genome-wide report (CLI output)."""
        from ..experiments.reporting import format_table

        headline = (
            f"Genome-scale scan: {self.n_snps} loci, {self.n_windows} windows "
            f"(size {self.window_size}, overlap {self.overlap}), "
            f"statistic {self.statistic.upper()}, "
            f"{self.n_evaluations} evaluations in {self.elapsed_seconds:.1f}s "
            f"on {self.backend} (jobs={self.n_jobs})"
        )
        if self.n_cached_windows > 0:
            headline += (
                f"; {self.n_cached_windows} window(s) replayed from the "
                f"service result cache"
            )
        if self.n_restored_windows > 0:
            headline += (
                f"; {self.n_restored_windows} window(s) restored from the "
                f"checkpoint journal"
            )
        lines = [headline]
        headers = ["window", "loci", "best haplotype", "fitness", "# eval", "seconds"]
        rows = [
            [
                w.window.index,
                w.window.span(),
                " ".join(map(str, w.best_snps)),
                w.best_fitness,
                w.n_evaluations,
                w.elapsed_seconds,
            ]
            for w in self.top_windows(top)
        ]
        lines.append(
            format_table(headers, rows, title=f"Top {min(top, self.n_windows)} windows")
        )
        size_headers = ["size", "best haplotype (global loci)", "fitness"]
        size_rows = [
            [size, " ".join(map(str, snps)), fitness]
            for size, (snps, fitness) in sorted(self.best_per_size().items())
        ]
        lines.append(
            format_table(size_headers, size_rows, title="Genome-wide best per size")
        )
        return "\n\n".join(lines)

    def to_json(self) -> dict:
        """JSON-serialisable form (benchmarks, persisted reports).

        Complete enough for :meth:`from_json` to rebuild an equivalent
        report, so scans can be persisted and later reloaded for stitching
        or cross-scan comparison.
        """
        return {
            "n_snps": self.n_snps,
            "window_size": self.window_size,
            "overlap": self.overlap,
            "n_windows": self.n_windows,
            "statistic": self.statistic,
            "seed": self.seed,
            "backend": self.backend,
            "jobs": self.n_jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "n_cached_windows": self.n_cached_windows,
            "n_restored_windows": self.n_restored_windows,
            "admission_wait_seconds": self.admission_wait_seconds,
            "n_client_retries": self.n_client_retries,
            "n_evaluations": self.n_evaluations,
            "reuse_rate": self.stats.reuse_rate,
            "stats": {
                key: value
                for key, value in self.stats.__dict__.items()
                if not key.startswith("_")
            },
            "windows": [window_result_to_json(w) for w in self.windows],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ScanReport":
        """Rebuild a report persisted by :meth:`to_json` (round-trip exact).

        Reloaded reports support every aggregation the original did —
        ``best_window``, ``best_per_size``, ``format`` — so persisted scans
        can be stitched or compared without re-running them.
        """
        windows = tuple(window_result_from_json(w) for w in payload["windows"])
        return cls(
            windows=windows,
            backend=str(payload["backend"]),
            n_jobs=int(payload["jobs"]),
            stats=EvaluationStats(**payload.get("stats", {})),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            n_snps=int(payload["n_snps"]),
            window_size=int(payload["window_size"]),
            overlap=int(payload["overlap"]),
            statistic=str(payload["statistic"]),
            seed=int(payload["seed"]),
            # absent in pre-service payloads: legacy reports still load
            n_cached_windows=int(payload.get("n_cached_windows", 0)),
            n_restored_windows=int(payload.get("n_restored_windows", 0)),
            admission_wait_seconds=float(payload.get("admission_wait_seconds", 0.0)),
            n_client_retries=int(payload.get("n_client_retries", 0)),
        )


# --------------------------------------------------------------------------- #
# cost-model calibration + simulated-cluster check (paper Section 4.5 model)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CostTrace:
    """A recorded trace of per-size evaluation timings on a live substrate."""

    sizes: tuple[int, ...]
    mean_seconds: tuple[float, ...]
    n_probes: int
    backend: str

    def fit_cost_model(self) -> EvaluationCostModel:
        """Calibrate the paper's exponential cost model on this trace."""
        return EvaluationCostModel.fit(self.sizes, self.mean_seconds)


def record_cost_trace(
    scheduler: RunScheduler,
    *,
    sizes: Sequence[int] = (2, 3, 4, 5),
    n_probes: int = 16,
    seed: int = 0,
) -> CostTrace:
    """Time probe batches of each haplotype size through the scan substrate.

    For every size, ``n_probes`` distinct random haplotypes over the
    scheduler's full panel are evaluated as batches through the scheduler's
    shared evaluator — the exact dispatch path (chunking, affinity routing,
    worker caches) a scan's generation batches travel.  On a warm substrate
    some probes are answered by the shared dedup/LRU caches at ~zero cost;
    those must not deflate the model, so the recorded mean divides the batch
    wall-clock by the evaluations the substrate *actually performed* (the
    per-probe stats delta) and keeps drawing fresh probes until enough real
    evaluations were timed.  A substrate whose cache already holds every
    haplotype of a size cannot be calibrated and raises ``RuntimeError``.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be positive")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two haplotype sizes to calibrate")
    n_snps = scheduler.dataset.n_snps
    if max(sizes) > n_snps:
        raise ValueError(f"probe size {max(sizes)} exceeds the panel ({n_snps} SNPs)")
    import time

    from ..search.search_space import sample_distinct_haplotypes

    rng = np.random.default_rng(seed)
    mean_seconds = []
    for size in sizes:
        elapsed = 0.0
        evaluated = 0
        for _attempt in range(5):
            batch = sample_distinct_haplotypes(rng, n_snps, size, n_probes)
            probe = scheduler.probe_evaluator()
            start = time.perf_counter()
            probe.evaluate_batch(batch)
            elapsed += time.perf_counter() - start
            evaluated += probe.stats.n_evaluations
            if evaluated >= min(n_probes, len(batch)):
                break
        if evaluated == 0:
            raise RuntimeError(
                f"the substrate's caches answered every size-{size} probe; "
                f"calibrate on a cold scheduler or a larger panel"
            )
        mean_seconds.append(elapsed / evaluated)
    return CostTrace(
        sizes=sizes,
        mean_seconds=tuple(mean_seconds),
        n_probes=int(n_probes),
        backend=scheduler.backend,
    )


@dataclass(frozen=True)
class SimulatedScanSpeedup:
    """Predicted scan speedup on the paper's deterministic cluster model."""

    n_slaves: int
    speedup: float
    makespan_seconds: float
    serial_seconds: float

    @property
    def efficiency(self) -> float:
        return 0.0 if self.n_slaves == 0 else self.speedup / self.n_slaves


def simulate_scan_on_cluster(
    report: ScanReport,
    cost_model: EvaluationCostModel,
    *,
    n_slaves: int,
    message_latency_seconds: float = 1.0e-4,
) -> SimulatedScanSpeedup:
    """Schedule the scan's per-window evaluation batches on a simulated PVM.

    Every window contributes one synchronous batch of
    ``n_distinct_evaluations`` tasks whose sizes cycle through the window's
    sub-population sizes (the scan's actual per-generation mix is not
    recorded; the cycle is the deterministic stand-in).  Windows run one
    after another — the scan's generation barrier — so the scan makespan is
    the sum of per-window makespans, and the speedup is the usual serial /
    parallel ratio of the paper's model applied to the scan workload.
    """
    total_makespan = 0.0
    total_serial = 0.0
    cluster = SimulatedPVM(
        n_slaves,
        cost_model=cost_model,
        message_latency_seconds=message_latency_seconds,
    )
    for window in report.windows:
        if window.n_distinct_evaluations == 0:
            continue
        subpop_sizes = sorted(window.best_per_size) or [2]
        batch_sizes = [
            subpop_sizes[i % len(subpop_sizes)]
            for i in range(window.n_distinct_evaluations)
        ]
        schedule = cluster.schedule_batch(batch_sizes)
        total_makespan += schedule.makespan_seconds
        total_serial += schedule.serial_seconds
    speedup = 0.0 if total_makespan <= 0 else total_serial / total_makespan
    return SimulatedScanSpeedup(
        n_slaves=int(n_slaves),
        speedup=speedup,
        makespan_seconds=total_makespan,
        serial_seconds=total_serial,
    )
