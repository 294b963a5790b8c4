"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary, patched
where the caller looks the name up (``repro.stats.evaluation.clump_statistics``,
not ``repro.stats.clump.clump_statistics``).  A wrapped call is a *span*: its
count, duration and self time (duration minus the nested spans of the same
thread) accumulate in a :class:`Tally`.  Some wrappers only count calls or
read a number off the arguments or the result.

The tally lives in an anonymous shared mapping allocated before the program
forks, so farm slaves inherit it and their spans reach the parent.  Each
process writes only its own row.  The wrappers are installed only in traced
repetitions and removed again by :meth:`Tracer.uninstall`; untraced
repetitions never load this module.
"""

from __future__ import annotations

import functools
import importlib
import mmap
import multiprocessing
import os
import threading
import time

import numpy as np

from common import peak_rss_mb

__all__ = ["Tally", "Tracer", "PER_LAYER", "per_layer_metrics", "merge_totals"]

#: rows of a tally: the tracing process plus every process forked from it
MAX_PROCESSES = 32


class Tally:
    """Named float accumulators, one row per process, in shared memory.

    The creating process claims row 0; a forked child claims the next free
    row the first time it records (a fork leaves the child single-threaded,
    so the claim cannot race inside it).  Names ending in ``.max`` keep a
    maximum instead of a sum.  Values accumulate in a process-local list and
    are copied to the shared row when a thread's outermost span ends and
    when :meth:`totals` is read.
    """

    def __init__(self, names) -> None:
        self.names = tuple(dict.fromkeys(names))
        self.index = {name: i for i, name in enumerate(self.names)}
        self._is_max = np.array([name.endswith(".max") for name in self.names])
        width = len(self.names)
        self._map = mmap.mmap(-1, 8 * (1 + MAX_PROCESSES * width))
        cells = np.frombuffer(self._map, dtype=np.float64)
        self._next_row = cells[:1]
        self._rows = cells[1:].reshape(MAX_PROCESSES, width)
        self._claim_lock = multiprocessing.get_context("fork").Lock()
        self._pid = None
        self._claim()

    def _claim(self) -> None:
        with self._claim_lock:
            row = int(self._next_row[0])
            if row >= MAX_PROCESSES:
                raise RuntimeError("more traced processes than tally rows")
            self._next_row[0] = row + 1
        self._row = row
        self._lock = threading.Lock()
        self._threads = threading.local()
        self._local = [0.0] * len(self.names)
        self._pid = os.getpid()

    def _own(self) -> None:
        if self._pid != os.getpid():  # a forked child: fresh row, lock, stacks
            self._claim()

    def stack(self) -> list:
        """The calling thread's stack of open spans (child time per level)."""
        self._own()
        stack = getattr(self._threads, "stack", None)
        if stack is None:
            stack = self._threads.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        self._own()
        i = self.index[name]
        with self._lock:
            if self._is_max[i]:
                self._local[i] = max(self._local[i], value)
            else:
                self._local[i] += value

    def add_span(self, base: int, elapsed: float, self_time: float) -> None:
        """Count one span of the kind whose ``.n`` slot is ``base``."""
        with self._lock:
            local = self._local
            local[base] += 1.0
            local[base + 1] += elapsed
            local[base + 2] += self_time

    def flush(self) -> None:
        self._own()
        with self._lock:
            self._rows[self._row, :] = self._local

    def totals(self) -> dict[str, float]:
        """Every process's accumulators combined (sum, or max for ``.max``)."""
        self.flush()
        rows = self._rows[: int(self._next_row[0])]
        combined = np.where(self._is_max, rows.max(axis=0), rows.sum(axis=0))
        return {name: float(v) for name, v in zip(self.names, combined)}


def merge_totals(*parts: dict[str, float]) -> dict[str, float]:
    """Combine tallies of separate process trees (the daemon and its client)."""
    merged: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            if name.endswith(".max"):
                merged[name] = max(merged.get(name, 0.0), value)
            else:
                merged[name] = merged.get(name, 0.0) + value
    return merged


# --------------------------------------------------------------------------- #
# the probes: which function marks which layer boundary
# --------------------------------------------------------------------------- #
def _ga(add, args, result):
    add("ga.generations", result.n_generations)
    add("ga.requests", result.n_evaluations)


def _dedup(add, args, result):
    add("dedup.requests", len(args[1]))


def _farm(add, args, result):
    farm, tasks = args[0], args[1]
    add("farm.haps", len(tasks))
    add("farm.cache_hits", result[1].n_cache_hits)
    recovery = farm.recovery_counters()  # over the farm's lifetime
    add("farm.deaths.max", recovery["n_worker_deaths"])
    add("farm.replayed.max", recovery["n_chunks_replayed"])


def _em_batch(add, args, result):
    add("em.problems", len(args[0]))


def _em_scalar(add, args, result):
    add("em.problems", 1)


def _chunk(add, args, result):
    add("worker.rss.max", peak_rss_mb())


def _shm(add, args, result):
    add("shm.bytes", args[0].n_bytes)


#: (kind, module, attribute, mode, extract).  Modes: "span" (timed, nests);
#: "count"; "batch" (a span of the master process only: forked slaves run the
#: same code on their worker-local evaluators, recorded as ``SLAVE_KIND``);
#: "evaluator" (wraps a constructor so that the batch calls of the
#: ``evaluator=`` it receives are spans).  Every name is public except
#: ``ScanServer._serve_scan``, the daemon's only per-scan seam.
PROBES = (
    ("io", "repro.genetics.io", "read_study_tables", "span", None),
    ("io", "repro.genetics.io", "read_bed", "span", None),
    ("shm", "repro.runtime.shm", "SharedGenotypeStore.__init__", "count", _shm),
    ("spawn", "repro.parallel.farm", "ChunkedWorkerFarm.__init__", "span", None),
    ("client", "repro.runtime.client", "ScanClient.scan", "span", None),
    ("server", "repro.runtime.server", "ScanServer._serve_scan", "span", None),
    ("journal", "repro.scan.checkpoint", "ScanJournal.append", "span", None),
    ("sched.run", "repro.runtime.service", "RunScheduler.run", "span", None),
    ("ga", "repro.core.ga", "AdaptiveMultiPopulationGA.run", "span", _ga),
    ("ga.batch", "repro.core.ga", "AdaptiveMultiPopulationGA.__init__", "evaluator", None),
    ("dedup", "repro.parallel.base", "BaseBatchEvaluator.evaluate_batch", "batch", _dedup),
    ("farm", "repro.parallel.farm", "ChunkedWorkerFarm.evaluate", "span", _farm),
    ("eval", "repro.stats.evaluation", "HaplotypeEvaluator.evaluate_many", "span", None),
    ("expand", "repro.stats.em", "PhaseExpansionCache.get", "span", None),
    ("expand.miss", "repro.stats.em", "expand_phases", "count", None),
    ("expand.miss", "repro.stats.em", "expand_phases_packed", "count", None),
    ("em", "repro.stats.evaluation", "ehdiall_batch", "span", _em_batch),
    ("em", "repro.stats.evaluation", "ehdiall_from_expansion", "span", _em_scalar),
    ("clump", "repro.stats.evaluation", "clump_statistics", "span", None),
)

#: a "batch" probe's kind and extract in a forked slave: the chunk evaluation
SLAVE_KIND = ("chunk", _chunk)

EXTRA_SLOTS = (
    "ga.generations", "ga.requests", "dedup.requests", "farm.haps",
    "farm.cache_hits", "farm.deaths.max", "farm.replayed.max", "em.problems",
    "worker.rss.max", "shm.bytes",
)


def _span_kinds() -> list[str]:
    kinds = [kind for kind, _module, _attr, mode, _extract in PROBES if mode != "count"]
    return list(dict.fromkeys(kinds + [SLAVE_KIND[0]]))


def probe_kinds() -> list[str]:
    """Every kind a probe records (the ``.n`` slots)."""
    counts = [kind for kind, _module, _attr, mode, _extract in PROBES if mode == "count"]
    return list(dict.fromkeys(_span_kinds() + counts))


def slot_names() -> list[str]:
    """A span kind's ``.n``, ``.s`` and ``.self`` slots are adjacent."""
    names: list[str] = []
    for kind in probe_kinds():
        names.append(f"{kind}.n")
        if kind in _span_kinds():
            names += [f"{kind}.s", f"{kind}.self"]
    return names + list(EXTRA_SLOTS)


class _TimedEvaluator:
    """A batch evaluator whose ``evaluate_batch`` calls are spans."""

    def __init__(self, inner, evaluate_batch) -> None:
        self._inner = inner
        self.evaluate_batch = evaluate_batch

    def evaluate(self, snps):
        return self.evaluate_batch([snps])[0]

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Installs the probes over a :class:`Tally`; :meth:`uninstall` restores them.

    A probe whose name no longer exists is skipped and listed in
    :attr:`missing`, so a renamed function shows in the result instead of
    failing the run.
    """

    def __init__(self) -> None:
        self.tally = Tally(slot_names())
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._installer_pid = os.getpid()

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("the tracer is already installed")
        self.missing = []
        for kind, module_name, attribute, mode, extract in PROBES:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, name, self._wrap(kind, mode, extract, original))
            self._saved.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _span(self, kind, extract, fn, slave=None):
        """``fn`` timed as a span of ``kind`` (of ``slave`` in forked slaves)."""
        tally = self.tally
        add = tally.add
        roles = {True: (tally.index[f"{kind}.n"], extract)}
        if slave is not None:
            roles[False] = (tally.index[f"{slave[0]}.n"], slave[1])
        installer = self._installer_pid
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            base, extract = roles.get(os.getpid() == installer, roles[True])
            stack = tally.stack()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tally.add_span(base, elapsed, elapsed - child)
            if extract is not None:
                extract(add, args, result)
            if not stack:
                tally.flush()
            return result

        return span

    def _wrap(self, kind, mode, extract, fn):
        if mode == "count":
            add = self.tally.add

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                add(f"{kind}.n", 1)
                if extract is not None:
                    extract(add, args, result)
                return result

            return counted

        if mode == "evaluator":
            @functools.wraps(fn)
            def construct(owner, *args, evaluator=None, **kwargs):
                if evaluator is not None:
                    evaluator = _TimedEvaluator(
                        evaluator, self._span(kind, None, evaluator.evaluate_batch))
                return fn(owner, *args, evaluator=evaluator, **kwargs)

            return construct

        return self._span(kind, extract, fn, SLAVE_KIND if mode == "batch" else None)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
#: name -> (unit, better).  BENCHMARK.json's per_layer list mirrors this table.
PER_LAYER = {
    "ga.generations": ("count", "higher"),
    "ga.requests": ("count", "higher"),
    "ga.self_s": ("s", "lower"),
    "sched.jobs": ("count", "higher"),
    "sched.lock_wait_s": ("s", "lower"),
    "dedup.distinct": ("count", "lower"),
    "dedup.reuse_frac": ("fraction", "higher"),
    "dedup.self_s": ("s", "lower"),
    "farm.dispatches": ("count", "lower"),
    "farm.haps_per_dispatch": ("haps/dispatch", "higher"),
    "farm.wall_s": ("s", "lower"),
    "farm.worker_busy_s": ("s", "lower"),
    "farm.worker_util": ("fraction", "higher"),
    "farm.worker_cache_hits": ("count", "higher"),
    "farm.worker_deaths": ("count", "lower"),
    "farm.chunks_replayed": ("count", "lower"),
    "farm.spawn_s": ("s", "lower"),
    "farm.worker_peak_rss_mb": ("MB", "lower"),
    "shm.bytes": ("bytes", "lower"),
    "expand.calls": ("count", "lower"),
    "expand.hit_frac": ("fraction", "higher"),
    "expand.s": ("s", "lower"),
    "em.calls": ("count", "lower"),
    "em.problems_per_call": ("problems/call", "higher"),
    "em.s": ("s", "lower"),
    "clump.calls": ("count", "lower"),
    "clump.s": ("s", "lower"),
    "eval.self_s": ("s", "lower"),
    "server.admission_wait_s": ("s", "lower"),
    "server.rejected": ("count", "lower"),
    "server.cache_hit_frac": ("fraction", "higher"),
    "journal.appends": ("count", "lower"),
    "journal.s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "client.retries": ("count", "lower"),
    "io.load_s": ("s", "lower"),
    "io.bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: spans that run in the scheduler's process while the workload runs; their
#: self times partition the time of the request-carrying threads
_MASTER_WORK_SPANS = ("server", "journal", "sched.run", "ga", "ga.batch", "dedup", "farm")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(totals: dict[str, float], context: dict) -> dict[str, float]:
    """Derive the :data:`PER_LAYER` values (minus the overhead) from a tally.

    ``context`` carries what the repetition measured itself: ``work_s``,
    ``n_workers``, ``streams`` (request-carrying threads in the scheduler's
    process), ``io_bytes`` and the service-tier counts read off the scan
    reports (``admission_wait_s``, ``rejected``, ``cached_windows``,
    ``windows``, ``retries``).
    """
    t = totals.get
    attributed = sum(t(f"{kind}.self", 0.0) for kind in _MASTER_WORK_SPANS)
    jobs = t("sched.run.n", 0.0)
    return {
        "ga.generations": t("ga.generations", 0.0),
        "ga.requests": t("ga.requests", 0.0),
        "ga.self_s": t("ga.self", 0.0),
        "sched.jobs": jobs,
        # the GA's batch calls outside the backend: the scheduler's job layer
        "sched.lock_wait_s": t("ga.batch.self", 0.0) if jobs else 0.0,
        "dedup.distinct": t("farm.haps", 0.0),
        "dedup.reuse_frac": 1.0 - _ratio(t("farm.haps", 0.0), t("dedup.requests", 0.0))
        if t("dedup.requests", 0.0) else 0.0,
        "dedup.self_s": t("dedup.self", 0.0),
        "farm.dispatches": t("farm.n", 0.0),
        "farm.haps_per_dispatch": _ratio(t("farm.haps", 0.0), t("farm.n", 0.0)),
        "farm.wall_s": t("farm.s", 0.0),
        "farm.worker_busy_s": t("chunk.s", 0.0),
        "farm.worker_util": _ratio(t("chunk.s", 0.0), context["n_workers"] * t("farm.s", 0.0)),
        "farm.worker_cache_hits": t("farm.cache_hits", 0.0),
        "farm.worker_deaths": t("farm.deaths.max", 0.0),
        "farm.chunks_replayed": t("farm.replayed.max", 0.0),
        "farm.spawn_s": t("spawn.s", 0.0),
        "farm.worker_peak_rss_mb": t("worker.rss.max", 0.0),
        "shm.bytes": t("shm.bytes", 0.0),
        "expand.calls": t("expand.n", 0.0),
        "expand.hit_frac": 1.0 - _ratio(t("expand.miss.n", 0.0), t("expand.n", 0.0))
        if t("expand.n", 0.0) else 0.0,
        "expand.s": t("expand.s", 0.0),
        "em.calls": t("em.n", 0.0),
        "em.problems_per_call": _ratio(t("em.problems", 0.0), t("em.n", 0.0)),
        "em.s": t("em.s", 0.0),
        "clump.calls": t("clump.n", 0.0),
        "clump.s": t("clump.s", 0.0),
        "eval.self_s": t("eval.self", 0.0),
        "server.admission_wait_s": context.get("admission_wait_s", 0.0),
        "server.rejected": context.get("rejected", 0),
        "server.cache_hit_frac": _ratio(context.get("cached_windows", 0),
                                        context.get("windows", 0))
        if t("server.n", 0.0) else 0.0,
        "journal.appends": t("journal.n", 0.0),
        "journal.s": t("journal.s", 0.0),
        "service.overhead_s": t("client.s", 0.0) - t("sched.run.s", 0.0)
        if t("client.n", 0.0) else 0.0,
        "client.retries": context.get("retries", 0),
        "io.load_s": t("io.s", 0.0),
        "io.bytes": context.get("io_bytes", 0),
        "trace.unattributed_s": context["work_s"] - attributed / context["streams"],
    }
