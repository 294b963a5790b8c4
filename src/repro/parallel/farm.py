"""Chunked worker farm: affinity queues, work stealing, streamed completions.

Reproducing the paper's protocol literally — one individual per message
through a :class:`multiprocessing.Pool` — has two structural costs the
paper's C/PVM implementation did not pay:

* every individual is a separate task message (scheduling + IPC overhead per
  haplotype instead of per chunk);
* a ``Pool`` hands tasks to *whichever* worker is free, so a haplotype that is
  re-requested in a later generation usually lands on a different slave than
  the one whose caches already hold its phase expansions and EM result.

This module keeps per-slave ownership (the master routes each distinct
haplotype to the slave that owns it — a deterministic function of the sorted
SNP tuple — so slave-side caches survive across generations) but the dispatch
engine itself is asynchronous:

* work is submitted as **tickets** (:meth:`ChunkedWorkerFarm.submit`) whose
  chunks are queued master-side in per-slave *affinity queues*;
* completions stream back over per-slave result pipes (no writer lock shared
  between slaves, so a dying slave cannot wedge the survivors) and are folded
  into their ticket as they arrive (:meth:`~ChunkedWorkerFarm.collect` /
  :meth:`~ChunkedWorkerFarm.as_completed`) instead of being barrier-joined;
* in **steal mode** each slave holds only a bounded number of in-flight
  chunks; when a slave drains its own affinity queue the master refills it
  from the *longest* other queue (work stealing on behalf of the idle slave —
  the master is the only party with global queue knowledge, exactly as in the
  paper's master/slave organisation), so one slow slave or one expensive
  chunk no longer stalls the whole generation.

The synchronous entry point :meth:`~ChunkedWorkerFarm.evaluate` is
``collect(submit(batch))`` and, with ``steal=False`` (the default), dispatches
every chunk to its affinity owner up front — the exact behaviour of the
synchronous farm.  Inside the slave a chunk runs through the batch fast path
(a worker-local :class:`~repro.parallel.serial.SerialEvaluator` with its own
LRU); per-chunk counters and timings travel back with the results and are
merged into the farm's :class:`~repro.parallel.base.EvaluationStats`, so the
counter parity with the serial path holds under stealing too (fitness values
are a pure function of the haplotype, not of the slave that computes them).
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Iterable, Iterator, Sequence

from .base import (
    FitnessCallable,
    default_mp_context,
    validate_chunk_size,
    validate_worker_count,
)
from .pvm import EvaluationCostModel

__all__ = [
    "ChunkStats",
    "ChunkedWorkerFarm",
    "FarmDeadError",
    "FarmRecoveryPolicy",
    "affinity_worker",
    "cost_balanced_chunks",
]


class FarmDeadError(RuntimeError):
    """The farm lost its slave processes and cannot finish outstanding work.

    Raised (and remembered — every later ``submit``/``collect`` re-raises it)
    when a worker dies and no :class:`FarmRecoveryPolicy` is installed, or
    when recovery is enabled but no worker survives.  :attr:`lost_tickets`
    lists the tickets whose batches were in flight when the farm died.
    """

    def __init__(self, message: str, lost_tickets: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.lost_tickets = tuple(lost_tickets)


@dataclass(frozen=True)
class FarmRecoveryPolicy:
    """Self-healing policy of a :class:`ChunkedWorkerFarm`.

    Fitness is a pure function of the haplotype and every chunk is fully
    described master-side, so work lost to a dead or hung slave can be
    replayed bit-identically on a survivor.  With a policy installed the farm
    does exactly that instead of raising :class:`FarmDeadError`:

    * a dead slave's in-flight and queued chunks are requeued onto survivors
      (in-flight replays are bounded by ``max_chunk_retries``; a chunk lost
      more often surfaces as a per-ticket error through the existing
      error-isolation path, never a farm-wide crash);
    * with ``respawn=True`` the slave is restarted in place (at most
      ``max_worker_restarts`` restarts over the farm's lifetime), restoring
      full capacity;
    * with a ``chunk_timeout`` each dispatched chunk carries a soft deadline
      of ``chunk_timeout + timeout_cost_factor * modelled_cost(chunk)``
      seconds (scaled by the farm's cost model, so a legitimately expensive
      large-haplotype chunk is not mistaken for a hang); a slave whose chunk
      is overdue is treated as dead — terminated, its work replayed.  The
      deadline clock starts at dispatch, so prefer steal mode (bounded
      in-flight chunks) over the all-upfront synchronous dispatch when using
      timeouts.
    """

    respawn: bool = False
    max_worker_restarts: int = 2
    max_chunk_retries: int = 2
    chunk_timeout: float | None = None
    timeout_cost_factor: float = 8.0

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_worker_restarts, int)
            or isinstance(self.max_worker_restarts, bool)
            or self.max_worker_restarts < 0
        ):
            raise ValueError(
                f"max_worker_restarts must be a non-negative integer, "
                f"got {self.max_worker_restarts!r}"
            )
        if (
            not isinstance(self.max_chunk_retries, int)
            or isinstance(self.max_chunk_retries, bool)
            or self.max_chunk_retries < 1
        ):
            raise ValueError(
                f"max_chunk_retries must be a positive integer, "
                f"got {self.max_chunk_retries!r}"
            )
        if self.chunk_timeout is not None and not self.chunk_timeout > 0:
            raise ValueError(
                f"chunk_timeout must be positive or None, got {self.chunk_timeout!r}"
            )
        if self.timeout_cost_factor < 0:
            raise ValueError(
                f"timeout_cost_factor must be non-negative, "
                f"got {self.timeout_cost_factor!r}"
            )


def cost_balanced_chunks(
    indices: Sequence[int], costs: Sequence[float], target_cost: float
) -> list[list[int]]:
    """Pack an ordered index run into contiguous chunks of ~equal modelled cost.

    Greedy: indices accumulate into the current chunk until its summed cost
    reaches ``target_cost``, so a size-7 haplotype (exponentially more
    expensive under the paper's Figure-4 cost model) fills a chunk almost by
    itself while size-3 candidates travel dozens to a message — every chunk
    then represents a comparable slice of *work*, which is what the stealing
    engine balances.
    """
    if target_cost <= 0:
        return [list(indices)] if len(indices) else []
    chunks: list[list[int]] = []
    current: list[int] = []
    accumulated = 0.0
    for index, cost in zip(indices, costs):
        current.append(index)
        accumulated += cost
        if accumulated >= target_cost:
            chunks.append(current)
            current, accumulated = [], 0.0
    if current:
        chunks.append(current)
    return chunks

#: A picklable zero-argument callable building the worker's fitness function.
#: Called exactly once per slave process ("the slaves access only once to the
#: data"); the result is wrapped in the worker-local batch evaluator.
EvaluatorFactory = Callable[[], FitnessCallable]


@dataclass(frozen=True)
class ChunkStats:
    """Per-chunk accounting a slave reports back with its results."""

    n_requests: int
    n_evaluations: int
    n_cache_hits: int
    seconds: float
    n_stacked_em: int = 0
    n_stacked_problems: int = 0


def affinity_worker(key: tuple[int, ...], n_workers: int) -> int:
    """Deterministic owner slave of a haplotype (stable across generations).

    Hashing the sorted SNP tuple — integers hash reproducibly, unaffected by
    ``PYTHONHASHSEED`` — pins every haplotype to one slave, so that slave's
    expansion/result caches keep working when the haplotype returns in a later
    generation.
    """
    return hash(key) % n_workers


def _build_local_evaluator(
    worker_id: int, factory: EvaluatorFactory, worker_cache_size: int | None, outbox
):
    """Build a slave's batch evaluator, reporting start-up failures in-band.

    Returns ``None`` after sending the startup-error message (the master
    raises it out of the collect loop).
    """
    from .serial import SerialEvaluator

    try:
        fitness = factory()
        return SerialEvaluator(fitness, cache_size=worker_cache_size)
    except Exception:
        try:
            outbox.send((None, worker_id, None, None, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        return None


def _evaluate_chunk(local, task_id: int, worker_id: int, chunk) -> tuple:
    """Evaluate one chunk on a slave's local evaluator; build the reply message.

    Shared by every slave loop (inbox-fed, remote socket) so the protocol —
    values + per-chunk stats, or the traceback of an in-band error — is
    identical on every transport.
    """
    try:
        before = local.stats.copy()
        start = time.perf_counter()
        values = local.evaluate_batch(chunk)
        elapsed = time.perf_counter() - start
        delta = local.stats.since(before)
        stats = ChunkStats(
            n_requests=delta.n_requests,
            n_evaluations=delta.n_evaluations,
            n_cache_hits=delta.n_cache_hits + delta.n_dedup_hits,
            seconds=elapsed,
            n_stacked_em=delta.n_stacked_em,
            n_stacked_problems=delta.n_stacked_problems,
        )
        return (task_id, worker_id, values, stats, None)
    except Exception:
        return (task_id, worker_id, None, None, traceback.format_exc())


def _farm_worker_main(
    worker_id: int,
    factory: EvaluatorFactory,
    worker_cache_size: int | None,
    inbox,
    outbox,
) -> None:
    """Slave loop: build the evaluator once, then evaluate chunks until told to stop.

    ``outbox`` is this slave's *private* result pipe (a ``Connection``, not a
    shared queue): a slave killed mid-send can only tear its own channel, it
    can never wedge the other slaves behind a shared writer lock.  A send
    failing because the master closed the pipe (shutdown) ends the loop.
    """
    local = _build_local_evaluator(worker_id, factory, worker_cache_size, outbox)
    if local is None:  # pragma: no cover - exercised via the startup-error test
        return
    while True:
        message = inbox.get()
        if message is None:
            break
        task_id, chunk = message
        reply = _evaluate_chunk(local, task_id, worker_id, chunk)
        try:
            outbox.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - master gone
            return


class _Ticket:
    """Master-side state of one submitted batch (results fill in as chunks land)."""

    __slots__ = (
        "ticket_id", "results", "remaining", "n_requests", "n_evaluations",
        "n_cache_hits", "seconds", "n_stacked_em", "n_stacked_problems", "error",
    )

    def __init__(self, ticket_id: int, batch_size: int) -> None:
        self.ticket_id = ticket_id
        self.results: list[float] = [0.0] * batch_size
        self.remaining: set[int] = set()  # outstanding task ids (queued or in flight)
        self.n_requests = 0
        self.n_evaluations = 0
        self.n_cache_hits = 0
        self.seconds = 0.0
        self.n_stacked_em = 0
        self.n_stacked_problems = 0
        self.error: str | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or not self.remaining

    def stats(self) -> ChunkStats:
        return ChunkStats(
            self.n_requests,
            self.n_evaluations,
            self.n_cache_hits,
            self.seconds,
            self.n_stacked_em,
            self.n_stacked_problems,
        )


@dataclass
class _Dispatch:
    """Master-side record of one chunk currently inside a slave's inbox."""

    worker: int
    chunk: list
    deadline: float | None  # monotonic soft deadline (None: no chunk_timeout)


class ChunkedWorkerFarm:
    """A farm of slave processes fed through master-side affinity queues.

    Parameters
    ----------
    factory:
        Picklable zero-argument callable; each slave calls it once to build
        its fitness function (ship a pickled evaluator, or attach to a
        shared-memory genotype store).
    n_workers:
        Number of slave processes.
    chunk_size:
        Maximum number of haplotypes per message.  ``None`` sends each
        slave's whole share of a batch as a single chunk when ``steal`` is
        off (one message per slave per generation — the synchronous-farm
        optimum for homogeneous slaves); in steal mode ``None`` sizes chunks
        from the ``cost_model`` and the batch's composition, cutting each
        slave's share into stealable pieces of ~equal modelled cost (so one
        expensive large-haplotype chunk no longer hides a whole queue of
        cheap work behind it).  An explicit ``chunk_size`` keeps the fixed
        count-based slicing.
    cost_model:
        Evaluation-cost model used by the cost-driven auto chunking (default:
        the paper's Figure-4 calibration; the scheduler passes its own
        calibrated model through the backend layer).
    worker_cache_size:
        Bound of each slave's local fitness LRU (``0`` disables slave-side
        result reuse, e.g. for timing studies).
    steal:
        Enable work stealing: each slave holds at most ``max_inflight``
        chunks; an idle slave is refilled from the longest other affinity
        queue.  Fitness values are identical either way (they depend only on
        the haplotype), only which slave's caches serve a re-request changes.
        Idle slaves are refilled — and steal — through the master, one round
        trip per chunk.
    max_inflight:
        Steal mode only: in-flight chunk bound per slave (default 2 — one
        computing, one buffered, the rest stealable).
    recovery:
        Optional :class:`FarmRecoveryPolicy`.  Without one (the default) a
        dead slave raises :class:`FarmDeadError`; with one the farm heals
        itself — lost chunks are replayed bit-identically on survivors, dead
        slaves are optionally respawned, and hung slaves are reaped via the
        policy's ``chunk_timeout``.

    The farm is a context manager; :meth:`close` and :meth:`terminate` are
    idempotent (double ``__exit__`` included) and safe after worker crashes —
    shutdown closes every result pipe and detaches every inbox's feeder
    thread so it can never hang on a half-flushed pipe.
    """

    _RESULT_POLL_SECONDS = 0.5
    #: steal mode: auto chunking targets this many stealable chunks per slave
    _STEAL_CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        factory: EvaluatorFactory,
        n_workers: int,
        *,
        chunk_size: int | None = None,
        worker_cache_size: int | None = 4096,
        steal: bool = False,
        max_inflight: int = 2,
        cost_model: EvaluationCostModel | None = None,
        recovery: FarmRecoveryPolicy | None = None,
    ) -> None:
        if n_workers is None:
            raise ValueError("n_workers must be a positive integer, got None")
        validate_worker_count(n_workers)
        validate_chunk_size(chunk_size)
        if not isinstance(max_inflight, int) or isinstance(max_inflight, bool) or max_inflight < 1:
            raise ValueError(f"max_inflight must be a positive integer, got {max_inflight!r}")
        if recovery is not None and not isinstance(recovery, FarmRecoveryPolicy):
            raise TypeError(f"recovery must be a FarmRecoveryPolicy or None, got {recovery!r}")
        self._context = default_mp_context()
        self._factory = factory
        self._worker_cache_size = worker_cache_size
        self._recovery = recovery
        self._n_workers = n_workers
        self._chunk_size = chunk_size
        self._cost_model = cost_model if cost_model is not None else EvaluationCostModel()
        self._steal = bool(steal)
        self._max_inflight = max_inflight
        self._inboxes = []
        self._result_conns: list = []
        self._processes = []
        self._closed = False
        # engine state (all master-side; guarded by _lock so the ticket API is
        # safe to drive from the scheduler's job threads).  The blocking
        # result-pipe wait happens *outside* the lock — one thread drains at
        # a time (_draining) while other waiters sleep on the condition, so a
        # long batch never serialises unrelated submits/collects.
        self._lock = threading.RLock()
        self._progress = threading.Condition(self._lock)
        self._draining = False
        self._next_task_id = 0  # monotone across the farm's lifetime: stale
        # results of a failed ticket can never collide with a later ticket's
        # task ids (unknown ids are drained and discarded)
        self._next_ticket_id = 0
        self._tickets: dict[int, _Ticket] = {}
        #: task id -> (ticket id, positions of the chunk within the batch)
        self._task_info: dict[int, tuple[int, list[int]]] = {}
        #: per-slave affinity queues of not-yet-dispatched (task_id, chunk)
        self._queues: list[deque] = [deque() for _ in range(n_workers)]
        #: chunks currently inside each slave's inbox / being evaluated
        self._inflight: list[int] = [0] * n_workers
        # recovery state: which slaves are believed alive, what each one is
        # working on (for replay), how often each task's chunk was already
        # replayed, and the farm-lifetime recovery counters
        self._alive: list[bool] = [True] * n_workers
        self._inflight_tasks: dict[int, _Dispatch] = {}
        self._retries: dict[int, int] = {}
        self._restarts_used = 0
        self._n_worker_deaths = 0
        self._n_chunks_replayed = 0
        self._n_worker_respawns = 0
        self._dead_error: FarmDeadError | None = None
        for worker_id in range(n_workers):
            self._inboxes.append(None)
            self._result_conns.append(None)
            self._processes.append(None)
            self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        """(Re)start the slave in slot ``worker_id`` with a fresh inbox/pipe.

        Each slave reports results over its own one-way pipe: there is no
        writer lock shared between slaves, so a slave killed mid-send (the
        way a SIGKILLed or OOM-killed node dies) cannot wedge the survivors.
        The master closes its copy of the send end so a dead slave's channel
        reads as EOF instead of blocking.
        """
        inbox = self._context.Queue()
        recv_conn, send_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_farm_worker_main,
            args=(worker_id, self._factory, self._worker_cache_size, inbox, send_conn),
            daemon=True,
        )
        process.start()
        send_conn.close()
        self._close_conn(self._result_conns[worker_id])
        self._inboxes[worker_id] = inbox
        self._result_conns[worker_id] = recv_conn
        self._processes[worker_id] = process
        self._inflight[worker_id] = 0
        self._alive[worker_id] = True

    @staticmethod
    def _close_conn(conn) -> None:
        if conn is None:
            return
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def n_alive_workers(self) -> int:
        """Slaves currently believed alive (death is detected lazily on poll)."""
        with self._lock:
            return sum(self._alive)

    @property
    def recovery(self) -> FarmRecoveryPolicy | None:
        return self._recovery

    def recovery_counters(self) -> dict[str, int]:
        """Monotone counts of recovery events over the farm's lifetime."""
        with self._lock:
            return {
                "n_worker_deaths": self._n_worker_deaths,
                "n_chunks_replayed": self._n_chunks_replayed,
                "n_worker_respawns": self._n_worker_respawns,
            }

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def steal(self) -> bool:
        return self._steal

    def _chunk_cost_target(self, batch: Sequence[tuple[int, ...]]) -> float:
        """Per-chunk cost budget for one batch under the farm's cost model.

        The batch's total modelled cost is spread over a few stealable chunks
        per slave, so chunk boundaries land where the *work* divides evenly
        rather than where the candidate count does.
        """
        total = float(
            sum(self._cost_model.cost(len(key)) for key in batch)
        )
        return total / (self._n_workers * self._STEAL_CHUNKS_PER_WORKER)

    def _chunks_for_worker(
        self,
        indices: list[int],
        batch: Sequence[tuple[int, ...]],
        cost_target: float | None,
    ) -> list[list[int]]:
        size = self._chunk_size
        if size is not None:
            return [indices[i: i + size] for i in range(0, len(indices), size)]
        if not self._steal:
            # synchronous-farm optimum: the slave's whole share in one message
            return [indices]
        # a share of one unsplittable chunk cannot be stolen; cut it into
        # pieces of ~equal modelled cost so imbalance has somewhere to go
        costs = [self._cost_model.cost(len(batch[i])) for i in indices]
        return cost_balanced_chunks(indices, costs, cost_target or 0.0)

    # ------------------------------------------------------------------ #
    # the dispatch engine
    # ------------------------------------------------------------------ #
    def _on_result_channel_error(self, conn) -> None:
        """Transport hook: a result channel failed mid-recv (default no-op —
        process transports rely on the ``is_alive`` health pass instead)."""

    def _handle_control_message(self, message) -> bool:
        """Transport hook: consume non-result traffic on the result channel.

        Returns True when ``message`` was control traffic (e.g. a remote
        host's heartbeat) and must not be folded in as a chunk result.  The
        local process transport has no control traffic, so the default
        recognises nothing.
        """
        return False

    def _send_message(self, worker: int, message) -> None:
        """Deliver one protocol message to a slave (transport hook)."""
        self._inboxes[worker].put(message)

    def _dispatch(self, worker: int, task_id: int, chunk) -> None:
        deadline = None
        policy = self._recovery
        if policy is not None and policy.chunk_timeout is not None:
            modelled = sum(self._cost_model.cost(len(key)) for key in chunk)
            deadline = (
                time.monotonic()
                + policy.chunk_timeout
                + policy.timeout_cost_factor * modelled
            )
        self._send_message(worker, (task_id, chunk))
        self._inflight[worker] += 1
        self._inflight_tasks[task_id] = _Dispatch(worker, chunk, deadline)

    def _steal_source(self, thief: int) -> int | None:
        """The slave whose affinity queue the idle ``thief`` should steal from."""
        longest, length = None, 0
        for worker in range(self._n_workers):
            if worker == thief:
                continue
            queued = len(self._queues[worker])
            if queued > length:
                longest, length = worker, queued
        return longest

    def _pump(self) -> None:
        """Dispatch queued chunks within the in-flight bounds (steal when idle)."""
        if not self._steal:
            # synchronous-farm behaviour: everything goes to its owner upfront
            for worker, queue in enumerate(self._queues):
                while queue and self._alive[worker]:
                    task_id, chunk = queue.popleft()
                    self._dispatch(worker, task_id, chunk)
            return
        progress = True
        while progress:
            progress = False
            for worker in range(self._n_workers):
                if not self._alive[worker]:
                    continue
                if self._inflight[worker] >= self._max_inflight:
                    continue
                if self._queues[worker]:
                    task_id, chunk = self._queues[worker].popleft()
                elif (source := self._steal_source(worker)) is not None:
                    # steal from the *tail* of the longest queue: the head is
                    # next in line for its owner, the tail is the work least
                    # likely to benefit from the owner's caches soon
                    task_id, chunk = self._queues[source].pop()
                else:
                    continue
                self._dispatch(worker, task_id, chunk)
                progress = True

    def _fail_ticket(self, ticket: _Ticket, error: str) -> None:
        ticket.error = error
        for queue in self._queues:
            retained = [
                (task_id, chunk)
                for task_id, chunk in queue
                if self._task_info.get(task_id, (None,))[0] != ticket.ticket_id
            ]
            queue.clear()
            queue.extend(retained)
        for task_id in list(ticket.remaining):
            self._task_info.pop(task_id, None)
            self._retries.pop(task_id, None)
        ticket.remaining.clear()

    # ------------------------------------------------------------------ #
    # self-healing: death/hang detection, chunk replay, respawn
    # ------------------------------------------------------------------ #
    def _raise_if_dead(self) -> None:
        if self._dead_error is not None:
            raise self._dead_error

    def _fail_farm(self, reason: str) -> None:
        """No capacity left: remember the terminal error and raise it."""
        lost = sorted(
            ticket_id for ticket_id, ticket in self._tickets.items() if not ticket.done
        )
        error = FarmDeadError(
            f"worker farm is dead: {reason}; lost ticket(s) {lost}",
            lost_tickets=lost,
        )
        self._dead_error = error
        raise error

    def _affinity_target(self, key: tuple[int, ...]) -> int:
        """The key's owner slave, rerouted deterministically if the owner died."""
        owner = affinity_worker(key, self._n_workers)
        if self._alive[owner]:
            return owner
        survivors = [w for w in range(self._n_workers) if self._alive[w]]
        return survivors[hash(key) % len(survivors)]

    def _worker_is_alive(self, worker: int) -> bool:
        """Transport hook: is the worker's process/connection still healthy?"""
        return self._processes[worker].is_alive()

    def _worker_lost_reason(self, worker: int) -> str:
        """Transport hook: describe why :meth:`_worker_is_alive` went false."""
        exitcode = self._processes[worker].exitcode
        return f"worker process {worker} died (exit code {exitcode})"

    def _kill_worker(self, worker: int) -> None:
        """Transport hook: forcefully stop a hung worker."""
        process = self._processes[worker]
        process.terminate()
        process.join(timeout=5.0)

    def _check_farm_health(self) -> None:
        """Poll-timeout health pass: reap dead slaves, expire overdue chunks.

        Called with the engine lock held whenever the result wait times out —
        the farm deadline the collect loop is bounded by, so a farm whose
        every slave died raises instead of spinning forever.
        """
        if self._closed or self._dead_error is not None:
            return
        for worker in range(self._n_workers):
            if self._alive[worker] and not self._worker_is_alive(worker):
                self._on_worker_lost(worker, self._worker_lost_reason(worker))
        policy = self._recovery
        if policy is None or policy.chunk_timeout is None:
            return
        now = time.monotonic()
        overdue = sorted({
            dispatch.worker
            for dispatch in self._inflight_tasks.values()
            if dispatch.deadline is not None
            and now > dispatch.deadline
            and self._alive[dispatch.worker]
        })
        for worker in overdue:
            self._kill_worker(worker)
            self._on_worker_lost(
                worker,
                f"worker process {worker} exceeded its chunk deadline and was "
                f"terminated as hung",
            )

    def _reclaim_worker(self, worker: int) -> tuple[list, list]:
        """Pull back everything a dead slave was responsible for.

        Returns ``(lost, orphaned)`` as ``(task_id, chunk)`` lists: *lost*
        chunks were in the dead slave's hands (retry-charged replays);
        *orphaned* chunks were merely parked on it and are rerouted free.
        """
        lost = [
            (task_id, dispatch.chunk)
            for task_id, dispatch in self._inflight_tasks.items()
            if dispatch.worker == worker
        ]
        for task_id, _chunk in lost:
            del self._inflight_tasks[task_id]
        self._inflight[worker] = 0
        orphaned = list(self._queues[worker])
        self._queues[worker].clear()
        return lost, orphaned

    def _respawn_worker(self, worker: int) -> bool:
        """Transport hook: bring a replacement worker up; True on success."""
        self._retire_queue(self._inboxes[worker])
        self._spawn_worker(worker)  # also swaps in a fresh result pipe
        return True

    def _on_worker_lost(self, worker: int, reason: str) -> None:
        """A slave died (or hung past its deadline): heal or fail the farm."""
        self._alive[worker] = False
        self._n_worker_deaths += 1
        if self._recovery is None:
            # legacy behaviour, now with a terminal, non-spinning error
            self._fail_farm(f"{reason} while evaluating a batch")
        # reclaim everything the dead slave was responsible for
        lost, orphaned = self._reclaim_worker(worker)
        policy = self._recovery
        if policy.respawn and self._restarts_used < policy.max_worker_restarts:
            self._restarts_used += 1
            if self._respawn_worker(worker):
                self._n_worker_respawns += 1
            else:
                self._close_conn(self._result_conns[worker])
                self._result_conns[worker] = None
        else:
            self._close_conn(self._result_conns[worker])
            self._result_conns[worker] = None
        if not any(self._alive):
            self._fail_farm(f"{reason}; no surviving workers")
        # in-flight chunks are bounded-retry replays; never-dispatched queued
        # chunks are simply rerouted (no retry charged)
        for task_id, chunk in lost:
            self._replay_chunk(task_id, chunk)
        for task_id, chunk in orphaned:
            self._queues[self._affinity_target(chunk[0])].append((task_id, chunk))
        self._pump()

    def _replay_chunk(self, task_id: int, chunk: list) -> None:
        """Requeue a lost in-flight chunk under a fresh task id (bit-identical
        by purity; the fresh id makes any late duplicate result stale)."""
        info = self._task_info.pop(task_id, None)
        retries = self._retries.pop(task_id, 0)
        if info is None:
            return  # its ticket already failed; nothing to replay
        ticket_id, positions = info
        ticket = self._tickets[ticket_id]
        ticket.remaining.discard(task_id)
        if retries >= self._recovery.max_chunk_retries:
            self._fail_ticket(
                ticket,
                f"a chunk was lost to worker death/hang {retries + 1} time(s); "
                f"giving up on this ticket "
                f"(max_chunk_retries={self._recovery.max_chunk_retries})",
            )
            return
        new_id = self._next_task_id
        self._next_task_id += 1
        self._task_info[new_id] = (ticket_id, positions)
        self._retries[new_id] = retries + 1
        ticket.remaining.add(new_id)
        self._n_chunks_replayed += 1
        self._queues[self._affinity_target(chunk[0])].append((new_id, chunk))

    @staticmethod
    def _retire_queue(queue) -> None:
        """Detach a queue's feeder thread so shutdown can never block on it."""
        try:
            queue.close()
            queue.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - queue already gone
            pass

    def _drain_one(self) -> bool:
        """Receive and fold in one result message; False when none arrived.

        The blocking wait on the slaves' result pipes runs without the engine
        lock; only the folding of the message into engine state is locked.  A
        poll timeout — and any pipe found torn or at EOF, the signature of a
        slave that died mid-send — runs a health pass over the slaves (death
        + hang detection), which is what turns a broken channel into a
        reaped-and-replayed worker instead of a wedged farm.
        """
        with self._lock:
            conns = [
                conn
                for worker, conn in enumerate(self._result_conns)
                if self._alive[worker] and conn is not None and not conn.closed
            ]
        message = None
        for conn in _connection_wait(conns, timeout=self._RESULT_POLL_SECONDS):
            try:
                message = conn.recv()
                break
            except Exception:
                # EOF, a closed fd or a torn pickle: leave it to the health
                # pass (the owning slave is dead or dying; its chunks get
                # replayed)
                self._on_result_channel_error(conn)
                continue
        if message is None:
            with self._lock:
                self._check_farm_health()
            return False
        if self._handle_control_message(message):
            return True
        received_id, worker_id, values, stats, error = message
        if received_id is None:
            raise RuntimeError(f"a worker failed during start-up:\n{error}")
        with self._lock:
            # release the slot only for a tracked dispatch: a late result of a
            # chunk already replayed elsewhere must not free anyone's slot
            dispatch = self._inflight_tasks.pop(received_id, None)
            if dispatch is not None and self._inflight[dispatch.worker] > 0:
                self._inflight[dispatch.worker] -= 1
            self._retries.pop(received_id, None)
            info = self._task_info.pop(received_id, None)
            if info is None:
                # stale message (result or error) from a ticket that a worker
                # error already aborted, or a replayed chunk's late duplicate
                self._pump()
                return True
            ticket_id, positions = info
            ticket = self._tickets[ticket_id]
            if error is not None:
                self._fail_ticket(ticket, error)
                self._pump()
                return True
            for position, value in zip(positions, values):
                ticket.results[position] = float(value)
            ticket.n_requests += stats.n_requests
            ticket.n_evaluations += stats.n_evaluations
            ticket.n_cache_hits += stats.n_cache_hits
            ticket.seconds += stats.seconds
            ticket.n_stacked_em += stats.n_stacked_em
            ticket.n_stacked_problems += stats.n_stacked_problems
            ticket.remaining.discard(received_id)
            self._pump()
        return True

    def _wait_for_progress(self) -> None:
        """Drain one message, or wait for the thread that is already draining.

        Exactly one thread blocks on the result pipes at a time; everyone else
        sleeps on the condition and re-checks their ticket when woken.
        """
        with self._lock:
            if self._draining:
                self._progress.wait(timeout=self._RESULT_POLL_SECONDS)
                return
            self._draining = True
        try:
            self._drain_one()
        finally:
            with self._lock:
                self._draining = False
                self._progress.notify_all()

    # ------------------------------------------------------------------ #
    # the ticket API
    # ------------------------------------------------------------------ #
    def submit(self, batch: Sequence[tuple[int, ...]]) -> int:
        """Queue one batch for evaluation; returns a ticket for :meth:`collect`.

        Chunks are appended to their owner slaves' affinity queues and
        dispatched by the engine (bounded + stealing in steal mode, all
        upfront otherwise).  Completions are folded in whenever any
        :meth:`collect` / :meth:`as_completed` call pumps the engine.
        """
        if self._closed:
            raise RuntimeError("the worker farm has been closed")
        # sorted keys: affinity routing must see one canonical form per
        # haplotype or (5, 2) and (2, 5) would land on different slaves
        batch = [tuple(sorted(int(s) for s in snps)) for snps in batch]
        with self._lock:
            self._raise_if_dead()
            ticket = _Ticket(self._next_ticket_id, len(batch))
            self._next_ticket_id += 1
            self._tickets[ticket.ticket_id] = ticket
            by_worker: dict[int, list[int]] = {}
            for index, key in enumerate(batch):
                by_worker.setdefault(self._affinity_target(key), []).append(index)
            cost_target = (
                self._chunk_cost_target(batch)
                if self._chunk_size is None and self._steal
                else None
            )
            for worker, indices in sorted(by_worker.items()):
                for chunk_indices in self._chunks_for_worker(indices, batch, cost_target):
                    chunk = [batch[i] for i in chunk_indices]
                    task_id = self._next_task_id
                    self._next_task_id += 1
                    self._task_info[task_id] = (ticket.ticket_id, chunk_indices)
                    ticket.remaining.add(task_id)
                    self._queues[worker].append((task_id, chunk))
            self._pump()
            return ticket.ticket_id

    def collect(self, ticket_id: int) -> tuple[list[float], ChunkStats]:
        """Block until the ticket's batch is fully evaluated; return its results.

        Completions of *other* tickets received while waiting are folded into
        their own state (and can be collected later without blocking) —
        concurrent collects of different tickets from different threads make
        progress together.
        """
        while True:
            with self._lock:
                ticket = self._tickets.get(ticket_id)
                if ticket is None:
                    raise KeyError(
                        f"unknown or already-collected ticket {ticket_id!r}"
                    )
                if ticket.done:
                    del self._tickets[ticket_id]
                    break
                self._raise_if_dead()
            self._wait_for_progress()
        if ticket.error is not None:
            raise RuntimeError(
                f"a worker failed while evaluating a chunk:\n{ticket.error}"
            )
        return ticket.results, ticket.stats()

    def as_completed(
        self, ticket_ids: Iterable[int]
    ) -> Iterator[tuple[int, list[float], ChunkStats]]:
        """Yield ``(ticket, values, stats)`` for each ticket as it completes."""
        outstanding = list(ticket_ids)
        while outstanding:
            ready = None
            with self._lock:
                for ticket_id in outstanding:
                    ticket = self._tickets.get(ticket_id)
                    if ticket is None:
                        raise KeyError(
                            f"unknown or already-collected ticket {ticket_id!r}"
                        )
                    if ticket.done:
                        ready = ticket_id
                        break
                if ready is None:
                    self._raise_if_dead()
            if ready is None:
                self._wait_for_progress()
                continue
            values, stats = self.collect(ready)
            outstanding.remove(ready)
            yield ready, values, stats

    def evaluate(
        self, batch: Sequence[tuple[int, ...]]
    ) -> tuple[list[float], ChunkStats]:
        """Scatter one batch across the slaves; block until fully gathered.

        Returns the fitnesses in batch order plus the merged per-chunk stats.
        """
        if self._closed:
            raise RuntimeError("the worker farm has been closed")
        if not batch:
            return [], ChunkStats(0, 0, 0, 0.0)
        return self.collect(self.submit(batch))

    # ------------------------------------------------------------------ #
    def close(self, *, join_timeout: float = 5.0) -> None:
        """Stop the slaves and reap them; idempotent, crash-safe, never hangs."""
        self._shutdown(force=False, join_timeout=join_timeout)

    def terminate(self) -> None:
        """Forcefully kill the slaves; idempotent."""
        self._shutdown(force=True, join_timeout=5.0)

    def _shutdown(self, *, force: bool, join_timeout: float) -> None:
        """Reap every slave (escalating sentinel → terminate → kill), then
        detach every queue and pipe so shutdown survives crashed workers.

        A worker that died mid-chunk leaves its inbox feeder half-flushed and
        its unread messages buffered; a plain ``join`` on those queues (what
        ``Queue.__del__``'s default join_thread does) can hang forever.
        Every inbox is closed with ``cancel_join_thread`` and every result
        pipe simply closed — nothing here blocks without a timeout.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_transport(force=force, join_timeout=join_timeout)
        with self._lock:
            for affinity_queue in self._queues:
                affinity_queue.clear()
            self._inflight_tasks.clear()
            self._task_info.clear()
            self._retries.clear()

    def _shutdown_transport(self, *, force: bool, join_timeout: float) -> None:
        """Transport hook: reap slaves and detach their channels."""
        if force:
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
        else:
            for inbox in self._inboxes:
                try:
                    inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        for process in self._processes:
            process.join(timeout=join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_timeout)
            if process.is_alive():  # pragma: no cover - terminate ignored
                process.kill()
                process.join(timeout=join_timeout)
        for conn in self._result_conns:
            self._close_conn(conn)
        for queue in self._inboxes:
            self._retire_queue(queue)

    def __enter__(self) -> "ChunkedWorkerFarm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
