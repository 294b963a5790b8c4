"""Scan-as-a-service: the warm-farm daemon behind ``repro serve``.

Every ``run``/``scan`` CLI invocation pays the full substrate spin-up — farm
fork, shared-memory panel registration, cold dedup/LRU stacks — before the
first window evaluates.  :class:`ScanServer` pays it **once**: it wraps one
persistent :class:`~repro.runtime.service.RunScheduler` (one warm farm, one
panel, one shared cache population) behind an authenticated
``multiprocessing.connection`` socket (the exact transport/authkey machinery
of :mod:`repro.runtime.remote`) and serves scan/run requests from many
concurrent clients, streaming per-window completions back as they finish.

Three layers sit between the socket and the scheduler:

* :class:`WindowResultCache` — a bytes-budgeted LRU of *window results*
  keyed on (panel fingerprint, global SNP window, GAConfig digest, seed,
  statistic, n_runs).  A re-submitted or overlapping scan replays cached
  windows bit-identically (the cached payload is the exact
  :func:`~repro.scan.report.window_result_to_json` round-trip the checkpoint
  journal already relies on) without touching the farm; replays are counted
  in ``EvaluationStats.n_result_cache_hits`` and surfaced by
  :func:`~repro.runtime.service.backend_summary_line`.
* :class:`AdmissionController` — cost-aware admission and backpressure
  generalising the scan runner's ``max_pending``: every request is priced
  via the calibrated :class:`~repro.parallel.pvm.EvaluationCostModel`, a
  bounded queue of waiting requests feeds a bounded number of active slots,
  per-client in-flight caps stop one tenant from monopolising the farm, and
  :class:`AdmissionPolicy` decides whether over-budget work queues or is
  rejected outright.
* :class:`TenantMetrics` — per-client request/evaluation/cache-hit/replay
  counters scoped through ``EvaluationStats.since()`` deltas (each job's
  :class:`~repro.runtime.service.RunResult` stats cover exactly its own
  work), queryable over the socket and printed by ``repro serve --status``.

Determinism contract: a scan served through the daemon — cache cold or warm
— fingerprint-matches the in-process scan; replayed windows are bit-identical
because JSON floats round-trip exactly and the report fingerprint excludes
timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import socket
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Listener
from typing import Sequence

from ..core.config import GAConfig
from ..genetics.dataset import GenotypeDataset, LocusWindow
from ..parallel.base import BaseBatchEvaluator, EvaluationStats
from ..parallel.farm import FarmRecoveryPolicy
from ..parallel.pvm import EvaluationCostModel
from ..scan.checkpoint import CheckpointMismatchError, ScanJournal, checkpoint_meta
from ..scan.planner import plan_scan
from ..scan.report import window_result_from_json, window_result_to_json
from ..scan.runner import _window_result
from .backends import DEFAULT_BACKEND
from .remote import _open_listener
from .service import (
    RunRequest,
    RunScheduler,
    backend_summary_line,
    estimate_request_cost,
)
from .spec import (
    PROTOCOL_VERSION,
    ClientHello,
    HealthProbe,
    RunEnvelope,
    ScanEnvelope,
    ShutdownCommand,
    StatusProbe,
)

__all__ = [
    "ScanServer",
    "WindowResultCache",
    "AdmissionPolicy",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionCancelled",
    "TenantMetrics",
    "config_digest",
    "DEFAULT_CACHE_BYTES",
]

#: Default bytes budget of the cross-request window-result cache (64 MiB —
#: a window payload is a few hundred bytes, so this holds ~10^5 windows).
DEFAULT_CACHE_BYTES = 64 << 20


def config_digest(config: GAConfig | None) -> str:
    """Stable digest of a GA configuration (part of the result-cache key).

    Sorted-key JSON of the dataclass fields, so two configs digest equal
    exactly when every parameter that shapes the search is equal.
    """
    payload = json.dumps(
        dataclasses.asdict(config or GAConfig()), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _stats_dict(stats: EvaluationStats) -> dict:
    """The stats counters as a JSON/pickle-friendly plain dict."""
    return {k: v for k, v in stats.__dict__.items() if not k.startswith("_")}


class WindowResultCache:
    """A bytes-budgeted LRU of per-window scan results (thread-safe).

    Values are :func:`~repro.scan.report.window_result_to_json` payloads —
    the exact unit the checkpoint journal persists, so a cache replay is the
    same bit-identical round trip a ``--resume`` is.  ``max_bytes=0``
    disables the cache entirely.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes!r}")
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[dict, int]] = OrderedDict()
        self._bytes = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_insertions = 0
        self.n_evictions = 0

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def get(self, key: tuple) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.n_misses += 1
                return None
            self._entries.move_to_end(key)
            self.n_hits += 1
            return entry[0]

    def put(self, key: tuple, payload: dict) -> None:
        if self._max_bytes == 0:
            return
        size = len(json.dumps(payload))
        with self._lock:
            if key in self._entries:
                return  # two clients computed the same window concurrently
            if size > self._max_bytes:
                return
            self._entries[key] = (payload, size)
            self._bytes += size
            self.n_insertions += 1
            while self._bytes > self._max_bytes:
                _key, (_payload, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
                self.n_evictions += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "n_entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self._max_bytes,
                "n_hits": self.n_hits,
                "n_misses": self.n_misses,
                "n_insertions": self.n_insertions,
                "n_evictions": self.n_evictions,
            }


class AdmissionRejected(RuntimeError):
    """A request the admission policy refused (queue full, cap hit, over budget)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class AdmissionCancelled(RuntimeError):
    """A queued admission whose client disconnected before a slot freed up.

    The reservation (queue slot, in-flight count, cost) is rolled back, so
    abandoned requests stop consuming admission capacity — without this, a
    client that times out and hangs up would still get its scan *executed*
    when its turn came, burning farm time nobody is waiting for.
    """


@dataclass(frozen=True)
class AdmissionPolicy:
    """Cost-aware admission knobs of the scan service.

    Attributes
    ----------
    max_active:
        Requests executing on the scheduler concurrently; further admitted
        requests wait in the admission queue (the generalised ``max_pending``
        backpressure).
    max_queued:
        Bound on requests *waiting* for an active slot; a request arriving
        with every slot busy and the queue full is rejected.
    max_inflight_per_client:
        Cap on one client id's concurrent requests (queued + active).
    max_outstanding_cost_seconds:
        Optional budget on the summed :func:`estimate_request_cost` price of
        all admitted-but-unfinished work.  ``None`` disables cost gating.
    over_budget:
        What happens to a request that would exceed the cost budget:
        ``"queue"`` lets it wait its turn (the bounded queue is the
        backpressure), ``"reject"`` refuses it immediately.
    """

    max_active: int = 4
    max_queued: int = 16
    max_inflight_per_client: int = 2
    max_outstanding_cost_seconds: float | None = None
    over_budget: str = "queue"

    def __post_init__(self) -> None:
        for name in ("max_active", "max_queued", "max_inflight_per_client"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.max_active < 1:
            raise ValueError("max_active must be at least 1")
        if self.max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be at least 1")
        if self.over_budget not in ("queue", "reject"):
            raise ValueError(
                f"over_budget must be 'queue' or 'reject', got {self.over_budget!r}"
            )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AdmissionTicket:
    """Proof of admission; must be released when the request finishes."""

    client_id: str
    cost: float
    wait_seconds: float = 0.0


class AdmissionController:
    """Enforces an :class:`AdmissionPolicy` across concurrent handler threads."""

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self._policy = policy or AdmissionPolicy()
        self._cond = threading.Condition()
        self._active = 0
        self._queued = 0
        self._outstanding_cost = 0.0
        self._inflight: dict[str, int] = {}
        self.n_admitted = 0
        self.n_rejected = 0
        self.n_cancelled = 0
        self.total_wait_seconds = 0.0
        self.rejections: dict[str, int] = {}

    @property
    def policy(self) -> AdmissionPolicy:
        return self._policy

    def _reject(self, reason: str) -> None:
        self.n_rejected += 1
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        raise AdmissionRejected(reason)

    def admit(
        self,
        client_id: str,
        cost: float,
        *,
        cancelled=None,
        poll_seconds: float = 0.05,
    ) -> AdmissionTicket:
        """Admit a request priced at ``cost`` seconds, blocking while queued.

        Raises :class:`AdmissionRejected` — without blocking — when the
        client's in-flight cap is hit, the wait queue is full, or the cost
        budget is exceeded under the ``reject`` policy.

        ``cancelled`` (optional, a zero-argument callable) is polled every
        ``poll_seconds`` while the request waits in the queue; when it
        returns True the reservation is rolled back and
        :class:`AdmissionCancelled` raised — the freed queue slot and
        in-flight count immediately benefit other waiters.
        """
        policy = self._policy
        cost = float(cost)
        start = time.perf_counter()
        with self._cond:
            if self._inflight.get(client_id, 0) >= policy.max_inflight_per_client:
                self._reject(
                    f"client {client_id!r} already has "
                    f"{policy.max_inflight_per_client} request(s) in flight"
                )
            if self._active >= policy.max_active and self._queued >= policy.max_queued:
                self._reject("admission queue full")
            budget = policy.max_outstanding_cost_seconds
            if (
                budget is not None
                and self._outstanding_cost > 0
                and self._outstanding_cost + cost > budget
                and policy.over_budget == "reject"
            ):
                self._reject(
                    f"estimated cost {cost:.3f}s would exceed the outstanding "
                    f"budget ({self._outstanding_cost:.3f}s of {budget:.3f}s used)"
                )
            # admitted: reserve, then wait for an active slot
            self._inflight[client_id] = self._inflight.get(client_id, 0) + 1
            self._outstanding_cost += cost
            self._queued += 1
            while self._active >= policy.max_active:
                if cancelled is not None and cancelled():
                    # roll the reservation back: the freed queue slot /
                    # in-flight count / cost budget go to live waiters
                    self._queued -= 1
                    self._outstanding_cost = max(0.0, self._outstanding_cost - cost)
                    remaining = self._inflight.get(client_id, 1) - 1
                    if remaining > 0:
                        self._inflight[client_id] = remaining
                    else:
                        self._inflight.pop(client_id, None)
                    self.n_cancelled += 1
                    self._cond.notify_all()
                    raise AdmissionCancelled(
                        f"client {client_id!r} disconnected while queued"
                    )
                self._cond.wait(
                    timeout=poll_seconds if cancelled is not None else None
                )
            self._queued -= 1
            self._active += 1
            self.n_admitted += 1
            wait = time.perf_counter() - start
            self.total_wait_seconds += wait
            return AdmissionTicket(client_id=client_id, cost=cost, wait_seconds=wait)

    def release(self, ticket: AdmissionTicket) -> None:
        with self._cond:
            self._active -= 1
            self._outstanding_cost = max(0.0, self._outstanding_cost - ticket.cost)
            remaining = self._inflight.get(ticket.client_id, 1) - 1
            if remaining > 0:
                self._inflight[ticket.client_id] = remaining
            else:
                self._inflight.pop(ticket.client_id, None)
            self._cond.notify_all()

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "n_active": self._active,
                "n_queued": self._queued,
                "outstanding_cost_seconds": self._outstanding_cost,
                "n_admitted": self.n_admitted,
                "n_rejected": self.n_rejected,
                "n_cancelled": self.n_cancelled,
                "rejections": dict(self.rejections),
                "total_wait_seconds": self.total_wait_seconds,
                "policy": self._policy.to_json(),
            }


class TenantMetrics:
    """Per-client (tenant) accounting, keyed by the hello's ``client_id``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, dict] = {}

    def _entry(self, client_id: str) -> dict:
        entry = self._tenants.get(client_id)
        if entry is None:
            entry = {
                "n_connections": 0,
                "n_requests": 0,
                "n_scans": 0,
                "n_runs": 0,
                "n_windows": 0,
                "n_result_cache_hits": 0,
                "n_rejected": 0,
                "admission_wait_seconds": 0.0,
                "stats": EvaluationStats(),
            }
            self._tenants[client_id] = entry
        return entry

    def record_connection(self, client_id: str) -> None:
        with self._lock:
            self._entry(client_id)["n_connections"] += 1

    def record_scan(
        self,
        client_id: str,
        *,
        n_windows: int,
        n_cached: int,
        stats: EvaluationStats,
        wait_seconds: float,
    ) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["n_requests"] += 1
            entry["n_scans"] += 1
            entry["n_windows"] += n_windows
            entry["n_result_cache_hits"] += n_cached
            entry["admission_wait_seconds"] += wait_seconds
            entry["stats"].merge(stats)

    def record_run(
        self, client_id: str, stats: EvaluationStats, *, wait_seconds: float
    ) -> None:
        with self._lock:
            entry = self._entry(client_id)
            entry["n_requests"] += 1
            entry["n_runs"] += 1
            entry["admission_wait_seconds"] += wait_seconds
            entry["stats"].merge(stats)

    def record_rejection(self, client_id: str) -> None:
        with self._lock:
            self._entry(client_id)["n_rejected"] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                client_id: {
                    **{k: v for k, v in entry.items() if k != "stats"},
                    "stats": _stats_dict(entry["stats"]),
                }
                for client_id, entry in self._tenants.items()
            }


class ScanServer:
    """The warm-farm scan service: one persistent scheduler, many clients.

    Construction builds the scheduler (and with it the worker farm / shm
    panel) immediately; :meth:`start` binds the socket and accepts
    connections on a background thread, :meth:`serve_forever` additionally
    blocks the calling thread until shutdown (installing SIGTERM/SIGINT
    handlers when possible), and :meth:`close` drains in-flight requests and
    releases the substrate.

    One server is one evaluator recipe: requests whose ``statistic`` differs
    from the server's are answered with an error, not a second farm.
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        *,
        statistic: str = "t1",
        backend: str = DEFAULT_BACKEND,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        dedup: bool = True,
        cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
        worker_cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
        cost_model: EvaluationCostModel | None = None,
        recovery: FarmRecoveryPolicy | None = None,
        packed: bool = False,
        hosts: Sequence[str] | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        admission: AdmissionPolicy | None = None,
        authkey: bytes | None = None,
        journal_dir: str | None = None,
    ) -> None:
        self._scheduler = RunScheduler(
            dataset,
            statistic=statistic,
            backend=backend,
            n_workers=n_workers,
            chunk_size=chunk_size,
            dedup=dedup,
            cache_size=cache_size,
            worker_cache_size=worker_cache_size,
            cost_model=cost_model,
            recovery=recovery,
            packed=packed,
            hosts=hosts,
        )
        self._statistic = self._scheduler.spec.statistic
        # every request is priced, model or not: an uncalibrated default
        # still ranks big windows above clamped ones, which is all the
        # admission budget needs
        self._cost_model = cost_model or EvaluationCostModel()
        self._cache = WindowResultCache(cache_bytes)
        self._admission = AdmissionController(admission)
        self._tenants = TenantMetrics()
        self._authkey = authkey
        self._panel_fingerprint = self._scheduler.dataset.fingerprint()
        # crash recovery: with a journal_dir every in-flight scan is journaled
        # through ScanJournal (one file per scan identity); a restarted daemon
        # replays completed windows from disk and recomputes only the rest
        self._journal_dir = None if journal_dir is None else str(journal_dir)
        if self._journal_dir is not None:
            os.makedirs(self._journal_dir, exist_ok=True)
        self._journal_guard = threading.Lock()
        self._journal_locks: dict[str, threading.Lock] = {}
        self._n_recovered_windows = 0
        self._n_recovered_scans = 0
        self._started_at = time.monotonic()
        self._listener: Listener | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._handler_lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def scheduler(self) -> RunScheduler:
        return self._scheduler

    @property
    def statistic(self) -> str:
        return self._statistic

    @property
    def result_cache(self) -> WindowResultCache:
        return self._cache

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("the server has not been started")
        return self._address

    @property
    def host(self) -> str:
        """The resolved ``"host:port"`` spec clients connect to."""
        address = self.address
        return f"{address[0]}:{address[1]}"

    # ------------------------------------------------------------------ #
    def start(self, bind: tuple[str, int] | str = ("127.0.0.1", 0)) -> tuple[str, int]:
        """Bind the socket and accept connections on a background thread.

        Returns the resolved listen address (port ``0`` binds ephemerally).
        Without an ``authkey`` or ``REPRO_REMOTE_AUTHKEY`` a non-loopback
        ``bind`` raises :class:`~repro.runtime.remote.InsecureBindError`.
        """
        if self._closed:
            raise RuntimeError("the server has been closed")
        if self._listener is not None:
            raise RuntimeError("the server is already listening")
        self._listener = _open_listener(bind, self._authkey)
        self._address = tuple(self._listener.address)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="scan-serve-accept"
        )
        self._accept_thread.start()
        return self._address

    def wait(self, *, install_signal_handlers: bool = True) -> None:
        """Block until shutdown is requested (signal, command, or another thread)."""
        previous = (
            self._install_signal_handlers() if install_signal_handlers else {}
        )
        try:
            self._stop.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def serve_forever(
        self, bind: tuple[str, int] | str = ("127.0.0.1", 0), *, _ready=None
    ) -> None:
        """``start`` + ``wait`` + ``close``: the blocking daemon entry point.

        ``_ready`` (a pipe end) receives the resolved address once listening
        — the same handshake :func:`repro.runtime.remote.serve` uses for
        ephemeral ports.
        """
        address = self.start(bind)
        if _ready is not None:
            _ready.send(address)
            _ready.close()
        try:
            self.wait()
        finally:
            self.close()

    def _install_signal_handlers(self) -> dict:
        """SIGTERM/SIGINT → drain and exit cleanly (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return {}

        def handler(signum, frame):  # pragma: no cover - signal delivery
            self.request_shutdown()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, handler)
        return previous

    @contextmanager
    def signal_handlers(self):
        """SIGTERM/SIGINT → drain, for the enclosed block (then restored).

        Lets a daemon announce readiness strictly *after* the handlers are
        live, so a signal racing the banner still drains cleanly.
        """
        previous = self._install_signal_handlers()
        try:
            yield self
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def request_shutdown(self) -> None:
        """Stop accepting; idle connections close, in-flight requests drain."""
        self._stop.set()
        listener = self._listener
        if listener is not None:
            # A thread blocked in accept() pins the listening socket open
            # (close() neither wakes it nor frees the port), so poke it with
            # a throwaway connection: the accept thread wakes, observes the
            # stop flag and exits, and only then does close() take effect.
            try:
                with socket.create_connection(self._address, timeout=1.0):
                    pass
            except OSError:
                pass  # nothing blocked in accept
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: drain handler threads, release the scheduler; idempotent."""
        if self._closed:
            return
        self.request_shutdown()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if drain:
            deadline = time.monotonic() + timeout
            with self._handler_lock:
                handlers = list(self._handlers)
            for thread in handlers:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._closed = True
        self._scheduler.close()

    def __enter__(self) -> "ScanServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            except Exception:
                # failed authentication or a scanner poking the port
                continue
            if self._stop.is_set():  # the shutdown poke, not a client
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                return
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            with self._handler_lock:
                self._handlers = [t for t in self._handlers if t.is_alive()]
                self._handlers.append(thread)
            thread.start()

    @staticmethod
    def _send(conn, message) -> bool:
        try:
            conn.send(message)
        except (BrokenPipeError, ConnectionError, OSError, ValueError):
            return False
        return True

    def _handle_connection(self, conn) -> None:
        try:
            try:
                hello = conn.recv()
            except (EOFError, OSError):
                return
            if not isinstance(hello, ClientHello):
                self._send(
                    conn,
                    ("error", f"expected ClientHello, got {type(hello).__name__}"),
                )
                return
            # no default on the field, so an older client's hello lacks it
            version = getattr(hello, "protocol_version", None)
            if version != PROTOCOL_VERSION:
                self._send(
                    conn,
                    (
                        "error",
                        f"protocol version mismatch: the client speaks "
                        f"{version}, this daemon speaks {PROTOCOL_VERSION}; "
                        f"run the same release on both ends",
                    ),
                )
                return
            client_id = str(hello.client_id)
            self._tenants.record_connection(client_id)
            if not self._send(
                conn,
                (
                    "ok",
                    {
                        "backend": self._scheduler.backend,
                        "statistic": self._statistic,
                        "n_snps": self._scheduler.dataset.n_snps,
                        "packed": self._scheduler.packed,
                        "panel_fingerprint": self._panel_fingerprint,
                    },
                ),
            ):
                return
            while not self._stop.is_set():
                # poll so a draining shutdown can close idle connections
                if not conn.poll(0.1):
                    continue
                try:
                    envelope = conn.recv()
                except (EOFError, OSError):
                    return
                if envelope is None:
                    return
                if isinstance(envelope, StatusProbe):
                    self._send(conn, ("status", self.status()))
                elif isinstance(envelope, HealthProbe):
                    self._send(conn, ("health", self.health()))
                elif isinstance(envelope, ShutdownCommand):
                    self._send(conn, ("ok", "shutting down"))
                    self.request_shutdown()
                    return
                elif isinstance(envelope, ScanEnvelope):
                    self._serve_scan(conn, client_id, envelope)
                elif isinstance(envelope, RunEnvelope):
                    self._serve_run(conn, client_id, envelope)
                else:
                    self._send(
                        conn,
                        ("error", f"unknown request {type(envelope).__name__}"),
                    )
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # ------------------------------------------------------------------ #
    def _window_key(self, window: LocusWindow, request: RunRequest) -> tuple:
        return (
            self._panel_fingerprint,
            int(window.start),
            int(window.stop),
            config_digest(request.config),
            int(request.seed if request.seed is not None else 0),
            self._statistic,
            int(request.n_runs),
        )

    @staticmethod
    def _client_attached(conn) -> bool:
        """Is the client still there?  While its request waits in the
        admission queue a well-behaved client sends nothing, so a *readable*
        connection means EOF (hangup) or a protocol violation — either way,
        nobody is waiting for this request anymore."""
        try:
            return not conn.closed and not conn.poll(0)
        except (OSError, ValueError):
            return False

    # ------------------------------------------------------------------ #
    # scan journaling (daemon crash recovery)
    # ------------------------------------------------------------------ #
    def _scan_journal_meta(self, plan, envelope: ScanEnvelope) -> dict:
        """The scan's identity header — exactly what :class:`ScanJournal`
        validates on resume, plus the GA-config digest (geometry and seeding
        alone do not pin the search parameters)."""
        meta = checkpoint_meta(
            plan,
            self._scheduler.dataset.n_snps,
            panel="packed" if self._scheduler.packed else "byte",
            panel_fingerprint=self._panel_fingerprint,
        )
        meta["config_digest"] = config_digest(envelope.config)
        return meta

    def _journal_path(self, meta: dict) -> str:
        digest = hashlib.sha256(
            json.dumps(meta, sort_keys=True).encode("utf-8")
        ).hexdigest()[:20]
        return os.path.join(self._journal_dir, f"scan-{digest}.jsonl")

    def _journal_lock(self, path: str) -> threading.Lock:
        """One lock per journal path: two identical concurrent scans must not
        interleave appends to the same file (the second waits, then replays
        the first's windows from the cache/journal)."""
        with self._journal_guard:
            lock = self._journal_locks.get(path)
            if lock is None:
                lock = threading.Lock()
                self._journal_locks[path] = lock
            return lock

    def _open_scan_journal(self, plan, envelope: ScanEnvelope):
        """Open (resuming) this scan's journal; returns
        ``(journal, restored_payloads_by_index)``."""
        meta = self._scan_journal_meta(plan, envelope)
        path = self._journal_path(meta)
        try:
            journal, completed = ScanJournal.open(path, meta, resume=True)
        except CheckpointMismatchError:
            # a digest collision or mid-file corruption: this journal cannot
            # be trusted, so recompute everything rather than refuse to scan
            os.remove(path)
            journal, completed = ScanJournal.open(path, meta, resume=False)
        restored = {
            index: window_result_to_json(result)
            for index, result in completed.items()
        }
        return journal, restored

    def _serve_scan(self, conn, client_id: str, envelope: ScanEnvelope) -> None:
        try:
            statistic = str(envelope.statistic).lower()
            if statistic != self._statistic:
                raise ValueError(
                    f"this service evaluates statistic {self._statistic!r}; "
                    f"got a scan for {statistic!r} (one daemon per recipe)"
                )
            plan = plan_scan(
                self._scheduler.dataset.n_snps,
                window_size=envelope.window_size,
                overlap=envelope.overlap,
                config=envelope.config,
                seed=envelope.seed,
                statistic=statistic,
                n_runs=envelope.n_runs,
            )
            jobs = list(plan.requests())
            cost = sum(
                estimate_request_cost(request, self._cost_model)
                for _window, request in jobs
            )
        except (TypeError, ValueError) as exc:
            self._send(conn, ("error", str(exc)))
            return
        try:
            ticket = self._admission.admit(
                client_id, cost, cancelled=lambda: not self._client_attached(conn)
            )
        except AdmissionCancelled:
            return  # the client hung up while queued; nothing to answer
        except AdmissionRejected as exc:
            self._tenants.record_rejection(client_id)
            self._send(conn, ("rejected", exc.reason))
            return
        start = time.perf_counter()
        journal = None
        journal_lock = None
        try:
            restored: dict[int, dict] = {}
            if self._journal_dir is not None:
                journal_lock = self._journal_lock(
                    self._journal_path(self._scan_journal_meta(plan, envelope))
                )
                journal_lock.acquire()
                journal, restored = self._open_scan_journal(plan, envelope)
            stats = EvaluationStats()
            n_cached = 0
            n_recovered = 0
            for window, request in jobs:
                if not self._client_attached(conn):
                    # the client hung up mid-scan (it sends nothing while a
                    # scan streams): stop here and keep the journal, rather
                    # than finish the scan and retire it for nobody
                    return
                key = self._window_key(window, request)
                payload = self._cache.get(key)
                cached = payload is not None
                if not cached and window.index in restored:
                    # a window the pre-crash daemon completed and journaled:
                    # replay it (and warm the cache) instead of recomputing
                    payload = restored[window.index]
                    cached = True
                    n_recovered += 1
                    self._cache.put(key, payload)
                if cached:
                    n_cached += 1
                    if journal is not None:
                        journal.append(window_result_from_json(payload))
                else:
                    run = self._scheduler.run(request)
                    result = _window_result(window, run)
                    payload = window_result_to_json(result)
                    # journal before acknowledging: any window the client
                    # (or the cache) has seen survives a daemon crash
                    if journal is not None:
                        journal.append(result)
                    self._cache.put(key, payload)
                    stats.merge(run.stats)
                if not self._send(conn, ("window", payload, cached)):
                    return  # client went away; stop burning farm time on it
            # the scan completed: its journal has served its purpose (warm
            # replays now come from the result cache), so retire the file
            # and keep journal_dir bounded to scans actually in flight
            if journal is not None:
                journal.close()
                try:
                    os.remove(journal.path)
                except OSError:  # pragma: no cover - already gone
                    pass
                journal = None
            if n_recovered:
                with self._journal_guard:
                    self._n_recovered_windows += n_recovered
                    self._n_recovered_scans += 1
            stats.n_result_cache_hits = n_cached
            self._tenants.record_scan(
                client_id,
                n_windows=len(jobs),
                n_cached=n_cached,
                stats=stats,
                wait_seconds=ticket.wait_seconds,
            )
            self._send(
                conn,
                (
                    "done",
                    {
                        "backend": self._scheduler.backend,
                        "jobs": self._scheduler.jobs,
                        "stats": _stats_dict(stats),
                        "n_windows": len(jobs),
                        "n_cached_windows": n_cached,
                        "n_recovered_windows": n_recovered,
                        "admission_wait_seconds": ticket.wait_seconds,
                        "elapsed_seconds": time.perf_counter() - start,
                    },
                ),
            )
        except Exception as exc:  # surface, don't kill the connection
            self._send(conn, ("error", f"{type(exc).__name__}: {exc}"))
        finally:
            if journal is not None:
                journal.close()
            if journal_lock is not None:
                journal_lock.release()
            self._admission.release(ticket)

    def _serve_run(self, conn, client_id: str, envelope: RunEnvelope) -> None:
        request = envelope.request
        if not isinstance(request, RunRequest):
            self._send(
                conn,
                ("error", f"RunEnvelope must carry a RunRequest, got "
                          f"{type(request).__name__}"),
            )
            return
        try:
            cost = estimate_request_cost(request, self._cost_model)
        except (TypeError, ValueError) as exc:
            self._send(conn, ("error", str(exc)))
            return
        try:
            ticket = self._admission.admit(
                client_id, cost, cancelled=lambda: not self._client_attached(conn)
            )
        except AdmissionCancelled:
            return  # the client hung up while queued; nothing to answer
        except AdmissionRejected as exc:
            self._tenants.record_rejection(client_id)
            self._send(conn, ("rejected", exc.reason))
            return
        try:
            result = self._scheduler.run(request)
            self._tenants.record_run(
                client_id, result.stats, wait_seconds=ticket.wait_seconds
            )
            self._send(conn, ("result", result))
        except Exception as exc:
            self._send(conn, ("error", f"{type(exc).__name__}: {exc}"))
        finally:
            self._admission.release(ticket)

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The daemon's liveness card: farm/worker-host health, admission
        queue depth, and the crash-recovery journal account — the cheap
        answer to a :class:`~repro.runtime.spec.HealthProbe`."""
        admission = self._admission.snapshot()
        with self._journal_guard:
            n_recovered_windows = self._n_recovered_windows
            n_recovered_scans = self._n_recovered_scans
        journal: dict = {
            "dir": self._journal_dir,
            "n_recovered_windows": n_recovered_windows,
            "n_recovered_scans": n_recovered_scans,
        }
        if self._journal_dir is not None:
            try:
                journal["n_inflight_scans"] = sum(
                    1
                    for name in os.listdir(self._journal_dir)
                    if name.startswith("scan-") and name.endswith(".jsonl")
                )
            except OSError:  # pragma: no cover - journal dir vanished
                journal["n_inflight_scans"] = None
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "backend": self._scheduler.backend,
            "statistic": self._statistic,
            "n_active_requests": admission["n_active"],
            "n_queued_requests": admission["n_queued"],
            "n_cancelled_admissions": admission["n_cancelled"],
            "farm": self._scheduler.farm_health(),
            "journal": journal,
        }

    def status(self) -> dict:
        """The daemon's full status dict (what ``repro serve --status`` prints)."""
        lifetime = self._scheduler.stats
        # surface the replay account on the scheduler-lifetime summary line:
        # the scheduler never sees replayed windows, the cache layer does
        lifetime.n_result_cache_hits += self._cache.n_hits
        return {
            "backend": self._scheduler.backend,
            "statistic": self._statistic,
            "n_snps": self._scheduler.dataset.n_snps,
            "packed": self._scheduler.packed,
            "panel_fingerprint": self._panel_fingerprint,
            "uptime_seconds": time.monotonic() - self._started_at,
            "n_completed_requests": self._scheduler.n_completed,
            "summary": backend_summary_line(self._scheduler.backend, lifetime),
            "stats": _stats_dict(lifetime),
            "result_cache": self._cache.snapshot(),
            "admission": self._admission.snapshot(),
            "tenants": self._tenants.snapshot(),
            "health": self.health(),
        }
