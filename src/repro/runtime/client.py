"""Client side of the scan service: talk to a ``repro serve`` daemon.

:class:`ScanClient` opens one authenticated ``multiprocessing.connection``
socket to a :class:`~repro.runtime.server.ScanServer`, identifies itself with
a :class:`~repro.runtime.spec.ClientHello` (the ``client_id`` scopes the
daemon's per-tenant metrics and in-flight caps), and then issues scans, runs
and status probes over it.  A scan streams back per-window completions as
the warm farm finishes them, so a ``progress`` callback observes windows in
submission order exactly like the in-process runner's.

The client deliberately knows nothing about execution: backend, worker
count, packing and the statistic all belong to the daemon's substrate.  What
comes back is a plain :class:`~repro.scan.report.ScanReport` whose
fingerprint matches the in-process scan of the same (geometry, config, seed)
— cached or computed, the daemon's replies are bit-identical.

Resilience: every request takes a per-request ``timeout`` deadline (a wedged
daemon raises :class:`DeadlineExceeded` instead of hanging the caller
forever), transport failures are retried under a :class:`RetryPolicy`
(capped exponential backoff with jitter; a re-submitted scan is idempotent —
the daemon's result cache and journal key on the scan's identity, so retries
*replay* completed windows instead of recomputing them), and an optional
:class:`CircuitBreaker` fails fast after repeated connect failures instead
of stacking timeouts.  Retries consumed by a scan are surfaced as
``ScanReport.n_client_retries``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass

from ..core.config import GAConfig
from ..parallel.base import EvaluationStats
from ..scan.report import ScanReport, WindowResult, window_result_from_json
from .server import AdmissionRejected
from .service import RunRequest, RunResult
from .spec import (
    PROTOCOL_VERSION,
    ClientHello,
    HealthProbe,
    RunEnvelope,
    ScanEnvelope,
    ShutdownCommand,
    StatusProbe,
)
from .remote import connect_with_timeout, default_authkey, parse_host

__all__ = [
    "ScanClient",
    "ServiceError",
    "ConnectionLostError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "RetryPolicy",
    "CircuitBreaker",
]


class ServiceError(RuntimeError):
    """The daemon answered with an error, or the connection died mid-request."""


class ConnectionLostError(ServiceError):
    """The transport died mid-request (retryable: the request never completed
    or is idempotent to re-submit; server-sent errors are *not* this)."""


class DeadlineExceeded(ServiceError):
    """The per-request deadline elapsed before the daemon's reply arrived.

    The connection is dropped (a late reply would desynchronise the
    protocol) and re-established on the next request.  Deliberately not
    retried: the deadline is the caller's total time budget.
    """


class CircuitOpenError(ServiceError):
    """The circuit breaker is open: recent connects failed; failing fast."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for transport-level retries.

    ``max_attempts`` counts the first try: ``3`` means one attempt plus two
    retries.  The delay before retry *k* (1-based) is
    ``min(backoff_seconds * 2**(k-1), max_backoff_seconds)``, shrunk by up
    to ``jitter`` (a fraction in ``[0, 1]``) uniformly at random so a fleet
    of clients losing the same daemon does not reconnect in lockstep.

    Only transport failures (:class:`ConnectionLostError`, connect errors)
    are retried.  Server-sent errors and admission rejections are answers,
    not failures — retrying them is the caller's policy decision, not the
    transport's.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.1
    max_backoff_seconds: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_attempts, int)
            or isinstance(self.max_attempts, bool)
            or self.max_attempts < 1
        ):
            raise ValueError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff_seconds and max_backoff_seconds must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def backoff(self, retry: int, rng: random.Random | None = None) -> float:
        """Delay before 1-based retry number ``retry``."""
        if retry < 1:
            return 0.0
        base = min(
            self.backoff_seconds * (2.0 ** (retry - 1)), self.max_backoff_seconds
        )
        if self.jitter <= 0.0 or rng is None:
            return base
        return base * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """Fail fast after repeated connect failures (thread-safe).

    ``failure_threshold`` consecutive failures open the circuit: further
    attempts raise :class:`CircuitOpenError` immediately instead of paying a
    connect timeout each.  After ``reset_seconds`` the circuit goes
    *half-open* — exactly one probe attempt is allowed through; its success
    closes the circuit, its failure re-opens it for another full window.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_seconds: float = 30.0,
        *,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if reset_seconds < 0:
            raise ValueError(f"reset_seconds must be >= 0, got {reset_seconds!r}")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.reset_seconds:
                return "half-open"
            return "open"

    def allow(self) -> bool:
        """May an attempt proceed right now?  (Claims the half-open probe.)"""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._clock() - self._opened_at < self.reset_seconds:
                return False
            if self._probing:
                return False  # another thread holds the half-open probe
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if self._opened_at is not None or self._failures >= self.failure_threshold:
                # re-open (or open) for a fresh reset window
                self._opened_at = self._clock()


def _default_client_id() -> str:
    return f"{os.uname().nodename}-{os.getpid()}"


class ScanClient:
    """One authenticated connection to a running scan service.

    Parameters
    ----------
    address:
        ``"host:port"`` spec or ``(host, port)`` tuple of the daemon.
    authkey:
        HMAC key; defaults to :func:`~repro.runtime.remote.default_authkey`
        (``REPRO_REMOTE_AUTHKEY`` or the dev default) — must match the
        daemon's.
    client_id:
        Tenant identity for metrics and in-flight caps; defaults to
        ``hostname-pid``.
    timeout:
        Default per-request deadline in seconds (``None`` blocks forever,
        the pre-resilience behaviour); every request method takes a
        per-call ``timeout`` override.
    connect_timeout:
        Deadline on establishing (or re-establishing) the connection,
        including the HMAC handshake and hello exchange.
    retry:
        :class:`RetryPolicy` for transport failures; ``None`` disables
        retries (one attempt).  Scans are idempotent to re-submit: the
        daemon's result cache replays completed windows bit-identically.
    breaker:
        Optional :class:`CircuitBreaker` consulted before each connect.
    wrap_connection:
        Testing/chaos hook: a callable applied to every newly established
        connection (e.g. ``lambda conn:
        ChaosConnection(conn, ConnectionChaos(...))``).

    A client holds one socket and serialises its own requests with a lock, so
    a single instance is safe to share across threads — though each request
    occupies one of the tenant's in-flight slots for its full duration, so
    concurrent tenants usually want one client (one connection) per thread.

    Construction connects eagerly (one attempt — a wrong address should fail
    loudly, not retry); a connection lost later is re-established lazily by
    the next request, under the retry policy.
    """

    #: granularity of the deadline poll (a wedged conn is re-checked this often)
    _POLL_SECONDS = 0.2

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        authkey: bytes | None = None,
        client_id: str | None = None,
        timeout: float | None = None,
        connect_timeout: float | None = 30.0,
        retry: RetryPolicy | None = RetryPolicy(),
        breaker: CircuitBreaker | None = None,
        wrap_connection=None,
        retry_seed: int | None = None,
    ) -> None:
        if isinstance(address, str):
            address = parse_host(address)
        self._address = tuple(address)
        self._authkey = authkey or default_authkey()
        self._client_id = client_id or _default_client_id()
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._retry = retry
        self._breaker = breaker
        self._wrap_connection = wrap_connection
        self._rng = random.Random(retry_seed)
        self._lock = threading.Lock()
        self._conn = None
        self._info: dict = {}
        self.n_retries = 0
        self.n_reconnects = 0
        self._connect()

    # ------------------------------------------------------------------ #
    @property
    def client_id(self) -> str:
        return self._client_id

    @property
    def info(self) -> dict:
        """The daemon's handshake card: backend, statistic, n_snps, packed,
        panel_fingerprint."""
        return dict(self._info)

    def metrics(self) -> dict:
        """Client-side resilience counters (lifetime of this client)."""
        return {
            "n_retries": self.n_retries,
            "n_reconnects": self.n_reconnects,
            "breaker_state": self._breaker.state if self._breaker else None,
        }

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        """Establish the socket and exchange the hello (one attempt)."""
        if self._breaker is not None and not self._breaker.allow():
            raise CircuitOpenError(
                f"circuit breaker is open for {self._address[0]}:"
                f"{self._address[1]} after repeated connect failures"
            )
        try:
            conn = connect_with_timeout(
                self._address, authkey=self._authkey, timeout=self._connect_timeout
            )
            if self._wrap_connection is not None:
                conn = self._wrap_connection(conn)
            try:
                conn.send(
                    ClientHello(
                        client_id=self._client_id, protocol_version=PROTOCOL_VERSION
                    )
                )
                deadline = (
                    None
                    if self._connect_timeout is None
                    else time.monotonic() + self._connect_timeout
                )
                kind, payload = self._recv_on(conn, deadline)
                if kind != "ok":
                    raise ServiceError(f"service refused the connection: {payload}")
            except BaseException:
                conn.close()
                raise
        except (ConnectionLostError, DeadlineExceeded, OSError, EOFError) as exc:
            if self._breaker is not None:
                self._breaker.record_failure()
            if isinstance(exc, (ConnectionLostError, DeadlineExceeded)):
                raise
            raise ConnectionLostError(
                f"could not connect to the scan service at "
                f"{self._address[0]}:{self._address[1]}: {exc}"
            ) from exc
        except BaseException:
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        if self._breaker is not None:
            self._breaker.record_success()
        self._conn = conn
        self._info = dict(payload)

    def _ensure_connection(self):
        if self._conn is None:
            self._connect()
            self.n_reconnects += 1
        return self._conn

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # ------------------------------------------------------------------ #
    # deadline-aware transport primitives
    # ------------------------------------------------------------------ #
    def _deadline(self, timeout: float | None) -> float | None:
        """The absolute deadline of a request starting now."""
        if timeout is None:
            timeout = self._timeout
        return None if timeout is None else time.monotonic() + float(timeout)

    def _recv_on(self, conn, deadline: float | None):
        """Receive one message, bounded by ``deadline`` (None blocks)."""
        if deadline is not None:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        "the scan service did not reply within the deadline"
                    )
                try:
                    if conn.poll(min(remaining, self._POLL_SECONDS)):
                        break
                except (OSError, ValueError) as exc:
                    raise ConnectionLostError(
                        "connection to the scan service was closed"
                    ) from exc
        try:
            return conn.recv()
        except (EOFError, OSError) as exc:
            raise ConnectionLostError(
                "connection to the scan service was closed"
            ) from exc

    @staticmethod
    def _send_on(conn, message) -> None:
        try:
            conn.send(message)
        except (BrokenPipeError, ConnectionError, OSError, ValueError) as exc:
            raise ConnectionLostError(
                "connection to the scan service was closed"
            ) from exc

    # ------------------------------------------------------------------ #
    # the retrying request engine
    # ------------------------------------------------------------------ #
    def _request(self, perform, *, timeout: float | None):
        """Run ``perform(conn, deadline)`` with reconnect-and-retry.

        Transport deaths (:class:`ConnectionLostError`) drop the socket and
        retry under the policy; a blown deadline drops the socket and raises
        without retrying (the deadline is the caller's total budget); every
        other exception — server errors, rejections, an open breaker —
        propagates untouched.  Returns ``(result, n_retries_used)``.
        """
        attempts = self._retry.max_attempts if self._retry is not None else 1
        deadline = self._deadline(timeout)
        last: Exception | None = None
        with self._lock:
            for attempt in range(attempts):
                if attempt:
                    delay = self._retry.backoff(attempt, self._rng)
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - time.monotonic()))
                    if delay > 0:
                        time.sleep(delay)
                    self.n_retries += 1
                try:
                    conn = self._ensure_connection()
                    return perform(conn, deadline), attempt
                except DeadlineExceeded:
                    self._drop_connection()
                    raise
                except ConnectionLostError as exc:
                    self._drop_connection()
                    last = exc
                    if deadline is not None and time.monotonic() >= deadline:
                        raise DeadlineExceeded(
                            "the request deadline elapsed while retrying"
                        ) from exc
        assert last is not None
        raise last

    # ------------------------------------------------------------------ #
    def scan(
        self,
        *,
        window_size: int,
        overlap: int = 0,
        config: GAConfig | None = None,
        seed: int = 0,
        statistic: str = "t1",
        n_runs: int = 1,
        progress=None,
        timeout: float | None = None,
    ) -> ScanReport:
        """Run a windowed scan on the daemon's warm substrate.

        Blocks until the scan completes, invoking ``progress(window_result)``
        for each streamed window (the in-process runner's hook signature).
        ``timeout`` bounds the whole request (waiting for *each* reply
        against one absolute deadline); a retried scan re-submits from the
        start, so ``progress`` may observe early windows again — the daemon
        replays them from its result cache/journal bit-identically.  Raises
        :class:`~repro.runtime.server.AdmissionRejected` when the daemon's
        admission policy refuses the request and :class:`ServiceError` on
        service-side failures.
        """
        envelope = ScanEnvelope(
            window_size=window_size,
            overlap=overlap,
            config=config,
            seed=seed,
            statistic=statistic,
            n_runs=n_runs,
        )
        start = time.perf_counter()

        def perform(conn, deadline):
            self._send_on(conn, envelope)
            windows: list[WindowResult] = []
            while True:
                message = self._recv_on(conn, deadline)
                kind = message[0]
                if kind == "window":
                    _kind, payload, _cached = message
                    result = window_result_from_json(payload)
                    windows.append(result)
                    if progress is not None:
                        progress(result)
                elif kind == "done":
                    return windows, message[1]
                elif kind == "rejected":
                    raise AdmissionRejected(message[1])
                elif kind == "error":
                    raise ServiceError(message[1])
                else:  # pragma: no cover - protocol violation
                    raise ServiceError(f"unexpected reply {kind!r}")

        (windows, meta), retries = self._request(perform, timeout=timeout)
        stats = EvaluationStats(**meta["stats"])
        return ScanReport(
            windows=tuple(windows),
            backend=str(meta["backend"]),
            n_jobs=int(meta["jobs"]),
            stats=stats,
            elapsed_seconds=time.perf_counter() - start,
            n_snps=int(self._info["n_snps"]),
            window_size=window_size,
            overlap=overlap,
            statistic=statistic.lower(),
            seed=seed,
            n_cached_windows=int(meta["n_cached_windows"]),
            admission_wait_seconds=float(meta["admission_wait_seconds"]),
            n_client_retries=int(retries),
        )

    def run(self, request: RunRequest, *, timeout: float | None = None) -> RunResult:
        """Execute one GA run on the daemon; returns its full RunResult."""

        def perform(conn, deadline):
            self._send_on(conn, RunEnvelope(request=request))
            return self._recv_on(conn, deadline)

        (kind, payload), _retries = self._request(perform, timeout=timeout)
        if kind == "result":
            return payload
        if kind == "rejected":
            raise AdmissionRejected(payload)
        raise ServiceError(payload)

    def status(self, *, timeout: float | None = None) -> dict:
        """The daemon's status dict (cache, admission, tenants, summary)."""

        def perform(conn, deadline):
            self._send_on(conn, StatusProbe())
            return self._recv_on(conn, deadline)

        (kind, payload), _retries = self._request(perform, timeout=timeout)
        if kind != "status":
            raise ServiceError(payload)
        return payload

    def health(self, *, timeout: float | None = None) -> dict:
        """The daemon's liveness card: farm/host health, queue depth, journal."""

        def perform(conn, deadline):
            self._send_on(conn, HealthProbe())
            return self._recv_on(conn, deadline)

        (kind, payload), _retries = self._request(perform, timeout=timeout)
        if kind != "health":
            raise ServiceError(payload)
        return payload

    def shutdown_server(
        self, *, drain: bool = True, timeout: float | None = None
    ) -> None:
        """Ask the daemon to drain and exit; the connection closes with it.

        A single attempt (shutdown is not idempotent to blind-retry); the
        deadline still applies, so a daemon wedged mid-drain cannot hang the
        caller.
        """
        deadline = self._deadline(timeout)
        with self._lock:
            conn = self._ensure_connection()
            try:
                self._send_on(conn, ShutdownCommand(drain=drain))
                self._recv_on(conn, deadline)
            except ConnectionLostError:
                pass  # server may close before the ack arrives
            except DeadlineExceeded:
                self._drop_connection()
                raise

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ScanClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
