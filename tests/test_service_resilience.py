"""Tests of the service-tier resilience layer.

Covers the network chaos harness (:class:`ConnectionChaos` /
:class:`ChaosConnection`), the client's deadline/retry/circuit-breaker
machinery, admission cancellation of abandoned queued requests, daemon crash
recovery through the scan journal (in-process restart and a SIGKILLed
``repro serve`` subprocess on the 201-locus acceptance panel), and
worker-host heartbeats (silent-host reaping, buffered-beat liveness,
reconnect backoff and re-admission).

The invariant under test everywhere: a recovered scan is
fingerprint-identical to the fault-free in-process scan — faults cost
wall-clock, never results.
"""

import dataclasses
import re
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import Pipe
from multiprocessing.connection import Client, Listener

import pytest

import repro  # noqa: F401 - anchors the src path for the CLI subprocess
from repro.core.config import GAConfig
from repro.genetics.io import write_study_tables
from repro.genetics.simulate import (
    DiseaseModel,
    PopulationModel,
    simulate_case_control_study,
)
from repro.parallel.farm import FarmRecoveryPolicy
from repro.runtime.client import (
    CircuitBreaker,
    CircuitOpenError,
    ConnectionLostError,
    DeadlineExceeded,
    RetryPolicy,
    ScanClient,
    ServiceError,
)
from repro.runtime.remote import (
    LocalWorkerHost,
    RemoteSlavePool,
    default_authkey,
)
from repro.runtime.server import (
    AdmissionCancelled,
    AdmissionController,
    AdmissionPolicy,
    ScanServer,
)
from repro.runtime.spec import PROTOCOL_VERSION, ClientHello, ScanEnvelope
from repro.scan import run_scan
from repro.scan.report import ScanReport
from repro.testing.faults import ChaosConnection, ConnectionChaos

WINDOW_SIZE = 6
OVERLAP = 3
FAST_POLL = 0.05

SCAN_CONFIG = GAConfig(
    population_size=8,
    min_haplotype_size=2,
    max_haplotype_size=3,
    termination_stagnation=2,
    max_generations=3,
    point_mutation_trials=1,
)


def _serve(dataset, **kwargs):
    """A started server on an ephemeral localhost port."""
    server = ScanServer(dataset, **kwargs)
    server.start(("127.0.0.1", 0))
    return server


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"condition not reached within {timeout:.1f}s")


def _chaos_first(chaos: ConnectionChaos):
    """A ``wrap_connection`` hook that chaoses only the *first* connection —
    the reconnect a retry establishes is healthy."""
    state = {"used": False}

    def wrap(conn):
        if state["used"]:
            return conn
        state["used"] = True
        return ChaosConnection(conn, chaos)

    return wrap


# --------------------------------------------------------------------------- #
# the chaos harness itself, on plain pipes
# --------------------------------------------------------------------------- #
class TestConnectionChaos:
    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ConnectionChaos()
        with pytest.raises(ValueError, match="exactly one"):
            ConnectionChaos(sever_on_send=1, sever_on_recv=1)
        with pytest.raises(ValueError, match="positive integer"):
            ConnectionChaos(sever_on_recv=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            ConnectionChaos(delay_on_recv=1, delay_seconds=-1.0)

    def test_sever_on_send(self):
        near, far = Pipe(duplex=True)
        with ChaosConnection(near, ConnectionChaos(sever_on_send=2)) as conn:
            conn.send("first")
            assert far.recv() == "first"
            with pytest.raises(BrokenPipeError, match="severed on send #2"):
                conn.send("second")
            assert conn.closed
            with pytest.raises(EOFError):
                far.recv()  # the peer sees a torn connection
        far.close()

    def test_sever_on_recv(self):
        near, far = Pipe(duplex=True)
        far.send("first")
        far.send("second")
        with ChaosConnection(near, ConnectionChaos(sever_on_recv=2)) as conn:
            assert conn.recv() == "first"
            assert conn.n_recvs == 1
            with pytest.raises(EOFError, match="severed on recv #2"):
                conn.recv()
            assert conn.closed
        far.close()

    def test_delay_on_recv_holds_then_delivers(self):
        near, far = Pipe(duplex=True)
        far.send("late")
        chaos = ConnectionChaos(delay_on_recv=1, delay_seconds=0.3)
        with ChaosConnection(near, chaos) as conn:
            start = time.monotonic()
            assert not conn.poll(0.05)  # scripted to be late
            assert conn.poll(5.0)  # ... but it does arrive
            assert time.monotonic() - start >= 0.25
            assert conn.recv() == "late"
            far.send("on-time")  # only the Nth message is delayed
            assert conn.poll(5.0)
            assert conn.recv() == "on-time"
        far.close()

    def test_black_hole_swallows_everything(self):
        near, far = Pipe(duplex=True)
        far.send("swallowed")
        conn = ChaosConnection(near, ConnectionChaos(black_hole_on_recv=1))
        assert not conn.poll(0.1)  # readable bytes exist, but the route is dark
        box = {}

        def blocked_recv():
            try:
                conn.recv()
            except EOFError as exc:
                box["error"] = exc

        thread = threading.Thread(target=blocked_recv, daemon=True)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # recv blocks: nothing will ever arrive
        conn.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(box["error"], EOFError)
        far.close()


# --------------------------------------------------------------------------- #
# retry policy and circuit breaker units
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, max_backoff_seconds=0.4, jitter=0.0
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.4)  # capped

    def test_jitter_shrinks_within_bounds(self):
        import random

        policy = RetryPolicy(backoff_seconds=1.0, jitter=0.5)
        rng = random.Random(7)
        for retry in (1, 2, 3):
            base = min(1.0 * 2 ** (retry - 1), policy.max_backoff_seconds)
            delay = policy.backoff(retry, rng)
            assert base * 0.5 <= delay <= base

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match=">= 0"):
            RetryPolicy(backoff_seconds=-1.0)


class TestCircuitBreaker:
    def test_open_halfopen_close_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=10.0, clock=lambda: clock[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # failing fast
        clock[0] = 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # exactly one probe
        assert not breaker.allow()
        breaker.record_failure()  # the probe failed: re-open a fresh window
        assert breaker.state == "open"
        clock[0] = 15.0
        assert not breaker.allow()
        clock[0] = 20.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()  # no probe limit when closed

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_seconds"):
            CircuitBreaker(reset_seconds=-1.0)


# --------------------------------------------------------------------------- #
# client resilience against a live daemon
# --------------------------------------------------------------------------- #
class TestClientResilience:
    def test_deadline_on_a_wedged_daemon(self, small_dataset):
        with _serve(small_dataset) as server:
            # the hello reply is recv #1; the status reply is black-holed
            client = ScanClient(
                server.address,
                wrap_connection=_chaos_first(
                    ConnectionChaos(black_hole_on_recv=2)
                ),
                retry=None,
            )
            try:
                start = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    client.status(timeout=0.5)
                assert time.monotonic() - start < 5.0
                # the wedged socket was dropped; the next request reconnects
                status = client.status(timeout=30.0)
                assert client.n_reconnects == 1
                assert "health" in status
            finally:
                client.close()

    def test_transport_loss_is_retried_and_replayed(self, small_dataset):
        reference = run_scan(small_dataset, window_size=WINDOW_SIZE,
                             overlap=OVERLAP, config=SCAN_CONFIG, seed=11)
        with _serve(small_dataset) as server:
            with ScanClient(
                server.address,
                client_id="retrier",
                # hello=1, two windows stream, then the link tears
                wrap_connection=_chaos_first(ConnectionChaos(sever_on_recv=4)),
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01),
                retry_seed=7,
            ) as client:
                report = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                     config=SCAN_CONFIG, seed=11, timeout=120.0)
                assert client.metrics()["n_retries"] == 1
        assert report.fingerprint() == reference.fingerprint()
        assert report.n_client_retries == 1
        # the re-submitted scan replayed the first attempt's windows from the
        # daemon's result cache instead of recomputing them
        assert report.n_cached_windows >= 1

    def test_server_answers_are_not_retried(self, small_dataset):
        with _serve(small_dataset) as server:
            with ScanClient(server.address,
                            retry=RetryPolicy(max_attempts=3)) as client:
                with pytest.raises(ServiceError, match="one daemon per recipe"):
                    client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                config=SCAN_CONFIG, seed=11, statistic="lrt")
                assert client.n_retries == 0  # an answer, not a failure

    def test_retry_exhaustion_raises_the_transport_error(self, small_dataset):
        with _serve(small_dataset) as server:
            state = {"n": 0}

            def always_chaos(conn):
                state["n"] += 1
                return ChaosConnection(conn, ConnectionChaos(sever_on_recv=2))

            client = ScanClient(
                server.address,
                wrap_connection=always_chaos,
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
            )
            try:
                with pytest.raises(ConnectionLostError):
                    client.status()
                assert client.n_retries == 1  # policy honoured, then raised
            finally:
                client.close()

    def test_breaker_fails_fast_after_repeated_connect_failures(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        dead = ("127.0.0.1", 1)
        for _ in range(2):
            with pytest.raises(ConnectionLostError):
                ScanClient(dead, breaker=breaker, connect_timeout=2.0,
                           retry=None)
        assert breaker.state == "open"
        start = time.monotonic()
        with pytest.raises(CircuitOpenError):
            ScanClient(dead, breaker=breaker, connect_timeout=2.0, retry=None)
        assert time.monotonic() - start < 1.0  # no connect attempt was paid


# --------------------------------------------------------------------------- #
# admission: abandoned queued requests are cancelled, not run
# --------------------------------------------------------------------------- #
class TestAdmissionCancellation:
    def test_cancelled_admission_rolls_back_and_wakes_the_queue(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active=1, max_queued=4)
        )
        first = controller.admit("alice", 1.0)
        cancelled = threading.Event()
        outcome = {}

        def doomed():
            try:
                controller.admit("bob", 1.0, cancelled=cancelled.is_set,
                                 poll_seconds=0.01)
            except AdmissionCancelled as exc:
                outcome["bob"] = exc

        def patient():
            ticket = controller.admit("carol", 1.0)  # no callback: blocking
            outcome["carol"] = ticket
            controller.release(ticket)

        bob = threading.Thread(target=doomed)
        bob.start()
        _wait_until(lambda: controller.snapshot()["n_queued"] == 1)
        carol = threading.Thread(target=patient)
        carol.start()
        _wait_until(lambda: controller.snapshot()["n_queued"] == 2)

        cancelled.set()
        bob.join(timeout=10.0)
        assert not bob.is_alive()
        assert isinstance(outcome["bob"], AdmissionCancelled)
        snap = controller.snapshot()
        assert snap["n_queued"] == 1  # bob's queue slot was rolled back
        assert snap["n_cancelled"] == 1

        # the freed slot wakes the still-attached carol, not the ghost
        controller.release(first)
        carol.join(timeout=10.0)
        assert not carol.is_alive()
        assert outcome["carol"].wait_seconds > 0.0
        # bob's per-client in-flight accounting was rolled back too
        controller.release(controller.admit("bob", 1.0))
        final = controller.snapshot()
        assert final["n_active"] == 0 and final["n_queued"] == 0
        assert final["outstanding_cost_seconds"] == pytest.approx(0.0)

    def test_disconnected_client_is_cancelled_not_run(self, small_dataset):
        policy = AdmissionPolicy(max_active=1, max_queued=4)
        with _serve(small_dataset, admission=policy) as server:
            hog = server.admission.admit("hog", 1.0)
            ghost = Client(tuple(server.address), authkey=default_authkey())
            try:
                ghost.send(
                    ClientHello(client_id="ghost", protocol_version=PROTOCOL_VERSION)
                )
                kind, _payload = ghost.recv()
                assert kind == "ok"
                ghost.send(ScanEnvelope(window_size=WINDOW_SIZE,
                                        overlap=OVERLAP, config=SCAN_CONFIG,
                                        seed=11))
                _wait_until(
                    lambda: server.admission.snapshot()["n_queued"] == 1
                )
            finally:
                ghost.close()  # hang up while queued
            _wait_until(
                lambda: server.admission.snapshot()["n_cancelled"] == 1
            )
            server.admission.release(hog)
            # the freed slot serves a live client immediately
            with ScanClient(server.address, client_id="live") as live:
                report = live.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                   config=SCAN_CONFIG, seed=11)
                status = live.status()
        assert report.n_windows > 0
        # the ghost's scan never ran (no scan recorded for it), and the
        # cancellation is surfaced on the health card
        assert "ghost" not in {
            name for name, row in status["tenants"].items()
            if row["n_scans"] > 0
        }
        assert status["health"]["n_cancelled_admissions"] == 1


# --------------------------------------------------------------------------- #
# daemon crash recovery through the scan journal
# --------------------------------------------------------------------------- #
class TestServerJournalRecovery:
    def test_restarted_server_replays_journaled_windows(
        self, small_dataset, tmp_path, monkeypatch
    ):
        journal_dir = tmp_path / "journal"
        reference = run_scan(small_dataset, window_size=WINDOW_SIZE,
                             overlap=OVERLAP, config=SCAN_CONFIG, seed=11)
        links = []

        def sever_mid_scan(conn):
            # hello=1, two windows stream, then the link tears
            links.append(conn)
            return ChaosConnection(conn, ConnectionChaos(sever_on_recv=4))

        with _serve(small_dataset, journal_dir=str(journal_dir)) as first:
            # hold the third window until the client has hung up: the scan
            # is interrupted, never raced to completion before the tear
            run = first.scheduler.run
            n_runs = []

            def held_run(request):
                n_runs.append(request)
                if len(n_runs) > 2:
                    _wait_until(lambda: links[0].closed)
                return run(request)

            monkeypatch.setattr(first.scheduler, "run", held_run)
            with pytest.raises(ConnectionLostError):
                with ScanClient(
                    first.address,
                    retry=None,
                    wrap_connection=sever_mid_scan,
                ) as client:
                    client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                config=SCAN_CONFIG, seed=11)
        # the interrupted scan left its journal behind
        assert len(list(journal_dir.glob("scan-*.jsonl"))) == 1

        # a fresh server (cold cache) on the same journal dir replays the
        # journaled windows and recomputes only the remainder
        with _serve(small_dataset, journal_dir=str(journal_dir)) as second:
            with ScanClient(second.address, client_id="resumer") as client:
                report = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                     config=SCAN_CONFIG, seed=11)
                health = client.health()
        assert report.fingerprint() == reference.fingerprint()
        assert health["journal"]["n_recovered_windows"] >= 1
        assert health["journal"]["n_recovered_scans"] == 1
        assert report.n_cached_windows >= health["journal"][
            "n_recovered_windows"
        ]
        # a completed scan retires its journal file
        assert not list(journal_dir.glob("scan-*.jsonl"))

    def test_health_card_shape(self, small_dataset, tmp_path):
        with _serve(small_dataset,
                    journal_dir=str(tmp_path / "journal")) as server:
            with ScanClient(server.address) as client:
                health = client.health()
        assert health["status"] == "ok"
        assert health["backend"] == "serial"
        assert health["n_active_requests"] == 0
        assert health["n_queued_requests"] == 0
        assert health["farm"]["n_workers"] == 1
        assert health["journal"]["n_inflight_scans"] == 0


def _cli_environment():
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


ACCEPTANCE_CONFIG = GAConfig(
    population_size=6,
    min_haplotype_size=2,
    max_haplotype_size=2,
    termination_stagnation=1,
    max_generations=2,
    point_mutation_trials=1,
)


@pytest.fixture(scope="module")
def chromosome_study():
    """The acceptance panel: 201 loci, same recipe as the scan tests."""
    model = PopulationModel(n_snps=201, block_size=6,
                            within_block_correlation=0.4)
    disease = DiseaseModel(
        causal_snps=(20, 100, 180),
        risk_alleles=(2, 2, 2),
        baseline_penetrance=0.1,
        relative_risk=6.0,
        risk_haplotype_frequency=0.3,
    )
    return simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=20,
        n_unaffected=20,
        seed=31,
    )


class TestDaemonCrashRecovery:
    """Acceptance: SIGKILL ``repro serve`` mid-201-locus scan, restart it on
    the same journal, and the served report is fingerprint-identical to the
    fault-free in-process scan."""

    WINDOW_SIZE = 4
    OVERLAP = 2
    KILL_AFTER_WINDOWS = 30

    def _spawn_serve(self, study, journal_dir):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(study),
             "--bind", "127.0.0.1:0", "--backend", "serial",
             "--journal-dir", str(journal_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_cli_environment(),
        )
        banner = proc.stdout.readline()
        match = re.search(r"scan service on (\d+\.\d+\.\d+\.\d+:\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        return proc, match.group(1)

    def test_sigkilled_daemon_resumes_fingerprint_identical(
        self, chromosome_study, tmp_path
    ):
        dataset = chromosome_study.dataset
        study = tmp_path / "study"
        write_study_tables(dataset, study)
        journal_dir = tmp_path / "journal"
        reference = run_scan(dataset, window_size=self.WINDOW_SIZE,
                             overlap=self.OVERLAP, config=ACCEPTANCE_CONFIG,
                             seed=17)
        assert reference.n_windows >= 100

        proc, address = self._spawn_serve(study, journal_dir)
        seen = []
        try:
            def kill_daemon_mid_scan(result):
                seen.append(result)
                if len(seen) == self.KILL_AFTER_WINDOWS:
                    proc.kill()  # SIGKILL: no drain, no journal close

            with pytest.raises(ConnectionLostError):
                with ScanClient(address, client_id="doomed",
                                retry=None) as client:
                    client.scan(window_size=self.WINDOW_SIZE,
                                overlap=self.OVERLAP,
                                config=ACCEPTANCE_CONFIG, seed=17,
                                progress=kill_daemon_mid_scan,
                                timeout=600.0)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        assert len(seen) >= self.KILL_AFTER_WINDOWS
        assert list(journal_dir.glob("scan-*.jsonl"))

        proc, address = self._spawn_serve(study, journal_dir)
        try:
            with ScanClient(address, client_id="resumed") as client:
                report = client.scan(window_size=self.WINDOW_SIZE,
                                     overlap=self.OVERLAP,
                                     config=ACCEPTANCE_CONFIG, seed=17,
                                     timeout=600.0)
                health = client.health()
            assert report.fingerprint() == reference.fingerprint()
            # every window the dead daemon journaled was replayed, not rerun
            assert health["journal"]["n_recovered_windows"] >= (
                self.KILL_AFTER_WINDOWS
            )
            assert health["journal"]["n_recovered_scans"] == 1
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "scan service shut down cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


# --------------------------------------------------------------------------- #
# worker-host heartbeats: silent hosts are dead hosts
# --------------------------------------------------------------------------- #
def _linear_fitness(snps):
    return float(sum((i + 1) * (s + 1) for i, s in enumerate(sorted(snps))))


class _LinearFactory:
    def __call__(self):
        return _linear_fitness


def _batch(n):
    return [(i, i + 1) for i in range(n)]


def _expected(batch):
    return [_linear_fitness(snps) for snps in batch]


class _SilentHost:
    """Accepts connections (HMAC and all), then never sends a byte back —
    the black-holed route a reply-only protocol cannot distinguish from a
    slave evaluating a heavy chunk."""

    def __init__(self):
        self._listener = Listener(("127.0.0.1", 0), authkey=default_authkey())
        self._conns = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def host(self) -> str:
        address = self._listener.address
        return f"{address[0]}:{address[1]}"

    def _accept_loop(self):
        while True:
            try:
                self._conns.append(self._listener.accept())
            except (OSError, EOFError):
                return

    def close(self):
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


class TestWorkerHostHeartbeats:
    def test_silent_host_is_reaped_like_a_dead_slave(self):
        silent = _SilentHost()
        try:
            with LocalWorkerHost(heartbeat_interval=0.1) as live:
                pool = RemoteSlavePool(
                    _LinearFactory(),
                    [live.host, silent.host],
                    chunk_size=1,
                    worker_cache_size=0,
                    heartbeat_timeout=0.5,
                    recovery=FarmRecoveryPolicy(respawn=False),
                )
                pool._RESULT_POLL_SECONDS = FAST_POLL
                with pool:
                    time.sleep(0.8)  # past the budget; only `live` beats
                    batch = _batch(12)
                    values, _stats = pool.evaluate(batch)
                    counters = pool.recovery_counters()
                    statuses = pool.host_statuses()
                assert values == _expected(batch)
                assert counters["n_worker_deaths"] == 1
                assert counters["n_chunks_replayed"] >= 1
                assert statuses[0]["alive"] and not statuses[1]["alive"]
        finally:
            silent.close()

    def test_buffered_heartbeats_count_as_liveness(self):
        # idle between batches nobody drains the result channel, so beats
        # pile up unread — readable bytes must count as life, or an external
        # health probe would reap every idle worker
        with LocalWorkerHost(heartbeat_interval=0.05) as host:
            pool = RemoteSlavePool(
                _LinearFactory(),
                [host.host],
                chunk_size=1,
                worker_cache_size=0,
                heartbeat_timeout=0.3,
                recovery=FarmRecoveryPolicy(respawn=False),
            )
            pool._RESULT_POLL_SECONDS = FAST_POLL
            with pool:
                time.sleep(0.6)  # well past the heartbeat budget
                statuses = pool.check_hosts()
                assert statuses[0]["alive"]
                batch = _batch(6)
                values, _stats = pool.evaluate(batch)
                assert pool.recovery_counters()["n_worker_deaths"] == 0
            assert values == _expected(batch)

    def test_dead_host_backs_off_and_is_readmitted(self):
        import socket

        # reserve a port the flaky host can come back on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        with LocalWorkerHost() as anchor:
            flaky = LocalWorkerHost(bind=("127.0.0.1", port))
            pool = RemoteSlavePool(
                _LinearFactory(),
                [anchor.host, flaky.host],
                chunk_size=1,
                worker_cache_size=0,
                heartbeat_timeout=None,
                connect_timeout=5.0,
                reconnect_backoff=0.2,
                recovery=FarmRecoveryPolicy(respawn=True,
                                            max_worker_restarts=20),
            )
            pool._RESULT_POLL_SECONDS = FAST_POLL
            try:
                with pool:
                    batch = _batch(10)
                    values, _stats = pool.evaluate(batch)
                    assert values == _expected(batch)

                    # the flaky host dies; reconnects fail and back off
                    flaky.close()
                    pool._result_conns[1].close()
                    pool._broken[1] = True
                    statuses = pool.check_hosts()
                    assert not statuses[1]["alive"]
                    assert statuses[1]["reconnect_backoff_seconds"] > 0.2
                    assert pool.recovery_counters()["n_worker_deaths"] == 1

                    # work continues on the anchor while the slot is down
                    values, _stats = pool.evaluate(batch)
                    assert values == _expected(batch)

                    # the host comes back on the same port: re-admitted on a
                    # health pass once its backoff window elapses
                    flaky = LocalWorkerHost(bind=("127.0.0.1", port))
                    _wait_until(
                        lambda: pool.check_hosts()[1]["alive"], timeout=30.0,
                        interval=0.1,
                    )
                    assert pool.recovery_counters()["n_worker_respawns"] >= 1
                    values, _stats = pool.evaluate(batch)
                    assert values == _expected(batch)
            finally:
                flaky.close()


# --------------------------------------------------------------------------- #
# report counter and CLI surface
# --------------------------------------------------------------------------- #
class TestRetryCounterOnReport:
    def test_round_trips_json_but_not_the_fingerprint(self, small_dataset):
        report = run_scan(small_dataset, window_size=WINDOW_SIZE,
                          overlap=OVERLAP, config=SCAN_CONFIG, seed=11)
        assert report.n_client_retries == 0
        bumped = dataclasses.replace(report, n_client_retries=3)
        assert ScanReport.from_json(bumped.to_json()).n_client_retries == 3
        # retries cost wall-clock, never results: excluded from the identity
        assert bumped.fingerprint() == report.fingerprint()
        # pre-counter payloads (older daemons) still load
        payload = report.to_json()
        del payload["n_client_retries"]
        assert ScanReport.from_json(payload).n_client_retries == 0


class TestResilienceCli:
    def test_status_shows_health_farm_and_journal(
        self, small_dataset, tmp_path, capsys
    ):
        from repro.cli import main

        journal_dir = tmp_path / "journal"
        with _serve(small_dataset, journal_dir=str(journal_dir)) as server:
            argv = [
                "scan", "--connect", server.host, "--client-id", "cli-res",
                "--window-size", str(WINDOW_SIZE),
                "--window-overlap", str(OVERLAP),
                "--population-size", "8", "--max-size", "3",
                "--stagnation", "2", "--max-generations", "3",
                "--seed", "11", "--top", "2",
                "--timeout", "120", "--retries", "1",
            ]
            assert main(argv) == 0
            capsys.readouterr()
            assert main(["serve", "--bind", server.host, "--status"]) == 0
            out = capsys.readouterr().out
        assert "farm: ?/1 worker(s) alive on serial" in out
        assert f"journal: {journal_dir}" in out
        assert "0 cancelled" in out
