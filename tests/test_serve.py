"""Tests of the scan service: ``repro serve`` daemon, client, cache, admission.

Covers the cross-request window-result cache (bytes-budgeted LRU,
bit-identical replays), the cost-aware admission controller (per-client
caps, bounded queue, cost budget), per-tenant metrics, graceful SIGTERM
shutdown of the ``serve``/``worker`` daemons, the ``--connect``/``--status``
CLI paths and — as the acceptance check — a 201-locus scan served through
the daemon (cache cold and warm) fingerprint-identical to the in-process
scan on the ``process`` backend and its ``process-shm`` alias.
"""

import dataclasses
import os
import re
import signal
import subprocess
import sys
import threading
from multiprocessing.connection import Client
from pathlib import Path

import pytest

import repro
from repro.core.config import GAConfig
from repro.genetics.io import write_study_tables
from repro.genetics.simulate import (
    DiseaseModel,
    PopulationModel,
    simulate_case_control_study,
)
from repro.runtime import client as client_module
from repro.runtime.client import RetryPolicy, ScanClient, ServiceError
from repro.runtime.remote import InsecureBindError, default_authkey
from repro.runtime.server import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    ScanServer,
    WindowResultCache,
)
from repro.genetics.constraints import HaplotypeConstraints
from repro.runtime.service import RunRequest, RunScheduler
from repro.runtime.spec import (
    PROTOCOL_VERSION,
    ClientHello,
    EvaluatorSpec,
    HealthProbe,
    RunEnvelope,
    ScanEnvelope,
    ShutdownCommand,
    StatusProbe,
)
from repro.scan import run_scan
from repro.scan.checkpoint import config_digest

WINDOW_SIZE = 6
OVERLAP = 3

SCAN_CONFIG = GAConfig(
    population_size=8,
    min_haplotype_size=2,
    max_haplotype_size=3,
    termination_stagnation=2,
    max_generations=3,
    point_mutation_trials=1,
)


def _scan_key(report):
    return [(w.window.index, w.best_snps, w.best_fitness) for w in report.windows]


def _serve(dataset, **kwargs):
    """A started server on an ephemeral localhost port."""
    server = ScanServer(dataset, **kwargs)
    server.start(("127.0.0.1", 0))
    return server


class TestConfigDigest:
    def test_digest_is_stable_and_parameter_sensitive(self):
        a = GAConfig(population_size=8)
        assert config_digest(a) == config_digest(GAConfig(population_size=8))
        assert config_digest(a) != config_digest(GAConfig(population_size=9))
        assert config_digest(None) == config_digest(GAConfig())
        assert re.fullmatch(r"[0-9a-f]{16}", config_digest(a))


class TestWindowResultCache:
    def _payload(self, tag):
        return {"v": str(tag) * 10}  # 16-byte JSON body, stable size

    def test_hit_miss_and_lru_eviction(self):
        import json

        size = len(json.dumps(self._payload(0)))
        cache = WindowResultCache(max_bytes=2 * size)
        cache.put(("k", 1), self._payload(1))
        cache.put(("k", 2), self._payload(2))
        assert cache.n_entries == 2
        # a hit refreshes recency, so inserting a third evicts key 2
        assert cache.get(("k", 1)) == self._payload(1)
        cache.put(("k", 3), self._payload(3))
        assert cache.get(("k", 2)) is None
        assert cache.get(("k", 1)) == self._payload(1)
        assert cache.get(("k", 3)) == self._payload(3)
        snap = cache.snapshot()
        assert snap["n_evictions"] == 1
        assert snap["n_hits"] == 3
        assert snap["n_misses"] == 1
        assert snap["bytes"] == 2 * size <= snap["max_bytes"]

    def test_duplicate_put_is_a_no_op(self):
        cache = WindowResultCache(max_bytes=1 << 20)
        cache.put(("k",), self._payload(1))
        before = cache.bytes_used
        cache.put(("k",), self._payload(2))  # concurrent client lost the race
        assert cache.n_insertions == 1
        assert cache.bytes_used == before
        assert cache.get(("k",)) == self._payload(1)

    def test_oversized_payload_is_not_inserted(self):
        cache = WindowResultCache(max_bytes=4)
        cache.put(("k",), self._payload(1))
        assert cache.n_entries == 0
        assert cache.get(("k",)) is None

    def test_zero_budget_disables_the_cache(self):
        cache = WindowResultCache(max_bytes=0)
        cache.put(("k",), self._payload(1))
        assert cache.n_entries == 0
        assert cache.get(("k",)) is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WindowResultCache(max_bytes=-1)


class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_active"):
            AdmissionPolicy(max_active=0)
        with pytest.raises(ValueError, match="max_inflight_per_client"):
            AdmissionPolicy(max_inflight_per_client=0)
        with pytest.raises(ValueError, match="max_queued"):
            AdmissionPolicy(max_queued=-1)
        with pytest.raises(ValueError, match="over_budget"):
            AdmissionPolicy(over_budget="drop")

    def test_to_json_carries_every_knob(self):
        policy = AdmissionPolicy(max_active=2, max_queued=5,
                                 max_inflight_per_client=1,
                                 max_outstanding_cost_seconds=3.5,
                                 over_budget="reject")
        assert policy.to_json() == {
            "max_active": 2,
            "max_queued": 5,
            "max_inflight_per_client": 1,
            "max_outstanding_cost_seconds": 3.5,
            "over_budget": "reject",
        }


class TestAdmissionController:
    def test_per_client_inflight_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active=4, max_inflight_per_client=1)
        )
        ticket = controller.admit("alice", 1.0)
        with pytest.raises(AdmissionRejected, match="in flight"):
            controller.admit("alice", 1.0)
        other = controller.admit("bob", 1.0)  # the cap is per client
        controller.release(ticket)
        controller.release(other)
        controller.release(controller.admit("alice", 1.0))
        assert controller.n_admitted == 3
        assert controller.n_rejected == 1

    def test_full_queue_rejects(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active=1, max_queued=0)
        )
        ticket = controller.admit("alice", 1.0)
        with pytest.raises(AdmissionRejected, match="queue full"):
            controller.admit("bob", 1.0)
        controller.release(ticket)
        controller.release(controller.admit("bob", 1.0))
        assert controller.snapshot()["rejections"] == {"admission queue full": 1}

    def test_cost_budget_reject_versus_queue(self):
        rejecting = AdmissionController(
            AdmissionPolicy(max_active=4, max_outstanding_cost_seconds=1.0,
                            over_budget="reject")
        )
        ticket = rejecting.admit("alice", 0.8)
        with pytest.raises(AdmissionRejected, match="budget"):
            rejecting.admit("bob", 0.5)
        rejecting.release(ticket)
        # an empty service always admits, however expensive the request
        rejecting.release(rejecting.admit("bob", 99.0))

        queueing = AdmissionController(
            AdmissionPolicy(max_active=4, max_outstanding_cost_seconds=1.0,
                            over_budget="queue")
        )
        first = queueing.admit("alice", 0.8)
        second = queueing.admit("bob", 0.5)  # over budget, but queue-policy
        queueing.release(first)
        queueing.release(second)
        assert queueing.n_rejected == 0

    def test_queued_request_waits_for_a_slot(self):
        controller = AdmissionController(
            AdmissionPolicy(max_active=1, max_queued=4)
        )
        first = controller.admit("alice", 1.0)
        admitted = []

        def queued():
            ticket = controller.admit("bob", 1.0)
            admitted.append(ticket)
            controller.release(ticket)

        thread = threading.Thread(target=queued)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # still queued behind alice
        assert controller.snapshot()["n_queued"] == 1
        controller.release(first)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert admitted and admitted[0].wait_seconds > 0.0


class TestScanService:
    """Socket round trips against a serial-backend daemon on the small panel."""

    def test_cold_and_warm_scans_match_the_in_process_scan(self, small_dataset):
        reference = run_scan(small_dataset, window_size=WINDOW_SIZE,
                             overlap=OVERLAP, config=SCAN_CONFIG, seed=11)
        with _serve(small_dataset) as server:
            with ScanClient(server.address, client_id="tenant-a") as client:
                info = client.info
                assert info["statistic"] == "t1"
                assert info["n_snps"] == small_dataset.n_snps
                assert info["panel_fingerprint"] == small_dataset.fingerprint()

                cold = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                   config=SCAN_CONFIG, seed=11)
                assert _scan_key(cold) == _scan_key(reference)
                assert cold.stats.counters() == reference.stats.counters()
                assert cold.n_cached_windows == 0

                warm = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                   config=SCAN_CONFIG, seed=11)
                assert _scan_key(warm) == _scan_key(reference)
                assert warm.n_cached_windows == reference.n_windows
                assert warm.stats.n_evaluations == 0
                assert warm.stats.n_result_cache_hits == reference.n_windows
                assert "replayed from the service result cache" in warm.format()

                # a different seed is a different cache key: recomputed, and
                # still bit-identical to the in-process scan of that seed
                other = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                    config=SCAN_CONFIG, seed=12)
                assert other.n_cached_windows == 0
            assert server.result_cache.n_hits == reference.n_windows
        assert _scan_key(other) == _scan_key(
            run_scan(small_dataset, window_size=WINDOW_SIZE, overlap=OVERLAP,
                     config=SCAN_CONFIG, seed=12)
        )

    def test_progress_callback_streams_windows_in_order(self, small_dataset):
        seen = []
        with _serve(small_dataset) as server:
            with ScanClient(server.address) as client:
                report = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                     config=SCAN_CONFIG, seed=11,
                                     progress=seen.append)
        assert [r.window.index for r in seen] == [
            r.window.index for r in report.windows
        ]
        assert [r.window.index for r in seen] == sorted(
            r.window.index for r in seen
        )

    def test_tenant_metrics_partition_by_client_id(self, small_dataset):
        with _serve(small_dataset) as server:
            with ScanClient(server.address, client_id="alice") as alice:
                cold = alice.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                  config=SCAN_CONFIG, seed=11)
            with ScanClient(server.address, client_id="bob") as bob:
                warm = bob.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                config=SCAN_CONFIG, seed=11)
                status = bob.status()
        n = cold.n_windows
        assert warm.n_cached_windows == n
        tenants = status["tenants"]
        assert tenants["alice"]["n_scans"] == 1
        assert tenants["alice"]["n_windows"] == n
        assert tenants["alice"]["n_result_cache_hits"] == 0
        assert tenants["alice"]["stats"]["n_evaluations"] > 0
        assert tenants["bob"]["n_result_cache_hits"] == n
        assert tenants["bob"]["stats"]["n_evaluations"] == 0
        assert status["result_cache"]["n_hits"] == n
        assert status["admission"]["n_admitted"] == 2
        assert "replayed from the cross-request cache" in status["summary"]

    def test_statistic_mismatch_is_an_error_not_a_second_farm(
        self, small_dataset
    ):
        with _serve(small_dataset) as server:
            with ScanClient(server.address) as client:
                with pytest.raises(ServiceError, match="one daemon per recipe"):
                    client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                config=SCAN_CONFIG, seed=11, statistic="lrt")
                # the connection survives the refusal
                report = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                     config=SCAN_CONFIG, seed=11)
        assert report.n_windows > 0

    def test_run_envelope_matches_the_in_process_run(self, small_dataset):
        request = RunRequest(config=SCAN_CONFIG, seed=5)
        with RunScheduler(small_dataset) as scheduler:
            reference = scheduler.run(request)
        with _serve(small_dataset) as server:
            with ScanClient(server.address, client_id="runner") as client:
                served = client.run(request)
                status = client.status()
        assert served.result.summary_rows() == reference.result.summary_rows()
        assert served.result.n_evaluations == reference.result.n_evaluations
        assert status["tenants"]["runner"]["n_runs"] == 1

    def test_rejections_travel_over_the_socket(self, small_dataset):
        policy = AdmissionPolicy(max_active=1, max_queued=0,
                                 max_inflight_per_client=1)
        with _serve(small_dataset, admission=policy) as server:
            # occupy the only slot so socket requests face a full service
            hog = server.admission.admit("alice", 1.0)
            with ScanClient(server.address, client_id="alice") as alice:
                with pytest.raises(AdmissionRejected, match="in flight"):
                    alice.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                               config=SCAN_CONFIG, seed=11)
            with ScanClient(server.address, client_id="bob") as bob:
                with pytest.raises(AdmissionRejected, match="queue full"):
                    bob.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                             config=SCAN_CONFIG, seed=11)
                server.admission.release(hog)
                report = bob.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                  config=SCAN_CONFIG, seed=11)
                status = bob.status()
        assert report.n_windows > 0
        assert status["tenants"]["alice"]["n_rejected"] == 1
        assert status["tenants"]["bob"]["n_rejected"] == 1

    def test_shutdown_command_stops_the_listener(self, small_dataset):
        with _serve(small_dataset) as server:
            address = server.address
            with ScanClient(address) as client:
                client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                            config=SCAN_CONFIG, seed=11)
                client.shutdown_server()
            server.wait(install_signal_handlers=False)  # returns: stop is set
            server.close()
            with pytest.raises((OSError, EOFError, ServiceError)):
                ScanClient(address)

    def test_malformed_hello_is_refused(self, small_dataset):
        with _serve(small_dataset) as server:
            conn = Client(tuple(server.address), authkey=default_authkey())
            try:
                conn.send("hello?")
                kind, message = conn.recv()
            finally:
                conn.close()
        assert kind == "error"
        assert "ClientHello" in message


#: The field names of every dataclass the daemon's wire carries, as of
#: PROTOCOL_VERSION 2.
WIRE_SHAPES_V2 = {
    ClientHello: ("client_id", "protocol_version"),
    ScanEnvelope: ("window_size", "overlap", "config", "seed", "statistic", "n_runs"),
    RunEnvelope: ("request",),
    StatusProbe: (),
    HealthProbe: (),
    ShutdownCommand: ("drain",),
    RunRequest: (
        "config", "n_runs", "seed", "statistic", "spec", "snp_indices", "constraints",
    ),
    GAConfig: (
        "min_haplotype_size", "max_haplotype_size", "population_size", "allocation",
        "crossover_rate", "mutation_rate", "min_operator_rate",
        "point_mutation_trials", "tournament_size", "offspring_per_generation",
        "termination_stagnation", "max_generations", "max_evaluations",
        "random_immigrant_stagnation", "use_adaptive_mutation",
        "use_adaptive_crossover", "use_size_mutations",
        "use_inter_population_crossover", "use_random_immigrants", "seed",
    ),
    EvaluatorSpec: ("statistic", "em_max_iter", "em_tol", "clump_min_expected", "cache_size"),
    HaplotypeConstraints: (
        "ld_table", "frequency_table", "max_pairwise_ld",
        "min_minor_frequency_difference",
    ),
}


class TestProtocolVersion:
    """The daemon refuses a hello from another wire-protocol version."""

    def test_wire_shapes_are_pinned_to_the_version(self):
        shapes = {
            cls: tuple(field.name for field in dataclasses.fields(cls))
            for cls in WIRE_SHAPES_V2
        }
        changed = {
            cls.__name__: shape
            for cls, shape in shapes.items()
            if shape != WIRE_SHAPES_V2[cls]
        }
        assert PROTOCOL_VERSION == 2 and not changed, (
            f"the wire shapes changed ({changed}) or PROTOCOL_VERSION moved "
            f"(now {PROTOCOL_VERSION}): a changed shape needs a PROTOCOL_VERSION "
            f"bump and a new pin of every carried shape for the new version"
        )

    @staticmethod
    def _raw_hello(server, hello):
        conn = Client(tuple(server.address), authkey=default_authkey())
        try:
            conn.send(hello)
            return conn.recv()
        finally:
            conn.close()

    def test_other_version_is_refused(self, small_dataset):
        other = PROTOCOL_VERSION + 1
        with _serve(small_dataset) as server:
            kind, message = self._raw_hello(
                server, ClientHello(client_id="skewed", protocol_version=other)
            )
            tenants = server.status()["tenants"]
        assert kind == "error"
        assert str(other) in message and str(PROTOCOL_VERSION) in message
        assert "skewed" not in tenants

    def test_hello_without_a_version_is_refused(self, small_dataset):
        # what an older client's pickled hello unpickles to: no such field
        hello = object.__new__(ClientHello)
        object.__setattr__(hello, "client_id", "unversioned")
        with _serve(small_dataset) as server:
            kind, message = self._raw_hello(server, hello)
            tenants = server.status()["tenants"]
        assert kind == "error"
        assert "None" in message and str(PROTOCOL_VERSION) in message
        assert "unversioned" not in tenants

    def test_client_raises_without_retrying(self, small_dataset, monkeypatch):
        connections = []

        def count(conn):
            connections.append(conn)
            return conn

        retry = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        with _serve(small_dataset) as server:
            current = ScanClient(server.address, retry=retry, wrap_connection=count)
            monkeypatch.setattr(client_module, "PROTOCOL_VERSION", PROTOCOL_VERSION + 1)
            with pytest.raises(ServiceError, match="protocol version"):
                ScanClient(server.address, retry=retry, wrap_connection=count)
            assert len(connections) == 2
            # a reconnect under the retry policy is refused once, not retried
            with current:
                current._drop_connection()
                with pytest.raises(ServiceError, match="protocol version"):
                    current.status()
                assert current.n_retries == 0
            assert len(connections) == 3

    def test_current_client_connects(self, small_dataset):
        with _serve(small_dataset) as server:
            with ScanClient(server.address, client_id="current") as client:
                status = client.status()
        assert "current" in status["tenants"]


class TestInsecureBind:
    """Off loopback, the daemon refuses the in-source development key."""

    @pytest.mark.parametrize("bind", ["0.0.0.0:0", ":0"])
    def test_refuses_public_bind_without_key(self, small_dataset, bind, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)
        with ScanServer(small_dataset) as server:
            with pytest.raises(InsecureBindError, match="REPRO_REMOTE_AUTHKEY"):
                server.start(bind)

    @pytest.mark.parametrize("bind", ["0.0.0.0:0", ":0"])
    def test_binds_public_address_with_the_variable(
        self, small_dataset, bind, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REMOTE_AUTHKEY", "test-secret")
        with ScanServer(small_dataset) as server:
            host, port = server.start(bind)
            assert host == "0.0.0.0" and port > 0
            with ScanClient(f"127.0.0.1:{port}", client_id="keyed") as client:
                assert client.status()["n_snps"] == small_dataset.n_snps

    def test_cli_exits_2_naming_the_variable(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)
        study = tmp_path / "study"
        write_study_tables(small_dataset, study)
        assert main(["serve", str(study), "--bind", ":0", "--backend", "serial"]) == 2
        assert "REPRO_REMOTE_AUTHKEY" in capsys.readouterr().err
        assert main(["worker", "--bind", "0.0.0.0:0"]) == 2
        assert "REPRO_REMOTE_AUTHKEY" in capsys.readouterr().err


def _cli_environment():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


class TestDaemonSignals:
    """SIGTERM on the serve/worker daemons drains and exits zero."""

    def _spawn(self, argv):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_cli_environment(),
        )

    def test_serve_sigterm_drains_and_exits_zero(self, small_dataset, tmp_path):
        study = tmp_path / "study"
        write_study_tables(small_dataset, study)
        proc = self._spawn(
            ["serve", str(study), "--bind", "127.0.0.1:0", "--backend", "serial"]
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"scan service on (\d+\.\d+\.\d+\.\d+:\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            with ScanClient(match.group(1), client_id="sigterm-test") as client:
                report = client.scan(window_size=WINDOW_SIZE, overlap=OVERLAP,
                                     config=SCAN_CONFIG, seed=11)
            assert report.n_windows > 0
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "scan service shut down cleanly" in out

    def test_worker_sigterm_exits_zero(self):
        proc = self._spawn(["worker", "--bind", "127.0.0.1:0"])
        try:
            banner = proc.stdout.readline()
            assert "worker host listening" in banner
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0


@pytest.fixture(scope="module")
def chromosome_study():
    """The acceptance panel: 201 loci, same recipe as the scan tests."""
    model = PopulationModel(n_snps=201, block_size=6, within_block_correlation=0.4)
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


class TestServedChromosomeScan:
    """Acceptance: a 201-locus scan served through the daemon — cache cold
    and cache warm — is fingerprint-identical to the in-process scan."""

    WINDOW_SIZE = 4
    OVERLAP = 2

    @pytest.fixture(scope="class")
    def acceptance_config(self):
        return GAConfig(
            population_size=6,
            min_haplotype_size=2,
            max_haplotype_size=2,
            termination_stagnation=1,
            max_generations=2,
            point_mutation_trials=1,
        )

    @pytest.mark.parametrize("backend", ["process", "process-shm"])
    def test_served_scan_is_bit_identical_cold_and_warm(
        self, chromosome_study, acceptance_config, backend
    ):
        dataset = chromosome_study.dataset
        assert dataset.n_snps >= 200
        reference = run_scan(
            dataset, window_size=self.WINDOW_SIZE, overlap=self.OVERLAP,
            config=acceptance_config, seed=17, backend=backend, n_workers=2,
        )
        assert reference.n_windows >= 100
        with _serve(dataset, backend=backend, n_workers=2) as server:
            with ScanClient(server.address, client_id=f"acc-{backend}") as client:
                cold = client.scan(
                    window_size=self.WINDOW_SIZE, overlap=self.OVERLAP,
                    config=acceptance_config, seed=17,
                )
                warm = client.scan(
                    window_size=self.WINDOW_SIZE, overlap=self.OVERLAP,
                    config=acceptance_config, seed=17,
                )
        assert _scan_key(cold) == _scan_key(reference)
        assert cold.stats.counters() == reference.stats.counters()
        assert cold.n_cached_windows == 0
        assert _scan_key(warm) == _scan_key(reference)
        assert warm.n_cached_windows == reference.n_windows
        assert warm.stats.n_evaluations == 0


class TestServeCli:
    def test_scan_connect_then_status(self, small_dataset, capsys):
        from repro.cli import main

        with _serve(small_dataset) as server:
            argv = [
                "scan", "--connect", server.host, "--client-id", "cli-tenant",
                "--window-size", str(WINDOW_SIZE),
                "--window-overlap", str(OVERLAP),
                "--population-size", "8", "--max-size", "3",
                "--stagnation", "2", "--max-generations", "3",
                "--seed", "11", "--top", "2",
            ]
            assert main(argv) == 0
            cold_out = capsys.readouterr().out
            assert "windows" in cold_out
            assert main(argv) == 0  # identical request: replayed
            warm_out = capsys.readouterr().out
            assert "replayed from the service result cache" in warm_out
            assert main(["serve", "--bind", server.host, "--status"]) == 0
            status_out = capsys.readouterr().out
        assert "scan service on serial" in status_out
        assert "tenant cli-tenant" in status_out
        assert "result cache" in status_out

    def test_run_connect(self, small_dataset, capsys):
        from repro.cli import main

        with _serve(small_dataset) as server:
            exit_code = main([
                "run", "--connect", server.host,
                "--population-size", "12", "--max-size", "3",
                "--stagnation", "2", "--max-generations", "4", "--seed", "3",
            ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert f"served by {server.host}" in out

    def test_connect_refuses_local_execution_flags(self, capsys):
        from repro.cli import main

        # validated before any connection is attempted: no daemon needed
        assert main(["scan", "some-study", "--connect", "127.0.0.1:1",
                     "--window-size", "4"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["run", "some-study", "--connect", "127.0.0.1:1"]) == 2
        assert "drop the study argument" in capsys.readouterr().err
