"""Tests of the multi-host ``remote`` backend and its socket slave pool.

Everything runs against real sockets on localhost: `LocalWorkerHost` starts a
worker host on an ephemeral port and the pool connects like it would to
another machine.  The properties under test are the distributed contract —
bit-identical fitnesses vs. the serial reference, the packed panel crossing
the wire once per connection, and the recovery engine treating a dead
connection exactly like a dead local slave.
"""

import pickle

import pytest

from repro.core.config import GAConfig
from repro.experiments.datasets import lille51
from repro.parallel.farm import FarmDeadError, FarmRecoveryPolicy
from repro.runtime.backends import backend_names, create_evaluator
from repro.runtime.remote import (
    InsecureBindError,
    LocalWorkerHost,
    RemoteSlavePool,
    parse_host,
    parse_hosts,
    serve,
)
from repro.runtime.service import RunRequest, RunScheduler
from repro.runtime.spec import EvaluatorSpec, PackedDatasetHandle

FAST_POLL = 0.05


def _linear_fitness(snps):
    return float(sum((i + 1) * (s + 1) for i, s in enumerate(sorted(snps))))


class _LinearFactory:
    def __call__(self):
        return _linear_fitness


def _batch(n):
    return [(i, i + 1) for i in range(n)]


def _expected(batch):
    return [_linear_fitness(snps) for snps in batch]


@pytest.fixture(scope="module")
def worker_host():
    host = LocalWorkerHost()
    yield host
    host.close()


class TestHostParsing:
    def test_parse_host(self):
        assert parse_host("node7:7777") == ("node7", 7777)
        assert parse_host(("node7", 7777)) == ("node7", 7777)

    @pytest.mark.parametrize("bad", ["node7", ":7777", "node7:port"])
    def test_parse_host_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_host(bad)

    def test_parse_hosts_requires_one(self):
        with pytest.raises(ValueError, match="at least one"):
            parse_hosts([])


class TestInsecureBind:
    """Off loopback, a worker host refuses the in-source development key."""

    @pytest.mark.parametrize("bind", ["0.0.0.0:0", ":0", ("", 0)])
    def test_refuses_public_bind_without_key(self, bind, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)
        with pytest.raises(InsecureBindError, match="REPRO_REMOTE_AUTHKEY"):
            serve(bind)

    @pytest.mark.parametrize("bind", ["0.0.0.0:0", ":0"])
    def test_binds_public_address_with_the_variable(self, bind, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_AUTHKEY", "test-secret")
        with LocalWorkerHost(bind=bind) as host:
            assert host.address[0] == "0.0.0.0" and host.address[1] > 0
            pool = RemoteSlavePool(_LinearFactory(), [f"127.0.0.1:{host.address[1]}"])
            with pool:
                assert pool.evaluate(_batch(3))[0] == _expected(_batch(3))

    def test_binds_public_address_with_an_authkey_argument(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)
        with LocalWorkerHost(bind="0.0.0.0:0", authkey=b"test-secret") as host:
            assert host.address[1] > 0

    def test_localhost_bind_needs_no_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_AUTHKEY", raising=False)
        with LocalWorkerHost(bind="localhost:0") as host:
            assert host.address[1] > 0


class TestRemoteSlavePool:
    def test_bit_identical_to_serial(self, worker_host):
        batch = _batch(24)
        pool = RemoteSlavePool(
            _LinearFactory(),
            [worker_host.host, worker_host.host],
            chunk_size=2,
            steal=True,
            worker_cache_size=0,
        )
        pool._RESULT_POLL_SECONDS = FAST_POLL
        with pool:
            values, stats = pool.evaluate(batch)
        assert values == _expected(batch)
        assert stats.n_requests == len(batch)
        assert stats.n_evaluations + stats.n_cache_hits == len(batch)

    def test_connection_refused_is_loud(self):
        with pytest.raises(ConnectionError, match="could not connect"):
            RemoteSlavePool(_LinearFactory(), ["127.0.0.1:1"])

    def test_dead_connection_replayed_on_survivor(self, worker_host):
        batch = _batch(20)
        pool = RemoteSlavePool(
            _LinearFactory(),
            [worker_host.host, worker_host.host],
            chunk_size=1,
            worker_cache_size=0,
            recovery=FarmRecoveryPolicy(respawn=False),
        )
        pool._RESULT_POLL_SECONDS = FAST_POLL
        with pool:
            # sever slave 1's connection the way a dying host does
            pool._result_conns[1].close()
            pool._broken[1] = True
            values, _stats = pool.evaluate(batch)
            counters = pool.recovery_counters()
        assert values == _expected(batch)
        assert counters["n_worker_deaths"] == 1

    def test_reconnect_as_respawn(self, worker_host):
        batch = _batch(20)
        pool = RemoteSlavePool(
            _LinearFactory(),
            [worker_host.host, worker_host.host],
            chunk_size=1,
            worker_cache_size=0,
            recovery=FarmRecoveryPolicy(respawn=True),
        )
        pool._RESULT_POLL_SECONDS = FAST_POLL
        with pool:
            pool._result_conns[0].close()
            pool._broken[0] = True
            values, _stats = pool.evaluate(batch)
            counters = pool.recovery_counters()
            assert pool.n_alive_workers == 2  # reconnected to the same host
        assert values == _expected(batch)
        assert counters["n_worker_respawns"] == 1

    def test_farm_dead_when_every_connection_lost(self, worker_host):
        pool = RemoteSlavePool(
            _LinearFactory(),
            [worker_host.host],
            chunk_size=1,
            worker_cache_size=0,
            recovery=FarmRecoveryPolicy(respawn=False),
        )
        pool._RESULT_POLL_SECONDS = FAST_POLL
        with pool:
            pool._result_conns[0].close()
            pool._broken[0] = True
            with pytest.raises(FarmDeadError, match="no surviving workers"):
                pool.evaluate(_batch(4))


class TestPackedDatasetHandle:
    def test_wire_payload_is_packed(self):
        import numpy as np

        from repro.genetics.dataset import GenotypeDataset

        rng = np.random.default_rng(3)
        dataset = GenotypeDataset(
            rng.integers(0, 3, size=(400, 500), dtype=np.int8),
            rng.integers(0, 2, size=400, dtype=np.int8),
        )
        handle = PackedDatasetHandle(dataset)
        loaded = handle.load()
        assert loaded.packed is not None
        # rows are reordered affected-first, but the case/control content —
        # all any fitness statistic sees — is preserved
        assert loaded.n_affected == dataset.n_affected
        assert loaded.n_unaffected == dataset.n_unaffected
        assert loaded.n_snps == dataset.n_snps
        assert (
            loaded.affected().fingerprint() == dataset.affected().fingerprint()
        )
        # the pickle must carry the packed panel, ~4x smaller than the bytes
        packed_wire = len(pickle.dumps(handle))
        byte_wire = len(pickle.dumps(dataset.genotypes))
        assert packed_wire < byte_wire / 2


class TestRemoteBackend:
    def test_registered(self):
        assert "remote" in backend_names()

    def test_requires_hosts(self):
        dataset = lille51().dataset
        with pytest.raises(TypeError, match="hosts"):
            create_evaluator("remote", EvaluatorSpec(), dataset=dataset)

    def test_requires_spec(self, worker_host):
        with pytest.raises(TypeError, match="EvaluatorSpec"):
            create_evaluator(
                "remote", _linear_fitness, hosts=[worker_host.host]
            )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_local_backends_reject_hosts(self, backend):
        dataset = lille51().dataset
        with pytest.raises(TypeError, match="hosts|remote"):
            create_evaluator(
                backend, EvaluatorSpec(), dataset=dataset, hosts=["x:1"]
            )

    def test_evaluator_parity(self, worker_host):
        dataset = lille51().dataset
        spec = EvaluatorSpec()
        serial = create_evaluator("serial", spec, dataset=dataset)
        batch = [(0, 1), (2, 5), (1, 3, 7), (0, 4)]
        expected = serial.evaluate_batch(batch)
        remote = create_evaluator(
            "remote", spec, dataset=dataset, hosts=[worker_host.host]
        )
        with remote:
            assert remote.evaluate_batch(batch) == expected


class TestSchedulerIntegration:
    def test_run_scheduler_over_remote_backend(self, worker_host):
        dataset = lille51().dataset
        config = GAConfig(
            population_size=12,
            max_haplotype_size=3,
            termination_stagnation=4,
            max_generations=8,
            seed=11,
        )
        request = RunRequest(config=config, n_runs=1, seed=11)
        with RunScheduler(dataset, backend="serial") as scheduler:
            reference = scheduler.run(request)
        with RunScheduler(
            dataset,
            backend="remote",
            hosts=[worker_host.host, worker_host.host],
        ) as scheduler:
            remote = scheduler.run(request)
        remote_best = remote.runs[0].best_overall()
        reference_best = reference.runs[0].best_overall()
        assert remote_best.snps == reference_best.snps
        assert remote_best.fitness_value() == reference_best.fitness_value()
