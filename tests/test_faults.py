"""Tests of the self-healing execution core under injected faults.

Every failure mode the recovery engine handles — hard slave death, hung
slaves, poison chunks, whole-farm loss — is produced on demand with the
:mod:`repro.testing.faults` chaos harness and checked for the two properties
the design guarantees: the farm keeps going whenever a survivor exists, and
whatever it returns is bit-identical to a fault-free run.
"""

import time

import pytest

from repro.core.config import GAConfig
from repro.parallel.farm import ChunkedWorkerFarm, FarmDeadError, FarmRecoveryPolicy
from repro.runtime.service import RunRequest, RunScheduler, backend_summary_line
from repro.testing.faults import ChaosError, ChaosFactory, ChaosPolicy, chaos_wrapper

#: Fast death detection for tests: the poll timeout bounds how quickly the
#: master notices a dead/hung slave, so shrink it from the production 0.5 s.
FAST_POLL = 0.05


def _linear_fitness(snps):
    return float(sum((i + 1) * (s + 1) for i, s in enumerate(sorted(snps))))


class _LinearFactory:
    """Picklable evaluator factory for farm-level chaos tests."""

    def __call__(self):
        return _linear_fitness


def _batch(n):
    return [(i, i + 1) for i in range(n)]


def _make_farm(tmp_path=None, *, policy=None, recovery=None, n_workers=3, **kwargs):
    factory = _LinearFactory()
    if policy is not None:
        factory = ChaosFactory(factory, policy)
    kwargs.setdefault("chunk_size", 1)
    kwargs.setdefault("steal", True)
    kwargs.setdefault("max_inflight", 1)
    kwargs.setdefault("worker_cache_size", 0)
    farm = ChunkedWorkerFarm(factory, n_workers, recovery=recovery, **kwargs)
    farm._RESULT_POLL_SECONDS = FAST_POLL
    return farm


class TestChaosPolicy:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            ChaosPolicy()
        with pytest.raises(ValueError, match="exactly one"):
            ChaosPolicy(kill_after=1, hang_after=1)

    @pytest.mark.parametrize("value", [0, -1, 1.5, True])
    def test_rejects_non_positive_trigger_counts(self, value):
        with pytest.raises(ValueError, match="positive integer"):
            ChaosPolicy(kill_after=value)

    def test_kill_on_key_normalised(self):
        policy = ChaosPolicy(kill_on_key=(5, 2))
        assert policy.kill_on_key == (2, 5)

    def test_token_claimed_exactly_once(self, tmp_path):
        policy = ChaosPolicy(kill_after=1, token_path=str(tmp_path / "token"))
        assert policy.claim_token() is True
        assert policy.claim_token() is False

    def test_no_token_path_always_armed(self):
        assert ChaosPolicy(kill_after=1).claim_token() is True

    def test_raise_after_travels_error_path(self):
        policy = ChaosPolicy(raise_after=1)
        fitness = ChaosFactory(_LinearFactory(), policy)()
        with pytest.raises(ChaosError):
            fitness((0, 1))


class TestFarmRecoveryPolicy:
    def test_defaults(self):
        policy = FarmRecoveryPolicy()
        assert policy.respawn is False
        assert policy.max_worker_restarts == 2
        assert policy.max_chunk_retries == 2
        assert policy.chunk_timeout is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FarmRecoveryPolicy(max_worker_restarts=-1)
        with pytest.raises(ValueError):
            FarmRecoveryPolicy(max_chunk_retries=0)
        with pytest.raises(ValueError):
            FarmRecoveryPolicy(chunk_timeout=0.0)
        with pytest.raises(ValueError):
            FarmRecoveryPolicy(timeout_cost_factor=-1.0)

    def test_farm_rejects_non_policy(self):
        with pytest.raises(TypeError, match="FarmRecoveryPolicy"):
            ChunkedWorkerFarm(_LinearFactory(), 2, recovery="heal")


class TestFarmSelfHealing:
    def test_survives_one_slave_death_bit_identical(self, tmp_path):
        batch = _batch(24)
        with _make_farm() as reference_farm:
            expected, _ = reference_farm.evaluate(batch)
        policy = ChaosPolicy(kill_after=2, token_path=str(tmp_path / "token"))
        with _make_farm(policy=policy, recovery=FarmRecoveryPolicy()) as farm:
            values, _ = farm.evaluate(batch)
            counters = farm.recovery_counters()
            assert farm.n_alive_workers == 2
        assert values == expected
        assert counters["n_worker_deaths"] == 1
        assert counters["n_chunks_replayed"] >= 1
        assert counters["n_worker_respawns"] == 0

    def test_respawn_restores_capacity(self, tmp_path):
        policy = ChaosPolicy(kill_after=2, token_path=str(tmp_path / "token"))
        recovery = FarmRecoveryPolicy(respawn=True, max_worker_restarts=2)
        with _make_farm(policy=policy, recovery=recovery) as farm:
            values, _ = farm.evaluate(_batch(24))
            assert farm.recovery_counters()["n_worker_respawns"] == 1
            assert farm.n_alive_workers == 3
            # the respawned slave sees the claimed token and stays tame
            again, _ = farm.evaluate(_batch(24))
        assert values == again == [float(3 * i + 5) for i in range(24)]

    def test_poison_chunk_exhausts_retries_but_farm_survives(self, tmp_path):
        # a chunk that kills every slave that touches it: each replay costs a
        # worker, and after max_chunk_retries the *ticket* fails, not the farm
        policy = ChaosPolicy(kill_on_key=(7, 8))
        recovery = FarmRecoveryPolicy(
            respawn=True, max_worker_restarts=8, max_chunk_retries=1
        )
        with _make_farm(policy=policy, recovery=recovery) as farm:
            poison = farm.submit([(7, 8)])
            with pytest.raises(RuntimeError, match="lost to worker death"):
                farm.collect(poison)
            counters = farm.recovery_counters()
            assert counters["n_worker_deaths"] == 2  # original + one replay
            assert counters["n_chunks_replayed"] == 1
            assert farm.n_alive_workers >= 1
            values, _ = farm.evaluate([(1, 2), (2, 3)])
        assert values == [8.0, 11.0]

    def test_hung_slave_reaped_via_chunk_deadline(self, tmp_path):
        batch = _batch(12)
        with _make_farm() as reference_farm:
            expected, _ = reference_farm.evaluate(batch)
        policy = ChaosPolicy(hang_after=2, token_path=str(tmp_path / "token"))
        recovery = FarmRecoveryPolicy(
            respawn=True, chunk_timeout=0.5, timeout_cost_factor=0.0
        )
        start = time.perf_counter()
        with _make_farm(policy=policy, recovery=recovery) as farm:
            values, _ = farm.evaluate(batch)
            counters = farm.recovery_counters()
        assert values == expected
        assert counters["n_worker_deaths"] == 1
        assert counters["n_chunks_replayed"] >= 1
        # the hang is 3600 s; finishing fast proves the deadline reaped it
        assert time.perf_counter() - start < 30.0

    def test_in_band_errors_do_not_trigger_recovery(self, tmp_path):
        # ChaosError travels the per-ticket error path (re-raised master-side
        # as a RuntimeError carrying the remote traceback): the slave stays
        # alive and no recovery event is recorded
        policy = ChaosPolicy(raise_after=1, token_path=str(tmp_path / "token"))
        with _make_farm(policy=policy, recovery=FarmRecoveryPolicy()) as farm:
            # a stolen 24-chunk batch puts work on every slave, so whichever
            # slave won the token fires; only that one ticket fails
            with pytest.raises(RuntimeError, match="ChaosError"):
                farm.evaluate(_batch(24))
            assert farm.recovery_counters() == {
                "n_worker_deaths": 0,
                "n_chunks_replayed": 0,
                "n_worker_respawns": 0,
            }
            assert farm.n_alive_workers == 3
            values, _ = farm.evaluate(_batch(24))
            assert values == [float(3 * i + 5) for i in range(24)]


class TestFarmDeath:
    def test_death_without_policy_raises_farm_dead(self, tmp_path):
        policy = ChaosPolicy(kill_after=1, token_path=str(tmp_path / "token"))
        with _make_farm(policy=policy) as farm:
            ticket = farm.submit(_batch(8))
            with pytest.raises(FarmDeadError, match="died") as excinfo:
                farm.collect(ticket)
            assert ticket in excinfo.value.lost_tickets
            # the farm is terminally dead: later calls re-raise, not hang
            with pytest.raises(FarmDeadError):
                farm.submit([(0, 1)])
            with pytest.raises(FarmDeadError):
                farm.collect(ticket)

    def test_all_workers_dead_raises_even_with_policy(self):
        # every slave is armed (no token); the poison batch kills them all
        # and the respawn budget is zero, so recovery runs out of survivors
        policy = ChaosPolicy(kill_after=1)
        recovery = FarmRecoveryPolicy(max_chunk_retries=10)
        with _make_farm(n_workers=2, policy=policy, recovery=recovery) as farm:
            ticket = farm.submit(_batch(8))
            with pytest.raises(FarmDeadError, match="surviv") as excinfo:
                farm.collect(ticket)
            assert ticket in excinfo.value.lost_tickets

    def test_close_after_crash_is_prompt_and_idempotent(self, tmp_path):
        policy = ChaosPolicy(kill_after=1, token_path=str(tmp_path / "token"))
        farm = _make_farm(policy=policy)
        ticket = farm.submit(_batch(8))
        with pytest.raises(FarmDeadError):
            farm.collect(ticket)
        start = time.perf_counter()
        farm.close()
        farm.close()
        farm.terminate()
        assert time.perf_counter() - start < 10.0
        assert farm.closed

    def test_terminate_after_crash_is_prompt(self, tmp_path):
        policy = ChaosPolicy(kill_after=1, token_path=str(tmp_path / "token"))
        farm = _make_farm(policy=policy)
        ticket = farm.submit(_batch(8))
        with pytest.raises(FarmDeadError):
            farm.collect(ticket)
        start = time.perf_counter()
        farm.terminate()
        farm.terminate()
        assert time.perf_counter() - start < 10.0


@pytest.fixture(scope="module")
def quick_config():
    return GAConfig(
        population_size=12,
        max_haplotype_size=3,
        termination_stagnation=2,
        max_generations=4,
    )


class TestSchedulerRecovery:
    def _run(self, dataset, config, *, worker_wrapper=None, recovery=None):
        scheduler = RunScheduler(
            dataset,
            backend="process",
            n_workers=2,
            recovery=recovery,
            worker_wrapper=worker_wrapper,
        )
        scheduler._evaluator._farm._RESULT_POLL_SECONDS = FAST_POLL
        try:
            result = scheduler.run(RunRequest(config=config, seed=7))
            return result, scheduler.stats
        finally:
            scheduler.close()

    def test_run_survives_slave_death_with_stats(
        self, small_dataset, quick_config, tmp_path
    ):
        reference, reference_stats = self._run(small_dataset, quick_config)
        policy = ChaosPolicy(kill_after=3, token_path=str(tmp_path / "token"))
        result, stats = self._run(
            small_dataset,
            quick_config,
            worker_wrapper=chaos_wrapper(policy),
            recovery=FarmRecoveryPolicy(respawn=True),
        )
        assert stats.n_worker_deaths >= 1
        assert stats.n_chunks_replayed >= 1
        assert stats.n_worker_respawns >= 1
        # recovery is invisible to the result and to the parity contract
        best = {s: (i.snps, i.fitness_value()) for s, i in result.best_per_size().items()}
        expected = {
            s: (i.snps, i.fitness_value()) for s, i in reference.best_per_size().items()
        }
        assert best == expected
        assert stats.counters() == reference_stats.counters()
        line = backend_summary_line("process", stats)
        assert "survived" in line and "worker death" in line
        assert "survived" not in backend_summary_line("process", reference_stats)

    def test_worker_wrapper_rejected_off_process_backends(self, small_dataset):
        with pytest.raises(TypeError, match="worker_wrapper"):
            RunScheduler(
                small_dataset,
                backend="serial",
                worker_wrapper=chaos_wrapper(ChaosPolicy(kill_after=1)),
            )
        with pytest.raises(TypeError, match="recovery"):
            RunScheduler(
                small_dataset, backend="serial", recovery=FarmRecoveryPolicy()
            )
