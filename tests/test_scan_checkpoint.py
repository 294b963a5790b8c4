"""Tests of scan checkpointing: the JSONL journal and resume-to-bit-identical.

The journal unit tests drive :class:`repro.scan.checkpoint.ScanJournal`
directly (round-trip, identity mismatch, torn-tail tolerance, mid-file
corruption).  A scan interrupted under one GA configuration must refuse to
resume under another.  The acceptance tests run a chromosome-scale
(~100-window) scan and check the two robustness guarantees end to end: a
scan that loses a slave mid-flight and a scan killed halfway and resumed
both produce reports bit-identical to an uninterrupted fault-free run.
"""

import json

import pytest

from repro.core.config import GAConfig
from repro.genetics.dataset import LocusWindow
from repro.genetics.simulate import (
    DiseaseModel,
    PopulationModel,
    lille_like_study,
    simulate_case_control_study,
)
from repro.parallel.farm import FarmRecoveryPolicy
from repro.runtime.service import RunScheduler
from repro.scan import (
    CheckpointMismatchError,
    ScanJournal,
    checkpoint_meta,
    plan_scan,
    run_scan,
)
from repro.scan.report import WindowResult
from repro.testing.faults import ChaosPolicy, chaos_wrapper

WINDOW_SIZE = 4
OVERLAP = 2


def _plan(n_snps=20, seed=5, config=None):
    return plan_scan(
        n_snps, window_size=WINDOW_SIZE, overlap=OVERLAP, seed=seed, config=config
    )


def _result(index, *, fitness=1.5):
    start = index * (WINDOW_SIZE - OVERLAP)
    window = LocusWindow(index=index, start=start, stop=start + WINDOW_SIZE)
    snps = (start, start + 1)
    return WindowResult(
        window=window,
        best_snps=snps,
        best_fitness=fitness,
        best_per_size={2: (snps, fitness)},
        n_evaluations=10 + index,
        n_distinct_evaluations=7 + index,
        n_generations=3,
        seed=100 + index,
        elapsed_seconds=0.25,
    )


def _journal_windows(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r.get("kind") == "window"]


class TestScanJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        meta = checkpoint_meta(_plan(), 20)
        journal, completed = ScanJournal.open(path, meta)
        assert completed == {}
        originals = [_result(i) for i in (0, 3, 5)]
        for result in originals:
            journal.append(result)
        assert journal.n_journaled == 3
        journal.close()
        journal, completed = ScanJournal.open(path, meta, resume=True)
        journal.close()
        assert sorted(completed) == [0, 3, 5]
        for result in originals:
            assert completed[result.window.index] == result

    def test_fresh_open_truncates_existing_journal(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        meta = checkpoint_meta(_plan(), 20)
        with ScanJournal.open(path, meta)[0] as journal:
            journal.append(_result(0))
            journal.append(_result(1))
        with ScanJournal.open(path, meta)[0] as journal:  # resume=False
            assert journal.n_journaled == 0
            journal.append(_result(2))
        journal, completed = ScanJournal.open(path, meta, resume=True)
        journal.close()
        assert sorted(completed) == [2]

    def test_append_is_idempotent_per_index(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        with ScanJournal.open(path, checkpoint_meta(_plan(), 20))[0] as journal:
            journal.append(_result(4))
            journal.append(_result(4))
            assert journal.n_journaled == 1
        assert len(_journal_windows(path)) == 1

    def test_append_after_close_raises(self, tmp_path):
        journal, _ = ScanJournal.open(
            tmp_path / "scan.jsonl", checkpoint_meta(_plan(), 20)
        )
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            journal.append(_result(0))

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        journal, completed = ScanJournal.open(
            path, checkpoint_meta(_plan(), 20), resume=True
        )
        journal.close()
        assert completed == {}
        assert path.exists()

    def test_resume_rejects_foreign_scan(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        with ScanJournal.open(path, checkpoint_meta(_plan(seed=5), 20))[0] as journal:
            journal.append(_result(0))
        with pytest.raises(CheckpointMismatchError, match="different scan") as caught:
            ScanJournal.open(path, checkpoint_meta(_plan(seed=6), 20), resume=True)
        # the message names the differing header keys, and only those
        message = str(caught.value)
        assert "seed: journal 5, this scan 6" in message
        for same in ("n_snps", "window_size", "config_digest", "panel"):
            assert f"{same}:" not in message
        with pytest.raises(CheckpointMismatchError, match="different scan"):
            ScanJournal.open(path, checkpoint_meta(_plan(seed=5), 24), resume=True)
        other_config = _plan(seed=5, config=GAConfig(population_size=16))
        with pytest.raises(CheckpointMismatchError, match="config_digest"):
            ScanJournal.open(path, checkpoint_meta(other_config, 20), resume=True)

    def test_torn_final_line_is_tolerated_and_truncated(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        meta = checkpoint_meta(_plan(), 20)
        with ScanJournal.open(path, meta)[0] as journal:
            journal.append(_result(0))
            journal.append(_result(1))
        with open(path, "a") as handle:
            handle.write('{"kind": "window", "ind')  # crash mid-append
        journal, completed = ScanJournal.open(path, meta, resume=True)
        assert sorted(completed) == [0, 1]
        journal.append(_result(2))
        journal.close()
        journal, completed = ScanJournal.open(path, meta, resume=True)
        journal.close()
        assert sorted(completed) == [0, 1, 2]  # torn bytes gone, file clean

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        meta = checkpoint_meta(_plan(), 20)
        with ScanJournal.open(path, meta)[0] as journal:
            journal.append(_result(0))
            journal.append(_result(1))
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"  # tear a NON-final line
        path.write_text("".join(lines))
        with pytest.raises(CheckpointMismatchError, match="corrupt"):
            ScanJournal.open(path, meta, resume=True)

    def test_rejects_out_of_range_window_and_unknown_kind(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        meta = checkpoint_meta(_plan(), 20)  # 9 windows
        with ScanJournal.open(path, meta)[0] as journal:
            journal.append(_result(500))
        with pytest.raises(CheckpointMismatchError, match="outside"):
            ScanJournal.open(path, meta, resume=True)
        with ScanJournal.open(path, meta)[0] as journal:
            journal._write_line({"kind": "mystery"})
        with pytest.raises(CheckpointMismatchError, match="kind"):
            ScanJournal.open(path, meta, resume=True)


@pytest.fixture(scope="module")
def chromosome_study():
    """A 201-locus panel (cheap rows, chromosome-scale columns)."""
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


@pytest.fixture(scope="module")
def acceptance_config():
    return GAConfig(
        population_size=6,
        min_haplotype_size=2,
        max_haplotype_size=2,
        termination_stagnation=1,
        max_generations=2,
        point_mutation_trials=1,
    )


class _Interrupted(Exception):
    """Stand-in for the scan process being killed mid-flight."""


class TestChromosomeScaleFaultTolerance:
    SEED = 17

    def _scan(self, dataset, config, **kwargs):
        return run_scan(
            dataset,
            window_size=WINDOW_SIZE,
            overlap=OVERLAP,
            config=config,
            seed=self.SEED,
            **kwargs,
        )

    def test_resume_requires_checkpoint_path(self, chromosome_study, acceptance_config):
        with pytest.raises(ValueError, match="checkpoint_path"):
            self._scan(chromosome_study.dataset, acceptance_config, resume=True)

    def test_scan_survives_slave_death_bit_identical(
        self, chromosome_study, acceptance_config, tmp_path
    ):
        dataset = chromosome_study.dataset
        reference = self._scan(
            dataset, acceptance_config, backend="process", n_workers=2
        )
        assert reference.n_windows >= 100
        policy = ChaosPolicy(kill_after=40, token_path=str(tmp_path / "token"))
        scheduler = RunScheduler(
            dataset,
            backend="process",
            n_workers=2,
            recovery=FarmRecoveryPolicy(respawn=True),
            worker_wrapper=chaos_wrapper(policy),
        )
        scheduler._evaluator._farm._RESULT_POLL_SECONDS = 0.05
        try:
            chaotic = self._scan(dataset, acceptance_config, scheduler=scheduler)
            assert scheduler.stats.n_worker_deaths >= 1
        finally:
            scheduler.close()
        assert chaotic.fingerprint() == reference.fingerprint()

    def test_interrupted_scan_resumes_bit_identical(
        self, chromosome_study, acceptance_config, tmp_path
    ):
        dataset = chromosome_study.dataset
        reference = self._scan(dataset, acceptance_config)
        half = reference.n_windows // 2
        checkpoint = tmp_path / "scan.jsonl"

        seen = 0

        def die_at_half(result):
            nonlocal seen
            seen += 1
            if seen >= half:
                raise _Interrupted()

        with pytest.raises(_Interrupted):
            self._scan(
                dataset,
                acceptance_config,
                checkpoint_path=checkpoint,
                progress=die_at_half,
            )
        journaled = len(_journal_windows(checkpoint))
        assert half <= journaled < reference.n_windows
        resumed = self._scan(
            dataset,
            acceptance_config,
            checkpoint_path=checkpoint,
            resume=True,
        )
        assert resumed.fingerprint() == reference.fingerprint()
        assert len(_journal_windows(checkpoint)) == reference.n_windows

    def test_resuming_a_complete_journal_runs_nothing(
        self, chromosome_study, acceptance_config, tmp_path
    ):
        dataset = chromosome_study.dataset
        checkpoint = tmp_path / "scan.jsonl"
        reference = self._scan(
            dataset, acceptance_config, checkpoint_path=checkpoint
        )
        resumed = self._scan(
            dataset,
            acceptance_config,
            checkpoint_path=checkpoint,
            resume=True,
        )
        assert resumed.fingerprint() == reference.fingerprint()
        assert resumed.stats.n_requests == 0  # every window restored from disk


class TestResumeUnderAnotherConfig:
    """A journal pins the GA configuration its windows were computed under."""

    WINDOW_SIZE = 6
    OVERLAP = 3
    SEED = 11
    CONFIG_A = GAConfig(
        population_size=8, max_haplotype_size=3, termination_stagnation=2,
        max_generations=3,
    )
    CONFIG_B = GAConfig(
        population_size=16, max_haplotype_size=3, termination_stagnation=4,
        max_generations=8,
    )

    @pytest.fixture(scope="class")
    def dataset(self):
        return lille_like_study(
            seed=9, n_affected=12, n_unaffected=12, n_snps=14
        ).dataset

    def _scan(self, dataset, config, checkpoint, **kwargs):
        return run_scan(
            dataset,
            window_size=self.WINDOW_SIZE,
            overlap=self.OVERLAP,
            config=config,
            seed=self.SEED,
            checkpoint_path=checkpoint,
            **kwargs,
        )

    def test_interrupted_scan_refuses_to_resume_under_another_config(
        self, dataset, tmp_path
    ):
        checkpoint = tmp_path / "scan.jsonl"
        seen = 0

        def die_after_two(result):
            nonlocal seen
            seen += 1
            if seen >= 2:
                raise _Interrupted()

        with pytest.raises(_Interrupted):
            self._scan(dataset, self.CONFIG_A, checkpoint, progress=die_after_two)
        assert len(_journal_windows(checkpoint)) == 2
        with pytest.raises(CheckpointMismatchError, match="config_digest"):
            self._scan(dataset, self.CONFIG_B, checkpoint, resume=True)
        # the refused resume left the journal as it was: config A resumes it
        resumed = self._scan(dataset, self.CONFIG_A, checkpoint, resume=True)
        reference = self._scan(dataset, self.CONFIG_A, tmp_path / "cold.jsonl")
        assert resumed.fingerprint() == reference.fingerprint()
