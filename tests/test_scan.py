"""Tests of the genome-scale windowed scan subsystem.

Covers the genetics window layer (zero-copy views, whole-panel agreement),
the sharded shared-memory store, the scan planner/runner/report, the PVM
cost-model calibration and — as the acceptance check — a ≥200-locus /
≥100-window panel scanned bit-identically across backends and job counts,
including through the ``scan`` CLI command.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import GAConfig
from repro.genetics.dataset import plan_windows, shard_dataset
from repro.genetics.io import write_study_tables
from repro.genetics.simulate import (
    DiseaseModel,
    PopulationModel,
    simulate_case_control_study,
)
from repro.runtime.service import RunScheduler
from repro.runtime.shm import ShardedGenotypeStore
from repro.scan import (
    plan_scan,
    record_cost_trace,
    run_scan,
    simulate_scan_on_cluster,
    window_seed,
)
from repro.stats.evaluation import HaplotypeEvaluator


class TestWindowPlan:
    def test_tiles_cover_the_panel(self):
        plan = plan_windows(51, window_size=8, overlap=4)
        covered = sorted({s for w in plan for s in w.snp_indices})
        assert covered == list(range(51))
        assert all(w.size == 8 for w in plan)
        assert plan.stride == 4

    def test_final_window_is_anchored_at_the_end(self):
        plan = plan_windows(21, window_size=6, overlap=3)
        assert plan.windows[-1].stop == 21
        assert plan.windows[-1].size == 6

    def test_exact_tiling_adds_no_extra_window(self):
        plan = plan_windows(20, window_size=5, overlap=0)
        assert [w.start for w in plan] == [0, 5, 10, 15]

    def test_window_of(self):
        plan = plan_windows(20, window_size=6, overlap=3)
        owners = plan.window_of(7)
        assert all(w.start <= 7 < w.stop for w in owners)
        assert len(owners) == 2
        with pytest.raises(IndexError):
            plan.window_of(20)

    def test_to_global(self):
        plan = plan_windows(20, window_size=6, overlap=3)
        window = plan.windows[1]  # [3, 9)
        assert window.to_global((0, 5)) == (3, 8)
        with pytest.raises(IndexError):
            window.to_global((6,))

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_windows(10, window_size=12, overlap=0)
        with pytest.raises(ValueError):
            plan_windows(10, window_size=4, overlap=4)
        with pytest.raises(ValueError):
            plan_windows(0, window_size=2)


class TestZeroCopyWindows:
    def test_window_views_share_the_parent_buffer(self, small_dataset):
        plan = plan_windows(small_dataset.n_snps, window_size=6, overlap=3)
        for shard in shard_dataset(small_dataset, plan):
            assert np.shares_memory(shard.genotypes, small_dataset.genotypes)

    def test_window_matches_whole_panel_slicing(self, small_dataset):
        window = small_dataset.window(3, 9)
        assert np.array_equal(window.genotypes, small_dataset.genotypes[:, 3:9])
        assert window.snp_names == small_dataset.snp_names[3:9]
        assert window.individual_ids == small_dataset.individual_ids

    def test_contiguous_select_snps_is_a_view(self, small_dataset):
        view = small_dataset.select_snps(range(2, 7))
        assert np.shares_memory(view.genotypes, small_dataset.genotypes)
        scattered = small_dataset.select_snps([1, 4, 9])
        assert not np.shares_memory(scattered.genotypes, small_dataset.genotypes)

    def test_shard_requires_matching_plan(self, small_dataset):
        plan = plan_windows(10, window_size=4, overlap=2)
        with pytest.raises(ValueError):
            shard_dataset(small_dataset, plan)

    def test_overlapping_windows_agree_with_whole_panel(self, small_dataset):
        """The same global SNP pair scores identically from any window."""
        full = HaplotypeEvaluator(small_dataset)
        plan = plan_windows(small_dataset.n_snps, window_size=8, overlap=6)
        pair = (6, 7)  # contained in several overlapping windows
        expected = full.evaluate(pair)
        checked = 0
        for window, shard in zip(plan, shard_dataset(small_dataset, plan)):
            if not (window.start <= pair[0] and pair[1] < window.stop):
                continue
            local = tuple(s - window.start for s in pair)
            assert HaplotypeEvaluator(shard).evaluate(local) == expected
            checked += 1
        assert checked >= 2


class TestShardedGenotypeStore:
    def test_one_segment_many_window_views(self, small_dataset):
        plan = plan_windows(small_dataset.n_snps, window_size=6, overlap=3)
        with ShardedGenotypeStore(small_dataset, plan) as store:
            handles = store.window_handles()
            assert len(handles) == plan.n_windows
            assert len({h.name for h in handles}) == 1  # one shared segment
            reference = store.dataset()
            for window, handle in zip(plan, handles):
                view = handle.load()
                assert view.n_snps == window.size
                assert np.array_equal(
                    view.genotypes,
                    reference.genotypes[:, window.start: window.stop],
                )
                del view
                handle.detach()
            del reference  # drop the exported view before the store unlinks

    def test_window_handles_survive_pickling(self, small_dataset):
        with ShardedGenotypeStore(small_dataset) as store:
            handle = pickle.loads(pickle.dumps(store.window_handle(2, 8)))
            view = handle.load()
            assert view.n_snps == 6
            assert view.snp_names == store.dataset().snp_names[2:8]
            del view  # the attachment cannot close under an exported view
            handle.detach()

    def test_window_handles_are_memoised(self, small_dataset):
        with ShardedGenotypeStore(small_dataset) as store:
            assert store.window_handle(0, 4) is store.window_handle(0, 4)

    def test_rewindowing_rejected(self, small_dataset):
        with ShardedGenotypeStore(small_dataset) as store:
            windowed = store.window_handle(0, 6)
            with pytest.raises(ValueError):
                windowed.window(0, 3)

    def test_validation(self, small_dataset):
        plan = plan_windows(99, window_size=4, overlap=0)
        with pytest.raises(ValueError):
            ShardedGenotypeStore(small_dataset, plan)
        with ShardedGenotypeStore(small_dataset) as store:
            with pytest.raises(ValueError):
                store.window_handle(0, 99)
            with pytest.raises(ValueError):
                store.window_handles()  # no plan


@pytest.fixture(scope="module")
def scan_config():
    return GAConfig(
        population_size=8,
        min_haplotype_size=2,
        max_haplotype_size=3,
        termination_stagnation=2,
        max_generations=3,
        point_mutation_trials=1,
    )


def _scan_key(report):
    return [(w.window.index, w.best_snps, w.best_fitness) for w in report.windows]


class TestScanPlanner:
    def test_window_seeds_are_distinct_and_deterministic(self):
        seeds = [window_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [window_seed(7, i) for i in range(100)]

    def test_requests_carry_window_indices(self, scan_config):
        plan = plan_scan(20, window_size=6, overlap=3, config=scan_config, seed=3)
        for window, request in plan.requests():
            assert request.snp_indices == window.snp_indices
            assert request.seed == window_seed(3, window.index)

    def test_config_clamped_to_window(self):
        config = GAConfig(population_size=12, min_haplotype_size=2,
                          max_haplotype_size=6, termination_stagnation=2,
                          max_generations=3)
        plan = plan_scan(12, window_size=4, overlap=0, config=config, seed=0)
        for window, request in plan.requests():
            assert request.config.max_haplotype_size == 4
        # an amply sized window keeps the base configuration object
        wide = plan_scan(12, window_size=8, overlap=0, config=config, seed=0)
        for _window, request in wide.requests():
            assert request.config is config


class TestScanRunner:
    def test_report_shape_and_global_indices(self, small_dataset, scan_config):
        report = run_scan(
            small_dataset, window_size=6, overlap=3, config=scan_config, seed=11
        )
        assert [w.window.index for w in report.windows] == list(
            range(report.n_windows)
        )
        for w in report.windows:
            assert all(w.window.start <= s < w.window.stop for s in w.best_snps)
            for size, (snps, _fitness) in w.best_per_size.items():
                assert len(snps) == size
        best = report.best_window()
        assert best.best_fitness == max(w.best_fitness for w in report.windows)
        sizes = report.best_per_size()
        assert set(sizes) <= {2, 3}
        payload = report.to_json()
        assert payload["n_windows"] == report.n_windows
        assert len(payload["windows"]) == report.n_windows

    def test_scan_matches_per_window_ga_on_views(self, small_dataset, scan_config):
        """A window's scan result equals a standalone GA on the window view."""
        from repro.runtime.service import RunRequest, RunScheduler

        report = run_scan(
            small_dataset, window_size=6, overlap=3, config=scan_config, seed=11
        )
        window = report.windows[1].window
        plan = plan_scan(
            small_dataset.n_snps, window_size=6, overlap=3,
            config=scan_config, seed=11,
        )
        with RunScheduler(small_dataset.window(window.start, window.stop)) as scheduler:
            standalone = scheduler.run(
                RunRequest(
                    config=plan.window_config(window),
                    seed=window_seed(11, window.index),
                )
            )
        expected = {
            size: (window.to_global(ind.snps), ind.fitness_value())
            for size, ind in standalone.best_per_size().items()
        }
        assert report.windows[1].best_per_size == expected

    def test_progress_streams_every_window(self, small_dataset, scan_config):
        seen = []
        report = run_scan(
            small_dataset, window_size=6, overlap=3, config=scan_config,
            seed=11, progress=seen.append,
        )
        assert sorted(r.window.index for r in seen) == [
            w.window.index for w in report.windows
        ]

    def test_scan_refuses_a_scheduler_with_queued_jobs(
        self, small_dataset, scan_config
    ):
        from repro.runtime.service import RunRequest

        with RunScheduler(small_dataset) as scheduler:
            foreign = scheduler.submit(RunRequest(config=scan_config, seed=9))
            with pytest.raises(ValueError, match="drain them"):
                run_scan(
                    small_dataset, window_size=6, overlap=3, config=scan_config,
                    seed=11, scheduler=scheduler,
                )
            # the caller's job is untouched and still runs
            results = dict(scheduler.as_completed())
            assert list(results) == [foreign]
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            for i in range(2):
                scheduler.submit(RunRequest(config=scan_config, seed=20 + i))
            for _job_id, _result in scheduler.as_completed():
                break  # leaves the in-flight job's result unclaimed
            if scheduler.n_unclaimed:
                with pytest.raises(ValueError, match="drain them"):
                    run_scan(
                        small_dataset, window_size=6, overlap=3,
                        config=scan_config, seed=11, scheduler=scheduler,
                    )
            dict(scheduler.as_completed())  # hand the rest back

    def test_scan_reuses_an_external_scheduler(self, small_dataset, scan_config):
        with RunScheduler(small_dataset) as scheduler:
            first = run_scan(
                small_dataset, window_size=6, overlap=3, config=scan_config,
                seed=11, scheduler=scheduler,
            )
            second = run_scan(
                small_dataset, window_size=6, overlap=3, config=scan_config,
                seed=11, scheduler=scheduler,
            )
            assert not scheduler.closed
            # warm substrate: the repeat scan is answered from shared caches
            assert second.stats.n_evaluations == 0
        assert _scan_key(first) == _scan_key(second)

    def test_summary_line_matches_run_format(self, small_dataset, scan_config):
        report = run_scan(
            small_dataset, window_size=6, overlap=3, config=scan_config, seed=11
        )
        line = report.summary_line()
        assert line.startswith("evaluation backend: serial")
        assert "requests" in line and "evaluations" in line


class TestCostModelCalibration:
    def test_trace_fit_and_cluster_check(self, small_dataset):
        with RunScheduler(small_dataset) as scheduler:
            trace = record_cost_trace(
                scheduler, sizes=(2, 3, 4), n_probes=4, seed=5
            )
            model = trace.fit_cost_model()
        assert model.base_seconds > 0
        assert model.growth_factor >= 1.0
        config = GAConfig(population_size=8, max_haplotype_size=3,
                          termination_stagnation=2, max_generations=3)
        report = run_scan(
            small_dataset, window_size=6, overlap=3, config=config, seed=1
        )
        few = simulate_scan_on_cluster(report, model, n_slaves=2)
        many = simulate_scan_on_cluster(report, model, n_slaves=8)
        assert 1.0 <= few.speedup <= 2.0
        assert many.speedup >= few.speedup - 1e-9
        assert 0.0 < few.efficiency <= 1.0

    def test_validation(self, small_dataset):
        with RunScheduler(small_dataset) as scheduler:
            with pytest.raises(ValueError):
                record_cost_trace(scheduler, sizes=(2,))
            with pytest.raises(ValueError):
                record_cost_trace(scheduler, sizes=(2, 99))
            with pytest.raises(ValueError):
                record_cost_trace(scheduler, sizes=(2, 3), n_probes=0)

    def test_fully_cached_size_is_rejected_not_mistimed(self, small_dataset):
        """A substrate whose cache holds every size-2 haplotype cannot be
        calibrated: the probes would time cache lookups, not evaluations."""
        from itertools import combinations

        with RunScheduler(small_dataset, cache_size=None) as scheduler:
            warm = scheduler.probe_evaluator()
            warm.evaluate_batch(list(combinations(range(small_dataset.n_snps), 2)))
            with pytest.raises(RuntimeError, match="cache"):
                record_cost_trace(scheduler, sizes=(2, 3), n_probes=4)


# --------------------------------------------------------------------------- #
# acceptance: a chromosome-scale panel, >=100 windows, bit-identical everywhere
# --------------------------------------------------------------------------- #
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


class TestChromosomeScaleScan:
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

    def _scan(self, dataset, config, **kwargs):
        return run_scan(
            dataset,
            window_size=self.WINDOW_SIZE,
            overlap=self.OVERLAP,
            config=config,
            seed=17,
            **kwargs,
        )

    def test_bit_identical_across_backends_and_jobs(
        self, chromosome_study, acceptance_config
    ):
        dataset = chromosome_study.dataset
        assert dataset.n_snps >= 200
        serial = self._scan(dataset, acceptance_config)
        assert serial.n_windows >= 100
        shm = self._scan(
            dataset, acceptance_config, backend="process", n_workers=2
        )
        # the paper's one-individual-per-message protocol
        small_chunks = self._scan(
            dataset, acceptance_config, backend="process", n_workers=2,
            chunk_size=1,
        )
        threaded_jobs = self._scan(dataset, acceptance_config, jobs=4)
        assert (
            _scan_key(serial)
            == _scan_key(shm)
            == _scan_key(small_chunks)
            == _scan_key(threaded_jobs)
        )
        assert serial.stats.counters() == shm.stats.counters()
        # per-individual messages must preserve exact counter parity too
        assert serial.stats.counters() == small_chunks.stats.counters()

    def test_bit_identical_on_remote_hosts(self, chromosome_study, acceptance_config):
        from repro.runtime.remote import LocalWorkerHost

        dataset = chromosome_study.dataset
        serial = self._scan(dataset, acceptance_config)
        host = LocalWorkerHost()
        try:
            remote = self._scan(
                dataset,
                acceptance_config,
                backend="remote",
                hosts=[host.host, host.host],
            )
        finally:
            host.close()
        assert _scan_key(serial) == _scan_key(remote)
        assert serial.stats.counters() == remote.stats.counters()

    def test_bounded_pending_and_cost_priority_do_not_change_the_scan(
        self, chromosome_study, acceptance_config
    ):
        from repro.parallel.pvm import EvaluationCostModel

        dataset = chromosome_study.dataset
        reference = self._scan(dataset, acceptance_config)
        spilled = self._scan(dataset, acceptance_config, max_pending=3)
        prioritised = self._scan(
            dataset,
            acceptance_config,
            jobs=2,
            max_pending=5,
            cost_model=EvaluationCostModel(),
        )
        assert _scan_key(reference) == _scan_key(spilled) == _scan_key(prioritised)

    def test_cli_scan_command(self, chromosome_study, tmp_path, capsys):
        from repro.cli import main

        study_dir = tmp_path / "chromosome"
        write_study_tables(chromosome_study.dataset, study_dir)
        exit_code = main(
            [
                "scan",
                str(study_dir),
                "--window-size", str(self.WINDOW_SIZE),
                "--window-overlap", str(self.OVERLAP),
                "--population-size", "6",
                "--max-size", "2",
                "--stagnation", "1",
                "--max-generations", "2",
                "--seed", "17",
                "--top", "3",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "201 loci" in out
        assert "windows" in out
        assert "evaluation backend: serial" in out


class TestScanReportRoundTrip:
    """Satellite: ScanReport.from_json must round-trip to_json exactly."""

    @pytest.fixture(scope="class")
    def report(self, request):
        small_dataset = request.getfixturevalue("small_dataset")
        config = GAConfig(
            population_size=8, min_haplotype_size=2, max_haplotype_size=3,
            termination_stagnation=2, max_generations=3, point_mutation_trials=1,
        )
        return run_scan(small_dataset, window_size=6, overlap=3, config=config, seed=11)

    def test_json_round_trip_is_exact(self, report):
        import json

        from repro.scan.report import ScanReport

        payload = report.to_json()
        # through an actual serialisation, so types survive real persistence
        reloaded = ScanReport.from_json(json.loads(json.dumps(payload)))
        assert reloaded.to_json() == payload
        assert _scan_key(reloaded) == _scan_key(report)
        assert reloaded.stats.counters() == report.stats.counters()

    def test_reloaded_report_supports_aggregation(self, report):
        from repro.scan.report import ScanReport

        reloaded = ScanReport.from_json(report.to_json())
        assert reloaded.best_window().window.index == report.best_window().window.index
        assert reloaded.best_per_size() == report.best_per_size()
        assert reloaded.summary_line() == report.summary_line()
        assert reloaded.format(top=3) == report.format(top=3)

    def test_legacy_payload_without_new_fields_still_loads(self, report):
        from repro.scan.report import ScanReport

        payload = report.to_json()
        payload.pop("stats")
        for key in ("n_cached_windows", "admission_wait_seconds"):
            payload.pop(key)  # pre-scan-service payloads lack these
        for window in payload["windows"]:
            for key in ("best_per_size", "n_distinct_evaluations",
                        "n_generations", "seed"):
                window.pop(key)
        reloaded = ScanReport.from_json(payload)
        assert _scan_key(reloaded) == _scan_key(report)
        assert reloaded.n_cached_windows == 0
        assert reloaded.admission_wait_seconds == 0.0

    def test_service_counters_round_trip(self, report):
        """The scan-service counters (cache replays, admission wait, the
        per-request result-cache-hit stat) survive to_json/from_json."""
        import dataclasses
        import json

        from repro.scan.report import ScanReport

        stats = report.stats.copy()
        stats.n_result_cache_hits = 4
        served = dataclasses.replace(
            report,
            stats=stats,
            n_cached_windows=4,
            admission_wait_seconds=0.125,
        )
        reloaded = ScanReport.from_json(json.loads(json.dumps(served.to_json())))
        assert reloaded.n_cached_windows == 4
        assert reloaded.admission_wait_seconds == 0.125
        assert reloaded.stats.n_result_cache_hits == 4
        assert reloaded.to_json() == served.to_json()
        # the replay account reaches the human-readable surfaces
        assert "replayed from the cross-request cache" in reloaded.summary_line()
        assert "replayed from the service result cache" in reloaded.format(top=2)
