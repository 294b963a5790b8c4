"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.require_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402


# --------------------------------------------------------------------------- #
# percentile guard
# --------------------------------------------------------------------------- #
def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(range(101), 0.9) == pytest.approx(90.0)
    assert common.percentile(range(21), 0.5) == pytest.approx(10.0)
    with pytest.raises(common.InsufficientSamples, match="9 beyond"):
        common.percentile(range(100), 0.9)
    with pytest.raises(common.InsufficientSamples):
        common.percentile(range(20), 0.5)
    with pytest.raises(common.InsufficientSamples):
        common.percentile([], 0.5)


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in reversed(range(0, 202, 2))]  # 101 samples, unsorted
    assert common.percentile(values, 0.9) == pytest.approx(180.0)
    assert common.percentile(values, 0.5) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        common.percentile(values, 1.0)


def test_samples_beyond_counts_past_both_interpolation_points():
    assert common.samples_beyond(101, 0.9) == 10
    assert common.samples_beyond(100, 0.9) == 9
    assert common.samples_beyond(21, 0.5) == 10
    assert common.samples_beyond(0, 0.5) == 0


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class _Window:
    def __init__(self, index):
        self.index = index


class _Result:
    def __init__(self, index, snps, fitness):
        self.window = _Window(index)
        self.best_snps = snps
        self.best_fitness = fitness


def test_canonical_and_digest():
    value = {"a": (1, np.int64(2), np.float64(0.5)), 3: [(4,)]}
    assert common.canonical(value) == {"a": [1, 2, 0.5], "3": [[4]]}
    assert common.digest(value) == common.digest({"a": [1, 2, 0.5], "3": [[4]]})
    # every digit of a float matters
    assert common.digest([0.1 + 0.2]) != common.digest([0.3])


def test_window_fingerprint_is_in_window_order():
    windows = [_Result(2, (7, 9), 1.5), _Result(0, (np.int64(1), 3), np.float64(2.25))]
    assert common.window_fingerprint(windows) == [[0, [1, 3], 2.25], [2, [7, 9], 1.5]]


def test_run_fingerprint_orders_sizes():
    class Individual:
        def __init__(self, snps, fitness):
            self.snps = snps
            self._fitness = fitness

        def fitness_value(self):
            return self._fitness

    best = {3: Individual((1, 2, 3), 4.0), 2: Individual((5, 8), 2.5)}
    assert common.run_fingerprint(best) == [[2, [5, 8], 2.5], [3, [1, 2, 3], 4.0]]


def test_count_mismatches():
    expected = [[0, [1, 2], 1.0], [1, [2, 3], 2.0]]
    assert common.count_mismatches(expected, expected) == 0
    assert common.count_mismatches([[0, [1, 2], 1.0], [1, [2, 3], 2.5]], expected) == 1
    assert common.count_mismatches(expected[:1], expected) == 1
    # a replay must also equal the windows it replays
    original = [[0, [1, 2], 1.0], [1, [2, 4], 2.0]]
    assert common.count_mismatches(expected, expected, original) == 1


# --------------------------------------------------------------------------- #
# metric names
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["setup_s", "farm.haps_per_dispatch", "p90", "a-b.c_d"])
def test_metric_name_accepted(name):
    assert common.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "bad name", "_x", ".x", "a/b", "x" * 65, "é"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        common.check_metric_name(name)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        common.check_metric_name(name)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [wl["name"] for wl in spec["workloads"]] == list(run.w.WORKLOADS)


# --------------------------------------------------------------------------- #
# wrappers and the shared tally
# --------------------------------------------------------------------------- #
def _small_evaluator():
    from repro.genetics.simulate import lille_like_study
    from repro.stats.evaluation import HaplotypeEvaluator

    return HaplotypeEvaluator(lille_like_study(seed=3, n_snps=12).dataset)


def test_install_and_uninstall_restore_every_name():
    import repro.parallel.base as base
    import repro.stats.evaluation as evaluation

    originals = {
        (owner, name): vars(owner)[name]
        for owner, name in ((evaluation, "clump_statistics"),
                            (evaluation.HaplotypeEvaluator, "evaluate_many"),
                            (base.BaseBatchEvaluator, "evaluate_batch"))
    }
    tracer = tracing.Tracer()
    with tracer:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original
    tracer.uninstall()  # idempotent


def test_spans_nest_and_self_times_partition():
    evaluator = _small_evaluator()
    batch = [(0, 1), (2, 5, 7), (3, 4), (0, 1)]
    untraced = evaluator.evaluate_many(batch)
    with tracing.Tracer() as tracer:
        traced = _small_evaluator().evaluate_many(batch)
    assert traced == untraced
    t = tracer.tally.totals()
    assert t["eval.n"] == 1
    assert t["clump.n"] == 3  # one per distinct haplotype
    assert t["expand.n"] == 6 and t["expand.miss.n"] == 6
    assert t["em.problems"] == 6
    children = t["expand.s"] + t["em.s"] + t["clump.s"]
    assert t["eval.self"] == pytest.approx(t["eval.s"] - children, abs=1e-9)
    assert 0.0 <= t["eval.self"] <= t["eval.s"]


def test_every_probe_fires(tmp_path):
    """A tiny serial and process-shm pass through every layer: each probe records.

    A program change that renames a probed function or stops calling it
    fails here instead of reading 0 in the traced benchmark.
    """
    from repro.core.config import GAConfig
    from repro.genetics import io
    from repro.genetics.simulate import lille_like_study
    from repro.runtime.client import ScanClient
    from repro.runtime.server import ScanServer
    from repro.stats.evaluation import HaplotypeEvaluator

    config = GAConfig(population_size=6, min_haplotype_size=2, max_haplotype_size=2,
                      termination_stagnation=1, max_generations=2, point_mutation_trials=1)
    study = lille_like_study(seed=3, n_snps=12).dataset
    io.write_study_tables(study, tmp_path / "study")
    io.write_bed(study, tmp_path / "cohort")
    tracer = tracing.Tracer().install()
    try:
        dataset = io.read_study_tables(tmp_path / "study")[0]
        HaplotypeEvaluator(dataset).evaluate((0, 1))  # the scalar EM, byte panel
        cohort = io.read_bed(tmp_path / "cohort")
        with ScanServer(cohort, backend="process-shm", n_workers=1, packed=True,
                        journal_dir=str(tmp_path / "journal")) as server:
            server.start(("127.0.0.1", 0))
            with ScanClient(server.address, client_id="probe") as client:
                client.scan(window_size=4, overlap=2, config=config, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    totals = tracer.tally.totals()
    assert [kind for kind in tracing.probe_kinds() if not totals[f"{kind}.n"]] == []


def test_a_missing_probe_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "PROBES", tracing.PROBES + (
        ("clump", "repro.stats.evaluation", "no_such_function", "span", None),))
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["repro.stats.evaluation.no_such_function"]


def _child_records(tally):
    tally.add("ga.requests", 5)
    tally.add("worker.rss.max", 7.0)
    tally.flush()


def test_tally_collects_forked_children():
    tally = tracing.Tally(tracing.slot_names())
    tally.add("ga.requests", 1)
    tally.add("worker.rss.max", 3.0)
    context = multiprocessing.get_context("fork")
    children = [context.Process(target=_child_records, args=(tally,)) for _ in range(2)]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=30)
        assert child.exitcode == 0
    totals = tally.totals()
    assert totals["ga.requests"] == 11
    assert totals["worker.rss.max"] == 7.0


def test_merge_totals():
    merged = tracing.merge_totals({"a.n": 1.0, "w.max": 2.0}, {"a.n": 2.0, "w.max": 1.0})
    assert merged == {"a.n": 3.0, "w.max": 2.0}
