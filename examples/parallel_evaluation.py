#!/usr/bin/env python
"""Parallel evaluation: the master/slave farm and the simulated PVM cluster.

The paper's Figure 4 shows that a single EH-DIALL + CLUMP evaluation grows
exponentially with the haplotype size, which is why the evaluation phase is
farmed out to slaves (Section 4.5, Figure 6).  This example

1. measures the evaluation cost per haplotype size on this machine
   (regenerating Figure 4's series),
2. runs the same GA once with the serial evaluator and once with the
   multiprocessing master/slave farm, checking they find the same solutions,
3. calibrates the simulated PVM cluster on the measured costs and prints the
   speedup it predicts for growing cluster sizes — the reproducible version
   of the paper's parallel-implementation argument,
4. shards the panel into locus windows over ONE shared-memory segment and
   runs a per-window worker farm against each window handle — the
   deployment shape for workers that must not hold the full panel.

Run with:  python examples/parallel_evaluation.py
"""

from __future__ import annotations

from repro import (
    AdaptiveMultiPopulationGA,
    GAConfig,
    HaplotypeEvaluator,
    MasterSlaveEvaluator,
    SerialEvaluator,
    lille_like_study,
)
from repro.experiments.figure4 import run_figure4
from repro.experiments.speedup import generation_batch, run_simulated_speedup
from repro.genetics.dataset import plan_windows
from repro.runtime import EvaluatorSpec, ShardedGenotypeStore
from repro.runtime.spec import SpecEvaluatorFactory


def main() -> None:
    study = lille_like_study(seed=2004)
    dataset = study.dataset
    evaluator = HaplotypeEvaluator(dataset)

    # ------------------------------------------------------------------ #
    # 1. Figure 4 on this machine
    # ------------------------------------------------------------------ #
    figure4 = run_figure4(study=study, sizes=(2, 3, 4, 5, 6, 7), n_samples=10)
    print(figure4.format())
    print()

    # ------------------------------------------------------------------ #
    # 2. serial vs master/slave GA runs (must agree exactly)
    # ------------------------------------------------------------------ #
    config = GAConfig(
        population_size=60,
        max_haplotype_size=5,
        termination_stagnation=8,
        max_generations=25,
        seed=3,
    )

    serial_backend = SerialEvaluator(evaluator)
    serial_result = AdaptiveMultiPopulationGA(
        n_snps=dataset.n_snps, config=config, evaluator=serial_backend
    ).run()
    print(
        f"serial run:       {serial_result.n_evaluations} evaluations in "
        f"{serial_result.elapsed_seconds:.1f}s"
    )

    parallel_backend = MasterSlaveEvaluator(evaluator, n_workers=4)
    try:
        parallel_result = AdaptiveMultiPopulationGA(
            n_snps=dataset.n_snps, config=config, evaluator=parallel_backend
        ).run()
    finally:
        parallel_backend.close()
    print(
        f"master/slave run: {parallel_result.n_evaluations} evaluations in "
        f"{parallel_result.elapsed_seconds:.1f}s (4 workers)"
    )

    same = all(
        serial_result.best_per_size[size].snps == parallel_result.best_per_size[size].snps
        for size in serial_result.best_per_size
    )
    print(f"identical best haplotypes per size: {same}\n")

    # ------------------------------------------------------------------ #
    # 3. simulated PVM speedup with the measured cost model
    # ------------------------------------------------------------------ #
    batch = generation_batch(n_offspring=68, sizes=(2, 3, 4, 5, 6), n_snps=dataset.n_snps)
    simulated = run_simulated_speedup(
        worker_counts=(1, 2, 4, 8, 16, 32),
        batch=batch,
        cost_model=figure4.cost_model,
    )
    print(simulated.format())
    print(
        "\nNote: on cheap evaluations the real multiprocessing farm is dominated by "
        "inter-process messaging, exactly the trade-off the simulated cluster's "
        "message latency models; the farm pays off as the haplotype size (and thus "
        "the per-evaluation cost) grows.\n"
    )

    # ------------------------------------------------------------------ #
    # 4. window-sharded workers over one shared-memory panel copy
    # ------------------------------------------------------------------ #
    plan = plan_windows(dataset.n_snps, window_size=10, overlap=5)
    spec = EvaluatorSpec()
    reference = HaplotypeEvaluator(dataset)
    print(
        f"sharded store: {plan.n_windows} windows of {dataset.n_snps} loci "
        f"over one shared-memory segment"
    )
    with ShardedGenotypeStore(dataset, plan) as store:
        for window in list(plan)[:2]:
            # each farm's slaves attach to the ONE segment and see only their
            # window's columns; window-local fitnesses match the full panel
            handle = store.window_handle(window.start, window.stop)
            farm = MasterSlaveEvaluator(
                evaluator_factory=SpecEvaluatorFactory(spec, handle),
                n_workers=2,
            )
            try:
                local = (0, 1, 2)
                value = farm.evaluate(local)
            finally:
                farm.close()
            assert value == reference.evaluate(window.to_global(local))
            print(
                f"  window {window.span()}: slaves attached to segment "
                f"{store.name!r}, haplotype {window.to_global(local)} -> {value:.3f}"
            )


if __name__ == "__main__":
    main()
