#!/usr/bin/env python
"""Why a GA?  The Section-3 landscape study and the baseline comparison.

Before committing to a genetic algorithm, the paper studies the structure of
the problem (Section 3) and argues that exhaustive enumeration, constructive
methods and single-size searches are all inadequate.  This example reruns
that argument on the simulated dataset:

1. regenerate Table 1 (the search space is astronomically large),
2. run the landscape study on a reduced panel: the fitness scale grows with
   the haplotype size and good large haplotypes are not unions of good small
   ones (so greedy construction under-performs),
3. give the adaptive GA, pure random search, restarted hill climbing and a
   classic single-population GA the same evaluation budget and compare what
   they find.

Run with:  python examples/landscape_and_baselines.py [--backend process --workers 2]

Every search method — the adaptive GA and the baselines alike — routes its
fitness through the execution-backend registry, so ``--backend`` switches
the whole comparison onto any registered substrate.
"""

from __future__ import annotations

import argparse

from repro import AdaptiveMultiPopulationGA, GAConfig, HaplotypeEvaluator, lille_like_study
from repro.experiments.landscape_study import run_landscape_study
from repro.experiments.table1 import run_table1
from repro.search.local_search import restarted_hill_climbing
from repro.search.random_search import random_search
from repro.search.simple_ga import SimpleGA
from repro.stats.cache import CachedEvaluator

TARGET_SIZE = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    from repro.runtime.backends import backend_names

    parser.add_argument("--backend", default="serial",
                        choices=list(backend_names()),
                        help="execution backend shared by the GA and the baselines")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for the parallel backends")
    args = parser.parse_args()
    backend_options = {"n_workers": args.workers}
    # ------------------------------------------------------------------ #
    # 1. Table 1 — the search space
    # ------------------------------------------------------------------ #
    print(run_table1().format())
    print()

    study = lille_like_study(seed=2004)
    dataset = study.dataset
    evaluator = HaplotypeEvaluator(dataset)

    # ------------------------------------------------------------------ #
    # 2. Section 3 — landscape structure on a reduced panel
    # ------------------------------------------------------------------ #
    landscape = run_landscape_study(study=study, panel_size=14, sizes=(2, 3), top_k=8)
    print(landscape.format())
    print()

    # ------------------------------------------------------------------ #
    # 3. same-budget comparison of the search methods
    # ------------------------------------------------------------------ #
    cached = CachedEvaluator(evaluator)
    config = GAConfig(
        population_size=60,
        max_haplotype_size=TARGET_SIZE,
        termination_stagnation=10,
        max_generations=40,
        seed=11,
    )
    # the HaplotypeEvaluator source lets every backend (including the
    # spec-rebuilding process farm) derive its worker-side recipe
    with AdaptiveMultiPopulationGA(
        cached if args.backend == "serial" else evaluator,
        n_snps=dataset.n_snps, config=config,
        backend=args.backend, backend_options=backend_options,
    ) as ga:
        ga_result = ga.run()
    budget = ga_result.n_evaluations

    random_result = random_search(
        evaluator, n_snps=dataset.n_snps, n_evaluations=budget,
        min_size=2, max_size=TARGET_SIZE, seed=11,
    )
    hill_result = restarted_hill_climbing(
        evaluator, n_snps=dataset.n_snps, size=TARGET_SIZE,
        n_evaluations=budget, max_neighbours=60, seed=11,
        backend=args.backend, backend_options=backend_options,
    )
    with SimpleGA(
        evaluator, n_snps=dataset.n_snps, size=TARGET_SIZE,
        population_size=60, elitism=2,
        backend=args.backend, backend_options=backend_options,
    ) as simple:
        simple_result = simple.run(n_generations=max(budget // 60, 1),
                                   stagnation=10, seed=11)

    print(f"evaluation budget (set by the adaptive GA's run): {budget} evaluations\n")
    print(f"{'method':<28} {'best size-'+str(TARGET_SIZE)+' haplotype':<24} {'fitness':>9}")
    rows = [
        ("adaptive multi-population GA",
         ga_result.best_per_size[TARGET_SIZE].snps,
         ga_result.best_per_size[TARGET_SIZE].fitness_value()),
        ("random search",
         random_result.best_per_size.get(TARGET_SIZE, ((), float("nan")))[0],
         random_result.best_per_size.get(TARGET_SIZE, ((), float("nan")))[1]),
        ("restarted hill climbing", hill_result.best_snps, hill_result.best_fitness),
        ("single-population GA", simple_result.best_snps, simple_result.best_fitness),
    ]
    for name, snps, fitness in rows:
        print(f"{name:<28} {' '.join(map(str, snps)):<24} {fitness:>9.2f}")

    print(f"\nplanted ground-truth haplotype: {study.causal_snps}")


if __name__ == "__main__":
    main()
