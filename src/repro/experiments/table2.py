"""Table 2 — results of the GA on the 51-SNP dataset.

The paper's Table 2 reports, for each haplotype size (sub-population), the
best haplotype found over 10 runs, its fitness, the mean fitness over the
runs, the deviation from the best expected haplotype (0 when every run finds
the optimum) and the minimum / mean number of evaluations needed to reach the
solution — all with the full mechanism stack (adaptive mutation + adaptive
crossover + random immigrants).

This harness reruns that experiment on the lille-like dataset.  The reference
("best expected") haplotype of each size is obtained by exhaustive enumeration
where that is affordable (sizes 2-3 by default; the paper did the same
landscape enumeration for sizes 2-4) and as the best haplotype seen across all
runs for the larger sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.config import GAConfig
from ..core.history import GAResult
from ..genetics.constraints import HaplotypeConstraints
from ..genetics.simulate import SimulatedStudy
from ..runtime.service import RunRequest, RunScheduler
from ..runtime.spec import EvaluatorSpec
from ..search.exhaustive import enumerate_best
from ..stats.cache import CachedEvaluator
from .datasets import DEFAULT_SEED, lille51
from .reporting import format_table

__all__ = [
    "PAPER_TABLE2_REFERENCE",
    "Table2Row",
    "Table2Result",
    "paper_scale_config",
    "quick_config",
    "run_table2",
]

#: The paper's Table 2 (size -> (best haplotype SNPs, fitness, mean # evaluations)).
#: Used only for side-by-side reporting in EXPERIMENTS.md; the SNP indices are
#: specific to the proprietary Lille dataset and are not expected to match.
PAPER_TABLE2_REFERENCE: dict[int, dict[str, object]] = {
    3: {"haplotype": (8, 12, 15), "fitness": 58.814, "min_evals": 317, "mean_evals": 587.4},
    4: {"haplotype": (8, 18, 26, 50), "fitness": 84.856, "min_evals": 1111, "mean_evals": 3238.2},
    5: {"haplotype": (8, 12, 16, 33, 43), "fitness": 123.108, "min_evals": 2994,
        "mean_evals": 5615.2},
    6: {"haplotype": (8, 12, 15, 21, 32, 43), "fitness": 161.252, "min_evals": 11573,
        "mean_evals": 15464.6},
}


def paper_scale_config(**overrides: object) -> GAConfig:
    """The configuration of the paper's experiment (Section 5.2.1)."""
    params: dict[str, object] = dict(
        population_size=150,
        min_haplotype_size=2,
        max_haplotype_size=6,
        crossover_rate=0.9,
        termination_stagnation=100,
        random_immigrant_stagnation=20,
        max_generations=600,
    )
    params.update(overrides)
    return GAConfig(**params)  # type: ignore[arg-type]


def quick_config(**overrides: object) -> GAConfig:
    """A reduced configuration for tests and CI-sized benchmark runs."""
    params: dict[str, object] = dict(
        population_size=60,
        min_haplotype_size=2,
        max_haplotype_size=5,
        crossover_rate=0.9,
        termination_stagnation=10,
        random_immigrant_stagnation=5,
        max_generations=40,
    )
    params.update(overrides)
    return GAConfig(**params)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Table2Row:
    """One row of the reproduced Table 2 (one haplotype size)."""

    size: int
    best_snps: tuple[int, ...]
    best_fitness: float
    mean_fitness: float
    deviation: float
    min_evaluations: int
    mean_evaluations: float
    reference_snps: tuple[int, ...]
    reference_fitness: float
    reference_source: str
    n_runs_matching_reference: int


@dataclass(frozen=True)
class Table2Result:
    """The reproduced Table 2."""

    rows: tuple[Table2Row, ...]
    n_runs: int
    config: GAConfig
    run_results: tuple[GAResult, ...] = field(repr=False, default=())

    def row(self, size: int) -> Table2Row:
        for row in self.rows:
            if row.size == size:
                return row
        raise KeyError(f"no row for haplotype size {size}")

    def format(self) -> str:
        headers = [
            "Size",
            "Best haplotype",
            "Fitness",
            "Mean",
            "Dev",
            "Min # eval",
            "Mean # eval",
            "Reference",
        ]
        rows = [
            [
                row.size,
                " ".join(map(str, row.best_snps)),
                row.best_fitness,
                row.mean_fitness,
                row.deviation,
                row.min_evaluations,
                row.mean_evaluations,
                row.reference_source,
            ]
            for row in self.rows
        ]
        return format_table(
            headers, rows,
            title=f"Table 2 - GA results over {self.n_runs} runs (lille-like dataset)",
        )


def run_table2(
    *,
    study: SimulatedStudy | None = None,
    config: GAConfig | None = None,
    n_runs: int = 10,
    exhaustive_reference_sizes: Sequence[int] = (2, 3),
    constraints: HaplotypeConstraints | None = None,
    seed: int = DEFAULT_SEED,
    statistic: str = "t1",
    backend: str = "serial",
    n_workers: int | None = None,
    chunk_size: int | None = None,
) -> Table2Result:
    """Rerun the paper's Table 2 experiment.

    Parameters
    ----------
    study:
        Dataset (default: the canonical lille-like study).
    config:
        GA configuration (default: :func:`paper_scale_config`).
    n_runs:
        Number of independent GA runs (paper: 10).
    exhaustive_reference_sizes:
        Haplotype sizes whose reference optimum is computed by exhaustive
        enumeration; larger sizes use the best haplotype seen across runs.
    constraints:
        Optional haplotype-validity constraints shared by the GA and the
        exhaustive reference search.
    seed:
        Base seed; run ``i`` uses ``seed + i``.
    statistic:
        CLUMP statistic used as fitness.
    backend, n_workers, chunk_size:
        Execution backend the runs are dispatched on (see
        :mod:`repro.runtime.backends`); all backends return identical
        fitnesses, so the table is backend-invariant.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    study = study or lille51(seed)
    config = config or paper_scale_config()
    n_snps = study.dataset.n_snps
    constraints = constraints or HaplotypeConstraints.unconstrained(n_snps)

    # one evaluator serves the runs (in-process on serial) and the reference
    # search below, so the two share its reuse caches
    evaluator = EvaluatorSpec(statistic=statistic).build(study.dataset)
    with RunScheduler(
        study.dataset,
        source=evaluator,
        backend=backend,
        n_workers=n_workers,
        chunk_size=chunk_size,
    ) as scheduler:
        request = RunRequest(
            config=config,
            n_runs=n_runs,
            seed=seed,
            statistic=statistic,
            constraints=constraints,
        )
        run_results: list[GAResult] = list(scheduler.run(request).runs)

    sizes = sorted(
        {size for result in run_results for size in result.best_per_size}
    )

    # reference ("best expected") haplotype per size
    references: dict[int, tuple[tuple[int, ...], float, str]] = {}
    cached = CachedEvaluator(evaluator)
    for size in sizes:
        if size in set(exhaustive_reference_sizes):
            best = enumerate_best(cached, n_snps, size, constraints=constraints, top_k=1)[0]
            references[size] = (best.snps, best.fitness, "exhaustive")
        else:
            best_snps: tuple[int, ...] | None = None
            best_fitness = -np.inf
            for result in run_results:
                individual = result.best_per_size.get(size)
                if individual is not None and individual.fitness_value() > best_fitness:
                    best_snps = individual.snps
                    best_fitness = individual.fitness_value()
            assert best_snps is not None
            references[size] = (best_snps, float(best_fitness), "best_of_runs")

    rows: list[Table2Row] = []
    for size in sizes:
        per_run_fitness = []
        per_run_evaluations = []
        best_snps: tuple[int, ...] | None = None
        best_fitness = -np.inf
        for result in run_results:
            individual = result.best_per_size.get(size)
            if individual is None:
                continue
            per_run_fitness.append(individual.fitness_value())
            per_run_evaluations.append(result.evaluations_to_best.get(size,
                                                                      result.n_evaluations))
            if individual.fitness_value() > best_fitness:
                best_fitness = individual.fitness_value()
                best_snps = individual.snps
        reference_snps, reference_fitness, reference_source = references[size]
        mean_fitness = float(np.mean(per_run_fitness))
        matching = sum(
            1 for value in per_run_fitness if abs(value - reference_fitness) <= 1e-9
        )
        rows.append(
            Table2Row(
                size=size,
                best_snps=best_snps or (),
                best_fitness=float(best_fitness),
                mean_fitness=mean_fitness,
                deviation=float(reference_fitness - mean_fitness),
                min_evaluations=int(np.min(per_run_evaluations)),
                mean_evaluations=float(np.mean(per_run_evaluations)),
                reference_snps=reference_snps,
                reference_fitness=reference_fitness,
                reference_source=reference_source,
                n_runs_matching_reference=matching,
            )
        )
    return Table2Result(
        rows=tuple(rows),
        n_runs=n_runs,
        config=config,
        run_results=tuple(run_results),
    )
