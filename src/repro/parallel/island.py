"""Island-model extension of the GA.

The paper parallelises only the evaluation phase (master/slave); its
conclusion mentions comparing different strategies as future work.  The
island model is the natural next step for this algorithm — several complete
GA instances ("islands") run independently with different random seeds and
periodically exchange their best individuals — and is included here as the
implemented extension: it reuses the sequential engine unchanged and layers
migration on top of it, so it also doubles as a robustness harness (the
paper's Section 5.2 remarks that solutions are similar from one execution to
another).

The implementation is deliberately synchronous and deterministic: islands are
advanced round-robin for ``migration_interval`` generations at a time (each on
its own evaluator, which may itself be a multiprocessing master/slave farm),
then the best individual of every sub-population of every island is broadcast
to the other islands, which accept it through the normal replacement rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.config import GAConfig
from ..core.ga import AdaptiveMultiPopulationGA
from ..core.history import GAResult
from ..core.individual import HaplotypeIndividual
from ..genetics.constraints import HaplotypeConstraints
from .base import FitnessCallable

__all__ = ["IslandResult", "IslandModelGA"]


@dataclass(frozen=True)
class IslandResult:
    """Outcome of an island-model run.

    Attributes
    ----------
    island_results:
        The per-island :class:`~repro.core.history.GAResult` of the final
        epoch (indexed by island).
    best_per_size:
        Best haplotype of every size across all islands.
    n_evaluations:
        Total number of fitness requests across islands (the paper's cost
        metric).
    n_distinct_evaluations:
        Evaluations actually executed by the islands' batch evaluators after
        generation-level dedup and cache reuse; at most ``n_evaluations``.
    n_migrations:
        Number of migration rounds performed.
    elapsed_seconds:
        Wall-clock duration.
    """

    island_results: tuple[GAResult, ...]
    best_per_size: dict[int, HaplotypeIndividual]
    n_evaluations: int
    n_migrations: int
    elapsed_seconds: float
    n_distinct_evaluations: int = 0

    @property
    def n_islands(self) -> int:
        return len(self.island_results)

    @property
    def evaluation_reuse_rate(self) -> float:
        """Fraction of fitness requests answered without re-evaluating."""
        if self.n_evaluations == 0:
            return 0.0
        return 1.0 - self.n_distinct_evaluations / self.n_evaluations


class IslandModelGA:
    """Several cooperating instances of the adaptive multi-population GA.

    Parameters
    ----------
    fitness:
        Fitness callable shared by all islands.
    n_snps:
        SNP panel size.
    config:
        Base configuration; island ``i`` runs with seed ``config.seed + i``.
    n_islands:
        Number of islands.
    migration_interval:
        Number of generations every island runs between migrations.
    n_epochs:
        Number of (run + migrate) rounds.
    constraints:
        Shared haplotype constraints.
    backend:
        Execution-backend name each island's evaluator is resolved on
        through :mod:`repro.runtime.backends` (default ``"serial"``); a
        parallel backend gives every island its own worker farm.
    backend_options:
        Extra keyword arguments forwarded to
        :func:`repro.runtime.backends.create_evaluator` (``n_workers``, ...).
    """

    def __init__(
        self,
        fitness: FitnessCallable,
        *,
        n_snps: int,
        config: GAConfig | None = None,
        n_islands: int = 4,
        migration_interval: int = 10,
        n_epochs: int = 5,
        constraints: HaplotypeConstraints | None = None,
        backend: str | None = None,
        backend_options: dict | None = None,
    ) -> None:
        if n_islands < 2:
            raise ValueError("an island model needs at least two islands")
        if migration_interval < 1:
            raise ValueError("migration_interval must be positive")
        if n_epochs < 1:
            raise ValueError("n_epochs must be positive")
        self.fitness = fitness
        self.n_snps = int(n_snps)
        self.base_config = config or GAConfig()
        self.n_islands = int(n_islands)
        self.migration_interval = int(migration_interval)
        self.n_epochs = int(n_epochs)
        self.constraints = constraints or HaplotypeConstraints.unconstrained(n_snps)
        self.backend = backend
        self.backend_options = dict(backend_options or {})

    # ------------------------------------------------------------------ #
    def _island_config(self, island: int, epoch_generations: int) -> GAConfig:
        # each epoch is a bounded continuation: cap generations, disable the
        # long stagnation stop so the epochs stay comparable in length
        return self.base_config.with_seed(self.base_config.seed + island)

    def run(self) -> IslandResult:
        """Run the island model and return the aggregated result."""
        start = time.perf_counter()
        islands = []
        results: list[GAResult] = [None] * self.n_islands  # type: ignore[list-item]
        n_migrations = 0
        migrants: list[HaplotypeIndividual] = []
        try:
            for island in range(self.n_islands):
                config = self.base_config.with_seed(self.base_config.seed + island)
                ga = AdaptiveMultiPopulationGA(
                    self.fitness,
                    n_snps=self.n_snps,
                    config=config,
                    constraints=self.constraints,
                    backend=self.backend,
                    backend_options=self.backend_options or None,
                )
                # epochs are driven from here: keep each run() short
                ga.termination = ga.termination.__class__(
                    stagnation_generations=max(self.migration_interval, 2),
                    max_generations=self.migration_interval,
                    max_evaluations=config.max_evaluations,
                )
                islands.append(ga)

            for epoch in range(self.n_epochs):
                for index, ga in enumerate(islands):
                    # inject the previous epoch's migrants through the normal
                    # replacement rule before continuing the island's evolution
                    if migrants and ga.population is not None:
                        for migrant in migrants:
                            ga.population.try_insert(migrant)
                    results[index] = ga.run(reset=(epoch == 0))
                # collect this epoch's migrants (best of each size of each island)
                migrants = [
                    individual
                    for result in results
                    for individual in result.best_per_size.values()
                ]
                n_migrations += 1
        finally:
            # a parallel backend holds worker processes per island; never leak
            for ga in islands:
                ga.close()

        best_per_size: dict[int, HaplotypeIndividual] = {}
        for result in results:
            for size, individual in result.best_per_size.items():
                current = best_per_size.get(size)
                if current is None or individual.fitness_value() > current.fitness_value():
                    best_per_size[size] = individual
        total_evaluations = sum(ga.n_evaluations for ga in islands)
        total_distinct = sum(ga.n_distinct_evaluations for ga in islands)
        return IslandResult(
            island_results=tuple(results),
            best_per_size=best_per_size,
            n_evaluations=total_evaluations,
            n_migrations=n_migrations,
            elapsed_seconds=time.perf_counter() - start,
            n_distinct_evaluations=total_distinct,
        )
