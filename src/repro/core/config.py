"""Configuration of the adaptive multi-population GA.

All parameters named in the paper (Section 5.2.1) are exposed here with the
paper's values as defaults:

* global crossover rate ``0.9``;
* total population size ``150``;
* termination when the best individual is unchanged for ``100`` generations;
* maximum haplotype size ``6`` (chosen by the biologists);
* random-immigrant stagnation threshold ``20`` generations.

The switches ``use_*`` correspond to the mechanisms the paper turns on and off
in its Section 5.2 scheme study (adaptive operators, size-changing mutations,
inter-population crossover, random immigrants), so the ablation experiment is
just a grid over configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

__all__ = ["GAConfig"]

AllocationStrategy = Literal["log_proportional", "proportional", "uniform"]


@dataclass(frozen=True)
class GAConfig:
    """Parameters of :class:`~repro.core.ga.AdaptiveMultiPopulationGA`.

    Attributes
    ----------
    min_haplotype_size, max_haplotype_size:
        Range of haplotype sizes; one sub-population is maintained per size.
    population_size:
        Total number of individuals across all sub-populations (paper: 150).
    allocation:
        How the total population is split across sizes.
        ``"log_proportional"`` (default) gives each size a share proportional
        to the logarithm of its search-space slice — "the number of
        individuals in each subpopulation increases with the size of the
        haplotypes in order to follow the growth of the search space";
        ``"proportional"`` uses the raw (clipped) slice sizes and
        ``"uniform"`` splits evenly.
    crossover_rate:
        Global crossover rate shared by the crossover operators (paper: 0.9).
    mutation_rate:
        Global mutation rate shared by the three mutation operators.
    min_operator_rate:
        The floor δ every adaptive operator keeps regardless of its profit.
    point_mutation_trials:
        Number of parallel trials of the SNP (point) mutation; the best
        resulting individual is kept (Section 4.3.1).
    tournament_size:
        Tournament size of the selection operator.
    offspring_per_generation:
        Number of crossover applications attempted per generation; ``None``
        derives it from ``population_size`` and ``crossover_rate``.
    termination_stagnation:
        Stop when the global best has not improved for this many generations
        (paper: 100).
    max_generations:
        Hard safety cap on the number of generations.
    max_evaluations:
        Optional hard cap on the number of fitness evaluations.
    random_immigrant_stagnation:
        Trigger the random-immigrant replacement when the best is unchanged
        for this many generations (paper: 20); ``use_random_immigrants``
        must also be true.
    use_adaptive_mutation, use_adaptive_crossover:
        Adapt operator rates from their measured progress; when false the
        rates stay at their uniform initial values.
    use_size_mutations:
        Enable the reduction and augmentation mutations that move individuals
        between sub-populations.
    use_inter_population_crossover:
        Enable crossover between parents of different sizes.
    use_random_immigrants:
        Enable the random-immigrant diversity mechanism.
    seed:
        Seed of the GA's random generator.
    """

    min_haplotype_size: int = 2
    max_haplotype_size: int = 6
    population_size: int = 150
    allocation: AllocationStrategy = "log_proportional"

    crossover_rate: float = 0.9
    mutation_rate: float = 0.5
    min_operator_rate: float = 0.05
    point_mutation_trials: int = 4
    tournament_size: int = 2
    offspring_per_generation: int | None = None

    termination_stagnation: int = 100
    max_generations: int = 2000
    max_evaluations: int | None = None
    random_immigrant_stagnation: int = 20

    use_adaptive_mutation: bool = True
    use_adaptive_crossover: bool = True
    use_size_mutations: bool = True
    use_inter_population_crossover: bool = True
    use_random_immigrants: bool = True

    seed: int = 0

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.min_haplotype_size < 1:
            raise ValueError("min_haplotype_size must be at least 1")
        if self.max_haplotype_size < self.min_haplotype_size:
            raise ValueError("max_haplotype_size must be >= min_haplotype_size")
        if self.population_size < self.n_subpopulations:
            raise ValueError(
                "population_size must allow at least one individual per sub-population"
            )
        if not 0.0 < self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in (0, 1]")
        if not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")
        if not 0.0 <= self.min_operator_rate < 1.0:
            raise ValueError("min_operator_rate must be in [0, 1)")
        # three mutation operators and two crossover operators share the
        # global rates; the floors must leave room for the adaptive part
        if 3 * self.min_operator_rate >= self.mutation_rate:
            raise ValueError("min_operator_rate too large for the global mutation rate")
        if 2 * self.min_operator_rate >= self.crossover_rate:
            raise ValueError("min_operator_rate too large for the global crossover rate")
        if self.point_mutation_trials < 1:
            raise ValueError("point_mutation_trials must be at least 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be at least 1")
        if self.offspring_per_generation is not None and self.offspring_per_generation < 1:
            raise ValueError("offspring_per_generation must be positive")
        if self.termination_stagnation < 1:
            raise ValueError("termination_stagnation must be positive")
        if self.max_generations < 1:
            raise ValueError("max_generations must be positive")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive")
        if self.random_immigrant_stagnation < 1:
            raise ValueError("random_immigrant_stagnation must be positive")
        if self.allocation not in ("log_proportional", "proportional", "uniform"):
            raise ValueError(f"unknown allocation strategy {self.allocation!r}")

    # ------------------------------------------------------------------ #
    @property
    def haplotype_sizes(self) -> tuple[int, ...]:
        """The sizes for which a sub-population is maintained."""
        return tuple(range(self.min_haplotype_size, self.max_haplotype_size + 1))

    @property
    def n_subpopulations(self) -> int:
        return self.max_haplotype_size - self.min_haplotype_size + 1

    @property
    def n_offspring(self) -> int:
        """Number of crossover applications per generation."""
        if self.offspring_per_generation is not None:
            return self.offspring_per_generation
        return max(int(round(self.crossover_rate * self.population_size / 2)), 1)

    def with_scheme(
        self,
        *,
        adaptive: bool | None = None,
        size_mutations: bool | None = None,
        inter_population_crossover: bool | None = None,
        random_immigrants: bool | None = None,
    ) -> "GAConfig":
        """Copy of this config with some Section-5.2 mechanisms toggled."""
        changes: dict[str, bool] = {}
        if adaptive is not None:
            changes["use_adaptive_mutation"] = adaptive
            changes["use_adaptive_crossover"] = adaptive
        if size_mutations is not None:
            changes["use_size_mutations"] = size_mutations
        if inter_population_crossover is not None:
            changes["use_inter_population_crossover"] = inter_population_crossover
        if random_immigrants is not None:
            changes["use_random_immigrants"] = random_immigrants
        return replace(self, **changes)

    def with_seed(self, seed: int) -> "GAConfig":
        """Copy of this config with a different RNG seed."""
        return replace(self, seed=seed)
