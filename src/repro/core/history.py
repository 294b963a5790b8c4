"""Run records: per-generation statistics and the final result object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .config import GAConfig
from .individual import HaplotypeIndividual

__all__ = ["GenerationRecord", "RunHistory", "GAResult"]


@dataclass(frozen=True)
class GenerationRecord:
    """Statistics of one GA generation.

    Attributes
    ----------
    generation:
        Generation index (1-based; generation 0 is the initial population).
    n_evaluations:
        Cumulative number of fitness evaluations after this generation.
    best_fitness_per_size:
        Best raw fitness of each sub-population.
    mean_fitness_per_size:
        Mean raw fitness of each sub-population.
    mutation_rates, crossover_rates:
        Operator rates in force after this generation's adaptation step.
    stagnation:
        Number of consecutive generations without improvement so far.
    n_insertions:
        Number of offspring that entered a sub-population this generation.
    immigrants_triggered:
        Whether the random-immigrant mechanism fired this generation.
    """

    generation: int
    n_evaluations: int
    best_fitness_per_size: dict[int, float]
    mean_fitness_per_size: dict[int, float]
    mutation_rates: dict[str, float]
    crossover_rates: dict[str, float]
    stagnation: int
    n_insertions: int
    immigrants_triggered: bool


class RunHistory:
    """Ordered collection of :class:`GenerationRecord`."""

    def __init__(self) -> None:
        self._records: list[GenerationRecord] = []

    def append(self, record: GenerationRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[GenerationRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> GenerationRecord:
        return self._records[index]

    @property
    def records(self) -> tuple[GenerationRecord, ...]:
        return tuple(self._records)

    def best_fitness_trajectory(self, size: int) -> list[float]:
        """Best fitness of one sub-population across generations."""
        return [r.best_fitness_per_size[size] for r in self._records
                if size in r.best_fitness_per_size]

    def evaluations_trajectory(self) -> list[int]:
        return [r.n_evaluations for r in self._records]

    def n_immigrant_triggers(self) -> int:
        return sum(1 for r in self._records if r.immigrants_triggered)


@dataclass(frozen=True)
class GAResult:
    """Outcome of one GA run.

    Attributes
    ----------
    best_per_size:
        Best haplotype found for every sub-population size.
    evaluations_to_best:
        Cumulative evaluation count at which the best individual of each size
        was (last) improved — the paper's Table-2 cost indicator.
    n_evaluations:
        Total number of fitness evaluations of the run.
    n_generations:
        Number of generations executed.
    termination_reason:
        Why the run stopped (``"stagnation"``, ``"max_generations"``,
        ``"max_evaluations"`` or ``"target_fitness"``).
    history:
        Per-generation statistics.
    config:
        The configuration the run used.
    elapsed_seconds:
        Wall-clock duration of the run.
    """

    best_per_size: dict[int, HaplotypeIndividual]
    evaluations_to_best: dict[int, int]
    n_evaluations: int
    n_generations: int
    termination_reason: str
    history: RunHistory
    config: GAConfig
    elapsed_seconds: float

    def best_overall(self) -> HaplotypeIndividual:
        """The best individual across sizes by raw fitness (largest sizes win ties)."""
        if not self.best_per_size:
            raise ValueError("the run produced no individuals")
        return max(self.best_per_size.values(), key=lambda ind: ind.fitness_value())

    def best_fitness(self, size: int) -> float:
        return self.best_per_size[size].fitness_value()

    def summary_rows(self) -> list[dict[str, object]]:
        """Rows in the shape of the paper's Table 2 (one per haplotype size)."""
        rows: list[dict[str, object]] = []
        for size in sorted(self.best_per_size):
            individual = self.best_per_size[size]
            rows.append(
                {
                    "size": size,
                    "haplotype": " ".join(str(s) for s in individual.snps),
                    "fitness": individual.fitness_value(),
                    "evaluations_to_best": self.evaluations_to_best.get(size),
                }
            )
        return rows
