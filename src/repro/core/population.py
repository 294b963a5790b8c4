"""Sub-populations per haplotype size and their container.

Section 4.2 of the paper: haplotypes of different sizes are not comparable
(the fitness scale grows with the size), so the global population is divided
into one sub-population per haplotype size.  Sub-population capacities are not
equal — they increase with the haplotype size to follow the growth of the
corresponding slice of the search space — and the sub-populations cooperate
through the size-changing mutations and the inter-population crossover.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .config import GAConfig
from .individual import HaplotypeIndividual

__all__ = ["SubPopulation", "MultiPopulation", "allocate_capacities"]


def allocate_capacities(
    total: int,
    sizes: Sequence[int],
    n_snps: int,
    strategy: str = "log_proportional",
    *,
    min_capacity: int = 2,
) -> dict[int, int]:
    """Split a total population across haplotype sizes.

    Parameters
    ----------
    total:
        Total number of individuals to distribute.
    sizes:
        Haplotype sizes (one sub-population each).
    n_snps:
        Number of SNPs on the panel; the size of the search-space slice for
        haplotype size ``k`` is ``C(n_snps, k)``.
    strategy:
        ``"log_proportional"`` — weights ∝ ``log(C(n_snps, k))`` (default;
        capacities grow smoothly with the size, as in the paper);
        ``"proportional"`` — weights ∝ ``C(n_snps, k)`` (heavily skewed toward
        the largest size); ``"uniform"`` — equal split.
    min_capacity:
        Every sub-population receives at least this many slots.

    Returns
    -------
    dict
        ``{size: capacity}`` with ``sum(capacities) == total``.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must not be empty")
    if total < min_capacity * len(sizes):
        raise ValueError(
            f"total={total} cannot give every one of the {len(sizes)} sub-populations "
            f"at least {min_capacity} individuals"
        )
    if strategy == "uniform":
        weights = np.ones(len(sizes), dtype=np.float64)
    elif strategy == "proportional":
        weights = np.asarray([math.comb(n_snps, k) for k in sizes], dtype=np.float64)
    elif strategy == "log_proportional":
        weights = np.asarray(
            [math.log(max(math.comb(n_snps, k), 2)) for k in sizes], dtype=np.float64
        )
    else:
        raise ValueError(f"unknown allocation strategy {strategy!r}")
    weights = weights / weights.sum()

    adjustable = total - min_capacity * len(sizes)
    raw = weights * adjustable
    capacities = np.floor(raw).astype(int) + min_capacity
    # distribute the rounding remainder to the largest fractional parts
    remainder = total - int(capacities.sum())
    if remainder > 0:
        order = np.argsort(raw - np.floor(raw))[::-1]
        for i in order[:remainder]:
            capacities[i] += 1
    return {size: int(cap) for size, cap in zip(sizes, capacities)}


class SubPopulation:
    """The individuals of one haplotype size.

    The sub-population enforces the paper's replacement rule: a new individual
    enters only if it is better than the current worst *and* is not already
    present; when the sub-population is full the worst individual is evicted.
    """

    def __init__(self, haplotype_size: int, capacity: int) -> None:
        if haplotype_size < 1:
            raise ValueError("haplotype_size must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.haplotype_size = int(haplotype_size)
        self.capacity = int(capacity)
        self._members: list[HaplotypeIndividual] = []

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[HaplotypeIndividual]:
        return iter(self._members)

    @property
    def members(self) -> tuple[HaplotypeIndividual, ...]:
        return tuple(self._members)

    @property
    def is_full(self) -> bool:
        return len(self._members) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._members

    def contains_snps(self, snps: tuple[int, ...]) -> bool:
        """Whether an individual with exactly these SNPs is already present."""
        return any(member.snps == snps for member in self._members)

    # ------------------------------------------------------------------ #
    def _check(self, individual: HaplotypeIndividual) -> None:
        if individual.size != self.haplotype_size:
            raise ValueError(
                f"individual of size {individual.size} does not belong to the "
                f"size-{self.haplotype_size} sub-population"
            )
        if not individual.is_evaluated:
            raise ValueError("only evaluated individuals may enter a sub-population")

    def seed(self, individual: HaplotypeIndividual) -> bool:
        """Insert an initial individual (used during population initialisation).

        Returns ``False`` (and inserts nothing) if the sub-population is full
        or already contains the same haplotype.
        """
        self._check(individual)
        if self.is_full or self.contains_snps(individual.snps):
            return False
        self._members.append(individual)
        return True

    def try_insert(self, individual: HaplotypeIndividual) -> bool:
        """Apply the paper's replacement rule; returns whether the individual entered."""
        self._check(individual)
        if self.contains_snps(individual.snps):
            return False
        if not self.is_full:
            self._members.append(individual)
            return True
        worst_index = self._worst_index()
        if individual.fitness_value() > self._members[worst_index].fitness_value():
            self._members[worst_index] = individual
            return True
        return False

    def replace_member(self, index: int, individual: HaplotypeIndividual) -> None:
        """Unconditionally replace the member at ``index`` (random immigrants)."""
        self._check(individual)
        self._members[index] = individual

    # ------------------------------------------------------------------ #
    def _worst_index(self) -> int:
        return min(range(len(self._members)), key=lambda i: self._members[i].fitness_value())

    def best(self) -> HaplotypeIndividual:
        if self.is_empty:
            raise ValueError("empty sub-population has no best individual")
        return max(self._members, key=lambda ind: ind.fitness_value())

    def worst(self) -> HaplotypeIndividual:
        if self.is_empty:
            raise ValueError("empty sub-population has no worst individual")
        return self._members[self._worst_index()]

    def mean_fitness(self) -> float:
        if self.is_empty:
            raise ValueError("empty sub-population has no mean fitness")
        return float(np.mean([ind.fitness_value() for ind in self._members]))

    def fitness_range(self) -> tuple[float, float]:
        """(worst, best) fitness of the sub-population."""
        if self.is_empty:
            raise ValueError("empty sub-population has no fitness range")
        values = [ind.fitness_value() for ind in self._members]
        return float(min(values)), float(max(values))

    def normalized_fitness(self, fitness: float) -> float:
        """Normalise a fitness against this sub-population's range (Section 4.3.1).

        ``(f - worst) / (best - worst)``, clipped to ``[0, 1]``; when the
        sub-population has no spread the value is 0.5 (no information).
        """
        worst, best = self.fitness_range()
        spread = best - worst
        if spread <= 0:
            return 0.5
        return float(min(max((fitness - worst) / spread, 0.0), 1.0))


class MultiPopulation:
    """All sub-populations of the GA, keyed by haplotype size."""

    def __init__(self, config: GAConfig, n_snps: int) -> None:
        self.config = config
        self.n_snps = int(n_snps)
        capacities = allocate_capacities(
            config.population_size,
            config.haplotype_sizes,
            n_snps,
            strategy=config.allocation,
        )
        self._subpopulations: dict[int, SubPopulation] = {
            size: SubPopulation(size, capacity) for size, capacity in capacities.items()
        }

    # ------------------------------------------------------------------ #
    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self._subpopulations))

    def subpopulation(self, size: int) -> SubPopulation:
        try:
            return self._subpopulations[size]
        except KeyError:
            raise KeyError(f"no sub-population for haplotype size {size}") from None

    def __iter__(self) -> Iterator[SubPopulation]:
        for size in self.sizes:
            yield self._subpopulations[size]

    def __len__(self) -> int:
        return sum(len(sub) for sub in self._subpopulations.values())

    @property
    def capacities(self) -> dict[int, int]:
        return {size: sub.capacity for size, sub in sorted(self._subpopulations.items())}

    def all_members(self) -> list[HaplotypeIndividual]:
        return [ind for sub in self for ind in sub]

    # ------------------------------------------------------------------ #
    def try_insert(self, individual: HaplotypeIndividual) -> bool:
        """Route an individual to the sub-population of its size and apply replacement."""
        if individual.size not in self._subpopulations:
            return False
        return self._subpopulations[individual.size].try_insert(individual)

    def best_per_size(self) -> dict[int, HaplotypeIndividual]:
        """Best individual of every non-empty sub-population."""
        return {size: sub.best() for size, sub in sorted(self._subpopulations.items())
                if not sub.is_empty}

    def global_best(self) -> HaplotypeIndividual:
        """Best individual across all sub-populations by *normalized* fitness.

        Raw fitnesses of different sizes are not comparable, so the global
        best (used for the stagnation tests) is the individual whose
        normalized fitness within its own sub-population is maximal, with the
        raw fitness as tie-breaker.
        """
        candidates = []
        for sub in self:
            if sub.is_empty:
                continue
            best = sub.best()
            candidates.append((sub.normalized_fitness(best.fitness_value()),
                               best.fitness_value(), best))
        if not candidates:
            raise ValueError("population is empty")
        return max(candidates, key=lambda item: (item[0], item[1]))[2]

    def normalized_fitness(self, individual: HaplotypeIndividual) -> float:
        """Normalise an individual's fitness against its own sub-population."""
        sub = self.subpopulation(individual.size)
        if sub.is_empty:
            return 0.5
        return sub.normalized_fitness(individual.fitness_value())
