"""The GA's individual: a candidate haplotype.

Section 4.1 of the paper: "An haplotype is a structure composed of an integer
indicating the size of the haplotype, a table with the SNPs ordered in the
ascending order without repetition, and a real to store the value of the
individual."  :class:`HaplotypeIndividual` is exactly that structure, kept
immutable so individuals can be shared between populations, used as dictionary
keys (duplicate detection at replacement time) and shipped to worker
processes without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..genetics.constraints import HaplotypeConstraints

__all__ = ["HaplotypeIndividual", "random_individual"]


@dataclass(frozen=True, order=False)
class HaplotypeIndividual:
    """An immutable candidate haplotype.

    Attributes
    ----------
    snps:
        SNP indices in strictly ascending order (no repetition).
    fitness:
        Cached fitness value, or ``None`` while not yet evaluated.
    """

    snps: tuple[int, ...]
    fitness: float | None = None

    def __post_init__(self) -> None:
        snps = tuple(int(s) for s in self.snps)
        if len(snps) == 0:
            raise ValueError("a haplotype must contain at least one SNP")
        if any(s < 0 for s in snps):
            raise ValueError(f"SNP indices must be non-negative: {snps}")
        if len(set(snps)) != len(snps):
            raise ValueError(f"SNP indices must not repeat: {snps}")
        if tuple(sorted(snps)) != snps:
            snps = tuple(sorted(snps))
        object.__setattr__(self, "snps", snps)
        if self.fitness is not None:
            object.__setattr__(self, "fitness", float(self.fitness))

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of SNPs in the haplotype (the sub-population it belongs to)."""
        return len(self.snps)

    @property
    def is_evaluated(self) -> bool:
        return self.fitness is not None

    def fitness_value(self) -> float:
        """The fitness, raising if the individual has not been evaluated yet."""
        if self.fitness is None:
            raise ValueError(f"individual {self.snps} has not been evaluated")
        return self.fitness

    def with_fitness(self, fitness: float) -> "HaplotypeIndividual":
        """Copy of this individual carrying the given fitness."""
        return replace(self, fitness=float(fitness))

    def without_fitness(self) -> "HaplotypeIndividual":
        """Copy of this individual with the cached fitness cleared."""
        return replace(self, fitness=None)

    # ------------------------------------------------------------------ #
    def contains(self, snp: int) -> bool:
        return int(snp) in self.snps

    def same_snps(self, other: "HaplotypeIndividual") -> bool:
        """Whether two individuals denote the same haplotype (fitness ignored)."""
        return self.snps == other.snps

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fit = "unevaluated" if self.fitness is None else f"{self.fitness:.3f}"
        return f"<{' '.join(map(str, self.snps))} | {fit}>"


def random_individual(
    size: int,
    constraints: HaplotypeConstraints,
    rng: np.random.Generator,
    *,
    max_attempts: int = 200,
) -> HaplotypeIndividual:
    """Draw a random constraint-satisfying haplotype of the requested size.

    SNPs are added one at a time, each drawn uniformly from the SNPs still
    compatible with the partial haplotype; if the constraints paint the
    construction into a corner the draw is restarted, up to ``max_attempts``
    times (an error is raised after that, which signals that the constraint
    thresholds leave no feasible haplotype of this size).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if size > constraints.n_snps:
        raise ValueError(
            f"cannot build a haplotype of {size} SNPs from a panel of {constraints.n_snps}"
        )
    for _ in range(max_attempts):
        chosen: list[int] = []
        for _ in range(size):
            candidates = constraints.compatible_snps(chosen)
            if candidates.size == 0:
                break
            chosen.append(int(rng.choice(candidates)))
        if len(chosen) == size:
            return HaplotypeIndividual(tuple(sorted(chosen)))
    raise RuntimeError(
        f"could not draw a feasible haplotype of size {size} in {max_attempts} attempts; "
        "the constraints may be too strict"
    )
