"""Exhaustive enumeration of haplotypes of a given size.

The paper enumerates all haplotypes of sizes 2-4 on the 51-SNP dataset to
study the structure of the problem (Section 3) and to know the exact optima
against which the GA's results are compared (the "Dev." column of Table 2).
Enumeration is only feasible for small sizes — which is precisely Table 1's
point — so :func:`enumerate_best` also accepts a restriction to a subset of
SNPs for landscape studies on reduced panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from ..genetics.constraints import HaplotypeConstraints
from ..parallel.base import FitnessCallable

__all__ = ["ScoredHaplotype", "enumerate_haplotypes", "evaluate_all", "enumerate_best"]


@dataclass(frozen=True)
class ScoredHaplotype:
    """A haplotype together with its fitness."""

    snps: tuple[int, ...]
    fitness: float

    @property
    def size(self) -> int:
        return len(self.snps)


def enumerate_haplotypes(
    n_snps: int,
    size: int,
    *,
    constraints: HaplotypeConstraints | None = None,
    snp_subset: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every (constraint-satisfying) haplotype of the given size.

    Parameters
    ----------
    n_snps:
        Panel size.
    size:
        Haplotype size to enumerate.
    constraints:
        Optional validity constraints; infeasible combinations are skipped.
    snp_subset:
        Optional subset of SNP indices to enumerate within (landscape studies
        on reduced panels).
    """
    if size < 1:
        raise ValueError("size must be positive")
    pool: Iterable[int] = range(n_snps) if snp_subset is None else sorted(
        {int(s) for s in snp_subset}
    )
    pool = [s for s in pool if 0 <= s < n_snps]
    for combo in combinations(pool, size):
        if constraints is None or constraints.is_valid(combo):
            yield combo


def evaluate_all(
    fitness: FitnessCallable,
    n_snps: int,
    size: int,
    *,
    constraints: HaplotypeConstraints | None = None,
    snp_subset: Sequence[int] | None = None,
) -> list[ScoredHaplotype]:
    """Evaluate every haplotype of the given size and return them all, scored."""
    return [
        ScoredHaplotype(snps=combo, fitness=float(fitness(combo)))
        for combo in enumerate_haplotypes(
            n_snps, size, constraints=constraints, snp_subset=snp_subset
        )
    ]


def enumerate_best(
    fitness: FitnessCallable,
    n_snps: int,
    size: int,
    *,
    constraints: HaplotypeConstraints | None = None,
    snp_subset: Sequence[int] | None = None,
    top_k: int = 1,
) -> list[ScoredHaplotype]:
    """The ``top_k`` best haplotypes of the given size, by exhaustive search.

    Unlike :func:`evaluate_all` this keeps only the current top-``k`` in
    memory, so it can sweep large slices without storing every score.
    """
    if top_k < 1:
        raise ValueError("top_k must be positive")
    best: list[ScoredHaplotype] = []
    for combo in enumerate_haplotypes(
        n_snps, size, constraints=constraints, snp_subset=snp_subset
    ):
        scored = ScoredHaplotype(snps=combo, fitness=float(fitness(combo)))
        if len(best) < top_k:
            best.append(scored)
            best.sort(key=lambda s: s.fitness, reverse=True)
        elif scored.fitness > best[-1].fitness:
            best[-1] = scored
            best.sort(key=lambda s: s.fitness, reverse=True)
    return best
