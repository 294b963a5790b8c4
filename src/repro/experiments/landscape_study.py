"""Section 3 — study of the structure of the problem (landscape analysis).

The paper enumerates every haplotype of sizes 2-4 on the 51-SNP dataset and
draws two conclusions that shape the algorithm:

1. very good haplotypes of size ``k`` are *not* always composed of good
   haplotypes of size ``k-1`` (constructive methods would miss them), and
2. the fitness scale grows with the haplotype size, so haplotypes of different
   sizes cannot be ranked together (classical enumeration would just drift to
   the largest size).

Exhaustively enumerating size-4 haplotypes over the full 51-SNP panel costs
about 250 000 EH-DIALL + CLUMP evaluations; to keep the study affordable it
runs, by default, on a reduced panel that always contains the planted causal
SNPs (the interesting structure) plus padding SNPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..genetics.simulate import SimulatedStudy
from ..search.exhaustive import ScoredHaplotype
from ..search.landscape import (
    BuildingBlockReport,
    SizeFitnessSummary,
    building_block_analysis,
    fitness_scale_by_size,
    greedy_constructive_search,
)
from ..stats.cache import CachedEvaluator
from ..stats.evaluation import HaplotypeEvaluator
from .datasets import DEFAULT_SEED, lille51, reduced_snp_panel
from .reporting import format_table

__all__ = ["LandscapeStudyResult", "run_landscape_study"]


@dataclass(frozen=True)
class LandscapeStudyResult:
    """Outcome of the Section-3 landscape study.

    Attributes
    ----------
    panel:
        The SNP indices the study enumerated over.
    scale_by_size:
        Fitness-distribution summary per haplotype size (finding 2).
    building_blocks:
        Building-block containment report per size (finding 1).
    greedy_results:
        Result of the greedy constructive method per target size.
    exhaustive_best:
        Exhaustive optimum per size (what greedy is compared against).
    n_evaluations:
        Number of distinct haplotype evaluations the study needed.
    """

    panel: tuple[int, ...]
    scale_by_size: dict[int, SizeFitnessSummary]
    building_blocks: dict[int, BuildingBlockReport]
    greedy_results: dict[int, ScoredHaplotype]
    exhaustive_best: dict[int, ScoredHaplotype]
    n_evaluations: int

    def greedy_gap(self, size: int) -> float:
        """Fitness gap between the exhaustive optimum and the greedy construction."""
        return self.exhaustive_best[size].fitness - self.greedy_results[size].fitness

    def format(self) -> str:
        scale_headers = ["Size", "# haplotypes", "min", "mean", "max", "std"]
        scale_rows = [
            [s.size, s.n_haplotypes, s.min_fitness, s.mean_fitness, s.max_fitness, s.std_fitness]
            for s in self.scale_by_size.values()
        ]
        parts = [
            format_table(scale_headers, scale_rows,
                         title="Fitness scale by haplotype size (reduced panel)"),
        ]
        bb_headers = ["Size", "top-k", "fraction containing a top size-(k-1)"]
        bb_rows = [
            [r.size, r.top_k, r.containment_fraction] for r in self.building_blocks.values()
        ]
        parts.append(format_table(bb_headers, bb_rows, title="Building-block containment"))
        greedy_headers = ["Size", "greedy fitness", "exhaustive best", "gap"]
        greedy_rows = [
            [size, self.greedy_results[size].fitness, self.exhaustive_best[size].fitness,
             self.greedy_gap(size)]
            for size in sorted(self.greedy_results)
        ]
        parts.append(format_table(greedy_headers, greedy_rows,
                                  title="Greedy constructive method vs exhaustive optimum"))
        parts.append(f"distinct evaluations used: {self.n_evaluations}")
        return "\n\n".join(parts)


def run_landscape_study(
    *,
    study: SimulatedStudy | None = None,
    panel: Sequence[int] | None = None,
    panel_size: int = 16,
    sizes: Sequence[int] = (2, 3, 4),
    top_k: int = 10,
    seed: int = DEFAULT_SEED,
) -> LandscapeStudyResult:
    """Run the landscape study on a (reduced) SNP panel.

    Parameters
    ----------
    study:
        Dataset (default: the canonical lille-like study).
    panel:
        Explicit SNP indices to study; default: :func:`reduced_snp_panel`
        of ``panel_size`` SNPs around the planted haplotype.
    sizes:
        Haplotype sizes to enumerate (the paper used 2-4).
    top_k:
        Number of top haplotypes per size used in the building-block analysis.
    """
    study = study or lille51(seed)
    if panel is None:
        panel = reduced_snp_panel(seed, n_snps=panel_size)
    panel = tuple(sorted({int(s) for s in panel}))
    sizes = tuple(sorted(int(s) for s in sizes))
    if min(sizes) < 1:
        raise ValueError("sizes must be positive")
    evaluator = CachedEvaluator(HaplotypeEvaluator(study.dataset))
    n_snps = study.dataset.n_snps

    scale = fitness_scale_by_size(evaluator, n_snps, sizes, snp_subset=panel)
    building_blocks = {
        size: building_block_analysis(
            evaluator, n_snps, size, top_k=top_k, snp_subset=panel
        )
        for size in sizes
        if size >= 2
    }
    greedy_results: dict[int, ScoredHaplotype] = {}
    exhaustive_best: dict[int, ScoredHaplotype] = {}
    for size in sizes:
        if size < 2:
            continue
        greedy_results[size] = greedy_constructive_search(
            evaluator, n_snps, size, snp_subset=panel, seed_size=min(2, size)
        )
        # the exhaustive optimum per size is already known from the scale sweep,
        # but recompute through the cache for clarity (cache hits, no extra cost)
        best: ScoredHaplotype | None = None
        from ..search.exhaustive import enumerate_haplotypes

        for combo in enumerate_haplotypes(n_snps, size, snp_subset=panel):
            scored = ScoredHaplotype(snps=combo, fitness=float(evaluator(combo)))
            if best is None or scored.fitness > best.fitness:
                best = scored
        assert best is not None
        exhaustive_best[size] = best

    return LandscapeStudyResult(
        panel=panel,
        scale_by_size=scale,
        building_blocks=building_blocks,
        greedy_results=greedy_results,
        exhaustive_best=exhaustive_best,
        n_evaluations=evaluator.n_distinct_evaluations,
    )
