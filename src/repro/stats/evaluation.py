"""The haplotype evaluation pipeline of the paper (Figure 3).

Starting from a set of candidate SNPs, the pipeline

1. runs EH-DIALL independently on the affected and on the unaffected
   individuals, obtaining the estimated haplotype distribution of each group;
2. concatenates the two distributions (as expected haplotype counts) into a
   2 × 2^L contingency table;
3. runs CLUMP on that table and returns the requested statistic — by default
   T1, the statistic the paper optimises.

The resulting scalar is the GA's fitness: the higher, the more the haplotype's
distribution differs between affected and unaffected people.

The evaluator counts every call (the paper reports the *number of
evaluations* as its main cost indicator, since each evaluation is expensive)
and can be wrapped in a cache (:mod:`repro.stats.cache`) or farmed out to
worker processes (:mod:`repro.parallel`).

Performance notes
-----------------
The evaluator keeps two layers of reuse, both keyed on the sorted SNP tuple
(the caches are on by default and result-preserving; disable with
``cache_size=0`` when timing raw evaluation cost, as the speedup experiments
do):

* **expansion reuse** — one :class:`~repro.stats.em.PhaseExpansionCache` per
  group, so re-evaluating a haplotype never repeats genotype slicing,
  ``np.unique`` or phase-pair enumeration; the pooled case+control expansion
  of the LRT path is built by *concatenating* the two group expansions
  (:func:`~repro.stats.em.concat_expansions`) instead of re-expanding the
  pooled genotype matrix;
* **result reuse** — a bounded LRU of finished :class:`EHDiallResult` per
  group makes re-evaluation (elitism, duplicate offspring, the
  affected/unaffected/pooled triple of the LRT) return bit-identical results
  without re-running the EM.

Every EM starts from the uniform distribution, as in the seed pipeline, so
a fitness is a pure function of the haplotype: neither the cache contents
nor the request history can change it.  ``n_evaluations`` still counts every
fitness request, preserving the paper's cost metric; ``n_em_runs`` counts how
many EM fits were actually performed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..genetics.alleles import all_haplotype_labels
from ..lru import LRUCache
from ..genetics.dataset import GenotypeDataset
from .clump import ClumpResult, clump_statistics, monte_carlo_p_values
from .contingency import ContingencyTable
from .ehdiall import EHDiallResult, ehdiall_batch, ehdiall_from_expansion
from .em import (
    STACK_MAX_PAIRS_PER_PROBLEM,
    STACK_MAX_TOTAL_PAIRS,
    PhaseExpansion,
    PhaseExpansionCache,
    concat_expansions,
    expand_phases,
    expand_phases_packed,
)

__all__ = ["EvaluationRecord", "HaplotypeEvaluator", "FitnessFunction"]

#: Names of the fitness criteria: the four CLUMP statistics the paper uses,
#: plus the case/control haplotype-frequency likelihood-ratio test ("lrt"),
#: included as the alternative objective function the paper's conclusion
#: announces ("different objective functions are going to be used in order to
#: compare them").
_VALID_STATISTICS = ("t1", "t2", "t3", "t4", "lrt")

#: Group keys of the three EH-DIALL runs an evaluation can need.
_GROUPS = ("affected", "unaffected", "pooled")


@dataclass(frozen=True)
class EvaluationRecord:
    """Full trace of one haplotype evaluation.

    Attributes
    ----------
    snps:
        The evaluated SNP indices (sorted).
    fitness:
        The scalar fitness (value of the selected CLUMP statistic).
    clump:
        All four CLUMP statistics, each computed when first read.
    table:
        The 2 × 2^L contingency table fed to CLUMP.
    affected, unaffected:
        The EH-DIALL results for each group.
    elapsed_seconds:
        Wall-clock time of the evaluation.
    """

    snps: tuple[int, ...]
    fitness: float
    clump: ClumpResult
    table: ContingencyTable
    affected: EHDiallResult
    unaffected: EHDiallResult
    elapsed_seconds: float

    @property
    def size(self) -> int:
        return len(self.snps)


class HaplotypeEvaluator:
    """Evaluate candidate haplotypes against a case/control dataset.

    Parameters
    ----------
    dataset:
        Case/control genotypes.  Individuals with unknown status are ignored.
    statistic:
        Which CLUMP statistic to return as the fitness (default ``"t1"``).
    em_max_iter, em_tol:
        EM control parameters forwarded to EH-DIALL.
    clump_min_expected:
        Pooling threshold for the T2 statistic.
    cache_size:
        Bound on the per-group expansion and EH-DIALL-result LRU caches
        (``0`` disables them, ``None`` means unbounded).  Default 256.
        The caches change only the cost of an evaluation, never its value:
        every EM starts from the uniform distribution.

    Notes
    -----
    The evaluator is picklable, so it can be shipped once to each worker
    process of the parallel master/slave evaluator (internal caches are
    dropped on pickling and rebuilt per process).
    """

    def __init__(
        self,
        dataset: GenotypeDataset,
        *,
        statistic: str = "t1",
        em_max_iter: int = 200,
        em_tol: float = 1e-8,
        clump_min_expected: float = 5.0,
        cache_size: int | None = 256,
    ) -> None:
        statistic = statistic.lower()
        if statistic not in _VALID_STATISTICS:
            raise ValueError(f"statistic must be one of {_VALID_STATISTICS}")
        if dataset.n_affected == 0 or dataset.n_unaffected == 0:
            raise ValueError("the dataset must contain both affected and unaffected individuals")
        if cache_size is not None and cache_size < 0:
            raise ValueError("cache_size must be non-negative or None")
        self._dataset = dataset
        self._affected = dataset.affected()
        self._unaffected = dataset.unaffected()
        self._statistic = statistic
        self._em_max_iter = int(em_max_iter)
        self._em_tol = float(em_tol)
        self._clump_min_expected = float(clump_min_expected)
        self._cache_size = cache_size
        self._n_evaluations = 0
        self._n_em_runs = 0
        self._n_stacked_em = 0
        self._n_stacked_problems = 0
        self._build_caches()

    def _build_caches(self) -> None:
        size = self._cache_size
        enabled = size is None or size > 0
        self._expansion_caches: dict[str, PhaseExpansionCache] | None = None
        if enabled:
            # packed-aware group panels: when a group dataset carries a 2-bit
            # panel, cache misses count classes straight from packed columns
            # (expand_phases_packed) instead of slicing the byte matrix
            self._expansion_caches = {
                "affected": PhaseExpansionCache(
                    self._affected.packed
                    if self._affected.packed is not None
                    else self._affected.genotypes,
                    max_size=size,
                ),
                "unaffected": PhaseExpansionCache(
                    self._unaffected.packed
                    if self._unaffected.packed is not None
                    else self._unaffected.genotypes,
                    max_size=size,
                ),
            }
        self._result_caches: dict[str, LRUCache] | None = (
            {group: LRUCache(size) for group in _GROUPS} if enabled else None
        )

    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> GenotypeDataset:
        return self._dataset

    @property
    def statistic(self) -> str:
        """Name of the CLUMP statistic used as fitness."""
        return self._statistic

    @property
    def em_max_iter(self) -> int:
        return self._em_max_iter

    @property
    def em_tol(self) -> float:
        return self._em_tol

    @property
    def clump_min_expected(self) -> float:
        return self._clump_min_expected

    @property
    def cache_size(self) -> int | None:
        """Bound of the per-group reuse caches (see the constructor)."""
        return self._cache_size

    @property
    def n_snps(self) -> int:
        return self._dataset.n_snps

    @property
    def n_evaluations(self) -> int:
        """Number of fitness evaluations performed by this evaluator instance."""
        return self._n_evaluations

    @property
    def n_em_runs(self) -> int:
        """Number of EH-DIALL EM fits actually performed (cache misses)."""
        return self._n_em_runs

    @property
    def n_stacked_em(self) -> int:
        """Number of multi-problem stacked EM kernel calls performed."""
        return self._n_stacked_em

    @property
    def n_stacked_problems(self) -> int:
        """Total EM problems answered by stacked kernel calls.

        ``n_stacked_problems / n_stacked_em`` is the mean stacked batch
        occupancy — the quantity the generation-batched kernel exists to
        maximise.
        """
        return self._n_stacked_problems

    def reset_counter(self) -> None:
        """Reset the evaluation counter to zero."""
        self._n_evaluations = 0
        self._n_em_runs = 0
        self._n_stacked_em = 0
        self._n_stacked_problems = 0

    def clear_caches(self) -> None:
        """Drop every internal reuse cache (expansions and results)."""
        self._build_caches()

    # ------------------------------------------------------------------ #
    def _validate_snps(self, snps: Sequence[int] | np.ndarray) -> tuple[int, ...]:
        snps = tuple(int(s) for s in snps)
        if len(snps) == 0:
            raise ValueError("a haplotype must contain at least one SNP")
        if len(set(snps)) != len(snps):
            raise ValueError(f"duplicate SNPs in haplotype {snps}")
        if min(snps) < 0 or max(snps) >= self.n_snps:
            raise ValueError(f"SNP index out of range [0, {self.n_snps}) in {snps}")
        return tuple(sorted(snps))

    # ------------------------------------------------------------------ #
    # EH-DIALL plumbing: cached expansions, cached results
    # ------------------------------------------------------------------ #
    def _group_expansion(self, group: str, snps: tuple[int, ...]) -> PhaseExpansion:
        if self._expansion_caches is not None:
            # snps is the normalised sorted tuple from _validate_snps; the
            # cache can use it as-is instead of re-sorting per lookup
            return self._expansion_caches[group].get(snps, presorted=True)
        source = self._affected if group == "affected" else self._unaffected
        if source.packed is not None:
            return expand_phases_packed(source.packed, np.asarray(snps, dtype=np.intp))
        return expand_phases(source.genotypes_at(np.asarray(snps, dtype=np.intp)))

    def _remember(self, group: str, snps: tuple[int, ...], result: EHDiallResult) -> None:
        if self._result_caches is not None:
            self._result_caches[group].put(snps, result)

    def _group_ehdiall(self, group: str, snps: tuple[int, ...]) -> EHDiallResult:
        """EH-DIALL for one of the two status groups, with full reuse."""
        if self._result_caches is not None:
            cached = self._result_caches[group].get(snps)
            if cached is not None:
                return cached
        result = ehdiall_from_expansion(
            self._group_expansion(group, snps),
            max_iter=self._em_max_iter,
            tol=self._em_tol,
        )
        self._n_em_runs += 1
        self._remember(group, snps, result)
        return result

    def _pooled_ehdiall(self, snps: tuple[int, ...]) -> EHDiallResult:
        """Pooled case+control EH-DIALL built from the group expansions."""
        if self._result_caches is not None:
            cached = self._result_caches["pooled"].get(snps)
            if cached is not None:
                return cached
        expansion = concat_expansions(
            self._group_expansion("affected", snps),
            self._group_expansion("unaffected", snps),
        )
        result = ehdiall_from_expansion(
            expansion, max_iter=self._em_max_iter, tol=self._em_tol
        )
        self._n_em_runs += 1
        self._remember("pooled", snps, result)
        return result

    # ------------------------------------------------------------------ #
    def build_table(self, snps: Sequence[int] | np.ndarray) -> ContingencyTable:
        """Build the CLUMP input table for a haplotype without computing the fitness."""
        snps = self._validate_snps(snps)
        affected = self._group_ehdiall("affected", snps)
        unaffected = self._group_ehdiall("unaffected", snps)
        return self._table_from_results(snps, affected, unaffected)

    @staticmethod
    def _table_from_results(
        snps: tuple[int, ...], affected: EHDiallResult, unaffected: EHDiallResult
    ) -> ContingencyTable:
        labels = all_haplotype_labels(len(snps))
        return ContingencyTable.from_rows(
            affected.expected_haplotype_counts(),
            unaffected.expected_haplotype_counts(),
            column_labels=labels,
        )

    def case_control_lrt(self, snps: Sequence[int] | np.ndarray) -> float:
        """Likelihood-ratio chi-square for a case/control haplotype-frequency difference.

        Fits the haplotype-frequency EM separately in the affected and
        unaffected groups and once on the pooled sample, and returns
        ``2 * (llik_affected + llik_unaffected - llik_pooled)``.  This is the
        alternative objective function announced in the paper's conclusion; it
        is available both as a standalone diagnostic and as the fitness when
        the evaluator is built with ``statistic="lrt"``.

        The pooled fit reuses the group expansions (concatenated class
        tables) and, like the group fits, starts from the uniform
        distribution.
        """
        snps = self._validate_snps(snps)
        affected = self._group_ehdiall("affected", snps)
        unaffected = self._group_ehdiall("unaffected", snps)
        return self._lrt_from_results(snps, affected, unaffected)

    def _lrt_from_results(
        self, snps: tuple[int, ...], affected: EHDiallResult, unaffected: EHDiallResult
    ) -> float:
        pooled = self._pooled_ehdiall(snps)
        statistic = 2.0 * (
            affected.h1_log_likelihood
            + unaffected.h1_log_likelihood
            - pooled.h1_log_likelihood
        )
        return float(max(statistic, 0.0))

    # ------------------------------------------------------------------ #
    def evaluate_detailed(self, snps: Sequence[int] | np.ndarray) -> EvaluationRecord:
        """Run the full Figure-3 pipeline and return every intermediate result."""
        start = time.perf_counter()
        snps = self._validate_snps(snps)
        affected = self._group_ehdiall("affected", snps)
        unaffected = self._group_ehdiall("unaffected", snps)
        table = self._table_from_results(snps, affected, unaffected)
        clump = clump_statistics(table, min_expected=self._clump_min_expected)
        if self._statistic == "lrt":
            fitness = self._lrt_from_results(snps, affected, unaffected)
        else:
            fitness = clump.statistic(self._statistic)
        elapsed = time.perf_counter() - start
        self._n_evaluations += 1
        return EvaluationRecord(
            snps=snps,
            fitness=fitness,
            clump=clump,
            table=table,
            affected=affected,
            unaffected=unaffected,
            elapsed_seconds=elapsed,
        )

    def evaluate(self, snps: Sequence[int] | np.ndarray) -> float:
        """Scalar fitness of a haplotype (the selected CLUMP statistic)."""
        return self.evaluate_detailed(snps).fitness

    def __call__(self, snps: Sequence[int] | np.ndarray) -> float:
        return self.evaluate(snps)

    # ------------------------------------------------------------------ #
    # generation-batched evaluation: one stacked EM kernel call per wave
    # ------------------------------------------------------------------ #
    def _run_problem_wave(
        self,
        wave: list[tuple[str, int, tuple[int, ...]]],
        resolved: dict[tuple[str, int], EHDiallResult],
    ) -> None:
        """Fit the EM problems of one wave, stacking the dispatch-bound ones.

        ``wave`` holds ``(group, slot, key)`` problems; every EM starts from
        the uniform distribution, so group and pooled problems of a batch
        share one wave.  Problems small enough to be dispatch-bound are packed
        into stacked kernel calls (split at :data:`STACK_MAX_TOTAL_PAIRS`
        summed pairs); larger ones run the scalar kernel, which is
        compute-bound and gains nothing from stacking.  Either path produces
        bit-identical results — the split is purely a throughput decision.
        """
        expansions: list[PhaseExpansion] = []
        for group, _slot, key in wave:
            if group == "pooled":
                expansion = concat_expansions(
                    self._group_expansion("affected", key),
                    self._group_expansion("unaffected", key),
                )
            else:
                expansion = self._group_expansion(group, key)
            expansions.append(expansion)

        # partition into stacked chunks and scalar stragglers
        stack: list[int] = []
        stack_pairs = 0
        chunks: list[list[int]] = []
        scalars: list[int] = []
        for index in range(len(wave)):
            n_pairs = expansions[index].n_pairs
            if n_pairs > STACK_MAX_PAIRS_PER_PROBLEM:
                scalars.append(index)
                continue
            if stack and stack_pairs + n_pairs > STACK_MAX_TOTAL_PAIRS:
                chunks.append(stack)
                stack, stack_pairs = [], 0
            stack.append(index)
            stack_pairs += n_pairs
        if stack:
            chunks.append(stack)

        for chunk in chunks:
            if len(chunk) == 1:
                scalars.append(chunk[0])
                continue
            batch_results = ehdiall_batch(
                [expansions[i] for i in chunk],
                max_iter=self._em_max_iter,
                tol=self._em_tol,
            )
            self._n_em_runs += len(chunk)
            self._n_stacked_em += 1
            self._n_stacked_problems += len(chunk)
            for index, result in zip(chunk, batch_results):
                group, slot, key = wave[index]
                resolved[(group, slot)] = result
                self._remember(group, key, result)
        for index in scalars:
            group, slot, key = wave[index]
            result = ehdiall_from_expansion(
                expansions[index], max_iter=self._em_max_iter, tol=self._em_tol
            )
            self._n_em_runs += 1
            resolved[(group, slot)] = result
            self._remember(group, key, result)

    def evaluate_many(
        self, batch: Sequence[Sequence[int] | np.ndarray]
    ) -> list[float]:
        """Fitnesses of a whole batch of haplotypes through the stacked EM kernel.

        Semantically identical to ``[self.evaluate(snps) for snps in batch]``
        — same per-candidate results (bit-identical: the stacked kernel
        reproduces the scalar kernel's arithmetic exactly, so the batch
        composition never changes a value), same cache population, same
        ``n_evaluations``/``n_em_runs`` accounting — but the EM fits of the
        whole batch are packed into a handful of stacked kernel calls instead
        of one Python-level EM loop per candidate, which is the difference
        between dispatch-bound and compute-bound below ~1k phase pairs.

        With reuse caches enabled, duplicate candidates within the batch are
        fitted once (they would have been answered by the result cache in the
        sequential loop anyway); with caches disabled (``cache_size=0``) each
        request is fitted independently, exactly like the sequential loop.
        """
        keys = [self._validate_snps(snps) for snps in batch]
        if not keys:
            return []
        caches_enabled = self._result_caches is not None
        # one evaluation slot per distinct candidate (per request when the
        # reuse caches are off, mirroring the sequential loop's re-fits)
        if caches_enabled:
            slot_keys = list(dict.fromkeys(keys))
            slot_of = {key: slot for slot, key in enumerate(slot_keys)}
        else:
            slot_keys = list(keys)
            slot_of = None
        need_pooled = self._statistic == "lrt"

        problems = [
            (group, slot, key)
            for slot, key in enumerate(slot_keys)
            for group in ("affected", "unaffected")
        ]
        if need_pooled:
            # every EM starts uniform, so the pooled problems need no group
            # result and join the group problems in one stacked wave
            problems += [("pooled", slot, key) for slot, key in enumerate(slot_keys)]
        resolved: dict[tuple[str, int], EHDiallResult] = {}
        wave: list[tuple[str, int, tuple[int, ...]]] = []
        for group, slot, key in problems:
            cached = self._result_caches[group].get(key) if caches_enabled else None
            if cached is not None:
                resolved[(group, slot)] = cached
            else:
                wave.append((group, slot, key))
        if wave:
            self._run_problem_wave(wave, resolved)

        fitnesses: list[float] = []
        slot_fitness: dict[int, float] = {}
        for position, key in enumerate(keys):
            slot = slot_of[key] if slot_of is not None else position
            if slot in slot_fitness:
                fitnesses.append(slot_fitness[slot])
                continue
            affected = resolved[("affected", slot)]
            unaffected = resolved[("unaffected", slot)]
            if need_pooled:
                pooled = resolved[("pooled", slot)]
                statistic = 2.0 * (
                    affected.h1_log_likelihood
                    + unaffected.h1_log_likelihood
                    - pooled.h1_log_likelihood
                )
                fitness = float(max(statistic, 0.0))
            else:
                # the fitness reads one statistic of an unlabelled table;
                # labels are for the tables a person reads
                table = ContingencyTable.from_rows(
                    affected.expected_haplotype_counts(),
                    unaffected.expected_haplotype_counts(),
                )
                clump = clump_statistics(table, min_expected=self._clump_min_expected)
                fitness = float(clump.statistic(self._statistic))
            slot_fitness[slot] = fitness
            fitnesses.append(fitness)
        self._n_evaluations += len(keys)
        return fitnesses

    # ------------------------------------------------------------------ #
    def significance(
        self,
        snps: Sequence[int] | np.ndarray,
        *,
        n_simulations: int = 1000,
        seed: int | None = 0,
    ) -> dict[str, float]:
        """Monte-Carlo p-values of the haplotype's CLUMP statistics.

        The GA only needs the raw statistic, but biologists interpreting a
        reported haplotype need its empirical significance, which the original
        CLUMP program obtains by simulation.
        """
        table = self.build_table(snps)
        return monte_carlo_p_values(table, n_simulations=n_simulations,
                                    min_expected=self._clump_min_expected, seed=seed)

    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # drop the (potentially large) reuse caches: each worker process
        # rebuilds its own, and the pickled payload stays small
        state = self.__dict__.copy()
        state["_expansion_caches"] = None
        state["_result_caches"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_caches()


#: Type alias for anything usable as a fitness function by the GA and the
#: baselines: a callable mapping a SNP index sequence to a float.
FitnessFunction = HaplotypeEvaluator
