"""The parallel adaptive multi-population GA (the paper's contribution).

The engine implements the general scheme of the paper's Figure 5:

1. **Initialisation** — every sub-population (one per haplotype size) is
   seeded with random constraint-satisfying haplotypes and evaluated in one
   parallel batch.
2. Each generation:

   * **Selection + crossover** — a number of crossover applications are
     attempted; for each one an operator (intra- or inter-population) is drawn
     from the adaptive crossover controller, parents are chosen by tournament
     inside their sub-population(s) and the children are queued for
     evaluation.
   * **Mutation** — each child is mutated with the global mutation
     probability; the mutation operator (point / reduction / augmentation) is
     drawn from the adaptive mutation controller, and the point mutation
     queues several parallel trials of which the best survives.
   * **Parallel evaluation** — every queued candidate of the generation is
     evaluated in a single batch by the configured
     :class:`~repro.parallel.base.BatchEvaluator` (serial, multiprocessing
     master/slave, …).
   * **Replacement** — each resulting individual enters the sub-population of
     its size if it is better than the worst member and not already present.
   * **Adaptation** — each operator's rate is recomputed from the normalised
     progress its applications achieved (Hong et al. 2000).
   * **Random immigrants** — when the best has stagnated for the configured
     number of generations, below-mean individuals are replaced by fresh
     random ones (also evaluated in a batch).

3. **Termination** — the run stops when the best individual has not improved
   for a fixed number of generations (or a generation/evaluation cap is hit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..genetics.constraints import HaplotypeConstraints
from ..parallel.base import BatchEvaluator, FitnessCallable
from ..runtime.backends import DEFAULT_BACKEND, create_evaluator
from .adaptive import AdaptiveOperatorController
from .config import GAConfig
from .history import GAResult, GenerationRecord, RunHistory
from .immigrants import RandomImmigrantPolicy
from .individual import HaplotypeIndividual, random_individual
from .operators.base import OperatorApplication, SnpTuple
from .operators.crossover import InterPopulationCrossover, IntraPopulationCrossover
from .operators.mutation import AugmentationMutation, PointMutation, ReductionMutation
from .population import MultiPopulation
from .selection import select_parent_pair, tournament_selection
from .termination import TerminationCriteria, TerminationState

__all__ = ["AdaptiveMultiPopulationGA"]


@dataclass
class _ChildPlan:
    """One offspring: the crossover child and its (optional) mutation variants."""

    base_snps: SnpTuple
    same_size_parent_fitness_norm: float
    parent_fitness_norms: tuple[float, float]
    crossover_name: str
    mutation_name: str | None = None
    variant_snps: list[SnpTuple] = field(default_factory=list)
    # filled after evaluation
    base_fitness: float | None = None
    variant_fitnesses: list[float] = field(default_factory=list)


class AdaptiveMultiPopulationGA:
    """The paper's dedicated GA for haplotype discovery.

    Parameters
    ----------
    fitness:
        Callable mapping a SNP index sequence to a fitness value (typically a
        :class:`~repro.stats.evaluation.HaplotypeEvaluator`, possibly wrapped
        in a :class:`~repro.stats.cache.CachedEvaluator`).  Ignored when an
        explicit ``evaluator`` is supplied.
    n_snps:
        Size of the SNP panel (defines the search space).
    config:
        Algorithm parameters; defaults to the paper's values.
    constraints:
        Haplotype-validity constraints; defaults to unconstrained.
    evaluator:
        Optional :class:`~repro.parallel.base.BatchEvaluator` (e.g. a
        :class:`~repro.parallel.master_slave.MasterSlaveEvaluator`); when
        omitted the ``backend`` is resolved through the execution-backend
        registry (:mod:`repro.runtime.backends`) around ``fitness``.
    backend:
        Name of the execution backend to build the evaluator on when no
        explicit ``evaluator`` is given (default ``"serial"``).
    backend_options:
        Extra keyword arguments for
        :func:`repro.runtime.backends.create_evaluator` (``n_workers``,
        ``chunk_size``, ...).
    """

    def __init__(
        self,
        fitness: FitnessCallable | None = None,
        *,
        n_snps: int,
        config: GAConfig | None = None,
        constraints: HaplotypeConstraints | None = None,
        evaluator: BatchEvaluator | None = None,
        backend: str | None = None,
        backend_options: dict | None = None,
    ) -> None:
        if fitness is None and evaluator is None:
            raise ValueError("either a fitness callable or a batch evaluator is required")
        if evaluator is not None and backend is not None:
            raise ValueError("backend and an explicit evaluator are mutually exclusive")
        if n_snps < 2:
            raise ValueError("the SNP panel must contain at least two SNPs")
        self.config = config or GAConfig()
        if self.config.max_haplotype_size > n_snps:
            raise ValueError(
                f"max_haplotype_size={self.config.max_haplotype_size} exceeds the panel "
                f"size ({n_snps} SNPs)"
            )
        self.n_snps = int(n_snps)
        self.constraints = constraints or HaplotypeConstraints.unconstrained(n_snps)
        if self.constraints.n_snps != n_snps:
            raise ValueError("constraints cover a different number of SNPs than n_snps")
        self._owns_evaluator = evaluator is None
        if evaluator is None:
            evaluator = create_evaluator(
                backend or DEFAULT_BACKEND, fitness, **(backend_options or {})  # type: ignore[arg-type]
            )
        self.evaluator: BatchEvaluator = evaluator

        cfg = self.config
        self._point_mutation = PointMutation(cfg.point_mutation_trials)
        self._reduction = ReductionMutation(cfg.min_haplotype_size)
        self._augmentation = AugmentationMutation(cfg.max_haplotype_size)
        self._mutations = {self._point_mutation.name: self._point_mutation}
        if cfg.use_size_mutations:
            self._mutations[self._reduction.name] = self._reduction
            self._mutations[self._augmentation.name] = self._augmentation

        self._intra_crossover = IntraPopulationCrossover()
        self._inter_crossover = InterPopulationCrossover()
        self._crossovers = {self._intra_crossover.name: self._intra_crossover}
        if cfg.use_inter_population_crossover:
            self._crossovers[self._inter_crossover.name] = self._inter_crossover

        self.mutation_controller = AdaptiveOperatorController(
            list(self._mutations),
            global_rate=cfg.mutation_rate,
            min_rate=min(cfg.min_operator_rate, cfg.mutation_rate / (2 * len(self._mutations))),
            adaptive=cfg.use_adaptive_mutation,
        )
        self.crossover_controller = AdaptiveOperatorController(
            list(self._crossovers),
            global_rate=cfg.crossover_rate,
            min_rate=min(cfg.min_operator_rate, cfg.crossover_rate / (2 * len(self._crossovers))),
            adaptive=cfg.use_adaptive_crossover,
        )
        self.immigrant_policy = RandomImmigrantPolicy(
            cfg.random_immigrant_stagnation, enabled=cfg.use_random_immigrants
        )
        self.termination = TerminationCriteria(
            stagnation_generations=cfg.termination_stagnation,
            max_generations=cfg.max_generations,
            max_evaluations=cfg.max_evaluations,
        )

        self._n_evaluations = 0
        self.population: MultiPopulation | None = None

    # ------------------------------------------------------------------ #
    # evaluation plumbing
    # ------------------------------------------------------------------ #
    @property
    def n_evaluations(self) -> int:
        """Number of fitness evaluations performed so far."""
        return self._n_evaluations

    @property
    def n_distinct_evaluations(self) -> int:
        """Evaluations actually executed by the batch evaluator.

        The batch fast path collapses duplicate individuals within a
        generation and answers previously seen haplotypes from its cache, so
        this is at most :attr:`n_evaluations` (the number of fitness
        requests, the paper's cost metric).
        """
        return self.evaluator.stats.n_evaluations

    def _evaluate_batch(self, batch: Sequence[SnpTuple]) -> list[float]:
        if not batch:
            return []
        fitnesses = self.evaluator.evaluate_batch(list(batch))
        self._n_evaluations += len(batch)
        return fitnesses

    def close(self) -> None:
        """Release the evaluator's resources if this GA created it.

        A process-backed evaluator resolved from ``backend=`` holds worker
        processes (and, for ``process``, a shared-memory segment); the GA
        owns those and releases them here.  An evaluator supplied explicitly
        by the caller is left untouched.  Idempotent; also available as a
        context manager::

            with AdaptiveMultiPopulationGA(fitness, n_snps=n, backend="process") as ga:
                result = ga.run()
        """
        if self._owns_evaluator:
            self.evaluator.close()

    def __enter__(self) -> "AdaptiveMultiPopulationGA":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # initialisation
    # ------------------------------------------------------------------ #
    def _initialize_population(self, rng: np.random.Generator) -> MultiPopulation:
        population = MultiPopulation(self.config, self.n_snps)
        pending: list[SnpTuple] = []
        pending_sizes: list[int] = []
        for subpopulation in population:
            seen: set[SnpTuple] = set()
            attempts = 0
            while len(seen) < subpopulation.capacity and attempts < 50 * subpopulation.capacity:
                attempts += 1
                individual = random_individual(
                    subpopulation.haplotype_size, self.constraints, rng
                )
                if individual.snps not in seen:
                    seen.add(individual.snps)
            for snps in sorted(seen):
                pending.append(snps)
                pending_sizes.append(subpopulation.haplotype_size)
        fitnesses = self._evaluate_batch(pending)
        for snps, size, fitness in zip(pending, pending_sizes, fitnesses):
            population.subpopulation(size).seed(HaplotypeIndividual(snps, fitness))
        return population

    # ------------------------------------------------------------------ #
    # generation steps
    # ------------------------------------------------------------------ #
    def _eligible_crossovers(self, population: MultiPopulation) -> list[str]:
        eligible: list[str] = []
        sizes_with_pairs = [s for s in population.sizes if len(population.subpopulation(s)) >= 2]
        non_empty = [s for s in population.sizes if len(population.subpopulation(s)) >= 1]
        if sizes_with_pairs and self._intra_crossover.name in self._crossovers:
            eligible.append(self._intra_crossover.name)
        if len(non_empty) >= 2 and self._inter_crossover.name in self._crossovers:
            eligible.append(self._inter_crossover.name)
        return eligible

    def _pick_intra_parents(
        self, population: MultiPopulation, rng: np.random.Generator
    ) -> tuple[HaplotypeIndividual, HaplotypeIndividual] | None:
        sizes = [s for s in population.sizes if len(population.subpopulation(s)) >= 2]
        if not sizes:
            return None
        weights = np.asarray([len(population.subpopulation(s)) for s in sizes], dtype=np.float64)
        size = int(rng.choice(sizes, p=weights / weights.sum()))
        return select_parent_pair(
            population.subpopulation(size), rng, tournament_size=self.config.tournament_size
        )

    def _pick_inter_parents(
        self, population: MultiPopulation, rng: np.random.Generator
    ) -> tuple[HaplotypeIndividual, HaplotypeIndividual] | None:
        sizes = [s for s in population.sizes if len(population.subpopulation(s)) >= 1]
        if len(sizes) < 2:
            return None
        chosen = rng.choice(sizes, size=2, replace=False)
        parents = []
        for size in chosen:
            members = population.subpopulation(int(size)).members
            parents.append(
                tournament_selection(members, rng, tournament_size=self.config.tournament_size)
            )
        return parents[0], parents[1]

    def _plan_mutation(
        self,
        child_snps: SnpTuple,
        rng: np.random.Generator,
    ) -> tuple[str, list[SnpTuple]] | None:
        """Choose a mutation operator for a child and propose its variants."""
        child = HaplotypeIndividual(child_snps)
        applicable = [
            name for name, operator in self._mutations.items() if operator.is_applicable(child)
        ]
        if not applicable:
            return None
        name = self.mutation_controller.sample(rng, allowed=applicable)
        variants = self._mutations[name].propose(child, self.constraints, rng)
        variants = [v for v in variants if self.constraints.is_valid(v)]
        if not variants:
            return None
        return name, variants

    def _plan_generation(
        self, population: MultiPopulation, rng: np.random.Generator
    ) -> list[_ChildPlan]:
        """Selection, crossover and mutation planning for one generation."""
        plans: list[_ChildPlan] = []
        for _ in range(self.config.n_offspring):
            eligible = self._eligible_crossovers(population)
            if not eligible:
                break
            crossover_name = self.crossover_controller.sample(rng, allowed=eligible)
            operator = self._crossovers[crossover_name]
            if crossover_name == self._intra_crossover.name:
                parents = self._pick_intra_parents(population, rng)
            else:
                parents = self._pick_inter_parents(population, rng)
            if parents is None:
                continue
            parent_a, parent_b = parents
            if not operator.is_applicable(parent_a, parent_b):
                continue
            children = operator.recombine(parent_a, parent_b, self.constraints, rng)
            children = [c for c in children if self.constraints.is_valid(c)]
            if not children:
                continue
            norm_a = population.normalized_fitness(parent_a)
            norm_b = population.normalized_fitness(parent_b)
            for child_snps in children:
                child_size = len(child_snps)
                if child_size == parent_a.size:
                    same_size_norm = norm_a
                elif child_size == parent_b.size:
                    same_size_norm = norm_b
                else:  # repaired child drifted in size; compare against the closer parent
                    same_size_norm = norm_a if abs(child_size - parent_a.size) <= abs(
                        child_size - parent_b.size
                    ) else norm_b
                plan = _ChildPlan(
                    base_snps=child_snps,
                    same_size_parent_fitness_norm=same_size_norm,
                    parent_fitness_norms=(norm_a, norm_b),
                    crossover_name=crossover_name,
                )
                if rng.random() < self.config.mutation_rate:
                    mutation = self._plan_mutation(child_snps, rng)
                    if mutation is not None:
                        plan.mutation_name, plan.variant_snps = mutation
                plans.append(plan)
        return plans

    def _evaluate_plans(self, plans: list[_ChildPlan]) -> None:
        """Evaluate one planned generation as a single batch, in plan order."""
        batch: list[SnpTuple] = []
        for plan in plans:
            batch.append(plan.base_snps)
            batch.extend(plan.variant_snps)
        fitnesses = self._evaluate_batch(batch)
        cursor = 0
        for plan in plans:
            plan.base_fitness = fitnesses[cursor]
            cursor += 1
            plan.variant_fitnesses = fitnesses[cursor: cursor + len(plan.variant_snps)]
            cursor += len(plan.variant_snps)

    def _normalized(self, population: MultiPopulation, snps: SnpTuple, fitness: float) -> float:
        subpopulation = population.subpopulation(len(snps)) if len(snps) in population.sizes else None
        if subpopulation is None or subpopulation.is_empty:
            return 0.5
        return subpopulation.normalized_fitness(fitness)

    def _integrate_plans(
        self, population: MultiPopulation, plans: list[_ChildPlan]
    ) -> tuple[int, list[OperatorApplication], list[OperatorApplication]]:
        """Replacement and progress accounting for one generation's offspring."""
        n_insertions = 0
        mutation_apps: list[OperatorApplication] = []
        crossover_apps: list[OperatorApplication] = []
        for plan in plans:
            assert plan.base_fitness is not None
            base_norm = self._normalized(population, plan.base_snps, plan.base_fitness)

            # crossover progress (paper Section 4.3.2): intra-population children are
            # compared with the mean of their parents, inter-population children with
            # their same-size parent only.
            if plan.crossover_name == self._intra_crossover.name:
                reference = float(np.mean(plan.parent_fitness_norms))
            else:
                reference = plan.same_size_parent_fitness_norm
            crossover_apps.append(
                OperatorApplication(plan.crossover_name, max(base_norm - reference, 0.0))
            )

            final_snps, final_fitness = plan.base_snps, plan.base_fitness
            if plan.mutation_name is not None and plan.variant_fitnesses:
                best_index = int(np.argmax(plan.variant_fitnesses))
                best_snps = plan.variant_snps[best_index]
                best_fitness = plan.variant_fitnesses[best_index]
                mutated_norm = self._normalized(population, best_snps, best_fitness)
                mutation_apps.append(
                    OperatorApplication(plan.mutation_name, max(mutated_norm - base_norm, 0.0))
                )
                # keep the better of the un-mutated child and the best mutated variant,
                # comparing on normalised fitness because their sizes may differ
                if mutated_norm >= base_norm:
                    final_snps, final_fitness = best_snps, best_fitness

            if population.try_insert(HaplotypeIndividual(final_snps, final_fitness)):
                n_insertions += 1
            # size-changing mutations produce individuals for another sub-population;
            # also offer the un-mutated child to its own sub-population so the
            # crossover's work is not lost when the mutation migrated the individual.
            if final_snps != plan.base_snps:
                if population.try_insert(
                    HaplotypeIndividual(plan.base_snps, plan.base_fitness)
                ):
                    n_insertions += 1
        return n_insertions, mutation_apps, crossover_apps

    def _apply_random_immigrants(
        self, population: MultiPopulation, rng: np.random.Generator
    ) -> bool:
        plan = self.immigrant_policy.plan(population, self.constraints, rng)
        if plan.n_replacements == 0:
            return False
        batch: list[SnpTuple] = []
        order: list[tuple[int, int]] = []  # (size, index within that size's list)
        for size, candidates in plan.candidates.items():
            for i, snps in enumerate(candidates):
                batch.append(snps)
                order.append((size, i))
        fitnesses = self._evaluate_batch(batch)
        evaluated: dict[int, list[HaplotypeIndividual]] = {
            size: [None] * len(cands) for size, cands in plan.candidates.items()  # type: ignore[list-item]
        }
        for (size, i), snps, fitness in zip(order, batch, fitnesses):
            evaluated[size][i] = HaplotypeIndividual(snps, fitness)
        RandomImmigrantPolicy.apply(population, plan, evaluated)
        return True

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def _finish_generation(
        self,
        *,
        generation: int,
        plans: list[_ChildPlan],
        population: MultiPopulation,
        rng: np.random.Generator,
        best_fitness_per_size: dict[int, float],
        evaluations_to_best: dict[int, int],
        stagnation: int,
        history: RunHistory,
    ) -> int:
        """Everything after a generation's fitnesses arrive; returns stagnation."""
        n_insertions, mutation_apps, crossover_apps = self._integrate_plans(population, plans)

        self.mutation_controller.record_many(mutation_apps)
        self.crossover_controller.record_many(crossover_apps)
        mutation_snapshot = self.mutation_controller.end_generation()
        crossover_snapshot = self.crossover_controller.end_generation()

        # stagnation bookkeeping: progress in *any* sub-population counts
        improved = False
        for size in population.sizes:
            subpopulation = population.subpopulation(size)
            if subpopulation.is_empty:
                continue
            best = subpopulation.best().fitness_value()
            previous = best_fitness_per_size.get(size)
            if previous is None or best > previous + 1e-12:
                best_fitness_per_size[size] = best
                evaluations_to_best[size] = self._n_evaluations
                improved = True
        stagnation = 0 if improved else stagnation + 1

        immigrants_triggered = False
        if self.immigrant_policy.should_trigger(stagnation):
            immigrants_triggered = self._apply_random_immigrants(population, rng)

        history.append(
            GenerationRecord(
                generation=generation,
                n_evaluations=self._n_evaluations,
                best_fitness_per_size=dict(best_fitness_per_size),
                mean_fitness_per_size={
                    size: population.subpopulation(size).mean_fitness()
                    for size in population.sizes
                    if not population.subpopulation(size).is_empty
                },
                mutation_rates=mutation_snapshot.rates,
                crossover_rates=crossover_snapshot.rates,
                stagnation=stagnation,
                n_insertions=n_insertions,
                immigrants_triggered=immigrants_triggered,
            )
        )
        return stagnation

    def run(self, *, reset: bool = True) -> GAResult:
        """Execute the GA and return its :class:`~repro.core.history.GAResult`.

        Parameters
        ----------
        reset:
            When ``True`` (default) a fresh population is initialised and the
            evaluation counter restarts from zero.  When ``False`` and a
            population already exists (from a previous :meth:`run` call or
            after injecting migrants in the island model), the run continues
            from it.

        Each generation is planned, evaluated as one batch behind the
        paper's synchronous barrier and integrated before the next starts.
        """
        start_time = time.perf_counter()
        rng = np.random.default_rng(self.config.seed + (0 if reset else self._n_evaluations))

        if reset or self.population is None:
            self._n_evaluations = 0
            population = self._initialize_population(rng)
            self.population = population
        else:
            population = self.population
        history = RunHistory()

        best_fitness_per_size = {
            size: population.subpopulation(size).best().fitness_value()
            for size in population.sizes
            if not population.subpopulation(size).is_empty
        }
        evaluations_to_best = {size: self._n_evaluations for size in best_fitness_per_size}

        stagnation = 0
        generation = 0
        while True:
            state = TerminationState(
                generation=generation,
                stagnation=stagnation,
                n_evaluations=self._n_evaluations,
                best_fitness=max(best_fitness_per_size.values(), default=None),
            )
            termination_reason = self.termination.reason_to_stop(state)
            if termination_reason is not None:
                break

            generation += 1
            plans = self._plan_generation(population, rng)
            self._evaluate_plans(plans)
            stagnation = self._finish_generation(
                generation=generation,
                plans=plans,
                population=population,
                rng=rng,
                best_fitness_per_size=best_fitness_per_size,
                evaluations_to_best=evaluations_to_best,
                stagnation=stagnation,
                history=history,
            )

        best_per_size = population.best_per_size()
        return GAResult(
            best_per_size=best_per_size,
            evaluations_to_best={s: evaluations_to_best.get(s, self._n_evaluations)
                                 for s in best_per_size},
            n_evaluations=self._n_evaluations,
            n_generations=generation,
            termination_reason=termination_reason,
            history=history,
            config=self.config,
            elapsed_seconds=time.perf_counter() - start_time,
        )
