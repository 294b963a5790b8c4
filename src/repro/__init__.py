"""repro — reproduction of "A Parallel Adaptive GA for Linkage Disequilibrium in Genomics".

The package reimplements, in pure Python/NumPy, the complete system described
by Vermeulen-Jourdan, Dhaenens and Talbi (IPDPS 2004): the case/control
genomics substrate, the EH-DIALL + CLUMP evaluation pipeline, the parallel
master/slave evaluation farm, and — on top of them — the paper's adaptive
multi-population genetic algorithm, together with the baselines, landscape
analysis and experiment harnesses needed to regenerate every table and figure
of the paper's evaluation section.

Quickstart
----------
>>> from repro import lille_like_study, HaplotypeEvaluator, AdaptiveMultiPopulationGA, GAConfig
>>> study = lille_like_study(seed=1)
>>> evaluator = HaplotypeEvaluator(study.dataset)
>>> ga = AdaptiveMultiPopulationGA(
...     evaluator, n_snps=study.dataset.n_snps,
...     config=GAConfig(population_size=40, max_haplotype_size=4,
...                     termination_stagnation=5, max_generations=10),
... )
>>> result = ga.run()
>>> sorted(result.best_per_size)  # one best haplotype per size
[2, 3, 4]
"""

from .core import AdaptiveMultiPopulationGA, GAConfig, GAResult, HaplotypeIndividual
from .genetics import (
    DiseaseModel,
    GenotypeDataset,
    HaplotypeConstraints,
    PopulationModel,
    SimulatedStudy,
    build_constraints,
    large_study_249,
    lille_like_study,
    simulate_case_control_study,
)
from .parallel import (
    EvaluationCostModel,
    MasterSlaveEvaluator,
    SerialEvaluator,
    SimulatedPVM,
)
from .runtime import EvaluatorSpec, backend_names, create_evaluator
from .runtime.service import RunRequest, RunResult, RunScheduler
from .scan import ScanReport, plan_scan, run_scan
from .stats import (
    CachedEvaluator,
    ClumpResult,
    ContingencyTable,
    EvaluationRecord,
    HaplotypeEvaluator,
    clump_statistics,
    estimate_haplotype_frequencies,
    run_ehdiall,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "AdaptiveMultiPopulationGA",
    "GAConfig",
    "GAResult",
    "HaplotypeIndividual",
    # genetics
    "GenotypeDataset",
    "HaplotypeConstraints",
    "build_constraints",
    "PopulationModel",
    "DiseaseModel",
    "SimulatedStudy",
    "simulate_case_control_study",
    "lille_like_study",
    "large_study_249",
    # stats
    "HaplotypeEvaluator",
    "CachedEvaluator",
    "EvaluationRecord",
    "ContingencyTable",
    "ClumpResult",
    "clump_statistics",
    "run_ehdiall",
    "estimate_haplotype_frequencies",
    # parallel
    "SerialEvaluator",
    "MasterSlaveEvaluator",
    "SimulatedPVM",
    "EvaluationCostModel",
    # runtime
    "EvaluatorSpec",
    "backend_names",
    "create_evaluator",
    "RunRequest",
    "RunResult",
    "RunScheduler",
    # scan
    "plan_scan",
    "run_scan",
    "ScanReport",
]
