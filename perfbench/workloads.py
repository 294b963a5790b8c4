"""The benchmark's two workloads: inputs, settings, serial references.

Each workload runs on one fixed panel (the repo's canonical datasets, and a
cohort simulated with the same dataset seed), so seeds do not change the
allele spectrum and with it the cost of every evaluation; the workload seed
drives the GA runs and the served request stream.

* ``run51`` — the paper-scale single-region run: the 106 x 51 ``lille51`` study,
  the paper's GA (150 individuals, haplotypes of 2-6 SNPs) capped at a fixed
  number of generations, on ``process-shm`` with 2 workers, five runs from
  consecutive seeds per repetition: with fewer trajectories per seed, the
  seed's mix of haplotype sizes, which sets the cost of a generation batch,
  moves the median gap.  Kernel-bound: every generation sends ~200 distinct
  haplotypes to the farm in one dispatch.
* ``served_cohort`` — ``repro serve`` on a simulated 1000-individual PLINK
  cohort (packed, ``process-shm`` x 2, journal on), driven closed-loop by two
  tenant threads that each run four whole-panel scans (6-SNP windows
  overlapping by 3, the small per-window GA of ``benchmarks/bench_scan.py``);
  each tenant's last scan repeats its first, so its windows replay from the
  daemon's result cache.  Dispatch-bound: a few distinct haplotypes per
  dispatch, two tenants sharing the scheduler lock, the master dedup/LRU
  answering most requests.

The panels are written by the program under test and rewritten whenever its
sources change.  ``python3 perfbench/workloads.py`` re-records
``reference.json``: the serial fingerprints of the default seed, each next to
the digest of the panel it was computed on.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, digest, run_fingerprint, window_fingerprint  # noqa: E402

WORKLOADS = ("run51", "served_cohort")
DEFAULT_SEED = 0
#: the seed of every panel: ``repro.experiments.datasets.DEFAULT_SEED``
DATA_SEED = 2004
N_WORKERS = 2
RUN51_GENERATIONS = 4
RUN51_RUNS = 5
SERVED_WINDOW = (6, 3)
COHORT_AFFECTED = 500
COHORT_UNAFFECTED = 500
COHORT_SNPS = 200
TENANTS = 2
SCANS_PER_TENANT = 4
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def settings(workload: str) -> dict:
    """Everything besides the seed that determines a workload's results."""
    base = {"workload": workload, "data_seed": DATA_SEED}
    if workload == "run51":
        return {**base, "generations": RUN51_GENERATIONS, "runs": RUN51_RUNS}
    return {
        **base,
        "window": SERVED_WINDOW,
        "ga": "bench_scan",
        "cohort": [COHORT_AFFECTED, COHORT_UNAFFECTED, COHORT_SNPS],
        "tenants": TENANTS,
        "scans": SCANS_PER_TENANT,
    }


def run51_config(seed: int):
    from repro.core.config import GAConfig

    return GAConfig(
        max_generations=RUN51_GENERATIONS,
        termination_stagnation=RUN51_GENERATIONS,
        seed=seed,
    )


def run51_seeds(seed: int) -> list[int]:
    return [seed * RUN51_RUNS + k for k in range(RUN51_RUNS)]


def scan_config():
    """The per-window GA of ``benchmarks/bench_scan.py``."""
    from repro.core.config import GAConfig

    return GAConfig(
        population_size=10,
        min_haplotype_size=2,
        max_haplotype_size=3,
        termination_stagnation=2,
        max_generations=4,
        point_mutation_trials=1,
    )


def tenant_seeds(seed: int, tenant: int) -> list[int]:
    """A tenant's scan seeds; the last repeats the first (a cached replay)."""
    base = seed * 1000 + tenant * 10
    seeds = [base + k for k in range(SCANS_PER_TENANT - 1)]
    return seeds + [seeds[0]]


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def panel_path(workload: str, directory: Path) -> Path:
    """The study directory, or the PLINK prefix of the served cohort."""
    return directory / ("cohort" if workload == "served_cohort" else "study")


def panel_files(workload: str, directory: Path) -> list[Path]:
    path = panel_path(workload, directory)
    if workload == "served_cohort":
        return [path.with_suffix(suffix) for suffix in (".bed", ".bim", ".fam")]
    return sorted(path.iterdir())


def files_digest(paths) -> str:
    """sha256 over the names and contents of ``paths``."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def writer_digest() -> str:
    """The code that writes a panel: the program's sources and this file."""
    return files_digest(sorted(SRC.rglob("*.py")) + [Path(__file__).resolve()])


def panel_digest(workload: str, directory: Path) -> str:
    return files_digest(panel_files(workload, directory))


def prepare(workload: str) -> Path:
    """Write the workload's panel to disk, unless the same code already did."""
    from repro.genetics.io import write_bed, write_study_tables

    directory = WORK / workload
    stamp = directory / "writer.sha256"
    writer = writer_digest()
    if stamp.is_file() and stamp.read_text() == writer:
        return directory
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    if workload == "run51":
        from repro.genetics.simulate import lille_like_study

        write_study_tables(lille_like_study(seed=DATA_SEED).dataset,
                           panel_path(workload, directory))
    else:
        from repro.genetics.simulate import (
            DiseaseModel,
            PopulationModel,
            simulate_case_control_study,
        )

        causal = (8, 57, 112, 170)
        study = simulate_case_control_study(
            population_model=PopulationModel(n_snps=COHORT_SNPS),
            disease_model=DiseaseModel(
                causal_snps=causal,
                risk_alleles=tuple(2 for _ in causal),
                baseline_penetrance=0.08,
                relative_risk=5.0,
                risk_haplotype_frequency=0.22,
            ),
            n_affected=COHORT_AFFECTED,
            n_unaffected=COHORT_UNAFFECTED,
            seed=DATA_SEED,
        )
        write_bed(study.dataset, panel_path(workload, directory))
    stamp.write_text(writer)
    return directory


def load_panel(workload: str, directory: Path):
    """Read the panel the way the program's CLI does (``run``/``scan`` STUDY, ``--bed``)."""
    from repro.genetics import io

    path = panel_path(workload, directory)
    if workload == "served_cohort":
        return io.read_bed(path)
    return io.read_study_tables(path)[0]


# --------------------------------------------------------------------------- #
# serial in-process references
# --------------------------------------------------------------------------- #
def _serial_fingerprints(workload: str, directory: Path, seeds: list[int]) -> list:
    """Serial in-process fingerprints of the GA runs or scans with ``seeds``."""
    from repro.runtime.backends import create_evaluator
    from repro.runtime.service import RunScheduler
    from repro.runtime.spec import EvaluatorSpec
    from repro.scan import run_scan

    dataset = load_panel(workload, directory)
    if workload == "run51":
        from repro.core.ga import AdaptiveMultiPopulationGA

        evaluator = create_evaluator("serial", EvaluatorSpec(), dataset=dataset)
        return [
            run_fingerprint(AdaptiveMultiPopulationGA(
                n_snps=dataset.n_snps, config=run51_config(run_seed), evaluator=evaluator
            ).run().best_per_size)
            for run_seed in seeds
        ]
    window, overlap = SERVED_WINDOW
    with RunScheduler(dataset, backend="serial", packed=True) as scheduler:
        return [
            window_fingerprint(run_scan(dataset, window_size=window, overlap=overlap,
                                        config=scan_config(), seed=scan_seed,
                                        scheduler=scheduler).windows)
            for scan_seed in seeds
        ]


def compute_reference(workload: str, seed: int, directory: Path) -> dict:
    """The fingerprint a serial in-process execution gives for ``seed``.

    The runs (or scans) are independent, so :data:`N_WORKERS` processes each
    compute a share of them, serially, before anything is timed.
    """
    if workload == "run51":
        seeds = run51_seeds(seed)
    else:
        seeds = sorted({s for t in range(TENANTS) for s in tenant_seeds(seed, t)})
    shares = [seeds[i::N_WORKERS] for i in range(N_WORKERS)]
    found = {}
    with ProcessPoolExecutor(N_WORKERS, mp_context=multiprocessing.get_context("fork")) as pool:
        parts = pool.map(_serial_fingerprints, [workload] * N_WORKERS,
                         [directory] * N_WORKERS, shares)
        for share, part in zip(shares, parts):
            found.update(zip(share, part))
    if workload == "run51":
        return {"runs": [found[s] for s in seeds]}
    return {"scans": {str(s): found[s] for s in seeds}}


def reference(workload: str, seed: int, directory: Path) -> tuple[dict, str]:
    """The expected fingerprint and where it came from ("recorded" or "computed").

    The recorded one applies only to the default seed, the same settings and
    a panel with the recorded digest.
    """
    if seed == DEFAULT_SEED and REFERENCE_FILE.exists():
        recorded = json.loads(REFERENCE_FILE.read_text()).get(workload)
        if (
            recorded is not None
            and recorded["settings"] == digest(settings(workload))
            and recorded["panel"] == panel_digest(workload, directory)
        ):
            return recorded["fingerprint"], "recorded"
    return compute_reference(workload, seed, directory), "computed"


def record_references() -> None:
    records = {}
    for workload in WORKLOADS:
        directory = prepare(workload)
        records[workload] = {
            "settings": digest(settings(workload)),
            "panel": panel_digest(workload, directory),
            "fingerprint": compute_reference(workload, DEFAULT_SEED, directory),
        }
    REFERENCE_FILE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    from common import require_program

    require_program()
    record_references()
