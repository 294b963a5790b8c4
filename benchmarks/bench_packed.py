"""Benchmark: the 2-bit packed genotype substrate.

Three measurements of the packed substrate, recorded to ``BENCH_packed.json``
(diffable with ``scripts/bench_compare.py``, which also gates the ``*_gain*``
leaves):

1. **Shared-memory footprint.**  One ``SharedGenotypeStore`` per
   representation over the same panel; the headline is byte-segment bytes
   over packed-segment bytes.  The run asserts the >= 3.5x acceptance floor
   (4x is the asymptote; the status row and page rounding eat the rest).

2. **Phase-expansion construction.**  ``expand_phases_packed`` (histograms
   of radix codes read from packed columns), the builder of every fitness
   expansion, against the byte-matrix ``expand_phases`` (row-sort
   ``np.unique``), which now serves only the report paths and is this
   gate's baseline, on random locus subsets at cohort scale.  Every cell
   asserts bitwise-identical expansions before it is timed; the headline is
   the *minimum* per-call gain across cells, and the run asserts the >= 1.5x
   acceptance floor.  Cells use n >= 500 individuals: there class counting
   (a row sort against a histogram of radix codes) is most of an expansion,
   while the per-size phase-table gather is a tail both builders share.
   With ~50 rows per group the row sort is short and the two paths come
   closer.

3. **End-to-end scan.**  The same windowed scan byte-wise and packed
   (fingerprints asserted identical).  Recorded as
   ``scan_packed_vs_byte_ratio`` — deliberately *not* a ``*_gain*`` leaf:
   at benchmark scale the GA loop, not class counting, dominates wall-clock,
   so the ratio hovers around 1.0 and gating it would gate noise.

Usage::

    python benchmarks/bench_packed.py            # full run
    python benchmarks/bench_packed.py --quick    # CI smoke
    python benchmarks/bench_packed.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.core.config import GAConfig  # noqa: E402
from repro.genetics.dataset import GENOTYPE_MISSING, GenotypeDataset  # noqa: E402
from repro.genetics.packed import PackedPanel, pack_genotypes  # noqa: E402
from repro.genetics.simulate import (  # noqa: E402
    DiseaseModel,
    PopulationModel,
    simulate_case_control_study,
)
from repro.runtime.shm import SharedGenotypeStore  # noqa: E402
from repro.scan import run_scan  # noqa: E402
from repro.stats.em import expand_phases, expand_phases_packed  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_packed.json"
)

SHM_REDUCTION_FLOOR = 3.5
EXPANSION_GAIN_FLOOR = 1.5

SCAN_WINDOW_SIZE = 4
SCAN_OVERLAP = 2
SCAN_SEED = 17


def _random_dataset(rng, n, m, missing_rate=0.02):
    g = rng.integers(0, 3, size=(n, m)).astype(np.int8)
    if missing_rate:
        g[rng.random(size=g.shape) < missing_rate] = GENOTYPE_MISSING
    status = np.concatenate(
        [np.ones(n // 2, dtype=np.int8), np.zeros(n - n // 2, dtype=np.int8)]
    )
    return GenotypeDataset(g, status)


# --------------------------------------------------------------------- #
# 1. shared-memory footprint
# --------------------------------------------------------------------- #
def bench_shm_footprint(*, quick: bool) -> tuple[dict, float]:
    rng = np.random.default_rng(2004)
    panels = [(106, 201)] if quick else [(106, 201), (1000, 2001)]
    results = {}
    worst = float("inf")
    for n, m in panels:
        dataset = _random_dataset(rng, n, m)
        byte_store = SharedGenotypeStore(dataset)
        packed_store = SharedGenotypeStore(dataset, packed=True)
        try:
            ratio = byte_store.n_bytes / packed_store.n_bytes
            results[f"shm_{n}x{m}"] = {
                "n_individuals": n,
                "n_snps": m,
                "byte_segment_bytes": byte_store.n_bytes,
                "packed_segment_bytes": packed_store.n_bytes,
                "reduction": ratio,
            }
            worst = min(worst, ratio)
        finally:
            byte_store.release()
            packed_store.release()
    if worst < SHM_REDUCTION_FLOOR:
        raise AssertionError(
            f"packed shm segments only {worst:.2f}x smaller "
            f"(floor {SHM_REDUCTION_FLOOR}x)"
        )
    return results, worst


# --------------------------------------------------------------------- #
# 2. phase-expansion construction
# --------------------------------------------------------------------- #
def _expansions_equal(a, b) -> bool:
    return a.n_loci == b.n_loci and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in (
            "class_counts",
            "class_genotypes",
            "pair_a",
            "pair_b",
            "pair_class",
            "pair_multiplicity",
        )
    )


def bench_expansion(*, quick: bool) -> tuple[dict, float]:
    rng = np.random.default_rng(31)
    n_snps = 201
    cohorts = [500] if quick else [500, 1000]
    sizes = (3, 4) if quick else (3, 4, 6)
    n_subsets = 30 if quick else 100
    results = {}
    min_gain = float("inf")
    for n in cohorts:
        g = rng.integers(0, 3, size=(n, n_snps)).astype(np.int8)
        g[rng.random(size=g.shape) < 0.02] = GENOTYPE_MISSING
        panel = PackedPanel(pack_genotypes(g), n)
        for n_loci in sizes:
            subsets = [
                rng.choice(n_snps, size=n_loci, replace=False).astype(np.intp)
                for _ in range(n_subsets)
            ]
            for subset in subsets:
                if not _expansions_equal(
                    expand_phases_packed(panel, subset), expand_phases(g[:, subset])
                ):
                    raise AssertionError(
                        f"packed expansion diverged at n={n} loci={subset}"
                    )
            start = time.perf_counter()
            for subset in subsets:
                expand_phases(g[:, subset])
            byte_seconds = time.perf_counter() - start
            start = time.perf_counter()
            for subset in subsets:
                expand_phases_packed(panel, subset)
            packed_seconds = time.perf_counter() - start
            gain = byte_seconds / packed_seconds
            min_gain = min(min_gain, gain)
            results[f"expand_n{n}_L{n_loci}"] = {
                "n_individuals": n,
                "n_loci": n_loci,
                "n_subsets": n_subsets,
                "byte_seconds": byte_seconds,
                "packed_seconds": packed_seconds,
                "gain": gain,
            }
    if not quick and min_gain < EXPANSION_GAIN_FLOOR:
        raise AssertionError(
            f"packed expansion construction only {min_gain:.2f}x faster "
            f"(floor {EXPANSION_GAIN_FLOOR}x)"
        )
    return results, min_gain


# --------------------------------------------------------------------- #
# 3. end-to-end scan
# --------------------------------------------------------------------- #
def bench_scan(*, quick: bool) -> tuple[dict, float]:
    n_snps = 101 if quick else 201
    model = PopulationModel(n_snps=n_snps, block_size=6, within_block_correlation=0.4)
    disease = DiseaseModel(
        causal_snps=(20, 60, 90) if quick else (20, 100, 180),
        risk_alleles=(2, 2, 2),
        baseline_penetrance=0.1,
        relative_risk=6.0,
        risk_haplotype_frequency=0.3,
    )
    study = simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=20,
        n_unaffected=20,
        seed=31,
    )
    config = GAConfig(
        population_size=6,
        min_haplotype_size=2,
        max_haplotype_size=2,
        termination_stagnation=1,
        max_generations=2,
        point_mutation_trials=1,
    )

    def scan(**kwargs):
        start = time.perf_counter()
        report = run_scan(
            study.dataset,
            window_size=SCAN_WINDOW_SIZE,
            overlap=SCAN_OVERLAP,
            config=config,
            seed=SCAN_SEED,
            **kwargs,
        )
        return report, time.perf_counter() - start

    byte_report, byte_seconds = scan()
    packed_report, packed_seconds = scan(packed=True)
    if packed_report.fingerprint() != byte_report.fingerprint():
        raise AssertionError("the packed scan diverged from the byte scan")
    ratio = byte_seconds / packed_seconds
    results = {
        "scan_byte": {
            "n_windows": byte_report.n_windows,
            "elapsed_seconds": byte_seconds,
        },
        "scan_packed": {
            "n_windows": packed_report.n_windows,
            "elapsed_seconds": packed_seconds,
        },
    }
    return results, ratio


def run_benchmark(*, quick: bool) -> dict:
    shm_results, shm_reduction = bench_shm_footprint(quick=quick)
    expansion_results, expansion_gain = bench_expansion(quick=quick)
    scan_results, scan_ratio = bench_scan(quick=quick)
    return {
        "benchmark": "packed",
        "results": {**shm_results, **expansion_results, **scan_results},
        "headline": {
            # *_gain leaves: gated by scripts/bench_compare.py --gains-only
            "shm_bytes_reduction_gain": shm_reduction,
            "packed_vs_byte_expansion_gain": expansion_gain,
            # end-to-end the GA loop dominates, so this hovers near 1.0 and
            # is recorded ungated (no *_gain* suffix on purpose)
            "scan_packed_vs_byte_ratio": scan_ratio,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick)

    for label, result in report["results"].items():
        if "reduction" in result:
            print(
                f"  {label:18s} {result['byte_segment_bytes']:>10d} B -> "
                f"{result['packed_segment_bytes']:>9d} B "
                f"({result['reduction']:.2f}x smaller)"
            )
        elif "gain" in result:
            print(
                f"  {label:18s} byte {result['byte_seconds']:.3f} s, "
                f"packed {result['packed_seconds']:.3f} s "
                f"({result['gain']:.2f}x)"
            )
        else:
            print(f"  {label:18s} {result['elapsed_seconds']:7.2f} s")
    headline = report["headline"]
    print(
        f"shm {headline['shm_bytes_reduction_gain']:.2f}x smaller; "
        f"expansion construction {headline['packed_vs_byte_expansion_gain']:.2f}x "
        f"faster; end-to-end scan ratio "
        f"{headline['scan_packed_vs_byte_ratio']:.2f}x"
    )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
