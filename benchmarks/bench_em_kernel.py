"""Microbenchmark: the EM evaluation kernel, seed vs optimised.

Times the haplotype-frequency EM at several haplotype sizes and records the
trajectory to ``BENCH_em_kernel.json`` so regressions are diffable
(``scripts/bench_compare.py``).  Three tiers are measured per size:

* ``kernel`` — one genotype-level EM estimate: the seed's Python-loop phase
  expansion + ``np.add.at`` scatter kernel (preserved in
  :mod:`repro.stats.em_reference`) vs the vectorised expansion + segmented
  reduction kernel of :mod:`repro.stats.em`;
* ``em_path`` — the EM work of one EH-DIALL run.  The seed expanded the
  genotypes twice per run (once for the H0 likelihood, once more inside the
  H1 EM); the optimised pipeline expands once, and with the evaluator's
  :class:`~repro.stats.em.PhaseExpansionCache` warm (the steady state of a GA
  run, where haplotypes are revisited constantly) pays only the EM itself;
* ``warm_rerun`` — re-running the EM seeded from its own final frequencies
  through the kernel's ``initial_frequencies`` argument, which converges in
  a couple of iterations.  This times the kernel API only: the evaluator
  always starts the EM from the uniform distribution.

The headline number is the minimum ``em_path_warm`` speedup at >= 6 loci:
the steady-state cost of the evaluation kernel inside a GA run, where the
expansion cache is warm because the affected/unaffected/pooled triple and
repeated candidate haplotypes revisit the same SNP subsets constantly.

A fourth, *batched* tier measures the generation-batched kernel: a whole
distinct batch of candidate problems run through ``run_em_stacked`` (one
numpy dispatch per EM operation for the entire batch, stacking cost
included) against the per-candidate scalar loop over the same prebuilt
expansions, both cold.  Cohort sizes are paper-scale (``--batch-individuals``,
default 150 per group) so the per-problem pair counts sit in the
dispatch-bound regime the stacked kernel exists for; its headline is the
minimum ``batched_vs_scalar_gain`` over L=4-6 at batch sizes >= 32
(acceptance floor: 2x).  Parity is asserted inside the bench — the stacked
results must be bit-identical to the scalar ones.

Usage::

    python benchmarks/bench_em_kernel.py                # full run, 4-8 loci
    python benchmarks/bench_em_kernel.py --quick        # CI smoke, 4+6 loci
    python benchmarks/bench_em_kernel.py -o out.json    # custom output path
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.stats.em import (  # noqa: E402
    estimate_from_expansion,
    estimate_haplotype_frequencies,
    expand_phases,
    run_em_stacked,
    stack_expansions,
)
from repro.stats.em_reference import (  # noqa: E402
    reference_estimate_haplotype_frequencies,
    reference_expand_phases,
)

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_em_kernel.json"
)


def _best_of(fn, repeats: int) -> float:
    """Best-of-N process-time measurement (robust against scheduler noise)."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def bench_size(n_loci: int, *, n_individuals: int, repeats: int, seed: int = 42) -> dict:
    rng = np.random.default_rng(seed + n_loci)
    genotypes = rng.integers(0, 3, size=(n_individuals, n_loci)).astype(np.int8)
    genotypes[rng.random(genotypes.shape) < 0.02] = -1

    expansion = expand_phases(genotypes)
    cold = estimate_from_expansion(expansion)

    timings = {
        # genotype-level estimate (expansion + EM iterations)
        "seed_kernel_seconds": _best_of(
            lambda: reference_estimate_haplotype_frequencies(genotypes), repeats
        ),
        "new_kernel_seconds": _best_of(
            lambda: estimate_haplotype_frequencies(genotypes), repeats
        ),
        # expansion construction alone
        "seed_expand_seconds": _best_of(lambda: reference_expand_phases(genotypes), repeats),
        "new_expand_seconds": _best_of(lambda: expand_phases(genotypes), repeats),
        # EM iterations alone (expansion reused, i.e. expansion-cache hit)
        "new_em_warm_expansion_seconds": _best_of(
            lambda: estimate_from_expansion(expansion), repeats
        ),
        # warm-started re-run from the converged frequencies
        "warm_rerun_seconds": _best_of(
            lambda: estimate_from_expansion(
                expansion, initial_frequencies=cold.frequencies
            ),
            repeats,
        ),
    }
    # the EM work of one seed EH-DIALL run: H0 expansion + (expansion + EM)
    timings["seed_em_path_seconds"] = (
        timings["seed_expand_seconds"] + timings["seed_kernel_seconds"]
    )

    speedups = {
        "kernel": timings["seed_kernel_seconds"] / timings["new_kernel_seconds"],
        "em_path_cold": timings["seed_em_path_seconds"] / timings["new_kernel_seconds"],
        "em_path_warm": (
            timings["seed_em_path_seconds"] / timings["new_em_warm_expansion_seconds"]
        ),
        "warm_rerun": timings["seed_em_path_seconds"] / timings["warm_rerun_seconds"],
        "expand": timings["seed_expand_seconds"] / timings["new_expand_seconds"],
    }
    return {
        "n_loci": n_loci,
        "n_individuals": n_individuals,
        "n_pairs": expansion.n_pairs,
        "n_classes": expansion.n_classes,
        "em_iterations": cold.n_iterations,
        "timings": timings,
        "speedups": speedups,
    }


def bench_batched(
    n_loci: int,
    batch_size: int,
    *,
    n_individuals: int,
    repeats: int,
    n_panel_snps: int = 32,
    seed: int = 97,
) -> dict:
    """Time the stacked kernel vs the scalar loop on one generation-sized batch.

    Both paths work from the same prebuilt expansions (expansion reuse is the
    expansion cache's win, measured separately above); the stacked timing
    includes ``stack_expansions`` — the real per-generation cost of the
    batched path.  Cold EMs throughout: every problem starts uniform.
    """
    rng = np.random.default_rng(seed + 13 * n_loci + batch_size)
    panel = rng.integers(0, 3, size=(n_individuals, n_panel_snps)).astype(np.int8)
    panel[rng.random(panel.shape) < 0.02] = -1
    subsets: set[tuple[int, ...]] = set()
    while len(subsets) < batch_size:
        subsets.add(
            tuple(sorted(rng.choice(n_panel_snps, size=n_loci, replace=False).tolist()))
        )
    expansions = [expand_phases(panel[:, list(subset)]) for subset in sorted(subsets)]

    scalar_results = [estimate_from_expansion(e) for e in expansions]
    stacked_results = run_em_stacked(stack_expansions(expansions))
    for scalar, stacked in zip(scalar_results, stacked_results):
        assert scalar.n_iterations == stacked.n_iterations
        assert scalar.log_likelihood == stacked.log_likelihood
        assert np.array_equal(scalar.frequencies, stacked.frequencies)

    timings = {
        "scalar_loop_seconds": _best_of(
            lambda: [estimate_from_expansion(e) for e in expansions], repeats
        ),
        "stacked_seconds": _best_of(
            lambda: run_em_stacked(stack_expansions(expansions)), repeats
        ),
    }
    return {
        "n_loci": n_loci,
        "batch_size": batch_size,
        "n_individuals": n_individuals,
        "mean_pairs_per_problem": sum(e.n_pairs for e in expansions) / len(expansions),
        "timings": timings,
        "batched_vs_scalar_gain": (
            timings["scalar_loop_seconds"] / timings["stacked_seconds"]
        ),
    }


def run(
    sizes,
    *,
    n_individuals: int,
    repeats: int,
    batch_sizes=(32, 128, 512),
    batch_individuals: int = 150,
) -> dict:
    results = {}
    for n_loci in sizes:
        entry = bench_size(n_loci, n_individuals=n_individuals, repeats=repeats)
        results[str(n_loci)] = entry
        t = entry["timings"]
        s = entry["speedups"]
        print(
            f"L={n_loci}: seed em-path {t['seed_em_path_seconds']*1e3:7.2f} ms | "
            f"new cold {t['new_kernel_seconds']*1e3:7.2f} ms ({s['em_path_cold']:.2f}x) | "
            f"warm {t['new_em_warm_expansion_seconds']*1e3:7.2f} ms ({s['em_path_warm']:.2f}x) | "
            f"warm re-run {t['warm_rerun_seconds']*1e3:7.2f} ms ({s['warm_rerun']:.1f}x)"
        )
    batched = {}
    batch_repeats = min(repeats, 3)  # multi-hundred-ms cells: best-of-3 is stable
    for n_loci in sizes:
        per_size = {}
        for batch_size in batch_sizes:
            entry = bench_batched(
                n_loci,
                batch_size,
                n_individuals=batch_individuals,
                repeats=batch_repeats,
            )
            per_size[f"B{batch_size}"] = entry
            t = entry["timings"]
            print(
                f"L={n_loci} batch={batch_size:4d}: scalar loop "
                f"{t['scalar_loop_seconds']*1e3:8.2f} ms | stacked "
                f"{t['stacked_seconds']*1e3:8.2f} ms "
                f"({entry['batched_vs_scalar_gain']:.2f}x, "
                f"{entry['mean_pairs_per_problem']:.0f} pairs/problem)"
            )
        batched[f"L{n_loci}"] = per_size

    high = [r for r in results.values() if r["n_loci"] >= 6]
    dispatch_bound = [
        entry
        for per_size in (batched[f"L{n}"] for n in sizes if 4 <= n <= 6)
        for entry in per_size.values()
        if entry["batch_size"] >= 32
    ]
    headline = {
        "min_em_path_warm_speedup_6plus": min(
            (r["speedups"]["em_path_warm"] for r in high), default=None
        ),
        "min_em_path_cold_speedup_6plus": min(
            (r["speedups"]["em_path_cold"] for r in high), default=None
        ),
        # the generation-batched kernel's acceptance metric: >= 2x over the
        # scalar loop on generation-sized batches in the dispatch-bound regime
        "min_batched_vs_scalar_gain_L4to6": min(
            (e["batched_vs_scalar_gain"] for e in dispatch_bound), default=None
        ),
    }
    return {
        "benchmark": "em_kernel",
        "unix_time": time.time(),
        "config": {
            "sizes": list(sizes),
            "n_individuals": n_individuals,
            "repeats": repeats,
            "batch_sizes": list(batch_sizes),
            "batch_individuals": batch_individuals,
        },
        "headline": headline,
        "sizes": results,
        "batched": batched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: sizes 4 and 6 only, fewer repeats")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help="JSON trajectory output path")
    parser.add_argument("--individuals", type=int, default=1000,
                        help="cohort size (default 1000, the production-scale "
                             "target of the ROADMAP; the paper's groups are ~53)")
    parser.add_argument("--batch-individuals", type=int, default=150,
                        help="cohort size for the batched tier (default 150 — "
                             "paper-scale groups, the dispatch-bound regime "
                             "the stacked kernel targets)")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    sizes = (4, 6) if args.quick else (4, 5, 6, 7, 8)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)
    batch_sizes = (32, 128) if args.quick else (32, 128, 512)
    report = run(
        sizes,
        n_individuals=args.individuals,
        repeats=repeats,
        batch_sizes=batch_sizes,
        batch_individuals=args.batch_individuals,
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    headline = report["headline"]["min_em_path_warm_speedup_6plus"]
    if headline is not None:
        print(f"headline: min warm EM-path speedup at >=6 loci = {headline:.2f}x")
    batched_headline = report["headline"]["min_batched_vs_scalar_gain_L4to6"]
    if batched_headline is not None:
        print(
            f"headline: min batched-vs-scalar gain at L=4-6, batch>=32 = "
            f"{batched_headline:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
