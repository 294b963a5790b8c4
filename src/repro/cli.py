"""Command-line interface.

``python -m repro <command>`` (or the ``repro-ga`` console script) exposes the
main workflows:

* ``simulate``   — generate a synthetic case/control study and write it as the
  paper's three-table layout;
* ``evaluate``   — score one haplotype (EH-DIALL + CLUMP) on a dataset;
* ``run``        — run the adaptive multi-population GA on a dataset;
* ``scan``       — windowed genome-scale scan: one GA job per overlapping
  locus window, multiplexed over one persistent scheduler/worker farm;
* ``serve``      — scan-as-a-service daemon: one warm farm serving scan/run
  requests from many clients, with a cross-request result cache and
  cost-aware admission (``run``/``scan`` submit to it via ``--connect``);
* ``table1`` / ``figure4`` / ``table2`` / ``ablation`` / ``speedup`` /
  ``landscape`` — regenerate the corresponding experiment of the paper.

Every experiment subcommand takes the same ``--seed`` and ``--backend``
flags, routed through the run scheduler, so any study can be repeated on any
execution substrate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["build_parser", "main"]


def _backend_choices() -> list[str]:
    """Every registered execution backend (plug-ins included).

    Resolved from the registry at parser-build time, so a backend added via
    :func:`repro.runtime.backends.register_backend` is selectable from every
    subcommand without touching the CLI.
    """
    from .runtime.backends import backend_names

    return list(backend_names())


def _add_backend_arguments(
    parser: argparse.ArgumentParser,
    *,
    default_backend: str | None = "serial",
    default_seed: int = 2004,
) -> None:
    """The uniform ``--seed`` / ``--backend`` / ``--workers`` flag set."""
    parser.add_argument("--seed", type=int, default=default_seed,
                        help=f"base random seed (default {default_seed})")
    parser.add_argument("--backend", default=default_backend,
                        choices=_backend_choices(),
                        help="execution backend for fitness evaluation "
                             f"(default: {default_backend})")
    parser.add_argument("--workers", type=int, default=None,
                        help="number of evaluation workers for the parallel "
                             "backends (default: backend's own default)")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ga",
        description=(
            "Parallel adaptive GA for linkage disequilibrium "
            "(reproduction of Vermeulen-Jourdan et al., IPDPS 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic case/control study")
    p_sim.add_argument("output", help="directory to write the three-table study layout into")
    p_sim.add_argument("--n-snps", type=int, default=51)
    p_sim.add_argument("--n-affected", type=int, default=53)
    p_sim.add_argument("--n-unaffected", type=int, default=53)
    p_sim.add_argument("--seed", type=int, default=2004)

    p_eval = sub.add_parser("evaluate", help="evaluate one haplotype on a study directory")
    p_eval.add_argument("study", help="directory written by the 'simulate' command")
    p_eval.add_argument("snps", nargs="+", type=int, help="SNP indices of the haplotype")
    p_eval.add_argument("--statistic", default="t1",
                        choices=["t1", "t2", "t3", "t4", "lrt"])
    p_eval.add_argument("--significance", action="store_true",
                        help="also report Monte-Carlo p-values")

    p_run = sub.add_parser("run", help="run the adaptive multi-population GA on a study")
    p_run.add_argument("study", nargs="?", default=None,
                       help="study directory (default: the built-in lille-like dataset)")
    p_run.add_argument("--population-size", type=int, default=150)
    p_run.add_argument("--max-size", type=int, default=6)
    p_run.add_argument("--stagnation", type=int, default=100)
    p_run.add_argument("--max-generations", type=int, default=600)
    p_run.add_argument("--backend", default=None,
                       choices=_backend_choices(),
                       help="execution backend for fitness evaluation "
                            "(default: serial, or process when --workers > 1)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="number of evaluation workers (1 = serial unless "
                            "--backend says otherwise)")
    p_run.add_argument("--chunk-size", type=int, default=None,
                       help="individuals per worker message for the chunked "
                            "backends (default: one chunk per worker)")
    p_run.add_argument("--statistic", default="t1",
                       choices=["t1", "t2", "t3", "t4", "lrt"])
    p_run.add_argument("--packed", action="store_true",
                       help="run on the 2-bit packed genotype substrate "
                            "(~4x smaller shared-memory panels; results are "
                            "bit-identical to the byte path)")
    p_run.add_argument("--hosts", nargs="+", default=None, metavar="HOST:PORT",
                       help="remote worker hosts for the 'remote' backend, "
                            "one slave per entry (implies --backend remote)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="submit the run to a running 'repro serve' daemon "
                            "instead of building a local substrate (the "
                            "daemon's backend/workers/statistic apply)")
    p_run.add_argument("--client-id", default=None,
                       help="tenant identity reported to --connect's daemon "
                            "(default: hostname-pid)")
    p_run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="deadline for the whole --connect request; past "
                            "it the client raises instead of blocking forever")
    p_run.add_argument("--retries", type=int, default=None, metavar="N",
                       help="re-submit a --connect request up to N times if "
                            "the daemon connection dies mid-flight (served "
                            "requests are idempotent: completed work replays "
                            "from the daemon's result cache; default 2)")

    sub.add_parser("table1", help="regenerate Table 1 (search-space sizes)")

    p_fig4 = sub.add_parser("figure4", help="regenerate Figure 4 (evaluation time vs size)")
    p_fig4.add_argument("--samples", type=int, default=20)
    p_fig4.add_argument("--max-size", type=int, default=7)

    p_scan = sub.add_parser(
        "scan",
        help="genome-scale windowed scan: one GA job per locus window over "
             "one persistent scheduler",
    )
    p_scan.add_argument("study", nargs="?", default=None,
                        help="study directory (default: the built-in 249-SNP "
                             "chromosome-scale panel)")
    p_scan.add_argument("--window-size", type=int, default=8,
                        help="loci per window (default 8)")
    p_scan.add_argument("--window-overlap", type=int, default=4,
                        help="loci shared by consecutive windows (default 4)")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="window jobs executed concurrently over the "
                             "shared substrate (default 1)")
    p_scan.add_argument("--max-pending", type=int, default=256,
                        help="bound on window jobs submitted but not yet "
                             "finished (default 256, so chromosome-scale "
                             "plans never hold every job in memory; 0 = "
                             "unlimited)")
    p_scan.add_argument("--chunk-size", type=int, default=None,
                        help="individuals per worker message for the chunked "
                             "backends")
    p_scan.add_argument("--statistic", default="t1",
                        choices=["t1", "t2", "t3", "t4", "lrt"])
    p_scan.add_argument("--population-size", type=int, default=30)
    p_scan.add_argument("--max-size", type=int, default=4,
                        help="largest haplotype size searched per window")
    p_scan.add_argument("--stagnation", type=int, default=8)
    p_scan.add_argument("--max-generations", type=int, default=60)
    p_scan.add_argument("--top", type=int, default=10,
                        help="number of top windows to print")
    p_scan.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="journal each completed window to this JSONL "
                             "file (crash-safe; see --resume)")
    p_scan.add_argument("--resume", action="store_true",
                        help="restore windows already in --checkpoint instead "
                             "of re-running them (bit-identical to an "
                             "uninterrupted scan)")
    p_scan.add_argument("--self-heal", action="store_true",
                        help="survive worker crashes on the process-farm "
                             "backends: respawn dead slaves and replay their "
                             "chunks on survivors")
    p_scan.add_argument("--packed", action="store_true",
                        help="run on the 2-bit packed genotype substrate "
                             "(~4x smaller shared-memory panels; the report "
                             "is bit-identical to the byte path)")
    p_scan.add_argument("--bed", default=None, metavar="PREFIX",
                        help="scan a PLINK .bed/.bim/.fam fileset (prefix or "
                             ".bed path; memory-mapped, implies --packed; "
                             "mutually exclusive with the study argument)")
    p_scan.add_argument("--hosts", nargs="+", default=None, metavar="HOST:PORT",
                        help="remote worker hosts for the 'remote' backend, "
                             "one slave per entry (requires --backend remote)")
    p_scan.add_argument("--cost-model", default=None, metavar="PATH",
                        help="JSON file with a calibrated evaluation-cost "
                             "model ({\"base_seconds\": ..., "
                             "\"growth_factor\": ...}); prices window "
                             "priorities and farm chunking without re-probing")
    p_scan.add_argument("--vcf", default=None, metavar="PATH",
                        help="scan a VCF (.vcf or .vcf.gz; GT fields, missing "
                             "calls -> missing code; implies --packed; "
                             "mutually exclusive with the study argument and "
                             "--bed)")
    p_scan.add_argument("--pheno", default=None, metavar="PATH",
                        help="phenotype sidecar for --vcf ('id pheno' rows or "
                             "a .fam file, linkage convention: 2 = affected, "
                             "1 = unaffected)")
    p_scan.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="submit the scan to a running 'repro serve' "
                             "daemon instead of building a local substrate "
                             "(the daemon's panel and backend apply; cached "
                             "windows replay bit-identically)")
    p_scan.add_argument("--client-id", default=None,
                        help="tenant identity reported to --connect's daemon "
                             "(default: hostname-pid)")
    p_scan.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="deadline for the whole --connect scan; past it "
                             "the client raises instead of blocking forever")
    p_scan.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-submit a --connect scan up to N times if the "
                             "daemon connection dies mid-flight (served scans "
                             "are idempotent: completed windows replay from "
                             "the daemon's result cache; default 2)")
    _add_backend_arguments(p_scan, default_seed=0)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 (GA results over repeated runs)")
    p_t2.add_argument("--runs", type=int, default=10)
    p_t2.add_argument("--quick", action="store_true",
                      help="use the reduced configuration (minutes instead of hours)")
    _add_backend_arguments(p_t2)

    p_abl = sub.add_parser("ablation", help="regenerate the Section 5.2 scheme comparison")
    p_abl.add_argument("--runs", type=int, default=3)
    _add_backend_arguments(p_abl)

    p_speed = sub.add_parser("speedup", help="parallel speedup study")
    p_speed.add_argument("--measured", action="store_true",
                         help="also time the real multiprocessing farm")
    p_speed.add_argument("--chunk-size", type=int, default=None,
                         help="individuals per worker message for --measured")
    _add_backend_arguments(p_speed, default_backend="process")

    p_land = sub.add_parser("landscape", help="regenerate the Section 3 landscape study")
    p_land.add_argument("--panel-size", type=int, default=16)
    p_land.add_argument("--max-size", type=int, default=4)

    p_rob = sub.add_parser("robustness",
                           help="cross-run solution similarity (Section 5.2 claim)")
    p_rob.add_argument("--runs", type=int, default=5)
    _add_backend_arguments(p_rob)

    p_obj = sub.add_parser("objectives",
                           help="compare candidate objective functions (paper conclusion)")
    p_obj.add_argument("--per-size", type=int, default=40)
    _add_backend_arguments(p_obj)

    p_worker = sub.add_parser(
        "worker",
        help="run a remote worker host: accept 'remote'-backend masters and "
             "serve one slave process per connection",
    )
    p_worker.add_argument("--bind", required=True, metavar="HOST:PORT",
                          help="address to listen on, e.g. 127.0.0.1:7777; "
                               "any non-loopback host (0.0.0.0, :PORT) needs "
                               "REPRO_REMOTE_AUTHKEY")
    p_worker.add_argument("--max-connections", type=int, default=None,
                          help="serve this many master connections, then "
                               "exit (default: serve forever)")

    p_serve = sub.add_parser(
        "serve",
        help="scan-as-a-service daemon: one warm farm + cross-request result "
             "cache + cost-aware admission, serving many concurrent clients",
    )
    p_serve.add_argument("study", nargs="?", default=None,
                         help="study directory (default: the built-in "
                              "249-SNP chromosome-scale panel)")
    p_serve.add_argument("--bind", default="127.0.0.1:7788", metavar="HOST:PORT",
                         help="address to listen on (default 127.0.0.1:7788; "
                              "port 0 binds an ephemeral port; a non-loopback "
                              "host needs REPRO_REMOTE_AUTHKEY)")
    p_serve.add_argument("--status", action="store_true",
                         help="probe the daemon at --bind and print its "
                              "status (cache, admission, farm health, "
                              "per-tenant metrics) instead of starting one")
    p_serve.add_argument("--journal-dir", default=None, metavar="DIR",
                         help="journal every in-flight scan's completed "
                              "windows to JSONL files in DIR; a daemon "
                              "restarted on the same DIR replays journaled "
                              "windows instead of recomputing them "
                              "(fingerprint-identical reports)")
    p_serve.add_argument("--bed", default=None, metavar="PREFIX",
                         help="serve a PLINK .bed/.bim/.fam fileset "
                              "(memory-mapped, implies --packed)")
    p_serve.add_argument("--vcf", default=None, metavar="PATH",
                         help="serve a VCF (.vcf/.vcf.gz; implies --packed)")
    p_serve.add_argument("--pheno", default=None, metavar="PATH",
                         help="phenotype sidecar for --vcf")
    p_serve.add_argument("--statistic", default="t1",
                         choices=["t1", "t2", "t3", "t4", "lrt"],
                         help="the statistic this daemon evaluates (one "
                              "daemon = one evaluator recipe)")
    p_serve.add_argument("--chunk-size", type=int, default=None,
                         help="individuals per worker message for the "
                              "chunked backends")
    p_serve.add_argument("--packed", action="store_true",
                         help="run the substrate on the 2-bit packed panel")
    p_serve.add_argument("--hosts", nargs="+", default=None, metavar="HOST:PORT",
                         help="remote worker hosts for the 'remote' backend")
    p_serve.add_argument("--cost-model", default=None, metavar="PATH",
                         help="calibrated evaluation-cost model JSON; prices "
                              "requests for admission and drives "
                              "cost-balanced chunking")
    p_serve.add_argument("--cache-bytes", type=int, default=None,
                         help="bytes budget of the cross-request window-"
                              "result cache (default 64 MiB; 0 disables)")
    p_serve.add_argument("--max-active", type=int, default=4,
                         help="requests executing concurrently (default 4)")
    p_serve.add_argument("--max-queued", type=int, default=16,
                         help="requests waiting for a slot before new "
                              "arrivals are rejected (default 16)")
    p_serve.add_argument("--max-inflight-per-client", type=int, default=2,
                         help="per-tenant cap on concurrent requests "
                              "(default 2)")
    p_serve.add_argument("--max-cost-seconds", type=float, default=None,
                         help="budget on the summed estimated cost of "
                              "admitted-but-unfinished work (default: "
                              "unlimited)")
    p_serve.add_argument("--over-budget", default="queue",
                         choices=["queue", "reject"],
                         help="what happens to a request exceeding "
                              "--max-cost-seconds: wait its turn or be "
                              "rejected (default: queue)")
    _add_backend_arguments(p_serve, default_backend="process", default_seed=0)

    return parser


def _load_study_dataset(path: str | None):
    from .experiments.datasets import lille51
    from .genetics.io import read_study_tables

    if path is None:
        return lille51().dataset
    dataset, _freq, _ld = read_study_tables(path)
    return dataset


def _panel_flags_error(command: str, args: argparse.Namespace) -> str | None:
    """Validate the study/--bed/--vcf/--pheno combination; None when sane."""
    sources = [
        name
        for name, present in (
            ("a study directory", args.study is not None),
            ("--bed", args.bed is not None),
            ("--vcf", args.vcf is not None),
        )
        if present
    ]
    if len(sources) > 1:
        return (f"{command} takes one panel source, not both "
                + " and ".join(sources))
    if args.pheno is not None and args.vcf is None:
        return f"{command} --pheno only applies to --vcf panels"
    return None


def _load_panel(args: argparse.Namespace):
    """The panel a scan/serve command operates on (study, .bed, or VCF)."""
    if args.bed is not None:
        from .genetics.io import read_bed

        return read_bed(args.bed)
    if args.vcf is not None:
        from .genetics.io import read_vcf

        return read_vcf(args.vcf, pheno=args.pheno)
    if args.study is None:
        from .experiments.datasets import large249

        return large249().dataset
    return _load_study_dataset(args.study)


def _load_cost_model(path: str | None):
    if path is None:
        return None
    import json

    from .parallel.pvm import EvaluationCostModel

    with open(path, "r", encoding="utf-8") as fh:
        return EvaluationCostModel.from_json(json.load(fh))


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .genetics.io import write_study_tables
    from .genetics.simulate import lille_like_study

    study = lille_like_study(
        seed=args.seed,
        n_snps=args.n_snps,
        n_affected=args.n_affected,
        n_unaffected=args.n_unaffected,
    )
    paths = write_study_tables(study.dataset, args.output)
    print(f"wrote study ({study.dataset.summary()})")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    print(f"planted causal haplotype: {study.causal_snps}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .stats.evaluation import HaplotypeEvaluator

    dataset = _load_study_dataset(args.study)
    evaluator = HaplotypeEvaluator(dataset, statistic=args.statistic)
    record = evaluator.evaluate_detailed(args.snps)
    print(f"haplotype {record.snps} (size {record.size})")
    print(f"fitness ({args.statistic.upper()}): {record.fitness:.3f}")
    for name in ("t1", "t2", "t3", "t4"):
        print(f"  {name.upper()}: {record.clump.statistic(name):.3f}")
    if args.significance:
        p_values = evaluator.significance(args.snps)
        for name, p in p_values.items():
            print(f"  Monte-Carlo p({name.upper()}): {p:.4f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.config import GAConfig
    from .runtime.service import RunRequest, RunScheduler

    config = GAConfig(
        population_size=args.population_size,
        max_haplotype_size=args.max_size,
        termination_stagnation=args.stagnation,
        max_generations=args.max_generations,
        seed=args.seed,
    )
    if args.connect is not None:
        if args.hosts or args.study is not None:
            print("run --connect executes on the daemon's panel and "
                  "substrate; drop the study argument and --hosts",
                  file=sys.stderr)
            return 2
        from .runtime.client import ScanClient

        with ScanClient(
            args.connect,
            client_id=args.client_id,
            retry=_retry_policy(args.retries),
        ) as client:
            run = client.run(
                RunRequest(config=config, statistic=args.statistic),
                timeout=args.timeout,
            )
        result = run.result
        print(
            f"finished after {result.n_generations} generations, "
            f"{result.n_evaluations} evaluations ({result.termination_reason}), "
            f"{result.elapsed_seconds:.1f}s (served by {args.connect})"
        )
        print(run.summary_line())
        for row in result.summary_rows():
            print(
                f"  size {row['size']}: [{row['haplotype']}] "
                f"fitness {row['fitness']:.3f} "
                f"(found after {row['evaluations_to_best']} evaluations)"
            )
        return 0
    dataset = _load_study_dataset(args.study)
    if args.hosts and args.backend not in (None, "remote"):
        print(f"run --hosts requires --backend remote, not {args.backend!r}",
              file=sys.stderr)
        return 2
    backend = args.backend or (
        "remote" if args.hosts else ("process" if args.workers > 1 else "serial")
    )
    if backend == "remote" and not args.hosts:
        print("run --backend remote requires --hosts HOST:PORT ...",
              file=sys.stderr)
        return 2
    with RunScheduler(
        dataset,
        statistic=args.statistic,
        backend=backend,
        # an explicit --backend honours --workers exactly (even 1); only the
        # serial default leaves the worker count to the backend — and a
        # remote pool runs one slave per host entry
        n_workers=(
            None if backend == "remote"
            else args.workers if args.backend or args.workers > 1
            else None
        ),
        chunk_size=args.chunk_size,
        packed=args.packed,
        hosts=tuple(args.hosts) if args.hosts else None,
    ) as scheduler:
        run = scheduler.run(RunRequest(config=config, statistic=args.statistic))
    result = run.result
    print(
        f"finished after {result.n_generations} generations, "
        f"{result.n_evaluations} evaluations ({result.termination_reason}), "
        f"{result.elapsed_seconds:.1f}s"
    )
    print(run.summary_line())
    for row in result.summary_rows():
        print(
            f"  size {row['size']}: [{row['haplotype']}] "
            f"fitness {row['fitness']:.3f} "
            f"(found after {row['evaluations_to_best']} evaluations)"
        )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .core.config import GAConfig
    from .parallel.farm import FarmRecoveryPolicy
    from .scan import CheckpointMismatchError, run_scan

    if args.connect is not None:
        # served scans run on the daemon's panel and substrate: every local
        # execution/dataset flag is either meaningless or misleading here
        for flag, present in (
            ("--checkpoint", args.checkpoint is not None),
            ("--resume", args.resume),
            ("--hosts", bool(args.hosts)),
            ("--bed", args.bed is not None),
            ("--vcf", args.vcf is not None),
            ("--self-heal", args.self_heal),
            ("a study argument", args.study is not None),
        ):
            if present:
                print(f"scan --connect serves the daemon's panel; {flag} "
                      f"cannot be combined with it", file=sys.stderr)
                return 2
        from .runtime.client import ScanClient

        config = GAConfig(
            population_size=args.population_size,
            min_haplotype_size=2,
            max_haplotype_size=min(args.max_size, args.window_size),
            termination_stagnation=args.stagnation,
            max_generations=args.max_generations,
        )
        with ScanClient(
            args.connect,
            client_id=args.client_id,
            retry=_retry_policy(args.retries),
        ) as client:
            report = run_scan(
                None,
                window_size=args.window_size,
                overlap=args.window_overlap,
                config=config,
                seed=args.seed,
                statistic=args.statistic,
                client=client,
                client_timeout=args.timeout,
            )
        print(report.format(top=args.top))
        print()
        print(report.summary_line())
        return 0
    if args.resume and args.checkpoint is None:
        print("scan --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.self_heal and args.backend == "serial":
        print(
            "scan --self-heal needs a process-farm backend (process or "
            "remote), not 'serial'",
            file=sys.stderr,
        )
        return 2
    if args.backend == "remote" and not args.hosts:
        print("scan --backend remote requires --hosts HOST:PORT ...",
              file=sys.stderr)
        return 2
    if args.hosts and args.backend != "remote":
        print(f"scan --hosts requires --backend remote, not {args.backend!r}",
              file=sys.stderr)
        return 2
    error = _panel_flags_error("scan", args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    # .bed filesets and VCF GT fields load straight into the 2-bit panel, so
    # scanning them byte-wise would only add an unpack step: both imply
    # --packed
    packed = args.packed or args.bed is not None or args.vcf is not None
    dataset = _load_panel(args)
    cost_model = _load_cost_model(args.cost_model)
    config = GAConfig(
        population_size=args.population_size,
        min_haplotype_size=2,
        max_haplotype_size=min(args.max_size, args.window_size),
        termination_stagnation=args.stagnation,
        max_generations=args.max_generations,
    )
    if args.resume and not os.path.exists(args.checkpoint):
        print(f"scan --resume: no journal at {args.checkpoint}; starting a fresh scan",
              file=sys.stderr)
    try:
        report = run_scan(
            dataset,
            window_size=args.window_size,
            overlap=args.window_overlap,
            config=config,
            seed=args.seed,
            statistic=args.statistic,
            backend=args.backend,
            n_workers=args.workers,
            chunk_size=args.chunk_size,
            jobs=args.jobs,
            # 0 is the unlimited sentinel; negatives fall through to
            # execute_plan's validation and fail loudly
            max_pending=args.max_pending if args.max_pending != 0 else None,
            cost_model=cost_model,
            recovery=FarmRecoveryPolicy(respawn=True) if args.self_heal else None,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            packed=packed,
            hosts=tuple(args.hosts) if args.hosts else None,
        )
    except CheckpointMismatchError as exc:
        # resuming another scan's journal is a usage error, not a crash
        print(f"scan --resume: {exc}", file=sys.stderr)
        return 2
    print(report.format(top=args.top))
    print()
    print(report.summary_line())
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .experiments.table1 import run_table1

    print(run_table1().format())
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from .experiments.figure4 import run_figure4

    sizes = tuple(range(2, args.max_size + 1))
    print(run_figure4(sizes=sizes, n_samples=args.samples).format())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments.table2 import paper_scale_config, quick_config, run_table2

    config = quick_config() if args.quick else paper_scale_config()
    result = run_table2(
        config=config,
        n_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        n_workers=args.workers,
    )
    print(result.format())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments.ablation import run_ablation

    print(
        run_ablation(
            n_runs=args.runs,
            seed=args.seed,
            backend=args.backend,
            n_workers=args.workers,
        ).format()
    )
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from .experiments.speedup import run_measured_speedup, run_simulated_speedup

    if args.measured and args.backend == "serial":
        print("speedup --measured times a parallel farm; pick --backend "
              "process", file=sys.stderr)
        return 2
    print(run_simulated_speedup(seed=args.seed).format())
    if args.measured:
        # 1 is always present: it is the in-process serial baseline the
        # parallel timings are normalised against
        worker_counts = sorted({1, args.workers}) if args.workers else None
        print()
        print(run_measured_speedup(backend=args.backend,
                                   chunk_size=args.chunk_size,
                                   worker_counts=worker_counts,
                                   seed=args.seed).format())
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from .experiments.landscape_study import run_landscape_study

    sizes = tuple(range(2, args.max_size + 1))
    print(run_landscape_study(panel_size=args.panel_size, sizes=sizes).format())
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments.robustness import run_robustness

    result = run_robustness(
        n_runs=args.runs,
        seed=args.seed,
        backend=args.backend,
        n_workers=args.workers,
    )
    print(result.format())
    print(f"mean similarity across sizes: {result.mean_similarity():.3f}")
    return 0


def _cmd_objectives(args: argparse.Namespace) -> int:
    from .experiments.objectives import run_objective_comparison

    print(
        run_objective_comparison(
            n_per_size=args.per_size,
            seed=args.seed,
            backend=args.backend,
            n_workers=args.workers,
        ).format()
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import threading
    from multiprocessing import Pipe

    from .runtime.remote import InsecureBindError, serve

    # announce only once serve() reports readiness over the pipe: by then the
    # listener is bound (the banner carries the resolved ephemeral port) and
    # the SIGTERM/SIGINT drain handlers are installed
    recv_end, send_end = Pipe(duplex=False)

    def announce() -> None:
        try:
            host, port = recv_end.recv()
        except (EOFError, OSError):  # serve failed before binding
            return
        print(f"repro-ga worker host listening on {host}:{port}", flush=True)

    threading.Thread(target=announce, daemon=True).start()
    try:
        serve(args.bind, max_connections=args.max_connections, _ready=send_end)
    except InsecureBindError as exc:
        send_end.close()  # wakes the announcer with EOF
        print(exc, file=sys.stderr)
        return 2
    return 0


def _retry_policy(retries: int | None):
    """Map a --retries flag to a client RetryPolicy (None = client default,
    0 = fail on the first transport loss)."""
    from .runtime.client import RetryPolicy

    return RetryPolicy() if retries is None else RetryPolicy(max_attempts=retries + 1)


def _print_status(status: dict) -> None:
    cache = status["result_cache"]
    admission = status["admission"]
    print(
        f"scan service on {status['backend']}: {status['n_snps']} SNPs "
        f"({'packed' if status['packed'] else 'byte'} panel, statistic "
        f"{status['statistic'].upper()}), up {status['uptime_seconds']:.0f}s, "
        f"{status['n_completed_requests']} request(s) completed"
    )
    print(f"  {status['summary']}")
    print(
        f"  result cache: {cache['n_entries']} window(s), "
        f"{cache['bytes']}/{cache['max_bytes']} bytes, "
        f"{cache['n_hits']} hit(s) / {cache['n_misses']} miss(es), "
        f"{cache['n_evictions']} eviction(s)"
    )
    print(
        f"  admission: {admission['n_active']} active, "
        f"{admission['n_queued']} queued "
        f"({admission['outstanding_cost_seconds']:.3f}s est. outstanding), "
        f"{admission['n_admitted']} admitted / "
        f"{admission['n_rejected']} rejected / "
        f"{admission.get('n_cancelled', 0)} cancelled, "
        f"{admission['total_wait_seconds']:.3f}s total queue wait"
    )
    health = status.get("health")
    if health is not None:
        farm = health["farm"]
        alive = farm["n_alive_workers"]
        alive_text = "?" if alive is None else str(alive)
        line = (
            f"  farm: {alive_text}/{farm['n_workers']} worker(s) alive "
            f"on {farm['backend']}"
        )
        recovery = farm["recovery"]
        if recovery is not None:
            line += (
                f", {recovery['n_worker_deaths']} death(s) / "
                f"{recovery['n_chunks_replayed']} chunk(s) replayed / "
                f"{recovery['n_worker_respawns']} respawn(s)"
            )
        print(line)
        for row in farm["hosts"] or ():
            state = "alive" if row["alive"] else (
                f"dead (retry in {row['reconnect_in_seconds']:.1f}s)"
            )
            print(
                f"    host {row['host']} (worker {row['worker']}): {state}, "
                f"last heartbeat {row['seconds_since_heartbeat']:.1f}s ago"
            )
        journal = health["journal"]
        if journal["dir"] is not None:
            print(
                f"  journal: {journal['dir']} — "
                f"{journal.get('n_inflight_scans', 0)} in-flight scan(s), "
                f"{journal['n_recovered_windows']} window(s) replayed across "
                f"{journal['n_recovered_scans']} recovered scan(s)"
            )
    for client_id, row in sorted(status["tenants"].items()):
        stats = row["stats"]
        print(
            f"  tenant {client_id}: {row['n_requests']} request(s) "
            f"({row['n_scans']} scan(s), {row['n_runs']} run(s)), "
            f"{row['n_windows']} window(s) of which "
            f"{row['n_result_cache_hits']} replayed, "
            f"{stats['n_requests']} evaluation request(s) -> "
            f"{stats['n_evaluations']} evaluated, "
            f"{row['n_rejected']} rejected, "
            f"{row['admission_wait_seconds']:.3f}s queued"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.status:
        from .runtime.client import ScanClient

        with ScanClient(args.bind, client_id="status-probe") as client:
            _print_status(client.status())
        return 0
    error = _panel_flags_error("serve", args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.backend == "remote" and not args.hosts:
        print("serve --backend remote requires --hosts HOST:PORT ...",
              file=sys.stderr)
        return 2
    if args.hosts and args.backend != "remote":
        print(f"serve --hosts requires --backend remote, not {args.backend!r}",
              file=sys.stderr)
        return 2
    from .runtime.remote import InsecureBindError
    from .runtime.server import AdmissionPolicy, ScanServer

    packed = args.packed or args.bed is not None or args.vcf is not None
    dataset = _load_panel(args)
    policy = AdmissionPolicy(
        max_active=args.max_active,
        max_queued=args.max_queued,
        max_inflight_per_client=args.max_inflight_per_client,
        max_outstanding_cost_seconds=args.max_cost_seconds,
        over_budget=args.over_budget,
    )
    server = ScanServer(
        dataset,
        statistic=args.statistic,
        backend=args.backend,
        n_workers=args.workers,
        chunk_size=args.chunk_size,
        cost_model=_load_cost_model(args.cost_model),
        packed=packed,
        hosts=tuple(args.hosts) if args.hosts else None,
        **({} if args.cache_bytes is None else {"cache_bytes": args.cache_bytes}),
        admission=policy,
        journal_dir=args.journal_dir,
    )
    try:
        host, port = server.start(args.bind)
        # handlers first, banner second: a SIGTERM racing the announcement
        # must already drain cleanly
        with server.signal_handlers():
            print(
                f"repro-ga scan service on {host}:{port} — backend "
                f"{server.scheduler.backend}, {dataset.n_snps} SNPs, statistic "
                f"{server.statistic.upper()} (SIGTERM/SIGINT drain and exit)",
                flush=True,
            )
            server.wait(install_signal_handlers=False)
    except InsecureBindError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        server.close()
    print("scan service shut down cleanly", flush=True)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "scan": _cmd_scan,
    "table1": _cmd_table1,
    "figure4": _cmd_figure4,
    "table2": _cmd_table2,
    "ablation": _cmd_ablation,
    "speedup": _cmd_speedup,
    "landscape": _cmd_landscape,
    "robustness": _cmd_robustness,
    "objectives": _cmd_objectives,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
