"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload served_cohort --seed 3 --seconds 10 --trace 0

The workload's panel is written under ``perfbench/_work/`` before anything
is timed; ``--seed`` seeds the GA runs and the served scans.  The expected
result is the serial
in-process fingerprint: recorded in ``reference.json`` for the default seed,
computed once per invocation for any other seed.

Each repetition runs in a fresh interpreter (``rep.py``), so peak RSS and
cold caches start the same every time; repetitions continue until their work
phases come within half a repetition of ``--seconds`` (at least three).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, with the tracing
overhead against the untraced median.  The line before the last carries the
details: every repetition, percentile sample counts, the probes a traced run
could not install or that never fired, the host and the disturbance record
(load average, steal share, a CPU-speed probe before and after).  The last line is the result; the exit code is 1 when a
result differed from the reference or a repetition failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.pin_threads()  # before numpy loads here or in any repetition
common.require_program()

import workloads as w  # noqa: E402

MIN_REPS = 3
MAX_REPS = 15
#: the whole invocation must end well within three minutes
BUDGET_SECONDS = 165.0

END_TO_END = {
    "setup_s": "s",
    "evaluations_per_s": "1/s",
    "windows_per_s": "1/s",
    "window_gap_p50_s": "s",
    "peak_rss_mb": "MB",
}


def run_rep(workload: str, seed: int, directory: Path, trace: bool, timeout: float):
    """One repetition in a fresh interpreter; returns (outcome, error)."""
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--input", str(directory),
        "--scratch", str(directory / "scratch"),
    ] + (["--trace"] if trace else [])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"repetition timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        # take down whatever the repetition left behind (farm slaves, daemon)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {proc.returncode}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, f"unreadable repetition output {out[-200:]!r}"


def check(workload: str, seed: int, outcome: dict | None, expected: dict) -> tuple[int, int]:
    """(attempted, failed) for one repetition: GA runs on run51, windows when served."""
    if workload == "run51":
        units = len(expected["runs"])
        if outcome is None:
            return units, units
        return units, common.count_mismatches(outcome["fingerprint"]["runs"], expected["runs"])
    plan = [(t, s) for t in range(w.TENANTS) for s in w.tenant_seeds(seed, t)]
    attempted = sum(len(expected["scans"][str(s)]) for _t, s in plan)
    if outcome is None:
        return attempted, attempted
    failed = 0
    originals: dict = {}
    seen = set()
    for scan in outcome["fingerprint"]["scans"]:
        want = expected["scans"][str(scan["seed"])]
        key = (scan["tenant"], scan["seed"])
        seen.add(key)
        if "error" in scan:
            failed += len(want)
            continue
        failed += common.count_mismatches(scan["windows"], want, originals.get(key))
        originals.setdefault(key, scan["windows"])
    missing = [s for t, s in plan if (t, s) not in seen]
    return attempted, min(attempted, failed + sum(len(expected["scans"][str(s)]) for s in missing))


def repetitions(args, directory: Path, started: float):
    """Run repetitions until the measured work reaches ``--seconds``."""
    plan = [False, True] if args.trace else [False]
    runs: dict[bool, list] = {False: [], True: []}
    errors: list = []
    while True:
        for traced in plan:
            remaining = BUDGET_SECONDS - (time.monotonic() - started)
            outcome, error = run_rep(args.workload, args.seed, directory, traced,
                                     timeout=max(remaining, 10.0))
            runs[traced].append(outcome)
            if error is not None:
                errors.append(error)
        done = [r for r in runs[plan[-1]] if r is not None]
        measured = sum(r["work_s"] for r in done)
        longest = max((r["work_s"] + r["setup_s"] for r in done), default=0.0)
        if args.trace:
            enough = 2 * measured >= args.seconds and len(done) >= 2
        else:
            n_gaps = sum(len(r["gaps"]) for r in done)
            # stop once the work is within half a repetition of --seconds, so
            # long repetitions do not overshoot it by a whole one
            reach = measured * (1.0 + 0.5 / len(done)) if done else 0.0
            enough = (
                reach >= args.seconds and len(done) >= MIN_REPS
                and common.samples_beyond(n_gaps, 0.5) >= common.MIN_SAMPLES_BEYOND
            )
        out_of_time = time.monotonic() - started + 2 * longest * len(plan) > BUDGET_SECONDS
        if errors or enough or out_of_time or len(runs[False]) >= MAX_REPS:
            return runs, errors


def end_to_end(reps: list[dict], detail: dict) -> dict:
    """Rates and gaps pool every repetition's work; set-up and memory are
    medians over repetitions."""
    gaps = [gap for r in reps for gap in r["gaps"]]
    detail["window_gap_samples"] = len(gaps)
    try:
        detail["window_gap_p90_s"] = common.percentile(gaps, 0.9)
    except common.InsufficientSamples as refused:
        detail["window_gap_p90_s"] = f"not reported: {refused}"
    work = sum(r["work_s"] for r in reps)
    values = {
        "setup_s": common.median([r["setup_s"] for r in reps]),
        "evaluations_per_s": sum(r["requests"] for r in reps) / work,
        "windows_per_s": sum(r["windows"] for r in reps) / work,
        "window_gap_p50_s": common.percentile(gaps, 0.5),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    from tracing import PER_LAYER

    values = {
        name: common.median([r["layers"][name] for r in traced])
        for name in PER_LAYER if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        common.median([r["work_s"] for r in traced])
        / common.median([r["work_s"] for r in untraced]) - 1.0
    )
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, default=w.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    ticks = common.cpu_ticks()
    probe = common.cpu_probe_s()

    directory = w.prepare(args.workload)
    expected, source = w.reference(args.workload, args.seed, directory)
    runs, errors = repetitions(args, directory, started)

    attempted = failed = 0
    for outcome in runs[False] + runs[True]:
        units, bad = check(args.workload, args.seed, outcome, expected)
        attempted += units
        failed += bad
    untraced = [r for r in runs[False] if r is not None]
    traced = [r for r in runs[True] if r is not None]
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "reference": source,
        "repetitions": [
            {key: r[key] for key in
             ("setup_s", "setup_first_s", "work_s", "requests", "windows", "peak_rss_mb")}
            | {"gaps": len(r["gaps"]), "traced": traced_flag}
            for traced_flag in (False, True) for r in runs[traced_flag] if r is not None
        ],
        "errors": errors,
        "probes": traced[0]["probes"] if traced else None,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "host": common.host_record(),
    }
    metrics: dict = {}
    if not errors:
        metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, detail)
    for name in metrics:
        common.check_metric_name(name)
    detail["disturbance"] = common.disturbance(
        ticks, common.cpu_ticks(), [probe, common.cpu_probe_s()])
    print(json.dumps({"detail": detail}))
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
