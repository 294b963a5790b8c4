"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload run51 --seed 0 --input DIR --scratch DIR [--trace]

Everything is imported before the set-up clock starts (each workload
function imports what it uses first; the served workload launches its
daemon before that, so the two interpreters import side by side).  Set-up runs from
reading the panel to "ready for the first request".  ``run51`` sets up
:data:`SETUP_ROUNDS` times (closing all but the last) and reports the median,
the first of them in the fresh interpreter; traced repetitions set up once.
The work phase runs the workload once.  The last line of standard output is
one JSON object with the timings, the counts, the result fingerprint and,
with ``--trace``, the per-layer metrics of this repetition and the probes
that could not be installed or never fired.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import workloads as w  # noqa: E402

common.require_program()

BANNER = re.compile(r"scan service on (\S+):(\d+) ")
#: set-ups per untraced repetition of run51
SETUP_ROUNDS = 5


class StampedEvaluator:
    """Passes batches to the real evaluator and stamps when each returns.

    The GA hands its evaluator one batch per generation (plus the initial
    population and immigrant batches), so the stamps are the times the run's
    results stream back to the caller.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.stamps: list[float] = []

    @property
    def stats(self):
        return self._inner.stats

    def evaluate_batch(self, batch):
        values = self._inner.evaluate_batch(batch)
        self.stamps.append(time.perf_counter())
        return values

    def evaluate(self, snps):
        return self.evaluate_batch([snps])[0]

    def close(self) -> None:
        pass


def gaps_from(start: float, stamps: list[float]) -> list[float]:
    times = [start, *stamps]
    return [later - earlier for earlier, later in zip(times, times[1:])]


def set_up(build, rounds: int):
    """Call ``build`` ``rounds`` times; close every substrate but the last.

    Returns the last dataset and substrate, and the time each call took.
    """
    times = []
    for round_index in range(rounds):
        start = time.perf_counter()
        dataset, substrate = build()
        times.append(time.perf_counter() - start)
        if round_index < rounds - 1:
            substrate.close()
    return dataset, substrate, times


def setup_record(times: list[float]) -> dict:
    return {"setup_s": common.median(times), "setup_first_s": times[0]}


def rep_run51(seed: int, directory: Path, rounds: int) -> dict:
    from repro.core.ga import AdaptiveMultiPopulationGA
    from repro.runtime.backends import create_evaluator
    from repro.runtime.spec import EvaluatorSpec

    def build():
        dataset = w.load_panel("run51", directory)
        return dataset, create_evaluator(
            "process-shm", EvaluatorSpec(), dataset=dataset, n_workers=w.N_WORKERS
        )

    dataset, evaluator, setups = set_up(build, rounds)
    try:
        ready = time.perf_counter()
        stream = StampedEvaluator(evaluator)
        results = [
            AdaptiveMultiPopulationGA(
                n_snps=dataset.n_snps, config=w.run51_config(run_seed), evaluator=stream
            ).run()
            for run_seed in w.run51_seeds(seed)
        ]
        done = time.perf_counter()
    finally:
        evaluator.close()
    return {
        **setup_record(setups),
        "work_s": done - ready,
        "peak_rss_mb": common.peak_rss_mb(),
        "requests": sum(result.n_evaluations for result in results),
        "windows": len(results),
        "gaps": gaps_from(ready, stream.stamps),
        "fingerprint": {"runs": [common.run_fingerprint(r.best_per_size) for r in results]},
        "streams": 1,
    }


def _tenant(client, seeds: list[int], log: dict, rejection: type) -> None:
    """Closed loop: each scan is sent when the previous one has completed."""
    window, overlap = w.SERVED_WINDOW
    for scan_seed in seeds:
        stamps: list[float] = []
        start = time.perf_counter()
        try:
            report = client.scan(
                window_size=window, overlap=overlap, config=w.scan_config(),
                seed=scan_seed, progress=lambda _result: stamps.append(time.perf_counter()),
            )
        except rejection:
            log["rejected"] += 1
            log["scans"].append({"seed": scan_seed, "error": "rejected"})
            continue
        except Exception as exc:  # counted as failed windows by the orchestrator
            log["scans"].append({"seed": scan_seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        log["gaps"] += gaps_from(start, stamps)
        log["scans"].append({
            "seed": scan_seed,
            "windows": common.window_fingerprint(report.windows),
            "cached": report.n_cached_windows,
            "requests": report.stats.n_requests,
            "admission_wait_s": report.admission_wait_seconds,
            "retries": report.n_client_retries,
        })


def launch_daemon(directory: Path, scratch: Path, trace: bool) -> subprocess.Popen:
    """Start ``repro serve``'s interpreter; it imports, then waits for "go"."""
    journal = scratch / "journal"
    shutil.rmtree(journal, ignore_errors=True)
    (scratch / "daemon.json").unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "daemon.py"),
        "--bed", str(w.panel_path("served_cohort", directory)),
        "--journal-dir", str(journal),
        "--result", str(scratch / "daemon.json"),
    ] + (["--trace"] if trace else [])
    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def rep_served(seed: int, daemon: subprocess.Popen, scratch: Path) -> dict:
    from repro.runtime.client import ScanClient
    from repro.runtime.server import AdmissionRejected

    clients: list[ScanClient] = []
    shut_down = False
    try:
        if daemon.stdout.readline().strip() != "ready":
            raise RuntimeError("the daemon failed before it was ready")
        start = time.perf_counter()
        daemon.stdin.write("go\n")
        daemon.stdin.flush()
        banner = daemon.stdout.readline()
        match = BANNER.search(banner)
        if match is None:
            raise RuntimeError(f"unexpected daemon banner {banner!r}")
        address = f"{match.group(1)}:{match.group(2)}"
        for tenant in range(w.TENANTS):
            clients.append(ScanClient(address, client_id=f"tenant-{tenant}"))
        ready = time.perf_counter()
        logs = [{"gaps": [], "scans": [], "rejected": 0} for _ in clients]
        threads = [
            threading.Thread(target=_tenant, args=(
                client, w.tenant_seeds(seed, t), logs[t], AdmissionRejected))
            for t, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = time.perf_counter()
        clients[0].shutdown_server(timeout=60)
        shut_down = True
    finally:
        for client in clients:
            client.close()
        if not shut_down and daemon.poll() is None:
            daemon.terminate()  # the serve command drains on SIGTERM
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()
    if daemon.returncode != 0:
        raise RuntimeError(f"the daemon exited with code {daemon.returncode}")
    record = json.loads((scratch / "daemon.json").read_text())
    scans = [dict(scan, tenant=t) for t, log in enumerate(logs) for scan in log["scans"]]
    ok = [scan for scan in scans if "error" not in scan]
    return {
        **setup_record([ready - start]),
        "work_s": done - ready,
        "peak_rss_mb": record["peak_rss_mb"],
        "requests": sum(scan["requests"] for scan in ok),
        "windows": sum(len(scan["windows"]) for scan in ok),
        "gaps": [gap for log in logs for gap in log["gaps"]],
        "fingerprint": {"scans": scans},
        "streams": w.TENANTS,
        "daemon_totals": record["totals"],
        "daemon_missing": record["missing"],
        "service": {
            "admission_wait_s": sum(scan["admission_wait_s"] for scan in ok),
            "rejected": sum(log["rejected"] for log in logs),
            "cached_windows": sum(scan["cached"] for scan in ok),
            "windows": sum(len(scan["windows"]) for scan in ok),
            "retries": sum(scan["retries"] for scan in ok),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    args.scratch.mkdir(parents=True, exist_ok=True)

    daemon = None
    if args.workload == "served_cohort":
        daemon = launch_daemon(args.input, args.scratch, args.trace)
    tracer = None
    if args.trace:
        from tracing import Tracer, merge_totals, per_layer_metrics, probe_kinds

        tracer = Tracer().install()
    rounds = 1 if args.trace else SETUP_ROUNDS
    try:
        if args.workload == "run51":
            outcome = rep_run51(args.seed, args.input, rounds)
        else:
            outcome = rep_served(args.seed, daemon, args.scratch)
    finally:
        if tracer is not None:
            tracer.uninstall()
    streams = outcome.pop("streams")
    daemon_totals = outcome.pop("daemon_totals", None)
    daemon_missing = outcome.pop("daemon_missing", [])
    service = outcome.pop("service", {})
    if tracer is not None:
        totals = tracer.tally.totals()
        if daemon_totals is not None:
            totals = merge_totals(totals, daemon_totals)
        outcome["probes"] = {
            "missing": sorted(set(tracer.missing + daemon_missing)),
            "silent": [kind for kind in probe_kinds() if not totals[f"{kind}.n"]],
        }
        outcome["layers"] = per_layer_metrics(totals, {
            **service,
            "work_s": outcome["work_s"],
            "n_workers": w.N_WORKERS,
            "streams": streams,
            "io_bytes": sum(p.stat().st_size for p in w.panel_files(args.workload, args.input)),
        })
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
