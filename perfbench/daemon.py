"""The served workload's daemon: ``repro serve`` in a fresh interpreter.

    python3 perfbench/daemon.py --bed PREFIX --journal-dir DIR --result FILE [--trace]

Imports everything, prints ``ready`` and waits for a line on standard input,
so the benchmark can start its set-up clock after the imports.  It then runs
the CLI's ``serve`` command, whose banner is printed once the farm is up and
the socket listens, on ``process-shm`` with the workload's worker count.  With
``--trace`` the tracer is installed before the farm forks.  When the service
has shut down, the daemon writes its peak RSS, its trace tally and the probes
it could not install to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import workloads as w  # noqa: E402

common.require_program()

import repro.cli  # noqa: E402
import repro.genetics.io  # noqa: E402, F401 - imported before the clock starts
import repro.runtime.server  # noqa: E402, F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bed", required=True)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2
    try:
        code = repro.cli.main([
            "serve", "--bed", args.bed, "--bind", "127.0.0.1:0",
            "--backend", "process-shm", "--workers", str(w.N_WORKERS),
            "--journal-dir", args.journal_dir,
        ])
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "peak_rss_mb": common.peak_rss_mb(),
        "totals": tracer.tally.totals() if tracer is not None else None,
        "missing": tracer.missing if tracer is not None else [],
    }
    args.result.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
