"""Helpers shared by the benchmark's processes: statistics, fingerprints, host record.

Nothing here imports the program under test, so the orchestrator can check
that the program is present before it imports anything from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

#: A metric name: ``[A-Za-z0-9_.-]+``, starting with a letter or digit and at
#: most 64 characters long.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: Thread-pool sizes of the numeric libraries; every repetition pins them to 1
#: so the two farm slaves and the master never oversubscribe the cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class InsufficientSamples(ValueError):
    """Too few samples lie beyond a percentile for it to be reported."""


def require_program() -> None:
    """Put the program's sources on ``sys.path``, or exit 2 if they are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_threads() -> None:
    """Set every numeric thread-pool size to 1 for this process and its children."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above both interpolation points of the q-quantile."""
    return n - 1 - math.ceil(q * (n - 1)) if n else 0


def percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between order statistics.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it: a p90 needs 101 samples
    and a median 21.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    ordered = sorted(values)
    n = len(ordered)
    beyond = samples_beyond(n, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are required"
        )
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return float(statistics.median(values))


# --------------------------------------------------------------------------- #
# result fingerprints
# --------------------------------------------------------------------------- #
def canonical(value):
    """JSON-ready form: tuples become lists, numpy scalars Python numbers."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON form (floats keep every digit)."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_fingerprint(best_per_size) -> list:
    """A GA run's best individual per size: ``[[size, snps, fitness], ...]``."""
    return [
        [int(size), [int(s) for s in individual.snps], float(individual.fitness_value())]
        for size, individual in sorted(best_per_size.items())
    ]


def window_fingerprint(windows) -> list:
    """A scan's ``[[index, best_snps, best_fitness], ...]`` in window order."""
    return [
        [int(w.window.index), [int(s) for s in w.best_snps], float(w.best_fitness)]
        for w in sorted(windows, key=lambda w: w.window.index)
    ]


def count_mismatches(observed: list, expected: list, original: list | None = None) -> int:
    """Entries of ``observed`` that differ from ``expected`` (missing or extra
    ones count).  ``original`` is what a replay replays: an entry that
    differs from it fails too."""
    observed, expected = canonical(observed), canonical(expected)
    original = None if original is None else canonical(original)
    failed = abs(len(observed) - len(expected))
    for i, (got, want) in enumerate(zip(observed, expected)):
        replayed = original is None or (i < len(original) and original[i] == got)
        failed += got != want or not replayed
    return failed


# --------------------------------------------------------------------------- #
# host and disturbance record
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB.

    Read from ``VmHWM``: Linux carries the pre-``exec`` image's peak into
    ``ru_maxrss``, so a child started from a large parent would report the
    parent's size.  ``ru_maxrss`` (KiB) is the fallback without ``/proc``.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> dict | None:
    """Aggregate CPU tick counters from ``/proc/stat`` (None where absent)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    ticks = {name: int(v) for name, v in zip(names, fields[1:])}
    ticks["total"] = sum(int(v) for v in fields[1:9])
    return ticks


def host_record() -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def cpu_probe_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    A neighbour that slows this machine's virtual CPUs shows here even when
    no steal time is recorded.
    """
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return median(timings)


def disturbance(before: dict | None, after: dict | None, probes: list[float]) -> dict:
    """Load average now, the CPU probe timings and the steal share of the
    ticks between two ``/proc/stat`` samples."""
    record: dict = {"loadavg": list(os.getloadavg()), "cpu_probe_s": probes}
    if before and after:
        total = after["total"] - before["total"]
        steal = after["steal"] - before["steal"]
        record["steal_ticks"] = steal
        record["steal_frac"] = steal / total if total else 0.0
    return record
