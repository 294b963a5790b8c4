"""Execution-runtime layer: backend registry, shared-memory store, run service.

This package is the seam between the GA/statistics code and the machinery
that actually executes fitness evaluations:

* :mod:`repro.runtime.spec` — picklable evaluator recipes and dataset handles;
* :mod:`repro.runtime.backends` — the string-keyed execution-backend registry
  (``serial`` / ``process``, also named ``process-shm`` / ``remote``);
* :mod:`repro.runtime.shm` — the one-copy shared-memory genotype store;
* :mod:`repro.runtime.service` — the persistent ``RunScheduler`` that executes
  ``RunRequest`` objects for the CLI, the scan and the experiment harnesses;
* :mod:`repro.runtime.server` / :mod:`repro.runtime.client` — the
  scan-as-a-service daemon (warm farm + cross-request result cache +
  cost-aware admission) and its socket client.

``service``/``server``/``client`` are re-exported lazily: they import the GA
core, which itself resolves its default backend through this package.
"""

from .backends import (
    DEFAULT_BACKEND,
    BackendRequest,
    backend_names,
    create_evaluator,
    register_backend,
    resolve_backend,
)
from .shm import ShardedGenotypeStore, SharedDatasetHandle, SharedGenotypeStore
from .spec import DatasetHandle, EvaluatorSpec, SpecEvaluatorFactory

__all__ = [
    "DEFAULT_BACKEND",
    "BackendRequest",
    "backend_names",
    "create_evaluator",
    "register_backend",
    "resolve_backend",
    "EvaluatorSpec",
    "DatasetHandle",
    "SpecEvaluatorFactory",
    "SharedGenotypeStore",
    "SharedDatasetHandle",
    "ShardedGenotypeStore",
    "RunRequest",
    "RunResult",
    "RunScheduler",
    "ScanServer",
    "ScanClient",
    "AdmissionPolicy",
    "AdmissionRejected",
]


def __getattr__(name: str):
    # Lazy re-export: service.py (and the scan-service modules built on it)
    # imports the GA core, which in turn imports this package for its default
    # backend; importing them eagerly here would create a cycle.
    if name in ("RunRequest", "RunResult", "RunScheduler"):
        from . import service

        return getattr(service, name)
    if name in ("ScanServer", "AdmissionPolicy", "AdmissionRejected"):
        from . import server

        return getattr(server, name)
    if name == "ScanClient":
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
