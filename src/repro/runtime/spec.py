"""Evaluator specifications: *how* to build an evaluator, not the evaluator.

The execution-backend layer never ships live
:class:`~repro.stats.evaluation.HaplotypeEvaluator` objects around by
default.  Instead it passes a small, picklable :class:`EvaluatorSpec`
(statistic + EM/CLUMP/caching parameters) together with a
:class:`DatasetHandle` describing *where the genotype data lives* — in a
shared-memory segment (:class:`~repro.runtime.shm.SharedDatasetHandle`, the
local farm) or embedded in the message as the 2-bit packed panel
(:class:`PackedDatasetHandle`, the remote hosts).  Every worker combines the
two once at start-up and keeps the resulting evaluator for its lifetime,
which is exactly the paper's "the slaves are initiated at the beginning and
access only once to the data".

The module also holds the scan daemon's wire envelopes and
:data:`PROTOCOL_VERSION`, the version of their pickled shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..genetics.dataset import GenotypeDataset, as_packed_dataset
from ..stats.evaluation import HaplotypeEvaluator

if TYPE_CHECKING:  # pragma: no cover - typing only (service imports spec)
    from ..core.config import GAConfig
    from .service import RunRequest

__all__ = [
    "EvaluatorSpec",
    "DatasetHandle",
    "PackedDatasetHandle",
    "SpecEvaluatorFactory",
    "PROTOCOL_VERSION",
    "ClientHello",
    "ScanEnvelope",
    "RunEnvelope",
    "StatusProbe",
    "HealthProbe",
    "ShutdownCommand",
]


@runtime_checkable
class DatasetHandle(Protocol):
    """A picklable reference through which a worker obtains the dataset."""

    def load(self) -> GenotypeDataset:
        """Materialise (or attach to) the dataset; called once per worker."""
        ...


@dataclass(frozen=True)
class PackedDatasetHandle:
    """An embedded handle that ships the 2-bit packed panel, not the bytes.

    Construction converts the dataset to its packed affected-first form
    (:func:`~repro.genetics.dataset.as_packed_dataset`), whose pickle carries
    only the packed panels (~4× smaller than the byte matrix) — the wire
    format of choice for the ``remote`` backend, where the dataset crosses a
    socket once per connection.  Workers evaluate on the packed substrate,
    which is bit-identical to the byte path.
    """

    dataset: GenotypeDataset

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset", as_packed_dataset(self.dataset))

    def load(self) -> GenotypeDataset:
        return self.dataset


@dataclass(frozen=True)
class EvaluatorSpec:
    """Declarative recipe for a :class:`~repro.stats.evaluation.HaplotypeEvaluator`.

    Field defaults mirror the evaluator's constructor defaults, so
    ``EvaluatorSpec()`` describes the seed pipeline's exact statistical
    behaviour.
    """

    statistic: str = "t1"
    em_max_iter: int = 200
    em_tol: float = 1e-8
    clump_min_expected: float = 5.0
    cache_size: int | None = 256

    def build(self, dataset: GenotypeDataset) -> HaplotypeEvaluator:
        """Construct the evaluator this spec describes over ``dataset``."""
        return HaplotypeEvaluator(
            dataset,
            statistic=self.statistic,
            em_max_iter=self.em_max_iter,
            em_tol=self.em_tol,
            clump_min_expected=self.clump_min_expected,
            cache_size=self.cache_size,
        )

    @classmethod
    def from_evaluator(cls, evaluator: HaplotypeEvaluator) -> "EvaluatorSpec":
        """The spec an existing evaluator was built from."""
        return cls(
            statistic=evaluator.statistic,
            em_max_iter=evaluator.em_max_iter,
            em_tol=evaluator.em_tol,
            clump_min_expected=evaluator.clump_min_expected,
            cache_size=evaluator.cache_size,
        )

    def with_statistic(self, statistic: str) -> "EvaluatorSpec":
        return replace(self, statistic=statistic)

    def normalized(self) -> "EvaluatorSpec":
        """The spec with its fields in the evaluator's normalised form.

        :class:`HaplotypeEvaluator` lower-cases the statistic and coerces the
        numeric parameters, so ``spec.build(...)`` followed by
        :meth:`from_evaluator` yields exactly ``spec.normalized()``.  Spec
        equality checks (e.g. the run scheduler's substrate validation) must
        compare normalised forms or ``statistic="T1"`` would not match
        ``statistic="t1"``.
        """
        return EvaluatorSpec(
            statistic=self.statistic.lower(),
            em_max_iter=int(self.em_max_iter),
            em_tol=float(self.em_tol),
            clump_min_expected=float(self.clump_min_expected),
            cache_size=self.cache_size,
        )


# --------------------------------------------------------------------------- #
# scan-service request envelopes (the wire protocol of runtime/server.py)
# --------------------------------------------------------------------------- #
# Envelopes are plain frozen dataclasses shipped as length-prefixed pickles
# over an authenticated ``multiprocessing.connection`` socket — the exact
# transport the remote worker hosts use.  They live here (not in server.py)
# because both endpoints import them and this module is the runtime layer's
# designated home for picklable message types.

#: Version of the envelopes' pickled shapes.  Bump it whenever a field of an
#: envelope (or of the request objects they carry) is added, removed or
#: changes meaning: the daemon refuses a hello from another version.
#: (v2: ``GAConfig`` and ``EvaluatorSpec`` each lost a field.)  The test
#: suite pins every carried shape's field names to this number.
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class ClientHello:
    """First message of every connection: who is asking, in which protocol.

    ``client_id`` scopes the per-tenant metrics and in-flight caps; clients
    sharing an id share a quota (and a metrics row).  ``protocol_version``
    is the sender's :data:`PROTOCOL_VERSION`.  It has no default on purpose:
    a default would also be a class attribute, so a hello pickled by a
    client that predates the field would read it and pass the check.
    """

    client_id: str
    protocol_version: int


@dataclass(frozen=True)
class ScanEnvelope:
    """One windowed-scan request; the server streams per-window completions.

    Geometry/seeding fields mirror :func:`repro.scan.planner.plan_scan`; the
    execution substrate (backend, workers, packing) is the *server's* and is
    deliberately absent.  ``statistic`` must match the daemon's substrate —
    one scheduler is one evaluator recipe.
    """

    window_size: int
    overlap: int = 0
    config: "GAConfig | None" = None
    seed: int = 0
    statistic: str = "t1"
    n_runs: int = 1


@dataclass(frozen=True)
class RunEnvelope:
    """One direct GA run: a :class:`~repro.runtime.service.RunRequest`.

    The request says only what to run; the daemon's warm substrate executes
    it, and the evaluator spec/statistic must match the server's.
    """

    request: "RunRequest"


@dataclass(frozen=True)
class StatusProbe:
    """Ask for the daemon's status dict (uptime, cache, admission, tenants)."""


@dataclass(frozen=True)
class HealthProbe:
    """Ask for the daemon's liveness card: farm/worker-host health, admission
    queue depth, and the crash-recovery journal account.  Cheaper and more
    targeted than :class:`StatusProbe` — the monitoring heartbeat request."""


@dataclass(frozen=True)
class ShutdownCommand:
    """Ask the daemon to drain in-flight work and exit its serve loop."""

    drain: bool = True


@dataclass(frozen=True)
class SpecEvaluatorFactory:
    """Picklable worker-side factory: ``handle.load()`` + ``spec.build()``.

    Instances are shipped to worker processes and called exactly once each;
    the handle decides whether the data is embedded or attached from shared
    memory.
    """

    spec: EvaluatorSpec
    handle: DatasetHandle

    def __call__(self) -> HaplotypeEvaluator:
        return self.spec.build(self.handle.load())
