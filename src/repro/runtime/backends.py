"""The pluggable execution-backend registry.

Every layer that needs fitnesses — the GA core, the island model, the
experiment harnesses, the CLI — asks this registry for a
:class:`~repro.parallel.base.BatchEvaluator` by *name* instead of
hand-building one:

=========== =================================================================
name        substrate
=========== =================================================================
serial      in-process loop (the reference backend)
process     the local synchronous master/slave farm: slaves attach to one
            shared-memory copy of the genotype matrices and rebuild
            lightweight evaluator views over it; a bare fitness callable is
            pickled once to each slave instead
process-shm a second name for ``process``
remote      multi-host master/slave farm over authenticated sockets
            (``hosts=["host:port", ...]``, one slave per entry): each
            connection ships the 2-bit packed panel once, then only
            haplotype chunks travel; dead connections replay like dead
            slaves
=========== =================================================================

A backend factory receives the normalised request — an
:class:`~repro.runtime.spec.EvaluatorSpec` plus dataset and/or a plain
fitness callable — and returns a live evaluator.  New substrates become a
:func:`register_backend` call instead of a rewrite of every call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..genetics.dataset import GenotypeDataset, as_packed_dataset
from ..parallel.base import BaseBatchEvaluator, BatchEvaluator, FitnessCallable
from ..parallel.farm import FarmRecoveryPolicy
from ..parallel.master_slave import MasterSlaveEvaluator
from ..parallel.pvm import EvaluationCostModel
from ..parallel.serial import SerialEvaluator
from ..stats.evaluation import HaplotypeEvaluator
from .shm import SharedGenotypeStore
from .spec import EvaluatorSpec, PackedDatasetHandle, SpecEvaluatorFactory

__all__ = [
    "BackendRequest",
    "BackendFactory",
    "register_backend",
    "backend_names",
    "resolve_backend",
    "create_evaluator",
    "DEFAULT_BACKEND",
]

DEFAULT_BACKEND = "serial"


@dataclass(frozen=True)
class BackendRequest:
    """Normalised arguments every backend factory receives.

    Exactly one of (``fitness``) or (``spec`` + ``dataset``) is guaranteed to
    be usable; a backend that must rebuild evaluators on another machine
    (``remote``) requires the spec form and raises a ``TypeError`` otherwise.
    """

    spec: EvaluatorSpec | None
    dataset: GenotypeDataset | None
    fitness: FitnessCallable | None
    n_workers: int | None
    chunk_size: int | None
    dedup: bool
    cache_size: int | None
    worker_cache_size: int | None
    cost_model: EvaluationCostModel | None = None
    recovery: FarmRecoveryPolicy | None = None
    worker_wrapper: Callable | None = None
    packed: bool = False
    hosts: tuple[str, ...] | None = None

    def local_fitness(self) -> FitnessCallable:
        """A fitness callable usable in the calling process."""
        if self.fitness is not None:
            return self.fitness
        assert self.spec is not None and self.dataset is not None
        return self.spec.build(self.dataset)

    def require_spec(self, backend: str) -> tuple[EvaluatorSpec, GenotypeDataset]:
        if self.spec is None or self.dataset is None:
            raise TypeError(
                f"the {backend!r} backend rebuilds evaluators on its worker hosts "
                f"and therefore needs an EvaluatorSpec + dataset (or a "
                f"HaplotypeEvaluator to derive them from), not a bare callable"
            )
        return self.spec, self.dataset


BackendFactory = Callable[[BackendRequest], BatchEvaluator]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, *, replace: bool = False) -> None:
    """Register an execution backend under ``name``."""
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def backend_names() -> tuple[str, ...]:
    """Names of all registered backends (sorted)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str) -> BackendFactory:
    """Look up a backend factory by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; available: {', '.join(backend_names())}"
        ) from None


def create_evaluator(
    backend: str,
    source: HaplotypeEvaluator | EvaluatorSpec | FitnessCallable,
    *,
    dataset: GenotypeDataset | None = None,
    n_workers: int | None = None,
    chunk_size: int | None = None,
    dedup: bool = True,
    cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
    worker_cache_size: int | None = BaseBatchEvaluator.DEFAULT_CACHE_SIZE,
    cost_model: EvaluationCostModel | None = None,
    recovery: FarmRecoveryPolicy | None = None,
    worker_wrapper: Callable | None = None,
    packed: bool = False,
    hosts: Sequence[str] | None = None,
) -> BatchEvaluator:
    """Build a batch evaluator on the named backend.

    ``source`` may be a live :class:`HaplotypeEvaluator` (its spec is
    derived from it, and so is ``dataset`` when omitted), an
    :class:`EvaluatorSpec` (``dataset`` required), or any fitness callable
    (sufficient for ``serial`` and, if picklable, for ``process``).  A live
    evaluator answers in-process fitnesses only over its own dataset; given
    another ``dataset``, every backend rebuilds it from its spec over that
    panel.  ``cost_model`` (optional) feeds the chunked
    farms' cost-driven auto chunking, e.g. a model the scheduler calibrated
    on measured evaluation times.  ``recovery`` (optional) installs a
    :class:`~repro.parallel.farm.FarmRecoveryPolicy` on the process-farm
    backends so slave deaths and hangs are survived instead of fatal;
    ``worker_wrapper`` (optional, fault-injection harness) wraps the worker
    evaluator factory before it ships to the slaves.  Both are process-farm
    features — the in-process backends reject them.

    ``packed=True`` runs the whole pipeline on the 2-bit packed substrate:
    the dataset is converted to packed affected-first form
    (:func:`~repro.genetics.dataset.as_packed_dataset`), shared-memory
    segments hold the packed panel (~4× smaller), and phase expansions are
    counted from packed columns.  Results are bit-identical to the byte
    path.  Requires the spec form (a bare fitness callable carries no
    dataset to pack).

    ``hosts`` (the ``remote`` backend only) lists the worker hosts as
    ``"host:port"`` specs, one slave per entry.
    """
    spec: EvaluatorSpec | None = None
    fitness: FitnessCallable | None = None
    if isinstance(source, EvaluatorSpec):
        if dataset is None:
            raise TypeError("an EvaluatorSpec source requires the dataset argument")
        spec = source
    elif isinstance(source, HaplotypeEvaluator):
        spec = EvaluatorSpec.from_evaluator(source)
        if dataset is None or dataset is source.dataset:
            dataset = source.dataset
            fitness = source
    elif callable(source):
        fitness = source
    else:
        raise TypeError(
            f"source must be a HaplotypeEvaluator, EvaluatorSpec or callable, "
            f"got {type(source).__name__}"
        )
    if packed:
        if spec is None or dataset is None:
            raise TypeError(
                "packed=True needs an EvaluatorSpec + dataset (or a "
                "HaplotypeEvaluator to derive them from), not a bare callable"
            )
        dataset = as_packed_dataset(dataset)
        # a live evaluator from the caller is bound to the byte dataset;
        # rebuild from the spec so every backend runs on the packed panel
        fitness = None
    request = BackendRequest(
        spec=spec,
        dataset=dataset,
        fitness=fitness,
        n_workers=n_workers,
        chunk_size=chunk_size,
        dedup=dedup,
        cache_size=cache_size,
        worker_cache_size=worker_cache_size,
        cost_model=cost_model,
        recovery=recovery,
        worker_wrapper=worker_wrapper,
        packed=packed,
        hosts=tuple(hosts) if hosts is not None else None,
    )
    return resolve_backend(backend)(request)


# --------------------------------------------------------------------- #
# the built-in backends
# --------------------------------------------------------------------- #
def _serial_backend(request: BackendRequest) -> BatchEvaluator:
    # in-process: no slave processes to heal or wrap, no hosts to reach
    if request.recovery is not None or request.worker_wrapper is not None:
        raise TypeError(
            "the 'serial' backend runs in-process and supports neither a "
            "recovery policy nor a worker_wrapper; use a process-farm backend "
            "(process, remote)"
        )
    if request.hosts is not None:
        raise TypeError(
            "the 'serial' backend runs in-process and cannot use remote "
            "hosts; use the 'remote' backend"
        )
    return SerialEvaluator(
        request.local_fitness(), dedup=request.dedup, cache_size=request.cache_size
    )


def _farm_kwargs(request: BackendRequest) -> dict:
    """The MasterSlaveEvaluator arguments shared by every chunked-farm backend."""
    return dict(
        n_workers=request.n_workers,
        chunk_size=request.chunk_size,
        worker_cache_size=request.worker_cache_size,
        dedup=request.dedup,
        cache_size=request.cache_size,
        cost_model=request.cost_model,
        recovery=request.recovery,
        worker_wrapper=request.worker_wrapper,
    )


def _process_backend(request: BackendRequest) -> BatchEvaluator:
    """The local farm: slaves attach to one shared-memory copy of the panel.

    With a spec and a dataset, one :class:`SharedGenotypeStore` (packed when
    the request is) backs every slave's evaluator, and the evaluator's close
    releases it.  A bare fitness callable is pickled once to each slave
    instead.  Dispatch is affinity-only: no stealing.
    """
    if request.hosts is not None:
        raise TypeError(
            "the 'process' backend runs local slave processes and ignores "
            "hosts; use the 'remote' backend for multi-host dispatch"
        )
    if request.spec is None or request.dataset is None:
        return MasterSlaveEvaluator(request.fitness, **_farm_kwargs(request))
    store = SharedGenotypeStore(request.dataset, packed=request.packed)
    try:
        evaluator = MasterSlaveEvaluator(
            evaluator_factory=SpecEvaluatorFactory(request.spec, store.handle),
            **_farm_kwargs(request),
        )
    except BaseException:
        store.release()
        raise
    evaluator.register_close_callback(store.release)
    return evaluator


def _remote_backend(request: BackendRequest) -> BatchEvaluator:
    """The multi-host farm: slaves behind sockets, packed panel shipped once.

    Requires the spec form (the factory must be rebuilt on another machine)
    and ``hosts``.  The dataset always crosses the wire in its 2-bit packed
    form — bit-identical to the byte path and ~4× cheaper to ship.  Stealing
    is master-mediated, and the farm's recovery engine treats a dead
    connection exactly like a dead local slave.
    """
    from .remote import RemoteSlavePool  # noqa: F401 - validates availability

    spec, dataset = request.require_spec("remote")
    if request.hosts is None:
        raise TypeError(
            "the 'remote' backend needs hosts=[\"host:port\", ...] naming the "
            "worker hosts (one slave per entry)"
        )
    kwargs = _farm_kwargs(request)
    kwargs.pop("n_workers")  # one slave per host entry
    return MasterSlaveEvaluator(
        evaluator_factory=SpecEvaluatorFactory(spec, PackedDatasetHandle(dataset)),
        hosts=request.hosts,
        steal=True,
        **kwargs,
    )


register_backend("serial", _serial_backend)
register_backend("process", _process_backend)
register_backend("process-shm", _process_backend)
register_backend("remote", _remote_backend)
