"""Settings that no caller selected are gone, and passing one fails loudly.

The GA has one loop (the paper's synchronous generation barrier), every EM
starts from the uniform distribution, worker processes start from the
platform's default context, and the scheduler and the daemon run the
backends' default dedup and caches.  A caller still passing one of the
removed keywords gets a ``TypeError`` instead of a silently ignored value.
"""

import pytest

from repro.core.config import GAConfig
from repro.runtime.backends import create_evaluator
from repro.runtime.server import ScanServer
from repro.runtime.service import RunScheduler
from repro.runtime.spec import EvaluatorSpec
from repro.stats.evaluation import HaplotypeEvaluator

REMOVED = {
    "GAConfig.overlap_generations": lambda data: GAConfig(overlap_generations=1),
    "HaplotypeEvaluator.warm_start": lambda data: HaplotypeEvaluator(data, warm_start=True),
    "EvaluatorSpec.warm_start": lambda data: EvaluatorSpec(warm_start=True),
    "create_evaluator.start_method": lambda data: create_evaluator(
        "serial", EvaluatorSpec(), dataset=data, start_method="spawn"
    ),
    "RunScheduler.cache_size": lambda data: RunScheduler(data, cache_size=0),
    "ScanServer.dedup": lambda data: ScanServer(data, dedup=False),
}


@pytest.mark.parametrize("setting", sorted(REMOVED))
def test_removed_keyword_is_refused(small_dataset, setting):
    keyword = setting.split(".")[1]
    with pytest.raises(TypeError, match=keyword):
        REMOVED[setting](small_dataset)
