"""The contract of the one run loop and options base the four engines
share (``repro.engine.loop``): what every options class validates."""

import pytest

from repro._util.errors import ValidationError
from repro.engine import (
    AsyncEngineOptions,
    AsynchronousEngine,
    EdgeCentricEngine,
    EdgeCentricOptions,
    EngineOptions,
    GraphCentricEngine,
    GraphCentricOptions,
    SynchronousEngine,
)

ENGINES = {
    "synchronous": (SynchronousEngine, EngineOptions),
    "asynchronous": (AsynchronousEngine, AsyncEngineOptions),
    "edge-centric": (EdgeCentricEngine, EdgeCentricOptions),
    "graph-centric": (GraphCentricEngine, GraphCentricOptions),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_shared_options_validation(engine):
    _, options_class = ENGINES[engine]
    with pytest.raises(ValidationError):
        options_class(wall_clock_budget_s=0)
    with pytest.raises(ValidationError):
        options_class(health_policy="lenient")
    # The kernel path follows the program's declaration, not an option.
    with pytest.raises(TypeError):
        options_class(fused_kernels=False)
    # A lost run is retried whole: there is no in-run resume to set up.
    with pytest.raises(TypeError):
        options_class(checkpoint=None)
