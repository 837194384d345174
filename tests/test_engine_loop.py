"""The contract of the one run loop and options base the four engines
share (``repro.engine.loop``): what every options class validates, and
that snapshots keep their format across the refactor."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro._util.errors import ValidationError
from repro.algorithms.registry import create
from repro.engine import (
    AsyncEngineOptions,
    AsynchronousEngine,
    CheckpointConfig,
    CheckpointPolicy,
    EdgeCentricEngine,
    EdgeCentricOptions,
    EngineOptions,
    GraphCentricEngine,
    GraphCentricOptions,
    SnapshotStore,
    SynchronousEngine,
)
from repro.generators import powerlaw_graph

ENGINES = {
    "synchronous": (SynchronousEngine, EngineOptions),
    "asynchronous": (AsynchronousEngine, AsyncEngineOptions),
    "edge-centric": (EdgeCentricEngine, EdgeCentricOptions),
    "graph-centric": (GraphCentricEngine, GraphCentricOptions),
}

#: One CC snapshot per engine on ``powerlaw_graph(300, 2.5, seed=5)``,
#: written by the commit before the engines shared a loop (killed right
#: after the snapshot covering iteration 0, key ``parent-<engine>``).
PARENT_SNAPSHOTS = Path(__file__).parent / "data" / "parent_snapshots"


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


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_no_snapshot_at_the_boundary_the_run_ends_on(engine, tmp_path):
    """One stop order on every engine — drained before the due flush —
    so the last step never writes a snapshot completion would discard."""
    engine_class, options_class = ENGINES[engine]
    config = CheckpointConfig(store=SnapshotStore(tmp_path),
                              policy=CheckpointPolicy.parse("1"),
                              key=f"boundary-{engine}")
    trace = engine_class(options_class(checkpoint=config)).run(
        create("cc"), powerlaw_graph(300, 2.5, seed=5))
    assert trace.converged and trace.n_iterations >= 2
    assert trace.meta["checkpoints_written"] == trace.n_iterations - 1


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_resumes_a_snapshot_written_before_the_shared_loop(engine, tmp_path):
    """Same ``engine=`` label, same payload keys: an old snapshot
    resumes and finishes exactly as an uninterrupted run does."""
    engine_class, options_class = ENGINES[engine]
    problem = powerlaw_graph(300, 2.5, seed=5)
    base_program = create("cc")
    base = engine_class(options_class()).run(base_program, problem)

    for snap in PARENT_SNAPSHOTS.glob(f"parent-{engine}-*.snap"):
        shutil.copy(snap, tmp_path)
    config = CheckpointConfig(store=SnapshotStore(tmp_path),
                              policy=CheckpointPolicy.parse("1"),
                              key=f"parent-{engine}")
    program = create("cc")
    trace = engine_class(options_class(checkpoint=config)).run(
        program, problem)

    assert trace.meta["resumed_from_iteration"] == 1
    assert trace.to_dict()["iterations"] == base.to_dict()["iterations"]
    assert (trace.stop_reason, trace.result) == (base.stop_reason,
                                                 base.result)
    np.testing.assert_array_equal(program.component, base_program.component)
