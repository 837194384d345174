"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentMatrix, Profile, get_profile
from repro.experiments.corpus import (
    BehaviorCorpus,
    build_corpus,
    run_cache_key,
)
from repro.experiments.results import ResultStore
from repro.generators import (
    bipartite_rating_graph,
    grid_problem,
    matrix_problem,
    mrf_problem,
    powerlaw_graph,
)
from repro.graph.shm import SEGMENT_PREFIX, unlink_segment

#: The checkout this suite runs from: subprocess tests start `repro`
#: from here, so a suite run from a clone measures the clone.
REPO_ROOT = Path(__file__).resolve().parents[1]

#: A very small profile so integration tests build a corpus in seconds.
MINI_PROFILE = Profile(
    name="mini",
    ga_sizes=(200, 600, 1_500, 4_000),
    cf_sizes=(80, 200, 600, 1_500),
    matrix_rows=(30, 50, 70, 90),
    grid_sides=(8, 10, 12, 16),
    mrf_edges=(40, 84, 112, 144),
    memory_budget_bytes=1_400_000,
    ad_n_hashes=64,
    coverage_samples=5_000,
    seed=11,
)


def unfused(program):
    """``program`` with its ``gather_shape`` / ``scatter_shape``
    declarations cleared on the instance, so every engine keeps it on
    the callback path — the oracle arm the fused kernels are compared
    against. The cleared shapes are read-only: SSSP re-declares its
    gather shape in ``init``."""
    cls = type(program)
    cleared = property(lambda self: None, lambda self, value: None)
    program.__class__ = type(cls.__name__, (cls,), {
        "gather_shape": cleared, "scatter_shape": cleared})
    return program


@contextmanager
def pull_from(fraction):
    """The synchronous engine pulling from ``fraction`` of |V| active
    instead of ``PULL_ACTIVE_FRACTION``: 0.0 is the fused arm on every
    step of a fusable program (sparse frontiers too), a value inside a
    run's range of active fractions a mid-run switch. The other arm,
    push on every step, is :func:`unfused`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.engine.engine.PULL_ACTIVE_FRACTION", fraction)
        yield


#: Where POSIX shared memory lives on Linux; the check below is a no-op
#: on a platform without it.
SHM_DIR = Path("/dev/shm")


def _shm_segments() -> "set[str]":
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR)
            if name.startswith(SEGMENT_PREFIX)}


@pytest.fixture(autouse=True)
def _no_shm_segment_left_behind():
    """Fail the test that leaves a new ``repro-shm-*`` segment in
    /dev/shm, naming it: a leak is charged to the test that made it,
    not found later by whatever runs next on the host. The segment is
    unlinked once named, so the next test starts clean."""
    before = _shm_segments()
    yield
    leaked = sorted(_shm_segments() - before)
    for name in leaked:
        unlink_segment(name)
    if leaked:
        pytest.fail(f"test left shared-memory segments behind: {leaked}")


@pytest.fixture(scope="session")
def mini_corpus() -> BehaviorCorpus:
    """A full 11-algorithm corpus at tiny scale, built once per session."""
    return build_corpus(MINI_PROFILE, use_cache=False)


@pytest.fixture(scope="session")
def _warm_smoke_root(tmp_path_factory):
    """The one cold smoke build the CLI tests share."""
    root = tmp_path_factory.mktemp("warm-smoke")
    build_corpus("smoke", store=ResultStore(root))
    return root


@pytest.fixture()
def warm_smoke_cache(_warm_smoke_root, tmp_path, monkeypatch) -> ResultStore:
    """``$REPRO_CACHE_DIR`` set to this test's own copy of a fully built
    smoke store, for CLI tests that only need a corpus to exist. A test
    that needs a cell to execute drops it first with
    :func:`discard_smoke_cell`."""
    root = tmp_path / "cache"
    shutil.copytree(_warm_smoke_root, root)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return ResultStore(root)


def discard_smoke_cell(store: ResultStore, target: str) -> None:
    """Drop the one smoke cell whose ``<algorithm>-<spec key>`` contains
    *target* (the spelling the ``REPRO_INJECT_*`` hooks match on)."""
    profile = get_profile("smoke")
    keys = [run_cache_key(planned, profile)
            for planned in ExperimentMatrix(profile).corpus_runs()]
    (key,) = [key for key in keys if target in key]
    assert store.discard(key)


@pytest.fixture()
def ga_problem():
    return powerlaw_graph(800, 2.5, seed=3)


@pytest.fixture()
def clustering_problem():
    return powerlaw_graph(800, 2.5, seed=3, with_points=True)


@pytest.fixture()
def cf_problem():
    return bipartite_rating_graph(400, 2.5, seed=3)


@pytest.fixture()
def matrix_problem_small():
    return matrix_problem(40, seed=3)


@pytest.fixture()
def grid_problem_small():
    return grid_problem(10, seed=3)


@pytest.fixture()
def mrf_problem_small():
    return mrf_problem(60, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
