"""Experiment harness: the paper's Table-2 matrix, run execution with
caching, corpus assembly, and report formatting for every table/figure."""

from repro.experiments.config import (
    PROFILES,
    BuildOptions,
    ExperimentMatrix,
    GraphSpec,
    Profile,
    get_profile,
)
from repro.experiments.failures import (
    FAILURE_KINDS,
    RETRYABLE_KINDS,
    RunFailure,
)
from repro.experiments.results import ResultStore

_LAZY = {"BehaviorCorpus", "build_corpus", "CorpusRun", "execute_planned_run"}
_LAZY_CHARACTERIZATION = {"CorpusCharacterization", "characterize_corpus"}
_LAZY_SCHEDULER = {"Supervisor", "Task", "TaskBoard"}


def __getattr__(name: str):
    # Corpus symbols are loaded lazily: repro.experiments.corpus imports
    # repro.behavior.run, which imports this package's config module —
    # an eager import here would close that cycle during bootstrap.
    if name in _LAZY:
        from repro.experiments import corpus

        return getattr(corpus, name)
    if name in _LAZY_CHARACTERIZATION:
        from repro.experiments import characterization

        return getattr(characterization, name)
    if name in _LAZY_SCHEDULER:
        from repro.experiments import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BehaviorCorpus",
    "BuildOptions",
    "ExperimentMatrix",
    "FAILURE_KINDS",
    "GraphSpec",
    "PROFILES",
    "Profile",
    "RETRYABLE_KINDS",
    "ResultStore",
    "RunFailure",
    "Supervisor",
    "Task",
    "TaskBoard",
    "build_corpus",
    "get_profile",
]
