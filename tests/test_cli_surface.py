"""Every CLI option is exercised.

``SURFACE`` maps ``(subcommand, option string)`` to an argv that takes
the option on a tiny fixture; the guard walks ``_build_parser()`` and
requires the table's keys to equal the parser's options, so a flag
cannot be added (or kept after its last row goes) unexercised. One
argv may serve several keys; each distinct argv runs once.

Fixtures are named by placeholders in the argv:

``{tmp}``     the test's own directory (also its cwd and cache dir)
``{obs}``     obs dir of one 300-edge ``repro run --obs full``
``{build}``   obs dir of one full-obs build through a queue, no peers
``{trace}``   the trace id of ``{obs}``
``{bench}``   a directory holding one ``BENCH_ensemble.json``
``{arts}``    a directory holding one ``*.txt`` artifact
``{queue}``   a live queue with one pending task, completed once the
              node under test has run it
"""

from __future__ import annotations

import argparse
import threading
import time

import pytest

import repro.experiments.config as config
from repro.cli import _build_parser, main
from repro.experiments.config import BuildOptions, ExperimentMatrix, Profile
from repro.experiments.distqueue import (
    DistributedQueue,
    TaskRecord,
    build_manifest,
)
from repro.obs.events import read_all_events
from tests.test_tracing import _write_bench

#: 2 algorithms × 2 sizes × 2 exponents = 8 cells, built in well under
#: a second; every ``--profile surface`` row resolves to this.
SURFACE_PROFILE = Profile(
    name="surface",
    ga_sizes=(200, 300),
    cf_sizes=(80,),
    matrix_rows=(16,),
    grid_sides=(8,),
    mrf_edges=(40,),
    alphas=(2.0, 2.5),
    ad_n_hashes=16,
    coverage_samples=100,
    seed=5,
)
SURFACE_ALGORITHMS = ("cc", "pagerank")


def _argv(line: str) -> "tuple[str, ...]":
    return tuple(line.split())


_RUN = "run cc --nedges 300 "
_RUN_OBS = _argv(_RUN + "--obs full --obs-dir {tmp}/obs")
_FAULT = _argv("run pagerank --nedges 300 --health-policy degrade "
               "--inject-fault nan@2")
_CHARACTERIZE = _argv("characterize cc --sizes 200 --alphas 2.0 2.5 "
                      "--seed 3")
_CORPUS = "corpus --profile surface "
_CORPUS_OBS = _argv(_CORPUS + "--obs full --obs-dir {tmp}/obs")
_NODE = _argv("node {queue} --workers 1 --node-id surface-node "
              "--manifest-wait 5")
_DESIGN = _argv("design --profile surface --size 3 --metric coverage "
                "--algorithms cc --scheme log --samples 500")
_ENSEMBLE = _argv("ensemble --profile surface --metric coverage "
                  "--sizes 2 3 --scheme log --beam-width 8 "
                  "--strategy greedy --samples 200 "
                  "--obs full --obs-dir {tmp}/obs")
_REPORT = _argv("report --artifacts {arts} --store {tmp}/cache "
                "--out {tmp}/report.md")
_CHARACTERIZE_CORPUS = _argv(
    "characterize-corpus --profile surface --workers 2")
_COMPARE = "bench compare {bench} {bench} "
_FOLLOW = _argv("tail {obs} -n 1 --follow --for 0.05")

SURFACE: "dict[tuple[str, str], tuple[str, ...]]" = {
    ("run", "--nedges"): _argv(_RUN),
    ("run", "--alpha"): _argv(_RUN + "--alpha 2.0"),
    ("run", "--nrows"): _argv("run jacobi --nrows 16"),
    ("run", "--seed"): _argv(_RUN + "--seed 3"),
    ("run", "--work-model"): _argv(_RUN + "--work-model measured"),
    ("run", "--max-iterations"): _argv(
        "run pagerank --nedges 300 --max-iterations 2"),
    ("run", "--health-policy"): _FAULT,
    ("run", "--inject-fault"): _FAULT,
    ("run", "--json"): _argv(_RUN + "--json {tmp}/trace.json"),
    ("run", "--obs"): _RUN_OBS,
    ("run", "--obs-dir"): _RUN_OBS,
    ("characterize", "--sizes"): _CHARACTERIZE,
    ("characterize", "--alphas"): _CHARACTERIZE,
    ("characterize", "--seed"): _CHARACTERIZE,
    ("corpus", "--profile"): _argv(_CORPUS),
    ("corpus", "--no-cache"): _argv(_CORPUS + "--no-cache"),
    ("corpus", "--progress"): _argv(_CORPUS + "--progress"),
    ("corpus", "--workers"): _argv(_CORPUS + "--workers 2"),
    ("corpus", "--timeout"): _argv(_CORPUS + "--timeout 30"),
    ("corpus", "--retries"): _argv(_CORPUS + "--retries 1"),
    ("corpus", "--resume"): _argv(_CORPUS + "--resume"),
    ("corpus", "--health-policy"): _argv(
        _CORPUS + "--health-policy degrade"),
    ("corpus", "--lease-timeout"): _argv(
        _CORPUS + "--workers 2 --lease-timeout 30"),
    ("corpus", "--max-lease-expiries"): _argv(
        _CORPUS + "--workers 2 --max-lease-expiries 2"),
    ("corpus", "--distributed"): _argv(
        _CORPUS + "--distributed {tmp}/queue"),
    ("corpus", "--obs"): _CORPUS_OBS,
    ("corpus", "--obs-dir"): _CORPUS_OBS,
    ("node", "--workers"): _NODE,
    ("node", "--node-id"): _NODE,
    ("node", "--manifest-wait"): _NODE,
    ("design", "--profile"): _DESIGN,
    ("design", "--size"): _DESIGN,
    ("design", "--metric"): _DESIGN,
    ("design", "--algorithms"): _DESIGN,
    ("design", "--scheme"): _DESIGN,
    ("design", "--samples"): _DESIGN,
    ("ensemble", "--profile"): _ENSEMBLE,
    ("ensemble", "--metric"): _ENSEMBLE,
    ("ensemble", "--sizes"): _ENSEMBLE,
    ("ensemble", "--scheme"): _ENSEMBLE,
    ("ensemble", "--beam-width"): _argv(
        "ensemble --profile surface --sizes 2 3 --beam-width 8"),
    ("ensemble", "--strategy"): _ENSEMBLE,
    ("ensemble", "--samples"): _ENSEMBLE,
    ("ensemble", "--obs"): _ENSEMBLE,
    ("ensemble", "--obs-dir"): _ENSEMBLE,
    ("characterize-corpus", "--profile"): _CHARACTERIZE_CORPUS,
    ("characterize-corpus", "--workers"): _CHARACTERIZE_CORPUS,
    ("report", "--artifacts"): _REPORT,
    ("report", "--store"): _REPORT,
    ("report", "--out"): _REPORT,
    ("stats", "--node"): _argv("stats {build} --node coordinator"),
    ("stats", "--format"): _argv("stats {obs} --format json"),
    ("trace", "--trace-id"): _argv("trace {obs} --trace-id {trace}"),
    ("trace", "--cell"): (
        "trace", "{build}", "--cell", "cc@ga(nedges=200, α=2.0)"),
    ("trace", "--max-depth"): _argv("trace {build} --max-depth 1"),
    ("trace", "--check"): _argv("trace {obs} --check"),
    ("critical-path", "--format"): _argv(
        "critical-path {build} --format json"),
    ("critical-path", "--max-chain"): _argv(
        "critical-path {build} --max-chain 3"),
    ("bench compare", "--warn-pct"): _argv(_COMPARE + "--warn-pct 5"),
    ("bench compare", "--fail-pct"): _argv(_COMPARE + "--fail-pct 50"),
    ("bench compare", "--strict"): _argv(_COMPARE + "--strict"),
    ("bench compare", "--artifact"): _argv(
        _COMPARE + "--artifact BENCH_ensemble.json"),
    ("bench compare", "--format"): _argv(_COMPARE + "--format json"),
    ("tail", "--lines"): _argv("tail {obs} -n 3"),
    ("tail", "--follow"): _FOLLOW,
    ("tail", "--for"): _FOLLOW,
    ("tail", "--raw"): _argv("tail {obs} --raw"),
    ("tail", "--node"): _argv("tail {build} --node coordinator"),
}

#: What a row must print beyond exiting 0, where the exit code alone
#: would not show the option was honoured.
PRINTS: "dict[tuple[str, str], str]" = {
    ("run", "--json"): "trace written to",
    ("run", "--obs-dir"): "telemetry:",
    ("run", "--inject-fault"): "degraded",
    ("corpus", "--progress"): "[8/8]",
    ("corpus", "--distributed"): "distributed:",
    ("design", "--scheme"): "scheme=log",
    ("ensemble", "--strategy"): "strategy=greedy",
    ("stats", "--node"): "cc@ga(nedges=200, α=2.0)",
    ("stats", "--format"): '"complete": true',
    ("trace", "--cell"): "cc@ga(nedges=200, α=2.0)",
    ("critical-path", "--format"): '"window_s"',
    ("bench compare", "--artifact"): "RESULT: OK",
    ("bench compare", "--format"): '"entries"',
    ("tail", "--node"): "build_end",
}


#: Argvs the parser refuses (exit 2) before the command starts, so a
#: bad search parameter never waits on a corpus build.
REJECTED: "tuple[tuple[str, ...], ...]" = (
    _argv("ensemble --profile surface --beam-width 0"),
    _argv("ensemble --profile surface --sizes 2 0"),
)


def _parser_options() -> "dict[tuple[str, str], tuple[str, ...]]":
    """``(subcommand, canonical option) -> every spelling`` over the
    whole parser tree; positionals and ``--help`` are not options."""
    found = {}

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, prefix + (name,))
            elif (action.option_strings
                    and not isinstance(action, argparse._HelpAction)):
                found[" ".join(prefix), action.option_strings[-1]] = \
                    tuple(action.option_strings)

    walk(_build_parser(), ())
    return found


def test_table_keys_equal_the_parser_options():
    options = _parser_options()
    assert set(SURFACE) == set(options)
    assert set(PRINTS) <= set(SURFACE)
    for (command, option), argv in SURFACE.items():
        assert " ".join(argv).startswith(command), (command, argv)
        assert set(options[command, option]) & set(argv), \
            f"the row for {command} {option} never passes it"


def _patch_globals(monkeypatch) -> None:
    monkeypatch.setitem(config.PROFILES, "surface", SURFACE_PROFILE)
    monkeypatch.setattr(config, "CORPUS_ALGORITHMS", SURFACE_ALGORITHMS)


@pytest.fixture(scope="module")
def shared(tmp_path_factory) -> "dict[str, str]":
    """The read-only fixtures, built once through the CLI itself."""
    root = tmp_path_factory.mktemp("surface")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch_globals(monkeypatch)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
        assert main(["run", "cc", "--nedges", "300", "--obs", "full",
                     "--obs-dir", str(root / "obs")]) == 0
        assert main(["corpus", "--profile", "surface",
                     "--distributed", str(root / "queue"), "--obs", "full",
                     "--obs-dir", str(root / "build")]) == 0
    _write_bench(root / "bench", speedup=2.0)
    (root / "arts").mkdir()
    (root / "arts" / "table1.txt").write_text("a table\n", encoding="utf-8")
    trace = next(e["trace"] for e in read_all_events(root / "obs")
                 if "trace" in e)
    return {"obs": str(root / "obs"), "build": str(root / "build"),
            "bench": str(root / "bench"), "arts": str(root / "arts"),
            "trace": trace}


def _live_queue(root) -> "tuple[str, threading.Thread]":
    """A queue holding one pending cell; the returned thread marks the
    build complete once a node has recorded that cell done."""
    queue = DistributedQueue(root / "queue")
    queue.ensure_layout()
    queue.write_manifest(build_manifest(
        BuildOptions(), SURFACE_PROFILE, root / "store", None))
    record = TaskRecord.for_planned(
        ExperimentMatrix(SURFACE_PROFILE).runs_for_algorithm("cc")[0],
        SURFACE_PROFILE)
    queue.publish(record)

    def coordinator() -> None:
        deadline = time.monotonic() + 60
        while (queue.read_done(record.task_id) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        queue.mark_complete()

    thread = threading.Thread(target=coordinator)
    thread.start()
    return str(queue.root), thread


@pytest.mark.parametrize(
    "argv", sorted(set(SURFACE.values())), ids=" ".join)
def test_row_runs(argv, shared, tmp_path, monkeypatch, capsys):
    _patch_globals(monkeypatch)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    names = dict(shared, tmp=str(tmp_path))
    coordinator = None
    if any("{queue}" in arg for arg in argv):
        names["queue"], coordinator = _live_queue(tmp_path)
    try:
        code = main([arg.format(**names) for arg in argv])
    finally:
        if coordinator is not None:
            coordinator.join()
    out, err = capsys.readouterr()
    assert code == 0, err
    for key, row in SURFACE.items():
        if row == argv and key in PRINTS:
            assert PRINTS[key] in out, (key, out)


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_parser_rejects(argv, monkeypatch, capsys):
    import repro.experiments.corpus as corpus

    def no_build(*args, **kwargs):
        raise AssertionError("the corpus was built for a rejected argv")

    _patch_globals(monkeypatch)
    monkeypatch.setattr(corpus, "build_corpus", no_build)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
