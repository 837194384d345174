"""Behavior dump: per-iteration counters, stop reason, result and a
digest of final program state for every registered algorithm x every
engine that accepts it x {declared, unfused}, default options.

The bit-identity check of an engine change: run this one file under the
parent's and the change's PYTHONPATH and compare the outputs.

    PYTHONPATH=<parent>/src python scripts/dump_behavior.py > parent.txt
    PYTHONPATH=src python scripts/dump_behavior.py > change.txt
    cmp parent.txt change.txt

It imports nothing from tests/ (``unfused`` is restated here), so it
measures only the checkout on the path; ~3 s, 2,452 lines at PR 22.
"""

import hashlib
import json
import sys

import numpy as np

from repro._util.errors import ReproError
from repro.algorithms.registry import create, info, iter_algorithms
from repro.engine.async_engine import AsynchronousEngine
from repro.engine.edge_centric import EdgeCentricEngine
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.graph_centric import GraphCentricEngine
from repro.generators import (
    bipartite_rating_graph,
    erdos_renyi_graph,
    grid_problem,
    matrix_problem,
    mrf_problem,
    powerlaw_graph,
    regular_graph,
)
from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph


def lattice_problem(side=18):
    vid = np.arange(side * side).reshape(side, side)
    src = np.concatenate([vid[:, :-1].ravel(), vid[:-1, :].ravel()])
    dst = np.concatenate([vid[:, 1:].ravel(), vid[1:, :].ravel()])
    return ProblemInstance(
        graph=Graph.from_edges(side * side, src, dst, directed=False),
        domain="ga", params={"family": "grid", "side": side})


#: tests/test_fused_kernels.py::GRAPHS, plus its weighted fixture, for
#: the GA domain; one generator-made problem for each other domain.
FAMILIES = {
    "ga": {
        "powerlaw": lambda: powerlaw_graph(2_000, 2.3, seed=11),
        "uniform": lambda: erdos_renyi_graph(2_000, seed=12),
        "regular": lambda: regular_graph(400, 6, seed=13),
        "grid": lambda: lattice_problem(),
        "powerlaw-weighted": lambda: powerlaw_graph(
            2_000, 2.3, seed=17, with_weights=True),
    },
    "clustering": {"powerlaw-points": lambda: powerlaw_graph(
        2_000, 2.3, seed=11, with_points=True)},
    "cf": {"bipartite": lambda: bipartite_rating_graph(400, 2.5, seed=3)},
    "matrix": {"matrix": lambda: matrix_problem(120, seed=5)},
    "grid": {"pixels": lambda: grid_problem(10, seed=3)},
    "mrf": {"mrf": lambda: mrf_problem(60, seed=3)},
}


def unfused(program):
    cls = type(program)
    cleared = property(lambda self: None, lambda self, value: None)
    program.__class__ = type(cls.__name__, (cls,), {
        "gather_shape": cleared, "scatter_shape": cleared})
    return program


def engines(algorithm):
    defaults = dict(info(algorithm).default_options)
    yield "synchronous", SynchronousEngine(EngineOptions(**defaults))
    yield "asynchronous", AsynchronousEngine()
    yield "edge-centric", EdgeCentricEngine()
    yield "graph-centric", GraphCentricEngine()


def digest(program):
    h = hashlib.sha256()
    for name, arr in sorted(vars(program).items()):
        if isinstance(arr, np.ndarray):
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def jsonable(value):
    if isinstance(value, np.ndarray):
        return hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def main():
    out = sys.stdout
    for record in iter_algorithms():
        for family, make in FAMILIES[record.domain].items():
            problem = make()
            for arm in ("declared", "unfused"):
                for label, engine in engines(record.name):
                    head = f"{record.name}/{family}/{label}/{arm}"
                    program = create(record.name)
                    if arm == "unfused":
                        program = unfused(program)
                    try:
                        trace = engine.run(program, problem)
                    except ReproError as exc:
                        out.write(f"{head} !! {type(exc).__name__}: "
                                  f"{str(exc)[:120]}\n")
                        continue
                    for r in trace.iterations:
                        out.write(
                            f"{head} {r.iteration} {r.active} {r.updates} "
                            f"{r.edge_reads} {r.messages} {r.work!r}\n")
                    result = json.dumps(jsonable(trace.result),
                                        sort_keys=True, default=repr)
                    out.write(
                        f"{head} == {trace.stop_reason} "
                        f"converged={trace.converged} "
                        f"degraded={trace.degraded} "
                        f"state={digest(program)} result={result[:400]}\n")


if __name__ == "__main__":
    main()
