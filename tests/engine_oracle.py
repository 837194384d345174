"""The engine oracles: what production's one kernel path and its
health monitor are held to.

Two independent checks of :mod:`repro.engine.kernels`, both shipped in
``src/`` until the kernel layer became one path and moved here the way
``tests/ensemble_oracle.py`` did:

* :class:`ReferenceEngine` — the synchronous engine driven one vertex
  at a time with a barrier between phases (gather-all, then apply-all,
  then scatter-all), so synchronous semantics are preserved exactly.
  It calls the program's callbacks itself and shares no kernel code
  with production; traces must match counter for counter
  (``_gather_reference`` / ``_scatter_reference`` are the bodies the
  former ``EngineOptions(mode="reference")`` ran, its shape check
  inlined).
* :class:`VerifyingKernels` — a :class:`~repro.engine.kernels.Kernels`
  that re-evaluates every fused gather and scatter on the callback
  path and fails on the first bit that differs (the former
  ``REPRO_VERIFY_FUSED=1``). :func:`verify_fused` installs it for a
  test.

The third oracle arm, the same program with its shape declarations
cleared, is :func:`tests.conftest.unfused`.

And one of :mod:`repro.engine.health`:

* :class:`EagerMonitor` — the monitor production ran until its
  recurrence signature became two-level: every check pays the blake2b
  digest, the NaN scan and the fancy-indexed norm. It decides what
  production must decide, ``period`` checks earlier for a stall or an
  oscillation and at the same iteration for everything else.
  :func:`eager_monitor` installs it for a test.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError
from repro._util.segments import REDUCE_IDENTITY, segmented_reduce
from repro.algorithms.registry import create
from repro.behavior.run import build_engine_options
from repro.engine.engine import SynchronousEngine
from repro.engine.health import (
    HealthMonitor,
    HealthVerdict,
    _minimal_period,
    _signature,
    _state_arrays,
)
from repro.engine.instrumentation import Counters
from repro.engine.kernels import Kernels, adjacency
from repro.engine.loop import next_frontier
from repro.experiments.graph_cache import materialize_problem


def _gather_reference(program, ctx, frontier, ptr, idx, eid):
    width = program.gather_width
    shape = (frontier.size,) if width == 1 else (frontier.size, width)
    acc = np.full(shape, REDUCE_IDENTITY[program.gather_op],
                  dtype=program.gather_dtype)
    n_reads = 0
    for i, v in enumerate(frontier.tolist()):
        s, e = int(ptr[v]), int(ptr[v + 1])
        if e == s:
            continue
        slots = np.arange(s, e)
        nbr = idx[slots]
        center = np.full(nbr.size, v, dtype=np.int64)
        contributions = np.asarray(
            program.gather_edge(ctx, nbr, center, eid[slots]),
            dtype=program.gather_dtype)
        expected = (nbr.size,) if width == 1 else (nbr.size, width)
        if contributions.shape != expected:
            raise ValidationError(
                f"{program.name}.gather_edge returned shape "
                f"{contributions.shape}, expected {expected}")
        reduced = segmented_reduce(
            contributions, np.asarray([nbr.size]), program.gather_op)
        acc[i] = reduced[0]
        n_reads += nbr.size
    return acc, n_reads


def _scatter_reference(program, ctx, frontier, ptr, idx, eid):
    signaled_parts: list[np.ndarray] = []
    n_msgs = 0
    for v in frontier.tolist():
        s, e = int(ptr[v]), int(ptr[v + 1])
        if e == s:
            continue
        slots = np.arange(s, e)
        nbr = idx[slots]
        center = np.full(nbr.size, v, dtype=np.int64)
        mask = np.asarray(program.scatter_edges(ctx, center, nbr,
                                                eid[slots]), dtype=bool)
        if mask.shape != (nbr.size,):
            raise ValidationError(
                f"{program.name}.scatter_edges returned shape "
                f"{mask.shape}, expected ({nbr.size},)"
            )
        n_msgs += int(mask.sum())
        if mask.any():
            signaled_parts.append(nbr[mask])
    if signaled_parts:
        signaled = np.unique(np.concatenate(signaled_parts))
    else:
        signaled = np.empty(0, dtype=np.int64)
    return signaled, n_msgs


class ReferenceEngine(SynchronousEngine):
    """The synchronous engine, one vertex at a time (unit work model).
    Takes the same :class:`~repro.engine.engine.EngineOptions`; the
    pull decision has nothing to steer here."""

    def _step(self, run, iteration, phase_times):
        program, ctx, frontier = run.program, run.ctx, run.frontier
        counters = Counters(active=int(frontier.size),
                            updates=int(frontier.size))
        acc = None
        ptr, idx, eid = adjacency(run.graph, program.gather_dir)
        if ptr is not None:
            acc, counters.edge_reads = _gather_reference(
                program, ctx, frontier, ptr, idx, eid)
        for i in range(frontier.size):
            program.apply(ctx, frontier[i:i + 1],
                          None if acc is None else acc[i:i + 1])
        signaled = np.empty(0, dtype=np.int64)
        ptr, idx, eid = adjacency(run.graph, program.scatter_dir)
        if ptr is not None:
            signaled, counters.messages = _scatter_reference(
                program, ctx, frontier, ptr, idx, eid)
        program.on_iteration_end(ctx)
        counters.work = self._unit_work(run, frontier.size)
        return counters, next_frontier(program, ctx, signaled)


def run_reference(algorithm, spec, options=None):
    """``run_computation(algorithm, spec, options=...)`` on the
    reference engine: registry defaults, same materialized problem."""
    problem, _ = materialize_problem(spec)
    engine = ReferenceEngine(build_engine_options(algorithm, options))
    return engine.run(create(algorithm), problem)


class VerifyingKernels(Kernels):
    """Every fused evaluation, re-done on the callback path and
    compared bit for bit. The callback twin is a plain ``Kernels`` with
    its fused paths switched off, so only phases that *can* fuse are
    evaluated twice — a program whose callbacks have side effects
    (``ctx.add_work``) declares no shape and is left alone."""

    #: Fused evaluations cross-checked since :func:`verify_fused`.
    checks = 0

    def __init__(self, program, graph):
        super().__init__(program, graph)
        self.callback = Kernels(program, graph)
        self.callback.can_gather = self.callback.can_scatter = False

    def _same(self, ctx, phase, fused, callback):
        VerifyingKernels.checks += 1
        for a, b in zip(fused, callback):
            if not np.array_equal(a, b):
                raise AssertionError(
                    f"fused {phase} diverged from the callback path for "
                    f"{self.program.name} at iteration {ctx.iteration}")

    def gather(self, ctx, vids, dense=False):
        out = super().gather(ctx, vids, dense)
        if dense and self.can_gather:
            # Every row, not only the frontier's, as the in-line check
            # did: the dense kernel computes them all.
            every = np.arange(self.graph.n_vertices, dtype=np.int64)
            self._same(ctx, "gather", super().gather(ctx, every, True),
                       self.callback.gather(ctx, every))
            self._same(ctx, "gather", out, self.callback.gather(ctx, vids))
        return out

    def scatter(self, ctx, vids, dense=False):
        out = super().scatter(ctx, vids, dense)
        if dense and self.can_scatter:
            self._same(ctx, "scatter", out, self.callback.scatter(ctx, vids))
        return out


def verify_fused(monkeypatch):
    """Make every engine run of this test build
    :class:`VerifyingKernels` (the loop looks ``Kernels`` up in its own
    namespace, once per run)."""
    monkeypatch.setattr(VerifyingKernels, "checks", 0)
    monkeypatch.setattr("repro.engine.loop.Kernels", VerifyingKernels)
    return VerifyingKernels


def _finite_norm(arrays):
    """Max |finite value| across arrays; None if no finite float data."""
    norm = None
    for arr in arrays:
        if not arr.size:
            continue
        finite = arr[np.isfinite(arr)]
        if finite.size:
            peak = float(np.abs(finite).max())
            norm = peak if norm is None else max(norm, peak)
    return norm


class EagerMonitor(HealthMonitor):
    """Every check digested: the ``_check`` production had before the
    fingerprint, kept whole (its own NaN scan and norm included) so the
    numeric and divergence verdicts are checked too, not only the
    recurrence. Shares the digest itself and the period rule with
    production — those are the definition, not the mechanism."""

    def _check(self, program, *, iteration, frontier, work):
        state = _state_arrays(program)
        floats = {name: arr for name, arr in state.items()
                  if np.issubdtype(arr.dtype, np.floating)}
        if not np.isfinite(work):
            return HealthVerdict("numeric", iteration,
                                 f"WORK counter is {work!r}")
        for name, arr in floats.items():
            if arr.size and np.isnan(arr).any():
                count = int(np.isnan(arr).sum())
                return HealthVerdict(
                    "numeric", iteration,
                    f"state array {name!r} holds {count} NaN value(s)")
        norm = _finite_norm(floats.values())
        if norm is not None:
            if self._norm_floor is None:
                self._norm_floor = norm
            self._norm_floor = min(self._norm_floor, norm)
            threshold = self.divergence_factor * max(self._norm_floor, 1.0)
            if norm > threshold:
                return HealthVerdict(
                    "divergence", iteration,
                    f"state magnitude {norm:.3g} exceeds "
                    f"{self.divergence_factor:g}× its floor "
                    f"{self._norm_floor:.3g}")
        self._signatures.append(_signature(frontier, state))
        if len(self._signatures) == self.window:
            period = _minimal_period(self._signatures)
            if period == 1:
                return HealthVerdict(
                    "stall", iteration,
                    f"frontier and state unchanged over the last "
                    f"{self.window} checks")
            if period is not None and period <= self.window // 2:
                return HealthVerdict(
                    "oscillation", iteration,
                    f"frontier and state repeat with period {period} "
                    f"over the last {self.window} checks")
        return None


def eager_monitor(monkeypatch):
    """Make every engine run of this test observe with an
    :class:`EagerMonitor` (``build_monitor`` looks the class up in its
    module, once per run)."""
    monkeypatch.setattr("repro.engine.health.HealthMonitor", EagerMonitor)
    return EagerMonitor
