"""Shared-memory graph plane: materialize once, attach everywhere.

The corpus plan re-uses each distinct :class:`GraphSpec` across ~11
algorithms, and every pool worker used to regenerate the graph for each
cell it executed. This module lets the corpus builder *publish* a
materialized :class:`~repro.generators.problem.ProblemInstance` into
POSIX shared memory exactly once, and lets every worker *attach* a
read-only zero-copy view of it.

Layout
------
One ``multiprocessing.shared_memory`` segment per published problem,
named ``repro-shm-<hex>``. The segment packs each distinct array of
the graph once (:meth:`Graph.buffers`: ``out_ptr/out_dst/out_eid``, the
``in_*`` side only for a directed graph, ``edge_weight`` when present —
the attach side re-aliases an undirected graph's ``in_*`` to its
``out_*`` views) followed by every array-valued domain input
(``points``, ``is_user``, ...), each at a 64-byte-aligned offset. A
small picklable :class:`ShmManifest` carries the segment name, per-array
``(name, dtype, shape, offset)`` records, and the problem's scalar
inputs/params — workers receive the manifest in their task payload and
rebuild a :class:`~repro.graph.csr.Graph` over read-only views.

Ownership and cleanup
---------------------
The *publishing* process (the corpus builder) owns every segment through
a :class:`GraphPlane` and is the only one that unlinks:

- ``GraphPlane.close()`` — idempotent; called from ``CrewLoop.close``
  (covers clean exit, exceptions, and the first-^C stop path) and
  registered with ``atexit`` as a second line of defense;
- the parent keeps its ``resource_tracker`` registration, so even a
  SIGKILLed builder gets its segments reclaimed when the tracker
  process exits;
- workers only ever ``close()`` their attachments (on interpreter
  exit); a SIGKILLed worker drops its mapping with the process and
  leaks nothing, because the name is owned by the parent.

The publisher never resolves its own graphs: a crew loop runs no cell
in its own process. Attaching never registers with the resource
tracker (see :func:`_attach_segment`): registration belongs to the
owner alone. There is no probe for a working shared memory: the first
publish that fails is the answer (the loop then stops publishing).
See DESIGN.md §11.
"""

from __future__ import annotations

import atexit
import uuid
from dataclasses import dataclass

import numpy as np

from repro.generators.problem import ProblemInstance
from repro.graph.csr import Graph

#: Prefix of every segment name created here; lifecycle tests glob
#: ``/dev/shm/<prefix>*`` to prove nothing leaks.
SEGMENT_PREFIX = "repro-shm-"

#: Per-array alignment inside a segment.
_ALIGNMENT = 64

#: Scalar input types that travel in the manifest instead of the segment.
_SCALAR_TYPES = (bool, int, float, str, np.bool_, np.integer, np.floating)


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a segment."""

    name: str
    dtype: str
    shape: tuple
    offset: int

    @property
    def nbytes(self) -> int:
        count = int(np.prod(self.shape, dtype=np.int64))
        return int(np.dtype(self.dtype).itemsize) * count


@dataclass(frozen=True)
class ShmManifest:
    """Picklable recipe for rebuilding a problem from a segment."""

    key: str
    segment: str
    domain: str
    n_vertices: int
    n_edges: int
    directed: bool
    arrays: tuple  # of ArraySpec; names "graph.<csr>" / "input.<key>"
    scalars: tuple  # ((input name, value), ...) for non-array inputs
    graph_meta: tuple  # ((k, v), ...) snapshot of Graph.meta
    params: tuple  # ((k, v), ...) snapshot of ProblemInstance.params


def publishable(problem: ProblemInstance) -> bool:
    """Whether every domain input is an array or a plain scalar.

    The DD domain carries a whole ``PairwiseMRF`` object and falls back
    to per-process materialization; the corpus domains (ga, clustering,
    cf) are all publishable.
    """
    return all(isinstance(v, (np.ndarray, *_SCALAR_TYPES))
               for v in problem.inputs.values())


def unlink_segment(name: str) -> bool:
    """Unlink a segment owned by a process that will never clean up.

    Used by the distributed-build coordinator to reap the graph-plane
    segments of a dead or partitioned node agent (their names travel
    in the node's heartbeats precisely for this). Attaching without a
    resource-tracker registration and unlinking directly is safe: the
    owner is gone, and if a zombie worker of that node is still mapped
    the kernel keeps the memory until the last detach while the name
    disappears immediately. Returns True when the name existed.
    """
    if not name.startswith(SEGMENT_PREFIX):
        return False  # never unlink names we did not create
    try:
        seg = _attach_segment(name)
    except FileNotFoundError:
        return False
    except Exception:
        return False
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        pass
    finally:
        seg.close()
    return True


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _layout(problem: ProblemInstance) -> tuple[list, list, int]:
    """Plan the segment: (array entries, scalar inputs, total bytes)."""
    pairs: list[tuple[str, np.ndarray]] = [
        (f"graph.{name}", arr)
        for name, arr in problem.graph.buffers().items()
    ]
    scalars: list[tuple[str, object]] = []
    for key in sorted(problem.inputs):
        value = problem.inputs[key]
        if isinstance(value, np.ndarray):
            pairs.append((f"input.{key}", value))
        else:
            scalars.append((key, value))
    specs: list[tuple[ArraySpec, np.ndarray]] = []
    offset = 0
    for name, arr in pairs:
        offset = _aligned(offset)
        spec = ArraySpec(name=name, dtype=arr.dtype.str,
                         shape=tuple(arr.shape), offset=offset)
        specs.append((spec, arr))
        offset += arr.nbytes
    return specs, scalars, max(offset, 1)


def _attach_segment(name: str):
    """Open an existing segment without a resource-tracker registration.

    ``SharedMemory(name=...)`` registers the name with the resource
    tracker even for plain attachments (``track=False`` exists only on
    Python 3.13+). Registering an attachment is wrong either way: a
    pool worker shares the parent's tracker process, so a later
    unregister would erase the *owner's* registration (losing the
    SIGKILL safety net and making the owner's unlink error), while an
    independent process's tracker would unlink a segment it does not
    own at exit. So on older Pythons the registration hook is silenced
    for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _problem_from_segment(manifest: ShmManifest, seg) -> ProblemInstance:
    """Rebuild a problem over read-only views of one open segment."""
    views: dict[str, np.ndarray] = {}
    for spec in manifest.arrays:
        arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                         buffer=seg.buf, offset=spec.offset)
        arr.setflags(write=False)
        views[spec.name] = arr
    graph = Graph(
        n_vertices=manifest.n_vertices,
        n_edges=manifest.n_edges,
        directed=manifest.directed,
        out_ptr=views["graph.out_ptr"],
        out_dst=views["graph.out_dst"],
        out_eid=views["graph.out_eid"],
        # Published only where they are arrays of their own.
        in_ptr=views.get("graph.in_ptr", views["graph.out_ptr"]),
        in_src=views.get("graph.in_src", views["graph.out_dst"]),
        in_eid=views.get("graph.in_eid", views["graph.out_eid"]),
        edge_weight=views.get("graph.edge_weight"),
        meta=dict(manifest.graph_meta),
    )
    inputs: dict[str, object] = dict(manifest.scalars)
    for name, arr in views.items():
        if name.startswith("input."):
            inputs[name[len("input."):]] = arr
    return ProblemInstance(graph=graph, domain=manifest.domain,
                           inputs=inputs, params=dict(manifest.params))


# ----------------------------------------------------------------------
# Attach side (workers)
# ----------------------------------------------------------------------
#: Open attachments by segment name: the segment and the problem over
#: its read-only views, so a worker executing many cells of one graph
#: rebuilds the view once. Holding the SharedMemory object keeps the
#: mapping (and every numpy view over it) valid for the life of the
#: process; entries are closed at interpreter exit.
_ATTACHED: dict[str, tuple[object, ProblemInstance]] = {}
#: Manifests installed into this process (worker payloads), by key.
_INSTALLED_MANIFESTS: dict[str, ShmManifest] = {}


def attach(manifest: ShmManifest) -> ProblemInstance:
    """Attach a published problem read-only (zero-copy, memoized)."""
    hit = _ATTACHED.get(manifest.segment)
    if hit is None:
        seg = _attach_segment(manifest.segment)
        hit = _ATTACHED[manifest.segment] = (
            seg, _problem_from_segment(manifest, seg))
    return hit[1]


def _close_attachments() -> None:
    """Close (never unlink) every attachment held by this process. The
    problems go first: a segment with live views over it cannot close."""
    segments = [seg for seg, _ in _ATTACHED.values()]
    _ATTACHED.clear()
    for seg in segments:
        try:
            seg.close()
        except Exception:
            pass


atexit.register(_close_attachments)


def install_manifest(manifest: ShmManifest) -> None:
    """Make a manifest resolvable by key in this process."""
    _INSTALLED_MANIFESTS[manifest.key] = manifest


def resolve(key: str) -> "ProblemInstance | None":
    """Resolve a spec cache key to a published problem, if a manifest
    for it was installed here (worker side). A manifest whose segment
    has vanished — the plane was closed under us — is dropped and the
    caller falls back to regenerating.
    """
    manifest = _INSTALLED_MANIFESTS.get(key)
    if manifest is None:
        return None
    try:
        return attach(manifest)
    except Exception:
        _INSTALLED_MANIFESTS.pop(key, None)
        from repro.obs.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.emit("shm", action="attach-failed", key=key)
        return None


# ----------------------------------------------------------------------
# Publish side (the corpus builder)
# ----------------------------------------------------------------------
class GraphPlane:
    """Owner of all published segments for one crew loop, and the one
    record of what it published.

    ``publish`` copies a problem into a fresh segment; workers reach it
    through the manifest (:meth:`manifest`) that travels in their task
    payload. ``close`` unlinks everything and is idempotent — it runs
    from ``CrewLoop.close`` *and* ``atexit``.
    """

    def __init__(self) -> None:
        #: key -> (owned segment, its manifest)
        self._published: dict[str, tuple[object, ShmManifest]] = {}
        self._closed = False
        atexit.register(self.close)

    def __len__(self) -> int:
        return len(self._published)

    def manifest(self, key: str) -> "ShmManifest | None":
        """The manifest published under *key*, if any."""
        hit = self._published.get(key)
        return None if hit is None else hit[1]

    def segments(self) -> "list[str]":
        """Names of every published segment."""
        return [mf.segment for _, mf in self._published.values()]

    def publish(self, key: str, problem: ProblemInstance) -> ShmManifest:
        """Copy ``problem`` into shared memory under ``key``."""
        if self._closed:
            raise RuntimeError("graph plane is closed")
        existing = self.manifest(key)
        if existing is not None:
            return existing
        from multiprocessing import shared_memory

        specs, scalars, total = _layout(problem)
        name = f"{SEGMENT_PREFIX}{uuid.uuid4().hex[:16]}"
        seg = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            for spec, arr in specs:
                view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                                  buffer=seg.buf, offset=spec.offset)
                view[...] = np.ascontiguousarray(arr)
            graph = problem.graph
            manifest = ShmManifest(
                key=key,
                segment=name,
                domain=problem.domain,
                n_vertices=graph.n_vertices,
                n_edges=graph.n_edges,
                directed=graph.directed,
                arrays=tuple(spec for spec, _ in specs),
                scalars=tuple(scalars),
                graph_meta=tuple(sorted(graph.meta.items())),
                params=tuple(sorted(problem.params.items())),
            )
        except Exception:
            seg.close()
            try:
                seg.unlink()
            except Exception:
                pass
            raise
        self._published[key] = (seg, manifest)
        from repro.obs.telemetry import get_telemetry

        tel = get_telemetry()
        if tel.enabled:
            tel.emit("shm", action="publish", key=key, bytes=total)
        return manifest

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # A closed plane has nothing left for exit to do, and a
        # registered bound method would keep it alive until then.
        atexit.unregister(self.close)
        for seg, _ in self._published.values():
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
        self._published.clear()
