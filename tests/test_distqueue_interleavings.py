"""Deterministic interleavings of the distributed-queue protocol.

Two node actors and the coordinator share one real
:class:`DistributedQueue` on ``tmp_path`` under a fake clock. Each actor
is a generator that yields between the protocol's atomic steps:

- a node — ``NodeAgent``'s queue-facing behaviour with one worker —
  claims the first pending task (``take`` under its next live epoch),
  then publishes step by step as ``publish_result`` does
  (``check_fence`` → store write → ``mark_done``) and lets go
  (``drop_claim``);
- the coordinator is the real :class:`Coordinator`, one ``_supervise``
  (``raise_fence`` on a silent node, then ``release`` of its claims) or
  one ``_collect`` (``read_done`` / ``_marker_live``) per step.

A scenario fixes one fault on node ``A``'s first cell: crash after a
step, or freeze past the lease after it and wake at any later point.
Every merge order of the three actors over two tasks is walked from the
start; a suffix is cut only where the same global state — queue files,
store, every actor's position, the coordinator's books — was already
walked from another prefix. Checked on the way: a task is never both
pending and claimed (or claimed twice); a cell is collected once, in
plan order, and through a marker only while that marker's epoch is
above its signer's fence (a stale publish is refused at the node or at
the coordinator, never collected); and wherever the system comes to
rest no claim is left behind and both cells are in (no lost task).

What the model leaves out (ROADMAP item 2): steps *inside* one
``_supervise`` / ``_collect``, two claims held by one node, the crew
under the node, the final sweep.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro._util.durable import read_json_object
from repro.experiments import distqueue
from repro.experiments.config import BuildOptions
from repro.experiments.corpus import ExperimentMatrix
from repro.experiments.distqueue import (
    Coordinator,
    DistributedQueue,
    TaskRecord,
    publish_result,
)
from tests.test_distqueue import DQ_PROFILE

LEASE_S = 10.0
#: One coordinator step of fake time. No step waits on the clock: the
#: ``_supervise`` that fences a lost node also releases its claims.
ROUND_S = 1.0
#: The victim's steps a fault can follow.
FAULT_AFTER = ("take", "check", "store", "done")
MAX_STEPS = 200


class _Stored(NamedTuple):
    """What the stand-in's ``outcome`` hands back for an entry: its tag,
    and no metrics (a real store's ``StoredRun`` carries them)."""

    tag: tuple
    metrics: None = None


class _Store:
    """In-memory stand-in for the shared result store: an entry is the
    ``(node, epoch)`` of the publish that wrote it."""

    def __init__(self) -> None:
        self.entries: dict = {}

    def outcome(self, key, resume):
        entry = self.entries.get(key)
        return None if entry is None else _Stored(entry)

    def save(self, key, entry) -> None:
        self.entries[key] = entry

    save_failure = save

    def discard(self, key) -> None:
        self.entries.pop(key, None)


class _Corpus:
    """What the coordinator files cells into and counts on."""

    def __init__(self, on_collect) -> None:
        self._on_collect = on_collect
        self.n_collected = 0
        self.nodes_seen = self.nodes_lost = self.lease_expiries = 0
        self.queue_requeues = self.stale_done_markers = 0
        self.stale_epoch_rejections = 0

    def collect(self, run, total, progress) -> None:
        self._on_collect(run)
        self.n_collected += 1


class _Taped:
    """An object seen through the world's tape (``_World.observe``)."""

    def __init__(self, target, observe) -> None:
        self._target, self._observe = target, observe

    def __getattr__(self, name):
        method = getattr(self._target, name)
        return lambda *args, **kwargs: self._observe(method, *args, **kwargs)


class _Node:
    """One node agent with one worker, as a generator over the queue."""

    def __init__(self, world: "_World", name: str, fault=None) -> None:
        self.world, self.name, self.fault = world, name, fault
        self.epoch = 0
        self._beat(alive=True)
        self._steps = self._run()
        self.label = next(self._steps)

    def _beat(self, alive: bool) -> None:
        """A live node beats on time whenever the coordinator looks; a
        crashed or frozen one has been silent for longer than the lease
        (nothing happens to its claims before that)."""
        self.alive = alive
        self.world.queue.write_beat(self.name, {
            "ts": self.world.clock.now + (1e6 if alive else -2 * LEASE_S),
            "epoch": self.epoch, "tasks": [], "segments": [], "done": False,
            "stale_rejections": self.world.node_rejections.count(self.name)})

    def enabled(self) -> bool:
        if self.label is None:  # crashed
            return False
        if self.label[0] != "idle":
            return True
        queue = self.world.real_queue
        return any(not queue.is_done(t) for t in queue.pending())

    def step(self) -> None:
        self.label = next(self._steps, None)

    def _pause(self, after: str, label: tuple):
        """The gap after one step, where the scenario's fault strikes:
        True when the node died in it."""
        if self.fault is None or self.fault[1] != after:
            yield label
            return False
        kind, self.fault = self.fault[0], None
        self._beat(alive=False)
        if kind == "crash":
            return True
        yield ("frozen", *label)
        self._beat(alive=True)  # woke: beats resume, the old lease does not
        return False

    def _run(self):
        queue, store = self.world.queue, self.world.store
        while True:
            yield ("idle", self.epoch, self.fault)
            # NodeAgent._claim_pending with one idle worker.
            tid = next(t for t in queue.pending() if not queue.is_done(t))
            self.epoch = max(self.epoch, queue.fence_epoch(self.name)) + 1
            claim = queue.take(tid, self.name, self.epoch)
            held = (tid, claim.epoch)
            key = claim.record.cell_key
            if store.outcome(key, False) is not None:  # _resolve_cached
                yield ("cached", *held)
                self._mark(claim, "cached")
            else:
                if (yield from self._pause("take", ("claimed", *held))):
                    return
                # publish_result, step by step.
                if queue.check_fence(self.name, claim.epoch):
                    if (yield from self._pause("check", ("live", *held))):
                        return
                    store.save(key, (self.name, claim.epoch))
                    if (yield from self._pause("store", ("stored", *held))):
                        return
                    self._mark(claim, "ok")
                else:
                    self.world.node_rejections.append(self.name)
            if (yield from self._pause("done", ("letting-go", *held))):
                return
            queue.drop_claim(claim)

    def _mark(self, claim, status: str) -> None:
        self.world.queue.mark_done(claim.task_id, {
            "status": status, "node": self.name, "epoch": claim.epoch,
            "source": "cache" if status == "cached" else "run",
            "failure_kind": None})


class _World:
    """One execution: a queue, a store, two nodes and the coordinator.

    The actors reach the queue and the store through a tape. A call is
    made and its result logged; an execution that starts from a walked
    prefix is given that prefix's tape and answers from it instead, so
    replaying the prefix rebuilds every actor — generators, the real
    coordinator's books — without touching a file, and ``resume`` then
    puts the files and the store where the prefix left them.
    """

    PLAN = ExperimentMatrix(DQ_PROFILE).corpus_runs()[:2]

    def __init__(self, root, clock, fault, tape=()) -> None:
        self.clock = clock
        clock.now = clock.base
        self.tape, self._cursor = list(tape), 0
        self.real_queue = DistributedQueue(root)
        self.real_store = _Store()
        self.vault = Path(root).with_name("vault")
        if not tape:  # the one execution that starts from nothing
            self.real_queue.ensure_layout()
            self.vault.mkdir(exist_ok=True)
            for entry in self._entries():
                os.unlink(entry.path)
        self._shape = None
        self.queue = _Taped(self.real_queue, self.observe)
        self.store = _Taped(self.real_store, self.observe)
        self.node_rejections: list = []  # publishes refused at the node
        self.collected: list = []
        self.corpus = _Corpus(self._on_collect)
        self.coordinator = co = Coordinator(
            queue=self.queue, plan=self.PLAN, profile=DQ_PROFILE,
            store=self.store, corpus=self.corpus, workers=1,
            options=BuildOptions(lease_timeout_s=LEASE_S,
                                 max_lease_expiries=4))
        co.local_node = "coordinator"
        co._enqueue_plan()
        self.tasks = [r.task_id for r in co._records]
        self.nodes = [_Node(self, "A", fault), _Node(self, "B")]
        self._coordinating = self._coordinate()
        self.co_label = next(self._coordinating)

    # -- the tape -------------------------------------------------------
    def observe(self, fn, *args, **kwargs):
        if self._cursor < len(self.tape):
            result = self.tape[self._cursor]
        else:
            result = fn(*args, **kwargs)
            self.tape.append(result)
        self._cursor += 1
        return result

    def snapshot(self) -> tuple:
        """(tape, files, store) at this point of the schedule. A file
        is kept by hard link: the queue replaces and unlinks its files,
        never rewrites one, so the link keeps that generation."""
        files = {}
        for entry in self._entries():
            kept = self.vault / str(entry.inode())
            if not kept.exists():
                os.link(entry.path, kept)
            files[entry.path] = entry.inode()
        return tuple(self.tape), files, dict(self.real_store.entries)

    def resume(self, files: dict, store: dict) -> None:
        """The prefix is replayed; put the files and the store where it
        left them (touching only what differs). From here on calls are
        real."""
        assert self._cursor == len(self.tape), "replay strayed from its tape"
        here = set()
        for entry in self._entries():
            if files.get(entry.path) == entry.inode():
                here.add(entry.path)
            else:
                os.unlink(entry.path)
        for path, inode in files.items():
            if path not in here:
                os.link(self.vault / str(inode), path)
        self.real_store.entries = dict(store)
        self._shape = None

    def _entries(self):
        queue = self.real_queue
        for sub in (queue.tasks_dir, queue.claims_dir, queue.done_dir,
                    queue.nodes_dir, queue.fences_dir):
            yield from os.scandir(sub)

    # -- the coordinator actor ----------------------------------------
    def _coordinate(self):
        co = self.coordinator
        while True:
            yield "supervise"
            self.clock.now += ROUND_S
            before = self.observe(self.shape)
            co._supervise()
            self._shape = None
            yield "collect"
            co._collect()
            self._shape = None
            self.observe(self._check_rest, before)

    def _on_collect(self, run) -> None:
        task_id = self.tasks[self.corpus.n_collected]
        marker = self.queue.read_done(task_id)
        if marker is None:
            # Replayed from the store alone: no marker to judge.
            assert run.source == "cache"
        elif marker["status"] != "quarantined":
            assert self.queue.check_fence(marker["node"], marker["epoch"]), (
                f"{task_id} collected through the fenced marker of "
                f"{marker['node']}@{marker['epoch']}")
        self.collected.append(task_id)

    def _check_rest(self, before: tuple) -> None:
        """When a whole coordinator round changed nothing and no node
        can move, nothing ever will: every cell must be in."""
        if self.shape() != before or any(n.enabled() for n in self.nodes):
            return
        assert self.collected == self.tasks, (
            f"lost task: collected {self.collected} of {self.tasks}")
        assert not os.listdir(self.real_queue.claims_dir), "claim litter"

    # -- scheduling ---------------------------------------------------
    def enabled(self) -> "list[str]":
        # The coordinator polls, so it can always move; the memo of
        # walked states is what ends a schedule.
        return [n.name for n in self.nodes if n.enabled()] + ["C"]

    def step(self, who: str) -> None:
        if who == "C":
            self.co_label = next(self._coordinating)
        else:
            self.nodes["AB".index(who)].step()
            self._shape = None

    # -- state --------------------------------------------------------
    def shape(self) -> tuple:
        """Everything an actor's next step can depend on, bar the
        actors' own positions (read once per step)."""
        if self._shape is None:
            self._shape = self._read_shape()
        return self._shape

    def _read_shape(self) -> tuple:
        queue, co = self.real_queue, self.coordinator
        pending = sorted(os.listdir(queue.tasks_dir))
        claims = sorted(os.listdir(queue.claims_dir))
        for task_id in self.tasks:
            owners = [name for name in pending + claims
                      if name.startswith(task_id)]
            assert len(owners) <= 1, f"{task_id} owned twice: {owners}"
        markers = [read_json_object(queue.done_dir / name)
                   for name in sorted(os.listdir(queue.done_dir))]
        return (
            tuple(pending), tuple(claims),
            tuple((m["task_id"], m["node"], m["epoch"], m["status"])
                  for m in markers),
            tuple(sorted((name, queue.fence_epoch(name[:-len(".json")]))
                         for name in os.listdir(queue.fences_dir))),
            tuple(sorted(self.real_store.entries)),
            tuple(n.alive for n in self.nodes),
            tuple(s.requeues for s in co._tasks.values()),
            tuple(sorted(co._lost_nodes)), self.corpus.n_collected,
        )

    def signature(self) -> tuple:
        return (self.shape(), self.co_label,
                tuple(n.label for n in self.nodes))


def _explore(make_world) -> "tuple[int, int]":
    """Walk every schedule depth-first; returns (states walked,
    executions)."""
    seen: set = set()
    # (walked prefix, the snapshot where it ends, the step to take next)
    stack: "list[tuple]" = [((), make_world(()).snapshot(), None)]
    executions = 0
    while stack:
        trail, (tape, files, store), who = stack.pop()
        trail = list(trail)
        executions += 1
        try:
            world = make_world(tape)
            for walked in trail:
                world.step(walked)
            world.resume(files, store)
            while True:
                if who is not None:
                    trail.append(who)
                    world.step(who)
                state = world.signature()
                if state in seen:
                    break
                seen.add(state)
                assert len(trail) < MAX_STEPS, "schedule does not end"
                who, *others = world.enabled()
                if others:
                    here = world.snapshot()
                    stack.extend((tuple(trail), here, o) for o in others)
        except AssertionError as exc:
            pytest.fail(f"{exc}\nschedule: {' '.join(trail)}")
    return len(seen), executions


@pytest.fixture
def make_world(tmp_path, monkeypatch):
    clock = SimpleNamespace(base=time.time(), now=0.0)
    monkeypatch.setattr(distqueue, "time", SimpleNamespace(
        time=lambda: clock.now, monotonic=lambda: clock.now))

    def make(fault, tape=()):
        return _World(tmp_path / "queue", clock, fault, tape)
    return make


SCENARIOS = [None] + [(kind, after) for kind in ("crash", "freeze")
                      for after in FAULT_AFTER]


@pytest.mark.parametrize(
    "fault", SCENARIOS,
    ids=lambda f: "no-fault" if f is None else f"{f[0]}-after-{f[1]}")
def test_every_interleaving_collects_each_cell_once(make_world, fault):
    states, executions = _explore(lambda tape: make_world(fault, tape))
    # A model that stopped branching would pass vacuously.
    assert states > 100 and executions > 50


def test_model_publishes_in_publish_result_order(tmp_path):
    """The node actor spells ``publish_result`` step by step; this pins
    the order it copies."""
    calls = []
    queue = DistributedQueue(tmp_path / "queue")
    queue.ensure_layout()

    def observe(fn, *args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    record = TaskRecord.for_planned(_World.PLAN[0], DQ_PROFILE)
    run = SimpleNamespace(trace=SimpleNamespace(degraded=False),
                          failure=None)
    assert publish_result(_Taped(queue, observe), _Taped(_Store(), observe),
                          "n1", 1, record, run)
    assert calls == ["check_fence", "save", "mark_done"]
