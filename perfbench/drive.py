"""Drive one trace through a simulated cell, through public entry points
only: build the cell, populate it, replay the trace, restart the cell,
and check everything against the benchmark's model."""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import NfsError, NfsStat
from repro.net import NetConfig
from repro.testbed import build_cluster

from perfbench import tracegen as tg
from perfbench.model import Model, WrongResult
from perfbench.workloads import Workload

_STATUS = {v: k for k, v in vars(NfsStat).items() if k.startswith("ERR_")}


def error_type(exc: NfsError) -> str:
    """The name a failed operation is counted under (``ERR_IO`` ...)."""
    return _STATUS.get(exc.status, f"status{exc.status}")


@dataclass
class Outcome:
    """What one replay produced."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)      # error type -> n
    failed_paths: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    read_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    #: CPU the benchmark spent on its own work inside the timed replay
    #: (making payloads, checking results, calibrating the host)
    own_cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)   # the first few

    def fail(self, path: str, exc: NfsError, what: str = "check") -> None:
        self.failed[error_type(exc)] += 1
        self.failed_paths[path] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what} {path}: {error_type(exc)} {exc}")


def build(w: Workload, seed: int, state_dir: str, traced: bool):
    """A fresh cell for ``w`` on the scale profile of
    ``repro.testbed.build_scale_cluster`` (failure detector and merge
    audit periods stretched with cell size; ring-scattered mounts unless
    the workload keeps every agent on s0), on the workload's backend.
    ``traced`` arms the request tracer and per-tag message counters."""
    fd_ms = max(50.0, w.n_servers * 4.0)
    kwargs = dict(
        n_servers=w.n_servers, n_agents=w.n_agents, seed=seed,
        fd_interval_ms=fd_ms, fd_timeout_ms=4 * fd_ms,
        merge_audit_interval_ms=max(2000.0, w.n_servers * 250.0),
        scatter_agents=w.scatter_agents, backend=w.backend)
    if w.backend != "memory":
        shutil.rmtree(state_dir, ignore_errors=True)
        kwargs["storage_dir"] = state_dir
    if traced:
        kwargs.update(tracing=True, net_config=NetConfig(tag_metrics=True))
    return build_cluster(**kwargs)


def population(trace: tg.Trace) -> tg.Trace:
    """The trace with its population cut to what the simulator's own
    replay (``repro.workloads.replay``) would create for the same
    operations: the directories they name and the files they touch
    (other than by create/remove)."""
    dirs: set[str] = set()
    touched: set[str] = set()
    for op in trace.ops:
        if op.kind == tg.READDIR:
            dirs.add(op.path)
            continue
        dirs.add(op.path.rsplit("/", 1)[0])
        if op.kind not in (tg.CREATE, tg.REMOVE):
            touched.add(op.path)
    return tg.Trace(files={p: s for p, s in trace.files.items()
                           if p in touched},
                    dirs=sorted(dirs), ops=trace.ops)


async def populate(cluster, w: Workload, model: Model) -> None:
    """Create every directory and file through agent 0, filling each file
    with its seq-0 payload after setting the workload's file parameters
    (so stripes are made with them)."""
    agent = cluster.agents[0]
    await agent.mount()
    for dirpath in sorted(model.dirs):
        await agent.mkdir("/", dirpath.lstrip("/"))
    for path in sorted(model.files):
        parent, _s, name = path.rpartition("/")
        await agent.create(parent, name)
        if w.file_params:
            await agent.set_params(path, **dict(w.file_params))
        await agent.write_file(path, model.files[path].fill.data)


async def _run_op(agent, op: tg.Op, data: bytes | None):
    kind = op.kind
    if kind == tg.GETATTR:
        return await agent.getattr(op.path)
    if kind == tg.LOOKUP:
        return await agent.lookup_path(op.path)
    if kind == tg.READ:
        return await agent.read_file(op.path)
    if kind == tg.READ_RANGE:
        return await agent.read_at(op.path, op.offset, op.size)
    if kind == tg.WRITE:
        return await agent.write_file(op.path, data)
    if kind == tg.WRITE_RANGE:
        return await agent.write_at(op.path, op.offset, data)
    parent, _s, name = op.path.rpartition("/")
    if kind == tg.CREATE:
        return await agent.create(parent, name)
    if kind == tg.REMOVE:
        return await agent.remove(parent, name)
    if kind == tg.READDIR:
        return await agent.readdir(op.path)
    raise ValueError(f"unknown op kind {kind!r}")


async def replay(cluster, ops: list[tg.Op], model: Model,
                 out: Outcome) -> None:
    """Each client issues its operations in trace order at their trace
    times (behind its own previous operation when that runs late: one
    closed loop per client).  Latency is the virtual time around the
    agent call.  Making a write's contents and checking a result are
    benchmark work: their CPU time is kept in ``out.own_cpu_s``."""
    kernel = cluster.kernel
    agents = cluster.agents
    start = kernel.now
    by_client: dict[int, list[tg.Op]] = {}
    for op in ops:
        by_client.setdefault(op.client % len(agents), []).append(op)

    async def client(index: int) -> None:
        agent = agents[index]
        for op in by_client[index]:
            due = start + op.at_ms
            if kernel.now < due:
                await kernel.sleep(due - kernel.now)
            c0 = time.process_time()
            data = (tg.payload(op.path, op.seq, op.size)
                    if op.kind in (tg.WRITE, tg.WRITE_RANGE) else None)
            out.own_cpu_s += time.process_time() - c0
            t0 = kernel.now
            token = model.issue(op, t0)
            out.attempted += 1
            try:
                result = await _run_op(agent, op, data)
            except NfsError as exc:
                model.outcome(op, token, False, kernel.now)
                out.fail(op.path, exc, f"{op.kind} by c{op.client}")
                continue
            t1 = kernel.now
            model.outcome(op, token, True, t1)
            (out.read_ms if op.kind in tg.READ_CLASS
             else out.write_ms).append(t1 - t0)
            c0 = time.process_time()
            try:
                model.check(op, result, t0, t1)
            except WrongResult as exc:
                out.wrong.append(f"{op.kind} by c{op.client}: {exc}")
            out.own_cpu_s += time.process_time() - c0

    tasks = [kernel.spawn(client(i)) for i in sorted(by_client)]
    await kernel.all_of(tasks)
    await cluster.drain_agents()


async def first_contact(agent, path: str) -> None:
    """What a user does first after the restart: mount, then stat."""
    await agent.mount()
    await agent.getattr(path)


async def verify(agent, model: Model, out: Outcome) -> None:
    """After the restart: every file holds its last acked write (or a
    later one that failed) and every directory lists the model's names.
    A check that errors counts as one more attempted and failed
    operation; one that succeeds is not counted, so every seed attempts
    the same number of operations."""
    for dirpath in sorted(model.dirs):
        try:
            listing = await agent.readdir(dirpath)
        except NfsError as exc:
            out.attempted += 1
            out.fail(dirpath, exc)
            continue
        names = {e["name"] for e in listing} - {".", ".."}
        must, may = model.final_names(dirpath)
        if not must <= names <= may:
            out.wrong.append(
                f"after restart {dirpath}: missing {sorted(must - names)}, "
                f"unexpected {sorted(names - may)}")
    for path in model.live_files():
        try:
            data = await agent.read_file(path)
        except NfsError as exc:
            out.attempted += 1
            out.fail(path, exc)
            continue
        if not model.final_ok(path, data):
            out.wrong.append(f"after restart {path}: not its last acked "
                             f"write")
