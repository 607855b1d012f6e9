"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hotspot-64 --seed 42 --seconds 3 --trace 0

Run from the repository root (the simulator is imported from ``src/``).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics, from a traced and profiled
replay set beside an untraced one.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``setup_s`` and ``restart_s`` are medians over repeats: at least
#: ``MIN_REPEATS`` of each, more while they add up to under
#: ``REPEAT_CPU_S`` (small cells set up and restart in a tenth of a
#: second), at most ``MAX_REPEATS``.
MIN_REPEATS = 3
REPEAT_CPU_S = 2.0
MAX_REPEATS = 25
#: Virtual-time ceiling for one replay (a deadlock guard, never reached).
LIMIT_MS = 10_000_000.0
#: The replay runs in slices of this much virtual time, so the host can
#: be calibrated between them (slicing changes no event's order).
SLICE_MS = 250.0
#: Host times are reported in seconds of a host on which
#: :func:`reference_work` takes ``CAL_REF_S`` of CPU (about the 2-core
#: machine the README's figures come from); the calibration is repeated
#: at least every ``CAL_EVERY_S`` of CPU through the run.
CAL_REF_S = 0.05
CAL_EVERY_S = 1.0


def reference_work() -> int:
    """Fixed pure-Python work (no simulator code): calls, dict and str
    traffic, a sort.  Its CPU time tracks how fast this host runs
    interpreter code right now."""
    table: dict[int, int] = {}
    total = 0
    for i in range(120_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += len(str(i))
    return total + sorted(table.values())[0]


class HostClock:
    """How fast the host runs interpreter code, sampled through a run.

    On a shared machine the same work costs up to half again as much CPU
    from one minute to the next (other tenants share caches and cores).
    A calibration taken every second of CPU through the run moves with
    it; scaling every host time by the run's median calibration removes
    most of that drift while leaving any change to the simulator's own
    cost in full view."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def calibrate(self) -> float:
        """Take one sample; returns the CPU seconds it took."""
        c0 = time.process_time()
        reference_work()
        spent = time.process_time() - c0
        self.samples.append(spent)
        self.last = time.process_time()
        return spent

    def due(self) -> float:
        """Calibrate if a second of CPU passed since the last sample;
        returns the CPU seconds spent calibrating (0 when not due)."""
        if time.process_time() - self.last < CAL_EVERY_S:
            return 0.0
        return self.calibrate()

    def scale(self) -> float:
        """Factor from this host's CPU seconds to reference seconds."""
        return CAL_REF_S / statistics.median(self.samples)


@dataclass
class Round:
    """One trace replayed on one fresh cell."""

    ops: int
    setup_s: float
    replay_cpu_s: float
    outcome: object
    counts: dict[str, int]
    events: int
    user_bytes: int
    journal_bytes: int = 0
    layer_ms: dict[str, float] = field(default_factory=dict)
    profile: object = None

    def virtual(self) -> tuple:
        """Everything simulated about the round (must repeat exactly)."""
        counts = {k: v for k, v in self.counts.items()
                  if not k.startswith("net.msgs.tag.")}
        out = self.outcome
        return (self.ops, self.events, sorted(counts.items()),
                out.attempted, sorted(out.failed.items()),
                out.read_ms, out.write_ms)


class CpuTimer:
    """CPU seconds of a ``with`` block.  The collector runs and its
    survivors are frozen first, so its passes inside the block walk only
    what the block allocates, not a heap whose size depends on what ran
    before."""

    def __enter__(self) -> "CpuTimer":
        gc.collect()
        gc.freeze()
        self.start = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.process_time() - self.start
        gc.unfreeze()


def more(samples: list[float]) -> bool:
    """Whether a repeated measurement wants another sample."""
    if len(samples) < MIN_REPEATS:
        return True
    return sum(samples) < REPEAT_CPU_S and len(samples) < MAX_REPEATS


def set_up(w, trace, seed: int, state_dir: str, traced: bool = False):
    """A fresh cell for ``w``, populated: (cluster, model)."""
    from perfbench import drive
    from perfbench.model import Model

    model = Model(trace)
    cluster = drive.build(w, seed, state_dir, traced)
    cluster.run(drive.populate(cluster, w, model), limit=LIMIT_MS)
    return cluster, model


def restart(cluster) -> None:
    """Kill the whole cell, restart it from its backends, and let a fresh
    agent mount and stat the root."""
    from perfbench import drive

    cluster.kill()
    cluster.restart()
    cluster.run(drive.first_contact(cluster.agents[0], "/"), limit=LIMIT_MS)


def run_sliced(kernel, coro, between) -> None:
    """Drive ``coro`` to completion in slices of ``SLICE_MS`` virtual
    time, calling ``between()`` after each.  A slice ends before the
    first event past its bound, so the events run are the same, in the
    same order, as under one ``run_until_complete``."""
    from repro.sim import SimTimeoutError

    task = kernel.spawn(coro)
    end = kernel.now + LIMIT_MS
    while not task.done():
        try:
            kernel.run_until_complete(task,
                                      limit=min(end, kernel.now + SLICE_MS))
        except SimTimeoutError:
            if kernel.now + SLICE_MS > end:
                raise
        between()
    task.result()


def run_round(w, trace, seed: int, state_dir: str, clock: HostClock,
              verify: bool = False, traced: bool = False) -> Round:
    """Set a cell up and replay ``trace``; with ``verify``, then restart
    the whole cell and check its contents against the model."""
    from perfbench import drive
    from perfbench.layers import LayerTracer

    clock.due()
    with CpuTimer() as setup:
        cluster, model = set_up(w, trace, seed, state_dir, traced)
    tracer = profiler = None
    if traced:
        tracer = cluster.tracer = LayerTracer()
        cluster.kernel.set_tracer(tracer)
        profiler = cProfile.Profile()
    out = drive.Outcome()
    before = cluster.metrics.snapshot()
    events0 = cluster.kernel.events_processed
    kernel = cluster.kernel
    clock.due()
    with CpuTimer() as replay:
        if profiler is not None:
            profiler.enable()

        def between() -> None:
            if profiler is None:
                out.own_cpu_s += clock.due()

        run_sliced(kernel, drive.replay(cluster, trace.ops, model, out),
                   between)
        if profiler is not None:
            profiler.disable()
    rnd = Round(ops=len(trace.ops), setup_s=setup.seconds,
                replay_cpu_s=replay.seconds - out.own_cpu_s, outcome=out,
                counts=cluster.metrics.delta(before),
                events=cluster.kernel.events_processed - events0,
                user_bytes=model.user_bytes)
    if w.backend != "memory":
        rnd.journal_bytes = sum(f.stat().st_size
                                for f in Path(state_dir).iterdir())
    if tracer is not None:
        rnd.layer_ms = tracer.layer_ms()
        rnd.profile = pstats.Stats(profiler)
    if verify:
        restart(cluster)
        cluster.run(drive.verify(cluster.agents[0], model, out),
                    limit=LIMIT_MS)
    cluster.close()
    return rnd


def set_up_and_restart(w, trace, seed: int, state_dir: str,
                       clock: HostClock):
    """One (setup_s, restart_s) sample: set a cell up, then restart it.
    The restart is timed on the freshly populated cell, whose durable
    state is the same on every seed."""
    clock.due()
    with CpuTimer() as setup:
        cluster, _model = set_up(w, trace, seed, state_dir)
    clock.due()
    with CpuTimer() as again:
        restart(cluster)
    cluster.close()
    return setup.seconds, again.seconds


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; refuses a tail with fewer than ten
    samples beyond it (that would be no tail)."""
    ordered = sorted(values)
    rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    if p < 100 and len(ordered) - rank - 1 < 10:
        raise RuntimeError(f"p{p:g} of {len(ordered)} samples leaves "
                           f"fewer than 10 beyond it")
    return ordered[rank]


def end_to_end(w, rounds: list[Round], setups: list[float],
               restarts: list[float], scale: float) -> dict:
    first = rounds[0]
    ops = first.ops
    out = first.outcome
    c = first.counts
    return {
        "sim_ops_per_cpu_s": (statistics.median(
            r.ops / (r.replay_cpu_s * scale) for r in rounds), "ops/s"),
        "setup_s": (statistics.median(setups) * scale, "s"),
        "restart_s": (statistics.median(restarts) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "read_p50_ms": (percentile(out.read_ms, 50), "ms"),
        "read_tail_ms": (percentile(out.read_ms, w.tail_read), "ms"),
        "write_p50_ms": (percentile(out.write_ms, 50), "ms"),
        "write_tail_ms": (percentile(out.write_ms, w.tail_write), "ms"),
        "msgs_per_op": (c.get("net.msgs", 0) / ops, "count"),
        "net_bytes_per_op": (c.get("net.bytes", 0) / ops, "bytes"),
        "disk_commits_per_op": (c.get("disk.commits", 0) / ops, "count"),
    }


def per_layer(plain: Round, traced: Round) -> dict:
    from perfbench.layers import PACKAGES, self_time_by_package

    ops = traced.ops
    c = traced.counts

    def get(name: str) -> int:
        return c.get(name, 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    own, total = self_time_by_package(traced.profile)
    cpu_ms_per_op = plain.replay_cpu_s * 1000.0 / ops
    m: dict[str, tuple[float, str]] = {}
    for pkg in PACKAGES:
        m[f"host.{pkg}.self_ms_per_op"] = (
            ratio(own[pkg], total) * cpu_ms_per_op, "ms")
    m["host.trace_overhead_x"] = (
        traced.replay_cpu_s / plain.replay_cpu_s, "x")
    lm = traced.layer_ms
    m["virt.agent.self_ms_per_op"] = (lm["agent"] / ops, "ms")
    m["virt.rpc.self_ms_per_op"] = (lm["rpc"] / ops, "ms")
    m["virt.pipeline.self_ms_per_op"] = (lm["pipeline"] / ops, "ms")
    m["virt.disk.ms_per_op"] = (lm["disk"] / ops, "ms")
    m["virt.net.ms_per_op"] = (lm["net"] / ops, "ms")
    per_op = {
        "sim.events_per_op": traced.events,
        "net.dgram_per_op": get("net.msgs.dgram"),
        "net.heartbeat_per_op": get("net.msgs.tag.heartbeat"),
        "net.rpc_per_op": get("net.msgs.rpc_req"),
        "isis.mcasts_per_op": get("isis.mcasts"),
        "isis.locates_per_op": get("isis.locates"),
        "isis.view_changes_per_op": get("isis.view_changes"),
        "net.bytes_moved_per_op": get("net.bytes_moved"),
        "agent.revalidations_per_op": get("agent.data_cache_revalidations")
        + get("agent.dir_cache_revalidations"),
        "tokens.passes_per_op": get("deceit.token_passes"),
        "pipeline.updates_per_op": get("deceit.updates"),
        "replication.lru_drops_per_op": get("deceit.replicas_lru_dropped"),
        "replication.fetches_per_op": get("deceit.replica_fetches"),
        "nfs.requests_per_op": get("nfs.requests"),
        "nfs.dirops_per_op": get("deceit.dirops"),
        "disk.group_commit_joins_per_op": get("disk.group_commit_joins"),
        "disk.sync_writes_per_op": get("disk.sync_writes"),
    }
    for name, count in per_op.items():
        unit = "bytes" if "bytes" in name else "count"
        m[name] = (count / ops, unit)
    m["agent.data_cache_hit_ratio"] = (ratio(
        get("agent.data_cache_hits"),
        get("agent.data_cache_hits") + get("agent.data_cache_misses")),
        "ratio")
    m["agent.attr_cache_hit_ratio"] = (ratio(
        get("agent.attr_cache_hits"),
        get("agent.attr_cache_hits") + get("nfs.ops.getattr")), "ratio")
    m["pipeline.reads_forwarded_ratio"] = (ratio(
        get("deceit.reads_forwarded"), get("deceit.reads")), "ratio")
    m["pipeline.read_cache_hit_ratio"] = (ratio(
        get("deceit.read_cache_hits"),
        get("deceit.read_cache_hits") + get("deceit.read_cache_misses")),
        "ratio")
    m["replication.loss_detected"] = (
        float(get("deceit.replica_loss_detected")), "count")
    m["disk.records_per_commit"] = (ratio(
        get("disk.commit_records"), get("disk.commits")), "count")
    m["storage.journal_bytes_per_user_byte"] = (ratio(
        plain.journal_bytes, plain.user_bytes), "ratio")
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            state_dir: str) -> dict:
    from perfbench import drive, tracegen
    from perfbench.workloads import FAULT_SEED, WORKLOADS, fault_workload

    w = WORKLOADS[workload]
    mine = drive.population(tracegen.generate(w.mix, seed))
    fault = None
    if w.name == "hotspot-64":
        fault_w, fault_trace = fault_workload()
        fault = (fault_w, drive.population(fault_trace))
    attempted = failed = 0
    clock = HostClock()
    wrong: list[str] = []
    rounds: list[Round] = []
    setups: list[float] = []

    def account(rnd: Round, label: str) -> None:
        nonlocal attempted, failed
        out = rnd.outcome
        attempted += out.attempted
        failed += sum(out.failed.values())
        wrong.extend(out.wrong)
        for path, n in sorted(out.failed_paths.items()):
            print(f"{label}: {n} failed on {path}", file=sys.stderr)
        for line in out.errors:
            print(f"{label}: {line}", file=sys.stderr)

    measured = 0.0
    while True:
        # a round is the fault replay (hotspot-64 only) plus the seeded
        # trace, so every round attempts the same operations
        if fault is not None:
            account(run_round(*fault, FAULT_SEED, state_dir, clock),
                    "fault replay")
        rnd = run_round(w, mine, seed, state_dir, clock, verify=not trace)
        account(rnd, "seeded trace")
        setups.append(rnd.setup_s)
        if rounds and rnd.virtual() != rounds[0].virtual():
            wrong.append("same-seed rounds simulated differently")
        rounds.append(rnd)
        measured += rnd.replay_cpu_s
        if trace or measured >= seconds:
            break
    if trace:
        # the traced replay repeats the round's operations to instrument
        # them; it is checked, but not counted again in attempted/failed
        traced = run_round(w, mine, seed, state_dir, clock, traced=True)
        wrong.extend(traced.outcome.wrong)
        if traced.virtual() != rounds[0].virtual():
            wrong.append("arming the tracer changed the simulation")
        metrics = per_layer(rounds[0], traced)
    else:
        restarts: list[float] = []
        while more(setups) or more(restarts):
            setup_s, restart_s = set_up_and_restart(w, mine, seed, state_dir,
                                                    clock)
            setups.append(setup_s)
            restarts.append(restart_s)
        clock.calibrate()
        metrics = end_to_end(w, rounds, setups, restarts, clock.scale())
    for line in wrong[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes, and with them the layout of every dict and set the
        # simulator builds, change per process by default; that moves host
        # CPU time by several percent between identical runs.  Pin them.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    state_dir = str(ROOT / ".perfbench-state" / f"{args.workload}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), state_dir)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench-state")
        except OSError:
            pass  # another run still uses it, or it was never made
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
