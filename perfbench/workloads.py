"""The three workloads: trace shape, cell shape, and flush policy."""

from __future__ import annotations

from dataclasses import dataclass

from perfbench import tracegen as tg

KB, MB = 1024, 1024 * 1024


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``tail_read`` / ``tail_write`` are the percentiles reported as the
    read- and write-class tails: the highest whole percentile that leaves
    at least 15 samples beyond it at the class's usual count, so that at
    least ten are left on any seed (the run checks this).
    """

    name: str
    n_servers: int
    n_agents: int
    mix: tg.Mix
    backend: str                       # "memory" or "journal" (fsync/commit)
    tail_read: float
    tail_write: float
    #: §4 per-file parameters set on every populated file
    file_params: tuple[tuple[str, int], ...] = ()
    #: agent i mounts server i mod n (else every agent mounts s0)
    scatter_agents: bool = True


#: The §2.3 hotspot shape of ``repro.workloads.hotspot_config``: Zipf(1.2)
#: file popularity over 8 x 12 small files, a 60%-read mix.
HOTSPOT_MIX = dict(
    mean_interarrival_ms=15.0,
    file_zipf_s=1.2,
    op_mix=((tg.GETATTR, 0.15), (tg.LOOKUP, 0.10), (tg.READ, 0.60),
            (tg.WRITE, 0.10), (tg.CREATE, 0.02), (tg.REMOVE, 0.01),
            (tg.READDIR, 0.02)),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="hotspot-64", n_servers=64, n_agents=32, backend="memory",
            mix=tg.Mix(n_clients=32, duration_ms=90_000.0, n_ops=3000,
                       **HOTSPOT_MIX),
            tail_read=99.0, tail_write=98.0),
        Workload(
            name="stream-8", n_servers=8, n_agents=8, backend="memory",
            mix=tg.Mix(
                n_clients=8, duration_ms=400_000.0, n_ops=5000,
                mean_interarrival_ms=150.0,
                n_dirs=2, files_per_dir=3, median_file_bytes=1 * MB,
                min_file_bytes=1 * MB, max_file_bytes=2 * MB,
                op_mix=((tg.GETATTR, 0.10), (tg.LOOKUP, 0.05),
                        (tg.READ_RANGE, 0.30), (tg.WRITE_RANGE, 0.55))),
            tail_read=99.0, tail_write=98.0,
            file_params=(("stripe_size", 256 * KB),),
            # every agent mounts s0, so each stripe's token stays there
            # (see the README on the stale-holder fault)
            scatter_agents=False),
        Workload(
            name="churn-4", n_servers=4, n_agents=8, backend="journal",
            mix=tg.Mix(
                n_clients=8, duration_ms=200_000.0, n_ops=3500,
                mean_interarrival_ms=20.0,
                n_dirs=4, files_per_dir=8,
                op_mix=((tg.CREATE, 0.22), (tg.REMOVE, 0.18),
                        (tg.WRITE, 0.20), (tg.READDIR, 0.15),
                        (tg.READ, 0.10), (tg.GETATTR, 0.10),
                        (tg.LOOKUP, 0.05))),
            tail_read=98.0, tail_write=99.0),
    )
}

#: The named fault's input: the hotspot-64 shape at seed 42 with the
#: simulator generator's rare write sharing kept, replayed to just past
#: the moment the last real replica of ``/dir0/file3`` is dropped.  It
#: does not depend on ``--seed``.
FAULT_SEED = 42
FAULT_MS = 27_000.0


def fault_workload() -> tuple[Workload, tg.Trace]:
    """The fixed-input fault replay kept in every hotspot-64 round."""
    w = WORKLOADS["hotspot-64"]
    mix = tg.Mix(n_clients=32, duration_ms=FAULT_MS, single_writer=False,
                 **HOTSPOT_MIX)
    return w, tg.generate(mix, FAULT_SEED)
