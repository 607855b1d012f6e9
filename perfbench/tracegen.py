"""The benchmark's own trace generator.

The program under test only ever receives the operations this module
produces; nothing here imports it.  Three properties make a trace
checkable against the model in :mod:`perfbench.model`:

- every write (whole-file or ranged) to a file comes from that file's one
  writer client, the first client the draw assigned to it (unless a mix
  asks for the simulator generator's rare write sharing);
- a remove is issued by the client that created the file, after its
  create in trace order, so the two never race;
- every write carries contents unique to it: a header naming the path and
  the write's sequence number, then bytes drawn from an RNG seeded by the
  same pair (:func:`payload`).

The draw sequence follows the simulator's own §2.3 generator
(``repro.workloads.WorkloadGenerator``) step for step, so the hotspot
shape at a seed draws the same operations that ``hotspot_config`` draws
there; only the client of a remove differs, and, unless write sharing
is kept, the client of a shared-write burst.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass

GETATTR = "getattr"
LOOKUP = "lookup"
READ = "read"
WRITE = "write"
CREATE = "create"
REMOVE = "remove"
READDIR = "readdir"
READ_RANGE = "read_range"
WRITE_RANGE = "write_range"

#: Latency classes: these are reads; writes, creates and removes are
#: the write class.
READ_CLASS = frozenset({GETATTR, LOOKUP, READ, READ_RANGE, READDIR})

#: The file population (names and sizes) is drawn at this seed whatever
#: the trace's seed, so ``--seed`` changes what clients do, not which
#: files exist.  The trace's RNG still takes the same draws, keeping its
#: operations aligned with the simulator's generator at that seed.
POPULATION_SEED = 42
#: Writes per burst are 1..BURST; a burst is shared with SHARE_PROB;
#: ranged operations move CHUNK bytes (the simulator generator's values,
#: with the streaming mix's chunk).
BURST = 4
SHARE_PROB = 0.01
CHUNK = 256 * 1024


@dataclass(frozen=True)
class Op:
    """One trace entry.  ``seq`` numbers the writes to ``path`` (1-based)
    and names the payload; ``offset`` matters only for the ranged kinds."""

    at_ms: float
    client: int
    kind: str
    path: str
    size: int = 0
    offset: int = 0
    seq: int = 0


@dataclass(frozen=True)
class Mix:
    """Knobs of one workload's trace (defaults: the §2.3 small-file mix)."""

    n_clients: int
    duration_ms: float
    mean_interarrival_ms: float
    op_mix: tuple[tuple[str, float], ...]
    n_dirs: int = 8
    files_per_dir: int = 12
    median_file_bytes: int = 4096
    min_file_bytes: int = 64
    max_file_bytes: int = 20 * 1024
    #: Zipf(s) popularity over the whole population; None picks a
    #: directory, then a file in it, uniformly
    file_zipf_s: float | None = None
    #: False keeps the simulator generator's rare write sharing: with
    #: probability ``SHARE_PROB`` a burst stays with the client that drew
    #: it instead of going to the file's first writer.
    single_writer: bool = True
    #: When set, the trace is cut to exactly this many operations (the
    #: duration must be long enough to draw them), so every seed attempts
    #: the same number of operations.
    n_ops: int | None = None


@dataclass
class Trace:
    """A generated trace: the initial population and the operations."""

    files: dict[str, int]          # path -> initial size
    dirs: list[str]
    ops: list[Op]


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalised Zipf(s) weights over ranks ``0..n-1``."""
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def generate(mix: Mix, seed: int) -> Trace:
    """Draw the population and the trace for ``seed``."""
    rng = random.Random(seed)
    pop_rng = random.Random(POPULATION_SEED)

    def file_size(draw: random.Random = rng) -> int:
        size = int(draw.lognormvariate(mu=math.log(mix.median_file_bytes),
                                       sigma=0.9))
        return max(mix.min_file_bytes, min(size, mix.max_file_bytes))

    files: dict[str, int] = {}
    dirs: list[str] = []
    for d in range(mix.n_dirs):
        dirs.append(f"/dir{d}")
        for f in range(mix.files_per_dir):
            file_size()
            files[f"/dir{d}/file{f}"] = file_size(pop_rng)
    paths = list(files)
    dir_weights = [1.0] * mix.n_dirs
    file_weights = (zipf_weights(len(paths), mix.file_zipf_s)
                    if mix.file_zipf_s is not None else None)
    kinds = [k for k, _w in mix.op_mix]
    kind_weights = [w for _k, w in mix.op_mix]

    def pick_file() -> str:
        if file_weights is not None:
            return paths[rng.choices(range(len(paths)),
                                     weights=file_weights)[0]]
        d = rng.choices(range(mix.n_dirs), weights=dir_weights)[0]
        return paths[d * mix.files_per_dir + rng.randrange(mix.files_per_dir)]

    ops: list[Op] = []
    writer: dict[str, int] = {}
    seq: dict[str, int] = {}
    creator: dict[str, int] = {}
    removable: list[str] = []

    def next_seq(path: str) -> int:
        seq[path] = seq.get(path, 0) + 1
        return seq[path]

    t = 0.0
    while t < mix.duration_ms:
        t += rng.expovariate(1.0 / mix.mean_interarrival_ms)
        client = rng.randrange(mix.n_clients)
        kind = rng.choices(kinds, weights=kind_weights)[0]
        path = pick_file()
        size = files[path]
        if kind == WRITE:
            who = writer.setdefault(path, client)
            if who != client and (
                    rng.random() >= SHARE_PROB
                    or mix.single_writer):
                client = who
            burst_t = t
            for _n in range(rng.randint(1, BURST)):
                ops.append(Op(burst_t, client, WRITE, path, size,
                              seq=next_seq(path)))
                burst_t += rng.uniform(5.0, 50.0)
            t = burst_t
        elif kind == READ_RANGE:
            pos, scan_t = 0, t
            while pos < size:
                take = min(CHUNK, size - pos)
                ops.append(Op(scan_t, client, kind, path, take, offset=pos))
                pos += take
                scan_t += rng.uniform(1.0, 10.0)
            t = scan_t
        elif kind == WRITE_RANGE:
            who = writer.setdefault(path, client)
            take = min(CHUNK, size)
            limit = max(1, size - take + 1)
            ops.append(Op(t, who, kind, path, take,
                          offset=rng.randrange(limit), seq=next_seq(path)))
        elif kind == READDIR:
            ops.append(Op(t, client, kind, path.rsplit("/", 1)[0]))
        elif kind == CREATE:
            fresh = f"{path}.new{len(ops)}"
            removable.append(fresh)
            creator[fresh] = client
            ops.append(Op(t, client, kind, fresh, file_size()))
        elif kind == REMOVE:
            if not removable:
                ops.append(Op(t, client, GETATTR, path, size))
            else:
                fresh = removable.pop()
                ops.append(Op(t, creator[fresh], kind, fresh))
        else:
            ops.append(Op(t, client, kind, path, size))
    ops.sort(key=lambda op: op.at_ms)
    if mix.n_ops is not None:
        if len(ops) < mix.n_ops:
            raise ValueError(f"seed {seed} drew {len(ops)} operations in "
                             f"{mix.duration_ms} ms, fewer than {mix.n_ops}")
        ops = ops[:mix.n_ops]
    return Trace(files=files, dirs=dirs, ops=ops)


def payload(path: str, seq: int, size: int) -> bytes:
    """The unique contents of write ``seq`` to ``path`` (``seq`` 0 is the
    initial fill): a readable header, then a 4 KB block of random bytes
    seeded by the same pair, repeated."""
    head = f"{path}#{seq}\n".encode()
    if size <= len(head):
        return head[:size]
    rng = random.Random(zlib.crc32(path.encode()) * 1_000_003 + seq)
    body = size - len(head)
    block = rng.randbytes(min(4096, body))
    return head + (block * (body // len(block) + 1))[:body]
