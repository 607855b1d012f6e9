"""The model the benchmark keeps of what the cell should hold.

The model is fed by the trace as it is issued (:meth:`Model.issue`) and
by the outcome of every operation (:meth:`Model.outcome`).  A result is
judged against it the moment the operation completes, so "issued before
this read completed" is exactly "already in the model".

What counts as correct:

- a read returns, byte by byte, what some write issued to that path put
  at that position, or the initial fill (whole-file images of files that
  only ever see whole-file writes are compared whole);
- a getattr reports a length some issued write (or the fill) produced;
- a readdir lists every name that was surely there and no name that was
  surely gone, allowing the agent's attribute-cache staleness
  (:data:`STALE_MS`, the agent's default TTL) for other clients' changes;
- after the cell restarts, a file holds its last acked write or a later
  write that failed, and a directory lists exactly the model's names
  (names whose create or remove failed may be either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from perfbench import tracegen as tg

#: Staleness a readdir may show for other clients' creates and removes:
#: the agent's default attribute/readdir cache TTL (``AgentConfig``).
STALE_MS = 3000.0


class WrongResult(AssertionError):
    """A successful operation returned something the model rules out."""


@dataclass
class _Write:
    """One issued write.  Its bytes are kept only for the initial fill;
    a write's are made again from (path, seq, size) when a check needs
    them, so the model stays small beside the cell it checks."""

    path: str
    seq: int
    offset: int
    size: int
    truncate: bool
    acked: bool | None = None      # None while in flight
    kept: bytes | None = None

    @property
    def data(self) -> bytes:
        if self.kept is not None:
            return self.kept
        return tg.payload(self.path, self.seq, self.size)


@dataclass
class _File:
    fill: _Write
    writes: list[_Write] = field(default_factory=list)
    ranged: bool = False
    #: the contents once every issued write has landed, in issue order
    #: (kept once the file sees a range write: most reads match it)
    image: bytearray | None = None
    #: every length the file has had: the fill's, then after each write
    sizes: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.sizes.add(self.fill.size)

    def add(self, w: _Write) -> None:
        """Record an issued write."""
        self.writes.append(w)
        if not w.truncate and not self.ranged:
            self.ranged = True
            for earlier in self.writes[:-1]:
                self.apply(earlier)
        if self.ranged:
            self.apply(w)
        self.sizes.add(len(self.image) if self.ranged else w.size)

    def current(self) -> bytes:
        return self.fill.data if self.image is None else bytes(self.image)

    def apply(self, w: _Write) -> None:
        if self.image is None:
            self.image = bytearray(self.fill.data)
        if w.truncate:
            self.image[:] = w.data
            return
        end = w.offset + w.size
        if end > len(self.image):
            self.image.extend(bytes(end - len(self.image)))
        self.image[w.offset:end] = w.data


@dataclass
class _Name:
    created_at: float | None = None     # create issued (None: population)
    create_acked: float | None = None
    create_failed: bool = False
    removed_at: float | None = None     # remove issued
    remove_acked: float | None = None
    remove_failed: bool = False


def _header_seq(path: str, data: bytes) -> int | None:
    head = f"{path}#".encode()
    end = data.find(b"\n", len(head), len(head) + 12)
    if not data.startswith(head) or end < 0:
        return None
    try:
        return int(data[len(head):end])
    except ValueError:
        return None


def first_mismatch(data: bytes, offset: int,
                   writes: Iterable[_Write]) -> int | None:
    """First position of ``data`` (read at ``offset``) whose byte none of
    ``writes`` put there; None when every byte matches.  Writes are taken
    in order and the scan stops once all bytes are covered, so listing
    the newest write first keeps the usual case to one or two writes;
    only writes that overlap the range are made again."""
    got = np.frombuffer(data, dtype=np.uint8)
    ok = np.zeros(len(got), dtype=bool)
    for w in writes:
        lo = max(offset, w.offset)
        hi = min(offset + len(got), w.offset + w.size)
        if lo >= hi:
            continue
        want = np.frombuffer(w.data, dtype=np.uint8, count=hi - lo,
                             offset=lo - w.offset)
        ok[lo - offset:hi - offset] |= got[lo - offset:hi - offset] == want
        if ok.all():
            return None
    if ok.all():
        return None
    return int(np.flatnonzero(~ok)[0]) + offset


class Model:
    """Expected contents of every file and directory the trace touches."""

    def __init__(self, trace: tg.Trace):
        self.files: dict[str, _File] = {
            path: _File(fill=_Write(path, 0, 0, max(64, size), True, True,
                                    tg.payload(path, 0, max(64, size))))
            for path, size in trace.files.items()
        }
        self.dirs: dict[str, dict[str, _Name]] = {d: {} for d in trace.dirs}
        for path in trace.files:
            parent, _s, name = path.rpartition("/")
            self.dirs[parent][name] = _Name()
        self.user_bytes = 0

    # -- feeding --------------------------------------------------------- #

    def issue(self, op: tg.Op, now: float):
        """Record an operation as issued; returns a token for its outcome."""
        if op.kind in (tg.WRITE, tg.WRITE_RANGE):
            w = _Write(op.path, op.seq, op.offset, op.size,
                       truncate=op.kind == tg.WRITE)
            self.files[op.path].add(w)
            self.user_bytes += op.size
            return w
        if op.kind == tg.CREATE:
            parent, _s, name = op.path.rpartition("/")
            entry = self.dirs[parent][name] = _Name(created_at=now)
            self.files[op.path] = _File(fill=_Write(op.path, 0, 0, 0, True,
                                                    True))
            return entry
        if op.kind == tg.REMOVE:
            parent, _s, name = op.path.rpartition("/")
            entry = self.dirs[parent][name]
            entry.removed_at = now
            return entry
        return None

    @staticmethod
    def outcome(op: tg.Op, token, ok: bool, now: float) -> None:
        """Record how an issued operation ended."""
        if token is None:
            return
        if isinstance(token, _Write):
            token.acked = ok
        elif op.kind == tg.CREATE:
            if ok:
                token.create_acked = now
            else:
                token.create_failed = True
        elif ok:
            token.remove_acked = now
        else:
            token.remove_failed = True

    # -- checks during the run ------------------------------------------ #

    def check(self, op: tg.Op, result, start: float, end: float) -> None:
        """Raise :class:`WrongResult` when a successful op's result is
        ruled out by the model."""
        kind = op.kind
        if kind == tg.READ:
            self._check_bytes(op.path, result, 0, whole=True)
        elif kind == tg.READ_RANGE:
            sizes = self.files[op.path].sizes
            if len(result) not in {max(0, min(op.size, n - op.offset))
                                   for n in sizes}:
                raise WrongResult(f"{op.path}: ranged read returned "
                                  f"{len(result)} of {op.size} bytes")
            self._check_bytes(op.path, result, op.offset, whole=False)
        elif kind == tg.GETATTR:
            if result.size not in self.files[op.path].sizes:
                raise WrongResult(f"{op.path}: getattr size {result.size} "
                                  f"not produced by any write")
        elif kind == tg.READDIR:
            self._check_listing(op.path, {e["name"] for e in result},
                                start, end)

    def _check_bytes(self, path: str, data: bytes, offset: int,
                     whole: bool) -> None:
        f = self.files[path]
        if whole and len(data) not in f.sizes:
            raise WrongResult(f"{path}: read {len(data)} bytes, a length "
                              f"no write produced")
        if whole and not f.ranged:
            # the header names the write; that one write must match whole
            seq = _header_seq(path, data)
            w = f.fill if seq == 0 else next(
                (w for w in f.writes if w.seq == seq), None)
            if w is None or data != w.data:
                raise WrongResult(f"{path}: read matches no write issued "
                                  f"to it")
            return
        image = f.current()
        if data == image[offset:offset + len(data)]:
            return
        current = _Write(path, -1, 0, len(image), True, True, image)
        bad = first_mismatch(data, offset,
                             [current, *reversed(f.writes), f.fill])
        if bad is not None:
            raise WrongResult(f"{path}: byte {bad} matches no write "
                              f"issued to it")

    def _check_listing(self, dirpath: str, names: set[str], start: float,
                       end: float) -> None:
        horizon = start - STALE_MS
        for name, e in self.dirs[dirpath].items():
            surely_there = (
                (e.created_at is None or (e.create_acked is not None
                                          and e.create_acked <= horizon))
                and (e.removed_at is None or e.removed_at > end))
            surely_gone = (
                (e.created_at is not None and e.created_at > end)
                or (e.remove_acked is not None and e.remove_acked <= horizon))
            if surely_there and name not in names:
                raise WrongResult(f"readdir {dirpath}: {name} missing")
            if surely_gone and name in names:
                raise WrongResult(f"readdir {dirpath}: {name} listed but gone")
        unknown = names - set(self.dirs[dirpath]) - {".", ".."}
        if unknown:
            raise WrongResult(f"readdir {dirpath}: unknown {sorted(unknown)}")

    # -- checks after restart ------------------------------------------- #

    def final_ok(self, path: str, data: bytes) -> bool:
        """Whether ``data`` may be the file's contents once the cell has
        drained: its last acked write, or a later write that failed."""
        f = self.files[path]
        if not f.ranged:
            valid = [f.fill]
            for w in f.writes:
                valid = [w] if w.acked else valid + [w]
            return any(data == w.data for w in valid)
        final = _File(fill=f.fill)
        failed = []
        for w in f.writes:
            if w.acked:
                final.apply(w)
            else:
                failed.append(w)
        image = final.current()
        if not failed:
            return data == image
        acked = _Write(path, -1, 0, len(image), True, True, image)
        return first_mismatch(data, 0, [*reversed(failed), acked]) is None

    def final_names(self, dirpath: str) -> tuple[set[str], set[str]]:
        """(names that must be listed, names that may be listed)."""
        must, may = set(), set()
        for name, e in self.dirs[dirpath].items():
            created = e.created_at is None or e.create_acked is not None
            removed = e.remove_acked is not None
            unsure = e.create_failed or e.remove_failed
            if created and not removed and not unsure:
                must.add(name)
            if (created and not removed) or unsure:
                may.add(name)
        return must, may

    def live_files(self) -> list[str]:
        """Files that should exist once the trace has run (sorted)."""
        out = []
        for dirpath in sorted(self.dirs):
            must, _may = self.final_names(dirpath)
            out.extend(f"{dirpath}/{name}" for name in sorted(must))
        return out
