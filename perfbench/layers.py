"""Per-layer attribution, measured from outside the program.

- :class:`LayerTracer` is a :class:`repro.obs.tracer.Tracer` that keeps
  every span (none falls off a ring) and folds them into per-layer
  virtual time: self time for the nesting layers, total time for the
  leaf ``disk`` and ``net`` spans.
- :func:`self_time_by_package` reads a :mod:`cProfile` run and charges
  each function's own time to the ``repro`` package it lives in; time in
  builtins and the standard library goes to the package that called it.
"""

from __future__ import annotations

import pstats
from collections import defaultdict

from repro.obs.tracer import LAYERS, Tracer

#: Packages reported, most specific first (``core.pipeline`` before
#: ``core``).  Paths are matched below ``src/repro/``.
PACKAGES = ("core.pipeline", "core.placement", "core.striping", "core",
            "sim", "net", "isis", "nfs", "agent", "storage", "metrics")
_PREFIXES = [(p, "/src/repro/" + p.replace(".", "/") +
              (".py" if p == "metrics" else "/")) for p in PACKAGES]


class LayerTracer(Tracer):
    """A tracer that keeps all spans, grouped by trace id."""

    def __init__(self) -> None:
        super().__init__(capacity=1)
        self.by_trace: dict[int, list[tuple[float, float, int]]] = \
            defaultdict(list)

    def record(self, trace_id: int, start: float, end: float,
               layer: str, label: str) -> None:
        depth = LAYERS.index(layer) if layer in LAYERS else len(LAYERS)
        self.by_trace[trace_id].append((start, end, depth))

    def layer_ms(self) -> dict[str, float]:
        """Virtual ms per layer summed over all traces: self time for
        ``agent``/``rpc``/``pipeline`` (span minus the part its deeper or
        nested spans cover), whole span time for ``disk`` and ``net``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for spans in self.by_trace.values():
            for i, (s, e, depth) in enumerate(spans):
                if depth >= len(LAYERS):
                    continue
                layer = LAYERS[depth]
                if layer in ("disk", "net"):
                    out[layer] += e - s
                    continue
                inner = [(max(s, s2), min(e, e2))
                         for j, (s2, e2, d2) in enumerate(spans)
                         if j != i and (d2 > depth or (
                             d2 == depth and s <= s2 and e2 <= e
                             and (s2, e2) != (s, e)))
                         and s2 < e and e2 > s]
                out[layer] += (e - s) - _union(inner)
        return out


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def _package(filename: str) -> str | None:
    for name, prefix in _PREFIXES:
        if prefix in filename:
            return name
    return None


def self_time_by_package(stats: pstats.Stats) -> tuple[dict[str, float], float]:
    """(own seconds per package, total seconds profiled).

    Functions outside ``repro`` (builtins, the standard library, the
    benchmark itself) have no package of their own: their time is split
    over their callers in proportion to the time each caller's calls
    spent there, recursively, so ``list.sort`` called from ``sim`` counts
    as ``sim``.  Time that reaches no ``repro`` package (the benchmark's
    own loop) is left out of every package but kept in the total.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    shares: dict = {}

    def share(func) -> dict[str, float]:
        if func in shares:
            return shares[func]
        pkg = _package(func[0])
        if pkg is not None or func not in table:
            shares[func] = {pkg: 1.0} if pkg else {}
            return shares[func]
        shares[func] = {}      # a call cycle back here adds nothing
        callers = table[func][4]
        weight = sum(v[2] for v in callers.values())
        result: dict[str, float] = defaultdict(float)
        for caller, v in callers.items():
            if weight > 0 and v[2] > 0:
                for name, frac in share(caller).items():
                    result[name] += frac * v[2] / weight
        shares[func] = dict(result)
        return shares[func]

    own: dict[str, float] = dict.fromkeys(PACKAGES, 0.0)
    total = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        total += tt
        for name, frac in share(func).items():
            own[name] += tt * frac
    return own, total
